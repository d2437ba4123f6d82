//! Component power models: CPUs (with DVFS), memory, PSU, drives, fans.

use tts_units::{Fraction, Watts};

/// Exponent relating CPU dynamic power to the frequency ratio under DVFS.
///
/// Lowering frequency allows a proportional voltage reduction, so dynamic
/// power scales roughly as `f · V² ≈ (f/f₀)^2.4`. At the paper's
/// 2.4 → 1.6 GHz throttle (ratio 0.667) this cuts dynamic CPU power to 38 %.
pub const DVFS_POWER_EXPONENT: f64 = 2.4;

/// A multi-socket CPU subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Number of populated sockets.
    pub sockets: usize,
    /// Cores per socket (informational; throughput scales with frequency
    /// and utilization, not core count, within one server model).
    pub cores_per_socket: usize,
    /// Idle power per socket (package C-states).
    pub idle_per_socket: Watts,
    /// Fully-loaded power per socket at nominal frequency.
    pub peak_per_socket: Watts,
    /// Nominal frequency, GHz.
    pub nominal_ghz: f64,
    /// Thermal-throttle frequency, GHz (the paper downclocks to 1.6 GHz).
    pub throttle_ghz: f64,
}

tts_units::derive_json! { struct CpuSpec { sockets, cores_per_socket, idle_per_socket, peak_per_socket, nominal_ghz, throttle_ghz } }

impl CpuSpec {
    /// Total CPU power at a utilization and frequency setting.
    ///
    /// `freq` is the operating frequency as a fraction of nominal (1.0 =
    /// nominal, `throttle_ratio()` = throttled). Idle power is
    /// frequency-independent (dominated by leakage and uncore); the dynamic
    /// component scales with utilization and `freq^2.4`.
    pub fn power(&self, utilization: Fraction, freq: Fraction) -> Watts {
        self.power_at(freq)(utilization)
    }

    /// [`Self::power`] at a fixed `freq`, as a function of utilization.
    /// The dynamic range and the DVFS `powf` are computed once; each call
    /// returns the same bits as `power(u, freq)`, which delegates here.
    pub(crate) fn power_at(&self, freq: Fraction) -> impl Fn(Fraction) -> Watts {
        let dynamic_per_socket = (self.peak_per_socket - self.idle_per_socket)
            .value()
            .max(0.0);
        let scale = freq.value().powf(DVFS_POWER_EXPONENT);
        let idle_per_socket = self.idle_per_socket.value();
        let sockets = self.sockets as f64;
        move |utilization| {
            let per_socket = idle_per_socket + dynamic_per_socket * utilization.value() * scale;
            Watts::new(per_socket * sockets)
        }
    }

    /// The throttled frequency as a fraction of nominal.
    pub fn throttle_ratio(&self) -> Fraction {
        Fraction::new(self.throttle_ghz / self.nominal_ghz)
    }
}

/// DRAM subsystem power (uniform access assumption, §3: "memory accesses
/// are approximated as uniform to evenly distribute power across all of the
/// modules").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Number of DIMMs.
    pub dimms: usize,
    /// Idle power per DIMM.
    pub idle_per_dimm: Watts,
    /// Active power per DIMM at full utilization.
    pub peak_per_dimm: Watts,
}

tts_units::derive_json! { struct MemorySpec { dimms, idle_per_dimm, peak_per_dimm } }

impl MemorySpec {
    /// Total DRAM power at a utilization.
    #[inline]
    pub fn power(&self, utilization: Fraction) -> Watts {
        let per = utilization.value().mul_add(
            (self.peak_per_dimm - self.idle_per_dimm).value(),
            self.idle_per_dimm.value(),
        );
        Watts::new(per * self.dimms as f64)
    }
}

/// Power supply efficiency model (the RD330's PSU is "rated at 80 %
/// efficiency idle and 90 % efficiency under load").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsuSpec {
    /// Efficiency at idle load.
    pub efficiency_idle: Fraction,
    /// Efficiency at full load.
    pub efficiency_loaded: Fraction,
}

tts_units::derive_json! { struct PsuSpec { efficiency_idle, efficiency_loaded } }

impl PsuSpec {
    /// Efficiency at a given utilization (linear interpolation).
    #[inline]
    pub fn efficiency(&self, utilization: Fraction) -> Fraction {
        Fraction::new(utilization.value().mul_add(
            (self.efficiency_loaded.value() - self.efficiency_idle.value()).max(-1.0),
            self.efficiency_idle.value(),
        ))
    }

    /// Wall (input) power needed to deliver `internal` watts at the given
    /// utilization.
    #[inline]
    pub fn wall_power(&self, internal: Watts, utilization: Fraction) -> Watts {
        internal / self.efficiency(utilization).value()
    }

    /// Heat dissipated inside the PSU itself at that operating point.
    pub fn loss(&self, internal: Watts, utilization: Fraction) -> Watts {
        self.wall_power(internal, utilization) - internal
    }
}

/// Storage devices (HDD/SSD/optical lumped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrivesSpec {
    /// Idle power of all drives together.
    pub idle: Watts,
    /// Active power of all drives together.
    pub peak: Watts,
}

tts_units::derive_json! { struct DrivesSpec { idle, peak } }

impl DrivesSpec {
    /// Drive power at a utilization.
    #[inline]
    pub fn power(&self, utilization: Fraction) -> Watts {
        Watts::new(
            utilization
                .value()
                .mul_add((self.peak - self.idle).value(), self.idle.value()),
        )
    }
}

/// Chassis fans: electrical power and speed behaviour.
///
/// §3 models fans "as a time-based step function between the idle and
/// loaded speeds"; we drive speed continuously with utilization between the
/// two setpoints, which reduces to the paper's step for a step load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FansSpec {
    /// Number of fans.
    pub count: usize,
    /// Electrical power per fan at full speed (the RD330 carries six 17 W
    /// fans, run far below rated power in practice).
    pub rated_each: Watts,
    /// Fraction of full speed at idle.
    pub idle_speed: Fraction,
    /// Fraction of full speed under load.
    pub loaded_speed: Fraction,
}

tts_units::derive_json! { struct FansSpec { count, rated_each, idle_speed, loaded_speed } }

impl FansSpec {
    /// Fan speed (fraction of full) at a utilization.
    #[inline]
    pub fn speed(&self, utilization: Fraction) -> Fraction {
        Fraction::new(utilization.value().mul_add(
            self.loaded_speed.value() - self.idle_speed.value(),
            self.idle_speed.value(),
        ))
    }

    /// Electrical power of all fans at a utilization (fan power ∝ speed³).
    #[inline]
    pub fn power(&self, utilization: Fraction) -> Watts {
        let s = self.speed(utilization).value();
        Watts::new(self.rated_each.value() * self.count as f64 * s.powi(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    fn rd330_cpu() -> CpuSpec {
        CpuSpec {
            sockets: 2,
            cores_per_socket: 6,
            idle_per_socket: Watts::new(6.0),
            peak_per_socket: Watts::new(46.0),
            nominal_ghz: 2.4,
            throttle_ghz: 1.6,
        }
    }

    #[test]
    fn cpu_power_matches_paper_endpoints() {
        // §3: "CPU power increased by 7.7x from 6 W idle to 46 W per socket".
        let cpu = rd330_cpu();
        assert_eq!(cpu.power(Fraction::ZERO, Fraction::ONE), Watts::new(12.0));
        assert_eq!(cpu.power(Fraction::ONE, Fraction::ONE), Watts::new(92.0));
        let ratio: f64 = 46.0 / 6.0;
        assert!((ratio - 7.67).abs() < 0.1);
    }

    #[test]
    fn throttling_cuts_dynamic_power() {
        let cpu = rd330_cpu();
        let full = cpu.power(Fraction::ONE, Fraction::ONE).value();
        let throttled = cpu.power(Fraction::ONE, cpu.throttle_ratio()).value();
        // Idle component survives; dynamic drops to (2/3)^2.4 ≈ 0.378.
        let expected = 12.0 + 80.0 * (1.6f64 / 2.4).powf(DVFS_POWER_EXPONENT);
        assert!((throttled - expected).abs() < 1e-9);
        assert!(throttled < 0.65 * full);
    }

    #[test]
    fn throttle_ratio_is_two_thirds() {
        assert!((rd330_cpu().throttle_ratio().value() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn psu_efficiency_endpoints_match_rd330() {
        let psu = PsuSpec {
            efficiency_idle: Fraction::new(0.8),
            efficiency_loaded: Fraction::new(0.9),
        };
        // 72 W internal at idle → 90 W wall.
        let wall = psu.wall_power(Watts::new(72.0), Fraction::ZERO);
        assert!((wall.value() - 90.0).abs() < 1e-9);
        // 166.5 W internal at load → 185 W wall.
        let wall = psu.wall_power(Watts::new(166.5), Fraction::ONE);
        assert!((wall.value() - 185.0).abs() < 1e-9);
        assert!((psu.loss(Watts::new(166.5), Fraction::ONE).value() - 18.5).abs() < 1e-9);
    }

    #[test]
    fn fan_speed_interpolates_between_setpoints() {
        let fans = FansSpec {
            count: 6,
            rated_each: Watts::new(17.0),
            idle_speed: Fraction::new(0.4),
            loaded_speed: Fraction::ONE,
        };
        assert_eq!(fans.speed(Fraction::ZERO).value(), 0.4);
        assert_eq!(fans.speed(Fraction::ONE).value(), 1.0);
        // Cubic fan law: idle fan power is tiny.
        let idle_power = fans.power(Fraction::ZERO).value();
        assert!((idle_power - 102.0 * 0.064).abs() < 1e-9);
    }

    #[test]
    fn memory_power_is_linear_in_utilization() {
        let mem = MemorySpec {
            dimms: 10,
            idle_per_dimm: Watts::new(1.0),
            peak_per_dimm: Watts::new(2.5),
        };
        assert_eq!(mem.power(Fraction::ZERO), Watts::new(10.0));
        assert_eq!(mem.power(Fraction::ONE), Watts::new(25.0));
        assert_eq!(mem.power(Fraction::new(0.5)), Watts::new(17.5));
    }

    proptest! {
        #[test]
        fn cpu_power_is_monotone_in_utilization(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
            let cpu = rd330_cpu();
            let p1 = cpu.power(Fraction::new(u1), Fraction::ONE);
            let p2 = cpu.power(Fraction::new(u2), Fraction::ONE);
            if u1 <= u2 {
                prop_assert!(p1.value() <= p2.value() + 1e-12);
            }
        }

        #[test]
        fn wall_power_exceeds_internal(p in 1.0f64..1000.0, u in 0.0f64..1.0) {
            let psu = PsuSpec {
                efficiency_idle: Fraction::new(0.8),
                efficiency_loaded: Fraction::new(0.9),
            };
            let internal = Watts::new(p);
            let wall = psu.wall_power(internal, Fraction::new(u));
            prop_assert!(wall.value() >= internal.value());
            prop_assert!((psu.loss(internal, Fraction::new(u)).value()
                - (wall - internal).value()).abs() < 1e-9);
        }

        #[test]
        fn fan_power_monotone_in_utilization(u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
            let fans = FansSpec {
                count: 4,
                rated_each: Watts::new(12.0),
                idle_speed: Fraction::new(0.3),
                loaded_speed: Fraction::ONE,
            };
            if u1 <= u2 {
                prop_assert!(fans.power(Fraction::new(u1)).value()
                    <= fans.power(Fraction::new(u2)).value() + 1e-12);
            }
        }
    }
}
