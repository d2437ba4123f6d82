//! The three calibrated server specifications (§4.1 of the paper).

use crate::components::{CpuSpec, DrivesSpec, FansSpec, MemorySpec, PsuSpec};
use tts_pcm::ContainerBank;
use tts_units::{
    Celsius, CubicMetersPerSecond, Dollars, Fraction, Liters, Meters, Pascals, SquareMeters, Watts,
};

/// Which of the paper's three datacenter building blocks a spec describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerClass {
    /// 1U low-power commodity server (Lenovo RD330).
    LowPower1U,
    /// 2U high-throughput commodity server (Sun X4470-class).
    HighThroughput2U,
    /// Microsoft Open Compute blade (high density).
    OpenComputeBlade,
}

tts_units::derive_json! { enum ServerClass { LowPower1U, HighThroughput2U, OpenComputeBlade } }

impl ServerClass {
    /// All three classes, in the paper's order.
    pub const ALL: [ServerClass; 3] = [
        ServerClass::LowPower1U,
        ServerClass::HighThroughput2U,
        ServerClass::OpenComputeBlade,
    ];

    /// The spec preset for this class.
    pub fn spec(self) -> ServerSpec {
        match self {
            ServerClass::LowPower1U => ServerSpec::rd330_1u(),
            ServerClass::HighThroughput2U => ServerSpec::x4470_2u(),
            ServerClass::OpenComputeBlade => ServerSpec::open_compute_blade(),
        }
    }
}

impl core::fmt::Display for ServerClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            ServerClass::LowPower1U => "1U low power",
            ServerClass::HighThroughput2U => "2U high throughput",
            ServerClass::OpenComputeBlade => "Open Compute blade",
        };
        f.write_str(s)
    }
}

/// A wax deployment option for a server (§4.1's per-server configurations).
#[derive(Debug, Clone, PartialEq)]
pub struct WaxPlacement {
    /// Human-readable label ("1.2 L, 2 boxes, 70 % blockage").
    pub label: String,
    /// Total wax volume.
    pub volume: Liters,
    /// Number of containers the volume is split across.
    pub containers: usize,
    /// Container footprint along the airflow (length).
    pub box_length: Meters,
    /// Container footprint across the airflow (width).
    pub box_width: Meters,
    /// Airflow blockage the containers add (zero for the Open Compute
    /// configurations, which reuse space occupied by stock inserts).
    pub added_blockage: Fraction,
    /// Whether the boxes are elevated/vertical so both large faces see
    /// airflow (the 2U's suspended boxes, the Open Compute inserts).
    pub elevated: bool,
}

tts_units::derive_json! { struct WaxPlacement { label, volume, containers, box_length, box_width, added_blockage, elevated } }

impl WaxPlacement {
    /// Builds the container bank for this placement.
    pub fn bank(&self) -> ContainerBank {
        if self.elevated {
            ContainerBank::subdivide_elevated(
                self.volume,
                self.containers,
                self.box_length,
                self.box_width,
            )
        } else {
            ContainerBank::subdivide(
                self.volume,
                self.containers,
                self.box_length,
                self.box_width,
            )
        }
    }
}

/// A complete, calibrated server description.
///
/// The electrical model is anchored to the paper's wall-power figures: the
/// residual between the summed component powers and the measured wall
/// targets is lumped into an "other" term (motherboard, LEDs, I/O — the
/// paper lumps these with the CPU sockets), interpolated linearly in
/// utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    /// Descriptive name.
    pub name: String,
    /// Class tag.
    pub class: ServerClass,
    /// CPU subsystem.
    pub cpu: CpuSpec,
    /// Memory subsystem.
    pub memory: MemorySpec,
    /// PSU efficiency.
    pub psu: PsuSpec,
    /// Storage devices.
    pub drives: DrivesSpec,
    /// Whether the drives sit downstream of the CPUs (the Open Compute
    /// blade's rear PCIe SSDs) rather than at the front intake.
    pub drives_downstream: bool,
    /// Chassis fans.
    pub fans: FansSpec,
    /// Wall power at idle (paper-calibrated).
    pub idle_wall: Watts,
    /// Wall power at full load, nominal frequency (paper-calibrated).
    pub peak_wall: Watts,
    /// Purchase price (§4.1 estimates).
    pub price: Dollars,

    // --- Airflow geometry (feeds tts-thermal) ---
    /// Air temperature at the server inlet.
    pub inlet_temp: Celsius,
    /// Duct cross-section at the wax/grille plane.
    pub duct_area: SquareMeters,
    /// Chassis impedance coefficient K₀, Pa/(m³/s)².
    pub base_impedance: f64,
    /// Orifice loss coefficient of the blockage plane.
    pub orifice_zeta: f64,
    /// Per-fan stall pressure.
    pub fan_stall_pressure: Pascals,
    /// Per-fan free-delivery flow.
    pub fan_free_flow: CubicMetersPerSecond,
    /// Fraction of total flow passing through the hot (CPU-exhaust) lane
    /// where the wax sits.
    pub hot_lane_fraction: Fraction,
    /// CPU sink-to-air conductance per socket at the loaded, unblocked
    /// operating point, W/K.
    pub cpu_sink_conductance: f64,

    /// Wax placement options, first entry is the paper's chosen one.
    pub wax_options: Vec<WaxPlacement>,
}

tts_units::derive_json! { struct ServerSpec { name, class, cpu, memory, psu, drives, drives_downstream, fans, idle_wall, peak_wall, price, inlet_temp, duct_area, base_impedance, orifice_zeta, fan_stall_pressure, fan_free_flow, hot_lane_fraction, cpu_sink_conductance, wax_options } }

impl ServerSpec {
    /// The validated 1U Lenovo RD330 (§3, §4.1).
    pub fn rd330_1u() -> Self {
        Self {
            name: "Lenovo RD330 (1U low power)".into(),
            class: ServerClass::LowPower1U,
            cpu: CpuSpec {
                sockets: 2,
                cores_per_socket: 6,
                idle_per_socket: Watts::new(6.0),
                peak_per_socket: Watts::new(46.0),
                nominal_ghz: 2.4,
                throttle_ghz: 1.6,
            },
            memory: MemorySpec {
                dimms: 10,
                idle_per_dimm: Watts::new(1.5),
                peak_per_dimm: Watts::new(2.5),
            },
            psu: PsuSpec {
                efficiency_idle: Fraction::new(0.80),
                efficiency_loaded: Fraction::new(0.90),
            },
            drives: DrivesSpec {
                idle: Watts::new(8.0),
                peak: Watts::new(10.0),
            },
            drives_downstream: false,
            fans: FansSpec {
                count: 6,
                rated_each: Watts::new(17.0),
                idle_speed: Fraction::new(0.50),
                loaded_speed: Fraction::new(0.62),
            },
            idle_wall: Watts::new(90.0),
            peak_wall: Watts::new(185.0),
            price: Dollars::new(2000.0),
            inlet_temp: Celsius::new(25.0),
            duct_area: SquareMeters::new(0.0194), // 0.44 m × 0.044 m
            base_impedance: 5.5e4,
            orifice_zeta: 2.2,
            fan_stall_pressure: Pascals::new(40.0),
            fan_free_flow: CubicMetersPerSecond::from_cfm(35.0),
            hot_lane_fraction: Fraction::new(0.25),
            cpu_sink_conductance: 1.9,
            wax_options: vec![WaxPlacement {
                label: "1.2 L in 2 boxes, 70 % blockage".into(),
                volume: Liters::new(1.2),
                containers: 2,
                box_length: Meters::new(0.38),
                box_width: Meters::new(0.18),
                added_blockage: Fraction::new(0.70),
                elevated: false,
            }],
        }
    }

    /// The 2U Sun X4470-class high-throughput server (§4.1).
    pub fn x4470_2u() -> Self {
        Self {
            name: "Sun X4470-class (2U high throughput)".into(),
            class: ServerClass::HighThroughput2U,
            cpu: CpuSpec {
                sockets: 4,
                cores_per_socket: 8,
                idle_per_socket: Watts::new(8.0),
                peak_per_socket: Watts::new(80.0),
                nominal_ghz: 2.4,
                throttle_ghz: 1.6,
            },
            memory: MemorySpec {
                dimms: 8,
                idle_per_dimm: Watts::new(2.0),
                peak_per_dimm: Watts::new(4.0),
            },
            psu: PsuSpec {
                efficiency_idle: Fraction::new(0.80),
                efficiency_loaded: Fraction::new(0.90),
            },
            drives: DrivesSpec {
                idle: Watts::new(5.0),
                peak: Watts::new(8.0),
            },
            drives_downstream: false,
            fans: FansSpec {
                count: 6,
                rated_each: Watts::new(25.0),
                idle_speed: Fraction::new(0.50),
                loaded_speed: Fraction::new(0.65),
            },
            idle_wall: Watts::new(200.0),
            peak_wall: Watts::new(500.0),
            price: Dollars::new(7000.0),
            inlet_temp: Celsius::new(25.0),
            duct_area: SquareMeters::new(0.0387), // 0.44 m × 0.088 m
            base_impedance: 1.2e4,
            orifice_zeta: 1.5,
            fan_stall_pressure: Pascals::new(60.0),
            fan_free_flow: CubicMetersPerSecond::from_cfm(53.0),
            hot_lane_fraction: Fraction::new(0.30),
            cpu_sink_conductance: 2.5,
            wax_options: vec![WaxPlacement {
                label: "4 L in 4 boxes, 69 % blockage".into(),
                volume: Liters::new(4.0),
                containers: 4,
                box_length: Meters::new(0.40),
                box_width: Meters::new(0.20),
                added_blockage: Fraction::new(0.69),
                elevated: true,
            }],
        }
    }

    /// The Microsoft Open Compute blade (§4.1), production configuration.
    ///
    /// Two wax options: 0.5 L replacing the stock airflow inserts
    /// (Figure 9 b) and 1.5 L in the CPU/SSD-swapped reconfiguration
    /// (Figure 9 c) — neither adds blockage over the production blade.
    pub fn open_compute_blade() -> Self {
        Self {
            name: "Open Compute blade (high density)".into(),
            class: ServerClass::OpenComputeBlade,
            cpu: CpuSpec {
                sockets: 2,
                cores_per_socket: 6,
                idle_per_socket: Watts::new(8.0),
                peak_per_socket: Watts::new(65.0),
                nominal_ghz: 2.4,
                throttle_ghz: 1.6,
            },
            memory: MemorySpec {
                dimms: 4,
                idle_per_dimm: Watts::new(1.5),
                peak_per_dimm: Watts::new(3.0),
            },
            psu: PsuSpec {
                efficiency_idle: Fraction::new(0.84),
                efficiency_loaded: Fraction::new(0.90),
            },
            drives: DrivesSpec {
                // 2 enterprise PCIe SSDs + 4 redundant HDDs; the SSDs run
                // hot (§4.1 cites outlet temps above CPU temperature
                // because of them).
                idle: Watts::new(20.0),
                peak: Watts::new(60.0),
            },
            drives_downstream: true,
            fans: FansSpec {
                // Per-blade share of the six chassis fans (24 blades).
                count: 2,
                rated_each: Watts::new(6.0),
                idle_speed: Fraction::new(0.60),
                loaded_speed: Fraction::new(0.80),
            },
            idle_wall: Watts::new(100.0),
            peak_wall: Watts::new(300.0),
            price: Dollars::new(4000.0),
            // Mid-chassis air is pre-heated in the dense enclosure.
            inlet_temp: Celsius::new(35.0),
            duct_area: SquareMeters::new(0.005),
            base_impedance: 1.6e5,
            orifice_zeta: 4.0,
            fan_stall_pressure: Pascals::new(20.0),
            fan_free_flow: CubicMetersPerSecond::new(0.0095),
            hot_lane_fraction: Fraction::new(0.50),
            cpu_sink_conductance: 1.8,
            wax_options: vec![
                WaxPlacement {
                    label: "0.5 L replacing airflow inserts (production)".into(),
                    volume: Liters::new(0.5),
                    containers: 2,
                    box_length: Meters::new(0.20),
                    box_width: Meters::new(0.09),
                    added_blockage: Fraction::ZERO,
                    elevated: true,
                },
                WaxPlacement {
                    label: "1.5 L, CPU/SSD swap + HDD→SSD (reconfigured)".into(),
                    volume: Liters::new(1.5),
                    containers: 3,
                    box_length: Meters::new(0.25),
                    box_width: Meters::new(0.15),
                    added_blockage: Fraction::ZERO,
                    elevated: true,
                },
            ],
        }
    }

    /// The paper's chosen wax placement for this server.
    pub fn default_wax(&self) -> &WaxPlacement {
        match self.class {
            // The scale-out study uses the 1.5 L reconfigured blade.
            ServerClass::OpenComputeBlade => &self.wax_options[1],
            _ => &self.wax_options[0],
        }
    }

    /// Internal (post-PSU) power at a utilization and frequency, W.
    ///
    /// Calibrated so that at nominal frequency the *wall* power hits
    /// `idle_wall` at `u = 0` and `peak_wall` at `u = 1` exactly.
    pub fn internal_power(&self, utilization: Fraction, freq: Fraction) -> Watts {
        self.internal_power_at(freq)(utilization)
    }

    /// [`Self::internal_power`] at a fixed `freq`: explicit components
    /// plus the "other" residual, with the residual's anchors computed once.
    fn internal_power_at(&self, freq: Fraction) -> impl Fn(Fraction) -> Watts + '_ {
        let components = self.component_power_at(freq);
        let (other_idle, other_peak) = self.other_power_anchors();
        move |utilization| {
            // The lumped "other" residual (motherboard, LEDs, I/O), linear
            // in utilization.
            let other = utilization
                .value()
                .mul_add(other_peak - other_idle, other_idle);
            components(utilization) + Watts::new(other)
        }
    }

    /// Summed explicit component power (CPU + memory + drives + fans) at a
    /// fixed `freq`, as a function of utilization.
    fn component_power_at(&self, freq: Fraction) -> impl Fn(Fraction) -> Watts + '_ {
        let cpu = self.cpu.power_at(freq);
        move |utilization| {
            cpu(utilization)
                + self.memory.power(utilization)
                + self.drives.power(utilization)
                + self.fans.power(utilization)
        }
    }

    /// The "other" residual at idle and at peak, anchored to the
    /// wall-power targets at nominal frequency.
    fn other_power_anchors(&self) -> (f64, f64) {
        let internal_idle_target =
            self.idle_wall.value() * self.psu.efficiency(Fraction::ZERO).value();
        let internal_peak_target =
            self.peak_wall.value() * self.psu.efficiency(Fraction::ONE).value();
        let nominal = self.component_power_at(Fraction::ONE);
        let other_idle = internal_idle_target - nominal(Fraction::ZERO).value();
        let other_peak = internal_peak_target - nominal(Fraction::ONE).value();
        debug_assert!(
            other_idle >= 0.0 && other_peak >= 0.0,
            "spec {:?} components exceed wall targets: idle residual {other_idle}, peak residual {other_peak}",
            self.name
        );
        (other_idle, other_peak)
    }

    /// Wall power at a utilization and frequency.
    pub fn wall_power(&self, utilization: Fraction, freq: Fraction) -> Watts {
        self.wall_power_at(freq)(utilization)
    }

    /// [`Self::wall_power`] at a fixed `freq`, as a function of
    /// utilization: the DVFS `powf`, the CPU dynamic range and the "other"
    /// residual's anchors are computed once, here.
    ///
    /// Bit-identity contract: every call returns exactly the bits of
    /// `wall_power(u, freq)` — that method delegates here, so the power
    /// model has one copy and the per-`u` arithmetic runs in one order.
    /// Hot loops that evaluate many utilizations at one frequency (the
    /// Figure 12 bisection) build this once and call it.
    pub fn wall_power_at(&self, freq: Fraction) -> impl Fn(Fraction) -> Watts + '_ {
        let internal = self.internal_power_at(freq);
        move |utilization| self.psu.wall_power(internal(utilization), utilization)
    }

    /// Relative throughput of this server at a utilization and frequency
    /// (work ∝ busy cycles).
    pub fn throughput(&self, utilization: Fraction, freq: Fraction) -> f64 {
        utilization.value() * freq.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_classes_produce_specs() {
        for class in ServerClass::ALL {
            let spec = class.spec();
            assert_eq!(spec.class, class);
            assert!(!spec.wax_options.is_empty());
        }
    }

    #[test]
    fn rd330_wall_power_matches_paper() {
        let s = ServerSpec::rd330_1u();
        let idle = s.wall_power(Fraction::ZERO, Fraction::ONE);
        let peak = s.wall_power(Fraction::ONE, Fraction::ONE);
        assert!((idle.value() - 90.0).abs() < 1e-6, "idle {idle}");
        assert!((peak.value() - 185.0).abs() < 1e-6, "peak {peak}");
    }

    #[test]
    fn x4470_peak_is_500w() {
        let s = ServerSpec::x4470_2u();
        assert!((s.wall_power(Fraction::ONE, Fraction::ONE).value() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn open_compute_is_100_to_300w() {
        let s = ServerSpec::open_compute_blade();
        assert!((s.wall_power(Fraction::ZERO, Fraction::ONE).value() - 100.0).abs() < 1e-6);
        assert!((s.wall_power(Fraction::ONE, Fraction::ONE).value() - 300.0).abs() < 1e-6);
    }

    #[test]
    fn other_residuals_are_nonnegative_for_all_presets() {
        // other_power_anchors has a debug_assert; exercise idle/mid/peak for each.
        for class in ServerClass::ALL {
            let s = class.spec();
            for u in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let p = s.internal_power(Fraction::new(u), Fraction::ONE);
                assert!(p.value() > 0.0);
            }
        }
    }

    #[test]
    fn wall_power_is_monotone_in_utilization() {
        for class in ServerClass::ALL {
            let s = class.spec();
            let mut prev = 0.0;
            for i in 0..=10 {
                let u = Fraction::new(i as f64 / 10.0);
                let p = s.wall_power(u, Fraction::ONE).value();
                assert!(p >= prev, "{class}: power fell at u={u}");
                prev = p;
            }
        }
    }

    #[test]
    fn throttling_reduces_power_and_throughput() {
        for class in ServerClass::ALL {
            let s = class.spec();
            let full = s.wall_power(Fraction::ONE, Fraction::ONE).value();
            let thr = s.wall_power(Fraction::ONE, s.cpu.throttle_ratio()).value();
            assert!(thr < full, "{class}");
            let tp_ratio = s.throughput(Fraction::ONE, s.cpu.throttle_ratio());
            assert!((tp_ratio - 2.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn throttling_saves_most_on_the_cpu_heavy_2u() {
        // The 2U's power is CPU-dominated, so the 2.4→1.6 GHz throttle
        // frees the largest power fraction there — the seed of its 69 %
        // constrained-throughput win.
        let savings: Vec<f64> = ServerClass::ALL
            .iter()
            .map(|c| {
                let s = c.spec();
                let full = s.wall_power(Fraction::ONE, Fraction::ONE).value();
                let thr = s.wall_power(Fraction::ONE, s.cpu.throttle_ratio()).value();
                1.0 - thr / full
            })
            .collect();
        assert!(
            savings[1] > savings[0] && savings[1] > savings[2],
            "2U should shed the biggest fraction: {savings:?}"
        );
    }

    #[test]
    fn wax_volumes_match_paper() {
        assert_eq!(
            ServerSpec::rd330_1u().default_wax().volume,
            Liters::new(1.2)
        );
        assert_eq!(
            ServerSpec::x4470_2u().default_wax().volume,
            Liters::new(4.0)
        );
        let ocp = ServerSpec::open_compute_blade();
        assert_eq!(ocp.wax_options[0].volume, Liters::new(0.5));
        assert_eq!(ocp.default_wax().volume, Liters::new(1.5));
    }

    #[test]
    fn wax_blockages_match_paper() {
        assert!((ServerSpec::rd330_1u().default_wax().added_blockage.value() - 0.70).abs() < 1e-9);
        assert!((ServerSpec::x4470_2u().default_wax().added_blockage.value() - 0.69).abs() < 1e-9);
        assert_eq!(
            ServerSpec::open_compute_blade()
                .default_wax()
                .added_blockage,
            Fraction::ZERO
        );
    }

    #[test]
    fn banks_hold_the_declared_volume() {
        for class in ServerClass::ALL {
            let spec = class.spec();
            let wax = spec.default_wax();
            let bank = wax.bank();
            assert!(
                (bank.total_wax_volume().value() - wax.volume.value()).abs() < 1e-9,
                "{class}"
            );
            assert_eq!(bank.count(), wax.containers);
        }
    }

    #[test]
    fn prices_match_paper_estimates() {
        assert_eq!(ServerSpec::rd330_1u().price, Dollars::new(2000.0));
        assert_eq!(ServerSpec::x4470_2u().price, Dollars::new(7000.0));
        assert_eq!(ServerSpec::open_compute_blade().price, Dollars::new(4000.0));
    }

    #[test]
    fn display_names() {
        assert_eq!(ServerClass::LowPower1U.to_string(), "1U low power");
        assert_eq!(
            ServerClass::HighThroughput2U.to_string(),
            "2U high throughput"
        );
        assert_eq!(
            ServerClass::OpenComputeBlade.to_string(),
            "Open Compute blade"
        );
    }
}
