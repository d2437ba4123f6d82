//! Partial wax deployment: a mixed fleet.
//!
//! The paper deploys wax in *every* server. A real retrofit happens rack
//! by rack, so the operationally interesting question is how the peak
//! reduction scales with the equipped fraction `f`. The instantaneous
//! shaving scales linearly (`N·(P − f·q_wax)` under round-robin symmetry),
//! but the *peak* reduction does not: the first waxed racks clip the
//! single highest point of the load curve, while later ones must flatten
//! an ever-widening plateau — diminishing returns that this module
//! simulates directly and exposes as a deployment curve for retrofit
//! planning.

use crate::cluster::{ClusterConfig, CoolingLoadRun};
use tts_cooling::cooling_load;
use tts_pcm::PcmState;
use tts_units::{Fraction, KiloWatts};
use tts_workload::TimeSeries;

/// A cooling-load run for a fleet where only `equipped` of the servers
/// carry wax. This is the cluster model's one tick loop:
/// [`crate::cluster::run_cooling_load`] is the `equipped = 1` case, where
/// the bare-server term is `wall × 0.0 = +0.0` and leaves every tick's
/// load bit-identical to `N · (P_wall − q_wax)`.
pub fn run_partial_deployment(
    config: &ClusterConfig,
    trace: &TimeSeries,
    equipped: Fraction,
) -> CoolingLoadRun {
    let dt = trace.dt();
    let n = config.servers as f64;
    let n_waxed = n * equipped.value();
    let chars = &config.chars;
    let mut pcm = PcmState::new(&chars.material, chars.mass, chars.idle_air_temp);

    let mut times_h = Vec::with_capacity(trace.len());
    let mut no_wax = Vec::with_capacity(trace.len());
    let mut with_wax = Vec::with_capacity(trace.len());
    let mut melt = Vec::with_capacity(trace.len());

    for (i, &u) in trace.values().iter().enumerate() {
        let wall = config.spec.wall_power(Fraction::new(u), Fraction::ONE);
        let t_air = chars.air_temp_model.at(wall);
        let q = pcm.step(t_air, chars.effective_coupling(), dt);
        let load_nw = wall * n;
        // Waxed servers shave q each; bare servers contribute full wall.
        let load_w = cooling_load(wall, q) * n_waxed + wall * (n - n_waxed);
        times_h.push(i as f64 * dt.value() / 3600.0);
        no_wax.push(load_nw.kilowatts().value());
        with_wax.push(load_w.kilowatts().value());
        melt.push(pcm.melt_fraction().value());
    }

    let peak_no_wax = KiloWatts::new(no_wax.iter().copied().fold(f64::MIN, f64::max));
    let peak_with_wax = KiloWatts::new(with_wax.iter().copied().fold(f64::MIN, f64::max));
    // Count the refreeze tail only where the release is material
    // (> 0.5 % of the peak), not every tick with a trace of sensible
    // exchange.
    let threshold = 0.005 * peak_no_wax.value();
    let elevated_ticks = no_wax
        .iter()
        .zip(&with_wax)
        .filter(|(nw, w)| **w > **nw + threshold)
        .count();
    CoolingLoadRun {
        peak_reduction: Fraction::new(1.0 - peak_with_wax.value() / peak_no_wax.value()),
        elevated_hours: elevated_ticks as f64 * dt.value() / 3600.0,
        refrozen_at_end: *melt.last().expect("trace is non-empty") < 0.10,
        times_h,
        load_no_wax_kw: no_wax,
        load_with_wax_kw: with_wax,
        melt_fraction: melt,
        peak_no_wax,
        peak_with_wax,
        melting_point: config.chars.material.melting_point(),
    }
}

/// One point of the deployment-fraction sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentPoint {
    /// Fraction of servers equipped with wax.
    pub equipped: Fraction,
    /// Peak cooling-load reduction achieved.
    pub peak_reduction: Fraction,
}

tts_units::derive_json! { struct DeploymentPoint { equipped, peak_reduction } }

/// Sweeps the equipped fraction from 0 to 1.
pub fn deployment_sweep(
    config: &ClusterConfig,
    trace: &TimeSeries,
    steps: usize,
) -> Vec<DeploymentPoint> {
    assert!(steps >= 2, "need at least the 0 % and 100 % endpoints");
    // Every deployment fraction is an independent cluster run → fan out
    // on the tts_exec pool with input-order (thread-count-invariant)
    // results.
    let fractions: Vec<usize> = (0..steps).collect();
    tts_exec::par_map(&fractions, |&i| {
        let f = Fraction::new(i as f64 / (steps - 1) as f64);
        let run = run_partial_deployment(config, trace, f);
        DeploymentPoint {
            equipped: f,
            peak_reduction: run.peak_reduction,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cooling_load;
    use tts_pcm::PcmMaterial;
    use tts_server::{ServerClass, ServerWaxCharacteristics};
    use tts_units::Celsius;
    use tts_workload::GoogleTrace;

    fn config() -> ClusterConfig {
        let spec = ServerClass::LowPower1U.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(48.0)),
        );
        ClusterConfig::paper_cluster(spec, chars)
    }

    #[test]
    fn full_deployment_matches_the_main_model() {
        let cfg = config();
        let trace = GoogleTrace::default_two_day();
        let full = run_partial_deployment(&cfg, trace.total(), Fraction::ONE);
        let reference = run_cooling_load(&cfg, trace.total(), &tts_obs::MetricsSink::disabled());
        assert_eq!(full, reference);
    }

    #[test]
    fn zero_deployment_changes_nothing() {
        let cfg = config();
        let trace = GoogleTrace::default_two_day();
        let none = run_partial_deployment(&cfg, trace.total(), Fraction::ZERO);
        assert!(none.peak_reduction.value().abs() < 1e-9);
        for (nw, w) in none.load_no_wax_kw.iter().zip(&none.load_with_wax_kw) {
            assert!((nw - w).abs() < 1e-9);
        }
    }

    #[test]
    fn reduction_grows_monotonically_with_deployment() {
        let cfg = config();
        let trace = GoogleTrace::default_two_day();
        let sweep = deployment_sweep(&cfg, trace.total(), 5);
        for w in sweep.windows(2) {
            assert!(
                w[1].peak_reduction.value() >= w[0].peak_reduction.value() - 1e-9,
                "reduction fell: {:?}",
                w
            );
        }
        assert!(sweep.last().expect("non-empty").peak_reduction.value() > 0.0);
    }

    #[test]
    fn half_deployment_keeps_more_than_half_the_benefit() {
        // Peak shaving has diminishing returns: the first waxed racks trim
        // the single highest point, while later ones must flatten an ever
        // wider plateau. Half the fleet should therefore deliver *more*
        // than half of the full-fleet reduction, but strictly less than
        // all of it.
        let cfg = config();
        let trace = GoogleTrace::default_two_day();
        let half = run_partial_deployment(&cfg, trace.total(), Fraction::new(0.5));
        let full = run_partial_deployment(&cfg, trace.total(), Fraction::ONE);
        let ratio = half.peak_reduction.value() / full.peak_reduction.value();
        assert!(
            (0.5..0.95).contains(&ratio),
            "half deployment yields {ratio} of full benefit"
        );
    }

    #[test]
    #[should_panic(expected = "at least the 0 % and 100 % endpoints")]
    fn degenerate_sweep_panics() {
        let cfg = config();
        let trace = GoogleTrace::default_two_day();
        deployment_sweep(&cfg, trace.total(), 1);
    }
}
