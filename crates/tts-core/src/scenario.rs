//! The high-level scenario builder.
//!
//! [`Scenario::cooling_load_study`] and [`Scenario::constrained_study`] pick
//! their wax with the dcsim grid sweeps over the paraffin catalogue
//! ([`select_melting_point`], [`select_melting_point_constrained`])
//! unless a fixed melting point is given.

use tts_dcsim::cluster::{
    default_melting_candidates, run_cooling_load, select_melting_point, ClusterConfig,
    CoolingLoadRun,
};
use tts_dcsim::throttle::{run_constrained, select_melting_point_constrained, ConstrainedRun};
use tts_obs::MetricsSink;
use tts_pcm::PcmMaterial;
use tts_server::{ServerClass, ServerSpec, ServerWaxCharacteristics};
use tts_units::{Celsius, Fraction};
use tts_workload::{GoogleTrace, TimeSeries};

/// The §5.2 oversubscription level: the throttled-cluster utilization the
/// undersized cooling plant can sustain.
const SUSTAINABLE_UTIL: f64 = 0.71;

/// How the wax melting point is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeltingPointChoice {
    /// Grid-search the paraffin catalogue for the best melting point (the
    /// paper's approach).
    Optimize,
    /// Use a fixed melting point (e.g. the §3 retail wax at 39 °C).
    Fixed(Celsius),
}

/// A cluster-scale what-if: server class × workload × wax × cooling.
///
/// ```
/// use thermal_time_shifting::Scenario;
/// use tts_server::ServerClass;
///
/// let study = Scenario::new(ServerClass::HighThroughput2U)
///     .servers(1008)
///     .cooling_load_study();
/// assert_eq!(study.run.load_no_wax_kw.len(), study.run.times_h.len());
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    class: ServerClass,
    servers: usize,
    trace: Option<TimeSeries>,
    melting_point: MeltingPointChoice,
    sink: MetricsSink,
}

/// Result of the fully-subscribed cooling-load study (§5.1 / Figure 11).
#[derive(Debug, Clone, PartialEq)]
pub struct CoolingLoadStudy {
    /// The per-tick run.
    pub run: CoolingLoadRun,
    /// The selected wax.
    pub material: PcmMaterial,
    /// The extracted server characteristics behind the run.
    pub chars: ServerWaxCharacteristics,
}

tts_units::derive_json! { struct CoolingLoadStudy { run, material, chars } }

/// Result of the thermally constrained study (§5.2 / Figure 12).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedStudy {
    /// The per-tick run (ideal / no-wax / with-wax).
    pub run: ConstrainedRun,
    /// The selected wax.
    pub material: PcmMaterial,
    /// The extracted server characteristics behind the run.
    pub chars: ServerWaxCharacteristics,
    /// The thermal limit used, kW per cluster.
    pub limit_kw: f64,
}

tts_units::derive_json! { struct ConstrainedStudy { run, material, chars, limit_kw } }

impl Scenario {
    /// A paper-default scenario: 1008 servers, the two-day Google-like
    /// trace, optimized melting point, and the §5.2 oversubscription level
    /// (cooling sized for the throttled cluster at 71 % utilization).
    pub fn new(class: ServerClass) -> Self {
        Self {
            class,
            servers: 1008,
            trace: None,
            melting_point: MeltingPointChoice::Optimize,
            sink: MetricsSink::disabled(),
        }
    }

    /// Routes study telemetry (tick counts, melt-fraction histograms,
    /// headline gauges — see `tts_dcsim::cluster` / `tts_dcsim::throttle`)
    /// to `sink`. Off by default; the disabled path costs nothing.
    pub fn metrics(mut self, sink: &MetricsSink) -> Self {
        self.sink = sink.clone();
        self
    }

    /// Overrides the cluster size.
    pub fn servers(mut self, servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        self.servers = servers;
        self
    }

    /// Supplies a custom utilization trace (defaults to
    /// [`GoogleTrace::default_two_day`]).
    pub fn trace(mut self, trace: TimeSeries) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Fixes the wax melting point instead of optimizing.
    pub fn melting_point(mut self, choice: MeltingPointChoice) -> Self {
        self.melting_point = choice;
        self
    }

    /// The server spec for this scenario.
    pub fn spec(&self) -> ServerSpec {
        self.class.spec()
    }

    fn resolve_trace(&self) -> TimeSeries {
        self.trace
            .clone()
            .unwrap_or_else(|| GoogleTrace::default_two_day().total().clone())
    }

    /// Extracts the wax characteristics for this scenario's server
    /// (geometry only; the material's melting point is substituted later).
    fn characteristics(&self) -> ServerWaxCharacteristics {
        let probe_material = PcmMaterial::commercial_paraffin(Celsius::new(45.0));
        ServerWaxCharacteristics::extract(&self.spec(), &probe_material)
    }

    /// This scenario's cluster, carrying a 45 °C probe paraffin; swap in
    /// a study's wax with [`ClusterConfig::with_melting_point`].
    pub fn cluster(&self) -> ClusterConfig {
        ClusterConfig {
            spec: self.spec(),
            servers: self.servers,
            chars: self.characteristics(),
        }
    }

    /// Picks the wax for `config` as the scenario asks: `optimize` sweeps
    /// the paraffin catalogue, or `run` simulates the fixed melting point.
    /// Returns the material, the characteristics carrying it, and the run.
    fn choose_wax<R>(
        &self,
        config: &ClusterConfig,
        optimize: impl FnOnce() -> (PcmMaterial, R),
        run: impl FnOnce(&ClusterConfig) -> R,
    ) -> (PcmMaterial, ServerWaxCharacteristics, R) {
        let (material, run) = match self.melting_point {
            MeltingPointChoice::Optimize => optimize(),
            MeltingPointChoice::Fixed(t) => (
                PcmMaterial::commercial_paraffin(t),
                run(&config.with_melting_point(t)),
            ),
        };
        let chars = config.chars.with_melting_point(material.melting_point());
        (material, chars, run)
    }

    /// Runs the §5.1 fully-subscribed cooling-load study (Figure 11).
    #[must_use = "the study has no effect besides the returned result"]
    pub fn cooling_load_study(&self) -> CoolingLoadStudy {
        let trace = self.resolve_trace();
        let config = self.cluster();
        let (material, chars, run) = self.choose_wax(
            &config,
            || select_melting_point(&config, &trace, default_melting_candidates(), &self.sink),
            |cfg| run_cooling_load(cfg, &trace, &self.sink),
        );
        CoolingLoadStudy {
            run,
            material,
            chars,
        }
    }

    /// Runs the §5.2 thermally constrained study (Figure 12).
    #[must_use = "the study has no effect besides the returned result"]
    pub fn constrained_study(&self) -> ConstrainedStudy {
        let trace = self.resolve_trace();
        let config = self.cluster();
        let limit = config.thermal_limit(Fraction::new(SUSTAINABLE_UTIL));
        let (material, chars, run) = self.choose_wax(
            &config,
            || {
                select_melting_point_constrained(
                    &config,
                    limit,
                    &trace,
                    default_melting_candidates(),
                    &self.sink,
                )
            },
            |cfg| run_constrained(cfg, limit, &trace, &self.sink),
        );
        ConstrainedStudy {
            run,
            material,
            chars,
            limit_kw: limit.value(),
        }
    }

    /// The server class.
    pub fn class(&self) -> ServerClass {
        self.class
    }

    /// The cluster size.
    pub fn server_count(&self) -> usize {
        self.servers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cooling_load_study_produces_a_reduction() {
        let study = Scenario::new(ServerClass::LowPower1U).cooling_load_study();
        assert!(study.run.peak_reduction.value() > 0.02);
        assert_eq!(
            study.chars.material.melting_point(),
            study.material.melting_point()
        );
    }

    #[test]
    fn fixed_melting_point_is_respected() {
        let study = Scenario::new(ServerClass::LowPower1U)
            .melting_point(MeltingPointChoice::Fixed(Celsius::new(39.0)))
            .cooling_load_study();
        assert_eq!(study.material.melting_point(), Celsius::new(39.0));
        assert_eq!(study.run.melting_point, Celsius::new(39.0));
    }

    #[test]
    fn constrained_study_produces_a_gain() {
        let study = Scenario::new(ServerClass::LowPower1U).constrained_study();
        assert!(study.run.peak_gain > 0.05);
        assert!(study.limit_kw > 0.0);
    }

    #[test]
    fn smaller_cluster_scales_loads_down() {
        let big = Scenario::new(ServerClass::LowPower1U)
            .melting_point(MeltingPointChoice::Fixed(Celsius::new(45.0)))
            .cooling_load_study();
        let small = Scenario::new(ServerClass::LowPower1U)
            .servers(504)
            .melting_point(MeltingPointChoice::Fixed(Celsius::new(45.0)))
            .cooling_load_study();
        let ratio = big.run.peak_no_wax.value() / small.run.peak_no_wax.value();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }
}
