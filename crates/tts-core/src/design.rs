//! The design-search seam: `tts-design` objectives over the dcsim oracles.
//!
//! The `design` experiment's surrogate-assisted searches express the
//! simulator as an [`Objective`] over a typed [`DesignSpace`] and go
//! through [`tts_design::minimize`]. The melting-point grid stays in dcsim:
//! fig11 picks its wax with [`select_melting_point`], and the `design`
//! experiment checks its CMA-ES optimum against that same call (fig12
//! picks with [`select_melting_point_constrained`]).
//!
//! Two spaces are bound here:
//!
//! * [`melting_point_space`] — the paper's one-dimensional paraffin
//!   catalogue (30–68 °C in half-degree steps), evaluated by the same
//!   [`run_cooling_load`] oracle the fig11 grid uses;
//! * [`joint_space`] — the joint design problem the paper leaves open:
//!   server class × melting point × wax mass × tariff phase × ambient
//!   offset, scored by a time-of-use cooling cost model
//!   ([`JointObjective`]).
//!
//! Determinism: the snap lattice `lo + k·step` with `step = 0.5` is
//! bit-identical to the accumulated `c += 0.5` grid in
//! [`default_melting_candidates`] (0.5 is a power of two), so a search
//! optimum and the grid's pick compare bit for bit.
//!
//! [`select_melting_point`]: tts_dcsim::cluster::select_melting_point
//! [`select_melting_point_constrained`]: tts_dcsim::throttle::select_melting_point_constrained
//! [`default_melting_candidates`]: tts_dcsim::cluster::default_melting_candidates

use tts_cooling::Tariff;
use tts_dcsim::cluster::{
    run_cooling_load, ClusterConfig, CoolingLoadRun, PARAFFIN_MELT_MAX_C, PARAFFIN_MELT_MIN_C,
    PARAFFIN_MELT_STEP_C,
};
pub use tts_design::{
    minimize, DesignSpace, Dim, Objective, SearchConfig, SearchResult, INFEASIBLE,
};
use tts_obs::MetricsSink;
use tts_pcm::PcmMaterial;
use tts_server::{ServerClass, ServerWaxCharacteristics};
use tts_units::{Celsius, Seconds};
use tts_workload::{GoogleTrace, TimeSeries};

/// The paper's melting-point space: the paraffin catalogue of
/// [`default_melting_candidates`] as a snapped continuous dimension.
///
/// [`default_melting_candidates`]: tts_dcsim::cluster::default_melting_candidates
pub fn melting_point_space() -> DesignSpace {
    DesignSpace::new(vec![melt_dim()])
}

/// The paraffin catalogue as the `melt_c` dimension of both spaces.
fn melt_dim() -> Dim {
    Dim::Continuous {
        name: "melt_c",
        lo: PARAFFIN_MELT_MIN_C,
        hi: PARAFFIN_MELT_MAX_C,
        step: PARAFFIN_MELT_STEP_C,
    }
}

/// The fig11 oracle as an objective: peak with-wax cooling load, with the
/// daily-refreeze requirement as a hard constraint ([`INFEASIBLE`]).
pub struct CoolingLoadObjective<'a> {
    /// The cluster whose melting point is being chosen (its `chars`
    /// carry the geometry; the material is substituted per point).
    pub config: &'a ClusterConfig,
    /// The utilization trace.
    pub trace: &'a TimeSeries,
}

impl Objective for CoolingLoadObjective<'_> {
    type Out = CoolingLoadRun;

    fn evaluate(&self, x: &[f64]) -> CoolingLoadRun {
        run_cooling_load(
            &self.config.with_melting_point(Celsius::new(x[0])),
            self.trace,
            &MetricsSink::disabled(),
        )
    }

    fn value(&self, out: &CoolingLoadRun) -> f64 {
        if out.refrozen_at_end {
            out.peak_with_wax.value()
        } else {
            INFEASIBLE
        }
    }
}

/// Searches the melting-point space for `config` with CMA-ES under an
/// explicit [`SearchConfig`] — the `design` experiment's paper-space
/// search.
pub fn search_melting_point(
    config: &ClusterConfig,
    trace: &TimeSeries,
    search: &SearchConfig,
    sink: &MetricsSink,
) -> SearchResult<CoolingLoadRun> {
    let space = melting_point_space();
    let obj = CoolingLoadObjective { config, trace };
    minimize(&space, &obj, search, sink)
}

/// Coefficient of performance of the cooling plant in the joint cost
/// model: 1 W of cooling electricity removes 4 W of heat.
pub const JOINT_COP: f64 = 4.0;

/// Demand charge in the joint cost model, $ per kW of billing-period peak
/// per month (typical US commercial tariff scale).
const DEMAND_USD_PER_KW_MONTH: f64 = 12.0;

/// Wax cost in the joint model, $ per server per month at the paper's
/// nominal fill (Table 2 quotes $0.06–0.10); scaled by the mass
/// multiplier.
const WAX_USD_PER_SERVER_MONTH: f64 = 0.08;

/// Penalty slope for violating the daily-refreeze requirement, $ per day
/// per unit of residual melt fraction above the 10 % refreeze threshold.
/// Penalty-composed (not a hard wall) so the search sees a finite,
/// improving landscape near the boundary.
const REFREEZE_USD_PER_DAY: f64 = 50.0;

/// The joint design space the paper leaves open (§6 "the quantity of wax",
/// tariff timing, and climate all interact with the melting point):
///
/// | dim | kind | range |
/// |---|---|---|
/// | `class` | categorical | the three paper server classes |
/// | `melt_c` | continuous, 0.5 °C lattice | 30–68 °C |
/// | `mass_mult` | continuous, 0.25× lattice | 0.5–3× the nominal fill |
/// | `tariff_phase_h` | integer | −6…+6 h shift of the ToU window |
/// | `ambient_off_c` | continuous, 0.5 °C lattice | −5…+10 °C |
pub fn joint_space() -> DesignSpace {
    DesignSpace::new(vec![
        Dim::Categorical {
            name: "class",
            choices: ServerClass::ALL.len(),
        },
        melt_dim(),
        Dim::Continuous {
            name: "mass_mult",
            lo: 0.5,
            hi: 3.0,
            step: 0.25,
        },
        Dim::Integer {
            name: "tariff_phase_h",
            lo: -6,
            hi: 6,
        },
        Dim::Continuous {
            name: "ambient_off_c",
            lo: -5.0,
            hi: 10.0,
            step: 0.5,
        },
    ])
}

/// Full simulator output for one joint design point: the cost breakdown
/// and the headline thermal numbers, echoing the decoded coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct JointOut {
    /// Decoded server class.
    pub class: ServerClass,
    /// Wax melting point, °C.
    pub melt_c: f64,
    /// Wax mass multiplier vs the nominal fill.
    pub mass_mult: f64,
    /// Shift of the ToU tariff window, hours.
    pub tariff_phase_h: f64,
    /// Ambient (wax-zone) temperature offset, °C.
    pub ambient_off_c: f64,
    /// Time-of-use cooling energy cost over the trace, $.
    pub energy_usd: f64,
    /// Prorated demand charge on the with-wax cooling peak, $.
    pub demand_usd: f64,
    /// Prorated wax cost at this fill level, $.
    pub wax_usd: f64,
    /// Refreeze-violation penalty, $ (0 when the wax resolidifies).
    pub refreeze_penalty_usd: f64,
    /// Total objective: energy + demand + wax + penalty, $.
    pub cost_usd: f64,
    /// Peak with-wax cooling load, kW.
    pub peak_with_wax_kw: f64,
    /// Relative peak cooling-load reduction.
    pub peak_reduction: f64,
    /// Melt fraction at the end of the trace.
    pub final_melt_fraction: f64,
}

tts_units::derive_json! { struct JointOut { class, melt_c, mass_mult, tariff_phase_h, ambient_off_c, energy_usd, demand_usd, wax_usd, refreeze_penalty_usd, cost_usd, peak_with_wax_kw, peak_reduction, final_melt_fraction } }

/// The joint objective: total time-of-use cooling cost of one cluster over
/// the trace, with the refreeze requirement penalty-composed. Extraction
/// of the per-class wax characteristics (the expensive thermal-model
/// sweep) happens once in [`JointObjective::paper_default`]; each
/// evaluation only re-derives the material/mass/climate variant and runs
/// the aggregate cluster model.
pub struct JointObjective {
    trace: TimeSeries,
    servers: usize,
    tariff: Tariff,
    base: Vec<(ServerClass, ServerWaxCharacteristics)>,
}

impl JointObjective {
    /// Paper defaults: the two-day Google-like trace, the paper tariff,
    /// and per-class characteristics extracted in parallel.
    pub fn paper_default(servers: usize) -> Self {
        let probe = PcmMaterial::commercial_paraffin(Celsius::new(45.0));
        let classes: Vec<ServerClass> = ServerClass::ALL.to_vec();
        let base = tts_exec::par_map(&classes, |&class| {
            (
                class,
                ServerWaxCharacteristics::extract(&class.spec(), &probe),
            )
        });
        JointObjective {
            trace: GoogleTrace::default_two_day().total().clone(),
            servers,
            tariff: Tariff::paper_default(),
            base,
        }
    }

    /// The space this objective is defined over.
    pub fn space(&self) -> DesignSpace {
        joint_space()
    }
}

impl Objective for JointObjective {
    type Out = JointOut;

    fn evaluate(&self, x: &[f64]) -> JointOut {
        let (class, base) = &self.base[x[0] as usize];
        let (melt_c, mass_mult, phase_h, off_c) = (x[1], x[2], x[3], x[4]);

        let mut chars = base.with_melting_point(Celsius::new(melt_c));
        chars.mass = chars.mass * mass_mult;
        chars.latent_capacity = chars.latent_capacity * mass_mult;
        // More boxes expose more surface, sub-linearly (cf. the 2× wax
        // ablation in the cluster tests: 2× mass → 1.6× coupling).
        chars.coupling = chars.coupling * (1.0 + 0.6 * (mass_mult - 1.0));
        chars.air_temp_model.t_at_zero =
            Celsius::new(chars.air_temp_model.t_at_zero.value() + off_c);
        chars.idle_air_temp = Celsius::new(chars.idle_air_temp.value() + off_c);
        chars.loaded_air_temp = Celsius::new(chars.loaded_air_temp.value() + off_c);

        let cfg = ClusterConfig {
            spec: class.spec(),
            servers: self.servers,
            chars,
        };
        let run = run_cooling_load(&cfg, &self.trace, &MetricsSink::disabled());

        let dt_h = if run.times_h.len() > 1 {
            run.times_h[1] - run.times_h[0]
        } else {
            0.0
        };
        let mut energy_usd = 0.0;
        for (t_h, kw) in run.times_h.iter().zip(&run.load_with_wax_kw) {
            let rate = self
                .tariff
                .rate_at(Seconds::new((t_h + phase_h) * 3600.0))
                .value();
            energy_usd += kw / JOINT_COP * dt_h * rate;
        }
        let days = run.times_h.last().copied().unwrap_or(0.0) / 24.0;
        let demand_usd =
            run.peak_with_wax.value() / JOINT_COP * DEMAND_USD_PER_KW_MONTH * days / 30.0;
        let wax_usd = WAX_USD_PER_SERVER_MONTH * self.servers as f64 * mass_mult * days / 30.0;
        let final_melt = run.melt_fraction.last().copied().unwrap_or(0.0);
        let refreeze_penalty_usd = REFREEZE_USD_PER_DAY * days * (final_melt - 0.10).max(0.0);
        let cost_usd = energy_usd + demand_usd + wax_usd + refreeze_penalty_usd;

        JointOut {
            class: *class,
            melt_c,
            mass_mult,
            tariff_phase_h: phase_h,
            ambient_off_c: off_c,
            energy_usd,
            demand_usd,
            wax_usd,
            refreeze_penalty_usd,
            cost_usd,
            peak_with_wax_kw: run.peak_with_wax.value(),
            peak_reduction: run.peak_reduction.value(),
            final_melt_fraction: final_melt,
        }
    }

    fn value(&self, out: &JointOut) -> f64 {
        out.cost_usd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_dcsim::cluster::default_melting_candidates;
    use tts_server::ServerClass;

    #[test]
    fn snapped_lattice_matches_accumulated_grid_bitwise() {
        // The seam's snap lattice and fig11's accumulated grid must produce
        // bit-identical coordinates, or the `design` experiment's bitwise
        // comparison of the CMA-ES optimum with fig11's pick is a lie.
        let space = melting_point_space();
        for (i, c) in default_melting_candidates().into_iter().enumerate() {
            let snapped = space.snap(&[c]);
            assert_eq!(
                snapped[0].to_bits(),
                c.to_bits(),
                "candidate {i} ({c}) moved under snapping"
            );
        }
    }

    #[test]
    fn joint_objective_is_finite_and_decodes_coordinates() {
        let obj = JointObjective::paper_default(96);
        let x = obj.space().snap(&[1.0, 45.2, 1.4, 2.0, 0.3]);
        let out = obj.evaluate(&x);
        assert_eq!(out.class, ServerClass::HighThroughput2U);
        assert_eq!(out.melt_c, 45.0);
        assert_eq!(out.mass_mult, 1.5);
        assert_eq!(out.tariff_phase_h, 2.0);
        assert_eq!(out.ambient_off_c, 0.5);
        assert!(out.cost_usd.is_finite() && out.cost_usd > 0.0);
        assert!(
            (out.cost_usd
                - (out.energy_usd + out.demand_usd + out.wax_usd + out.refreeze_penalty_usd))
                .abs()
                < 1e-9
        );
        assert!(obj.value(&out).is_finite());
    }
}
