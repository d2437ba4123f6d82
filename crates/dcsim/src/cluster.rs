//! The aggregate (fluid) cluster model: cooling load with and without wax.
//!
//! A cluster is 1008 identical servers behind a round-robin balancer, so
//! every server sees the same utilization trace (§4.2). That symmetry lets
//! the cooling-load study track one representative server + wax state and
//! scale by the server count — the same aggregation DCSim performs before
//! extrapolating to the datacenter.
//!
//! Per tick: utilization → wall power → wax-zone air temperature (from the
//! thermal model's extracted characteristics) → wax melt/freeze step →
//! cluster cooling load `N · (P_wall − q_wax)`.
//!
//! The one tick loop, [`run_partial_deployment`], also covers fleets where
//! only part of the servers carry wax. The paper deploys wax in *every*
//! server; a real retrofit happens rack by rack, so the operationally
//! interesting question is how the peak reduction scales with the
//! equipped fraction `f`. The instantaneous shaving scales linearly
//! (`N·(P − f·q_wax)` under round-robin symmetry), but the *peak*
//! reduction does not: the first waxed racks clip the single highest
//! point of the load curve, while later ones must flatten an ever-widening
//! plateau — diminishing returns that [`deployment_sweep`] exposes as a
//! deployment curve for retrofit planning.
//!
//! The same [`ClusterConfig`] drives the thermally constrained runs of
//! [`crate::throttle`], with the cooling cap passed alongside it
//! ([`ClusterConfig::thermal_limit`]).

use tts_cooling::cooling_load;
use tts_obs::MetricsSink;
use tts_pcm::{PcmMaterial, PcmState};
use tts_server::{ServerSpec, ServerWaxCharacteristics};
use tts_units::{Celsius, Fraction, KiloWatts};
use tts_workload::TimeSeries;

/// Bucket edges for the melt-fraction histogram (fraction of latent
/// capacity molten, 0–1).
const MELT_EDGES: [f64; 11] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95];

/// Records a finished run's melt-fraction series into `sink` as the
/// `{layer}.melt_fraction` histogram and the `{layer}.melt_fraction_last`
/// gauge. Shared by the cooling-load (`cluster`) and constrained
/// (`throttle`) recorders.
pub(crate) fn record_melt_fraction(sink: &MetricsSink, layer: &str, melt: &[f64]) {
    let hist = sink.histogram(&format!("{layer}.melt_fraction"), &MELT_EDGES);
    for &m in melt {
        hist.record(m);
    }
    sink.gauge(&format!("{layer}.melt_fraction_last"))
        .set(melt.last().copied().unwrap_or(0.0));
}

/// One cluster of identical servers: the configuration of both the
/// cooling-load study (Figure 11) and the constrained study (Figure 12).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The server model.
    pub spec: ServerSpec,
    /// Servers in the cluster (paper: 1008).
    pub servers: usize,
    /// Wax characteristics extracted from the thermal model.
    pub chars: ServerWaxCharacteristics,
}

impl ClusterConfig {
    /// The paper's 1008-server cluster of `spec` with `chars`.
    pub fn paper_cluster(spec: ServerSpec, chars: ServerWaxCharacteristics) -> Self {
        Self {
            spec,
            servers: 1008,
            chars,
        }
    }

    /// The same cluster with its wax swapped for the commercial paraffin
    /// melting at `melting_point` (geometry unchanged).
    #[must_use]
    pub fn with_melting_point(&self, melting_point: Celsius) -> Self {
        Self {
            spec: self.spec.clone(),
            servers: self.servers,
            chars: self.chars.with_melting_point(melting_point),
        }
    }

    /// An oversubscribed thermal limit: the cooling that can just sustain
    /// the whole cluster at `sustainable_util` utilization when downclocked
    /// to the throttle frequency — the knob that makes "downclocking is
    /// imposed" true at peak, as in the paper's Figure 12 setup.
    pub fn thermal_limit(&self, sustainable_util: Fraction) -> KiloWatts {
        let thr = self.spec.cpu.throttle_ratio();
        let per_server = self.spec.wall_power(sustainable_util, thr);
        KiloWatts::new(per_server.value() * self.servers as f64 / 1000.0)
    }
}

/// Result of a cooling-load run (one Figure 11 panel).
#[derive(Debug, Clone, PartialEq)]
pub struct CoolingLoadRun {
    /// Sample times, hours.
    pub times_h: Vec<f64>,
    /// Cluster cooling load without wax, kW.
    pub load_no_wax_kw: Vec<f64>,
    /// Cluster cooling load with wax, kW.
    pub load_with_wax_kw: Vec<f64>,
    /// Wax melt fraction over time.
    pub melt_fraction: Vec<f64>,
    /// Peak cooling load without wax.
    pub peak_no_wax: KiloWatts,
    /// Peak cooling load with wax.
    pub peak_with_wax: KiloWatts,
    /// Relative peak reduction.
    pub peak_reduction: Fraction,
    /// Hours during which the with-wax load exceeds the no-wax load (the
    /// refreeze tail; the paper observes 6–9 h).
    pub elevated_hours: f64,
    /// Whether the wax returned to (essentially) solid by the end of the
    /// trace.
    pub refrozen_at_end: bool,
    /// The melting point used.
    pub melting_point: Celsius,
}

tts_units::derive_json! { struct CoolingLoadRun { times_h, load_no_wax_kw, load_with_wax_kw, melt_fraction, peak_no_wax, peak_with_wax, peak_reduction, elevated_hours, refrozen_at_end, melting_point } }

/// Records one finished cooling-load run into `sink`: tick count, the
/// melt-fraction series (histogram + final-value gauge), and the headline
/// peaks. Recording happens *after* the run from its stored series, so
/// every gauge write is serial (the deterministic-snapshot rule) and the
/// simulation loop itself stays untouched.
fn record_cooling_run(sink: &MetricsSink, run: &CoolingLoadRun) {
    if !sink.is_enabled() {
        return;
    }
    sink.counter("cluster.ticks")
        .add(run.melt_fraction.len() as u64);
    record_melt_fraction(sink, "cluster", &run.melt_fraction);
    sink.gauge("cluster.peak_no_wax_kw")
        .set(run.peak_no_wax.value());
    sink.gauge("cluster.peak_with_wax_kw")
        .set(run.peak_with_wax.value());
    sink.gauge("cluster.peak_reduction")
        .set(run.peak_reduction.value());
    sink.gauge("cluster.melting_point_c")
        .set(run.melting_point.value());
}

/// Runs the cooling-load study for one cluster over a utilization trace:
/// the fully equipped case of [`run_partial_deployment`], where every
/// server carries wax. The run's tick count, melt-fraction series, and
/// headline peaks are recorded into `sink` once the run completes (see
/// `record_cooling_run`). With an enabled sink, only call from serial
/// code — the gauges are last-value-wins.
pub fn run_cooling_load(
    config: &ClusterConfig,
    trace: &TimeSeries,
    sink: &MetricsSink,
) -> CoolingLoadRun {
    let run = run_partial_deployment(config, trace, Fraction::ONE);
    record_cooling_run(sink, &run);
    run
}

/// A cooling-load run for a fleet where only `equipped` of the servers
/// carry wax. This is the cluster model's one tick loop:
/// [`run_cooling_load`] is the `equipped = 1` case, where
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

/// Shared candidate-loop for the melting-point searches: evaluate every
/// candidate temperature in parallel (order-preserving `par_map`) and
/// return `(candidate, result)` pairs in candidate order, counting the
/// batch under `counter`. Both the cooling-load and the constrained
/// searches reduce over this — their selection rules differ, the sweep
/// does not.
pub(crate) fn sweep_candidates<R: Send>(
    candidates: Vec<f64>,
    sink: &MetricsSink,
    counter: &str,
    eval: impl Fn(f64) -> R + Sync,
) -> Vec<(f64, R)> {
    let runs = tts_exec::par_map(&candidates, |&c| eval(c));
    sink.counter(counter).add(candidates.len() as u64);
    candidates.into_iter().zip(runs).collect()
}

/// Grid-searches the commercial-paraffin melting point that minimizes the
/// cluster's peak cooling load (§5.1: "selected the melting temperature to
/// minimize cooling load"), requiring the wax to refreeze by the end of
/// each daily cycle.
///
/// Returns the winning material and its run. The parallel candidate
/// evaluations run unobserved (per-candidate series would race on the
/// gauges); the search records `cluster.candidates_evaluated` /
/// `cluster.candidates_refrozen` counters and then replays the *winner's*
/// stored series into `sink` serially (see `record_cooling_run`) — so
/// the snapshot describes the selected configuration, byte-identically at
/// any thread count.
pub fn select_melting_point(
    config: &ClusterConfig,
    trace: &TimeSeries,
    candidates_c: impl IntoIterator<Item = f64>,
    sink: &MetricsSink,
) -> (PcmMaterial, CoolingLoadRun) {
    // Candidate evaluations are independent cluster simulations: the
    // shared sweep fans them out on the tts_exec pool, then this fold runs
    // *in candidate order* so the winner (strict `<`, first-best
    // tie-break) is the one the serial loop would have picked, at any
    // thread count.
    let runs = sweep_candidates(
        candidates_c.into_iter().collect(),
        sink,
        "cluster.candidates_evaluated",
        |c| {
            run_cooling_load(
                &config.with_melting_point(Celsius::new(c)),
                trace,
                &MetricsSink::disabled(),
            )
        },
    );

    let mut refrozen: u64 = 0;
    let mut best: Option<(PcmMaterial, CoolingLoadRun)> = None;
    for (c, run) in runs {
        if !run.refrozen_at_end {
            continue;
        }
        refrozen += 1;
        let better = match &best {
            None => true,
            Some((_, b)) => run.peak_with_wax < b.peak_with_wax,
        };
        if better {
            best = Some((PcmMaterial::commercial_paraffin(Celsius::new(c)), run));
        }
    }
    sink.counter("cluster.candidates_refrozen").add(refrozen);
    let best = best.expect("at least one candidate melting point must refreeze daily");
    record_cooling_run(sink, &best.1);
    best
}

/// Lowest melting point of the paraffin catalogue, °C. The paper quotes
/// commercial blends at 40–60 °C; the catalogue extends slightly below
/// (the §3 retail wax melted at 39 °C) and above (see
/// [`PARAFFIN_MELT_MAX_C`]).
pub const PARAFFIN_MELT_MIN_C: f64 = 30.0;

/// Highest melting point of the paraffin catalogue, °C: C30+ grades melt
/// up to ~68 °C, needed for the pre-heated air of the Open Compute
/// chassis, whose wax zone idles near 50 °C.
pub const PARAFFIN_MELT_MAX_C: f64 = 68.0;

/// Spacing of the paraffin catalogue, °C. A power of two, so the
/// accumulated grid `min + 0.5 + 0.5 + …` and a snapped lattice
/// `min + k · step` hold the same bits.
pub const PARAFFIN_MELT_STEP_C: f64 = 0.5;

/// The default candidate range: the paraffin catalogue, from
/// [`PARAFFIN_MELT_MIN_C`] to [`PARAFFIN_MELT_MAX_C`] in
/// [`PARAFFIN_MELT_STEP_C`] steps.
pub fn default_melting_candidates() -> Vec<f64> {
    let mut v = Vec::new();
    let mut c = PARAFFIN_MELT_MIN_C;
    while c <= PARAFFIN_MELT_MAX_C + 1e-9 {
        v.push(c);
        c += PARAFFIN_MELT_STEP_C;
    }
    v
}

/// The load level (fraction of peak wall power) at which the selected wax
/// begins to melt — the paper's "begins to melt when a server exceeds 75 %
/// load" observation.
pub fn melt_onset_load_fraction(config: &ClusterConfig) -> f64 {
    let onset = config.chars.melt_onset_power();
    let peak = config.spec.wall_power(Fraction::ONE, Fraction::ONE);
    onset.value() / peak.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_pcm::PcmMaterial;
    use tts_server::ServerClass;
    use tts_workload::GoogleTrace;

    fn one_u_config() -> ClusterConfig {
        let spec = ServerClass::LowPower1U.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(40.0)),
        );
        ClusterConfig::paper_cluster(spec, chars)
    }

    #[test]
    fn no_wax_load_tracks_wall_power() {
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let run = run_cooling_load(&config, trace.total(), &MetricsSink::disabled());
        // Peak without wax = 1008 × wall(0.95) ≈ 1008 × 180 W ≈ 181 kW.
        let expected = config
            .spec
            .wall_power(Fraction::new(0.95), Fraction::ONE)
            .value()
            * 1008.0
            / 1000.0;
        assert!(
            (run.peak_no_wax.value() - expected).abs() < 1.0,
            "peak {} vs {}",
            run.peak_no_wax.value(),
            expected
        );
    }

    #[test]
    fn wax_reduces_peak_cooling_load() {
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let (_, run) = select_melting_point(
            &config,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        assert!(
            run.peak_reduction.value() > 0.03,
            "1U peak reduction {} (paper: 8.9 %)",
            run.peak_reduction
        );
        assert!(
            run.peak_reduction.value() < 0.20,
            "reduction implausibly large: {}",
            run.peak_reduction
        );
    }

    #[test]
    fn instrumented_search_records_the_winner() {
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let sink = MetricsSink::fresh();
        let (_, run) =
            select_melting_point(&config, trace.total(), default_melting_candidates(), &sink);
        let n_candidates = default_melting_candidates().len() as u64;
        assert_eq!(
            sink.counter("cluster.candidates_evaluated").value(),
            n_candidates
        );
        assert!(sink.counter("cluster.candidates_refrozen").value() >= 1);
        // The replayed series belongs to the winner, not a candidate.
        assert_eq!(
            sink.counter("cluster.ticks").value(),
            run.melt_fraction.len() as u64
        );
        assert_eq!(
            sink.gauge("cluster.peak_with_wax_kw").value(),
            run.peak_with_wax.value()
        );
        assert_eq!(
            sink.gauge("cluster.melting_point_c").value(),
            run.melting_point.value()
        );
    }

    /// Waxes that never melt under the 1U's load leave identical runs, so
    /// the strict `<` fold must keep the first of them in candidate order
    /// (a repeated melting point included), whatever the worker count.
    #[test]
    fn tied_candidates_keep_the_first() {
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let sweep = |candidates: &[f64]| {
            let sink = MetricsSink::disabled();
            let (material, run) =
                select_melting_point(&config, trace.total(), candidates.to_vec(), &sink);
            (material.melting_point().value(), run)
        };
        let reference = sweep(&[58.0]).1;
        for threads in [1, 4] {
            tts_exec::with_thread_budget(threads, || {
                for candidates in [[62.0, 58.0, 66.0, 58.0], [58.0, 66.0, 62.0, 66.0]] {
                    let (melt, run) = sweep(&candidates);
                    assert_eq!(melt, candidates[0], "{threads} threads: {candidates:?}");
                    assert_eq!(run.melting_point.value(), candidates[0]);
                    assert_eq!(
                        run.peak_with_wax.value().to_bits(),
                        reference.peak_with_wax.value().to_bits(),
                        "the candidates must tie"
                    );
                }
            });
        }
    }

    #[test]
    fn refreeze_tail_elevates_offpeak_load() {
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let (_, run) = select_melting_point(
            &config,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        // Paper: elevated cooling load "lasting between six and nine hours"
        // per daily cycle; two cycles here.
        assert!(
            run.elevated_hours > 3.0,
            "refreeze must take hours: {}",
            run.elevated_hours
        );
        assert!(run.refrozen_at_end, "wax must resolidify within the cycle");
    }

    #[test]
    fn energy_is_conserved_over_the_trace() {
        // ∫(load_with − load_no) dt = net wax energy change ≈ 0 once
        // refrozen.
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let (_, run) = select_melting_point(
            &config,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        let dt = trace.total().dt().value();
        let net: f64 = run
            .load_no_wax_kw
            .iter()
            .zip(&run.load_with_wax_kw)
            .map(|(nw, w)| (nw - w) * 1000.0 * dt)
            .sum();
        // Net absorbed energy ≤ one latent capacity's worth per server ×
        // remaining melt fraction; with refreeze it should be small
        // relative to total energy moved.
        let moved: f64 = run
            .load_no_wax_kw
            .iter()
            .zip(&run.load_with_wax_kw)
            .map(|(nw, w)| (nw - w).abs() * 1000.0 * dt)
            .sum();
        assert!(
            net.abs() < 0.25 * moved,
            "net {net} J vs moved {moved} J — wax should roughly return its heat"
        );
    }

    #[test]
    fn melt_onset_near_75_percent_load() {
        // §5.1: "the best wax typically begins to melt when a server
        // exceeds 75 % load".
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let (material, _) = select_melting_point(
            &config,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        let onset = melt_onset_load_fraction(&config.with_melting_point(material.melting_point()));
        assert!(
            (0.5..1.0).contains(&onset),
            "melt onset at {:.0} % of peak power (paper: ~75 % load)",
            onset * 100.0
        );
    }

    #[test]
    fn default_candidates_are_sorted_unique_and_cover_the_paper_range() {
        // The design-search lattice and the grid must agree on the
        // candidate set: strictly ascending, no duplicates, half-degree
        // spaced, and spanning at least the paper's 34–58 °C window.
        let v = default_melting_candidates();
        assert!(!v.is_empty());
        for w in v.windows(2) {
            assert!(w[0] < w[1], "candidates must be strictly ascending: {w:?}");
            assert!(
                ((w[1] - w[0]) - 0.5).abs() < 1e-12,
                "candidates must be half-degree spaced: {w:?}"
            );
        }
        assert!(v[0] <= 34.0, "range must start at or below 34 °C");
        assert!(*v.last().unwrap() >= 58.0, "range must reach 58 °C");
    }

    #[test]
    fn more_wax_gives_more_reduction() {
        // The paper: "peak load reduction and savings correlate to the
        // quantity of wax". Double the 1U wax mass → larger reduction.
        let config = one_u_config();
        let trace = GoogleTrace::default_two_day();
        let (_, run_1x) = select_melting_point(
            &config,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        let mut big = config.clone();
        big.chars.mass = big.chars.mass * 2.0;
        big.chars.latent_capacity = big.chars.latent_capacity * 2.0;
        big.chars.coupling = big.chars.coupling * 1.6; // more boxes → more area
        let (_, run_2x) = select_melting_point(
            &big,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        assert!(
            run_2x.peak_reduction.value() > run_1x.peak_reduction.value(),
            "2× wax {} ≤ 1× wax {}",
            run_2x.peak_reduction,
            run_1x.peak_reduction
        );
    }

    #[test]
    fn with_melting_point_changes_only_the_material() {
        let config = one_u_config();
        let moved = config.with_melting_point(Celsius::new(52.5));
        assert_eq!(
            moved.chars.material,
            PcmMaterial::commercial_paraffin(Celsius::new(52.5))
        );
        assert_eq!(moved.spec, config.spec);
        assert_eq!(moved.servers, config.servers);
        let mut restored = moved.chars.clone();
        restored.material = config.chars.material.clone();
        assert_eq!(restored, config.chars);
    }

    /// The partial-deployment tests' cluster: 1U with a 48 °C wax.
    fn deployment_config() -> ClusterConfig {
        let spec = ServerClass::LowPower1U.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(48.0)),
        );
        ClusterConfig::paper_cluster(spec, chars)
    }

    #[test]
    fn full_deployment_matches_the_main_model() {
        let cfg = deployment_config();
        let trace = GoogleTrace::default_two_day();
        let full = run_partial_deployment(&cfg, trace.total(), Fraction::ONE);
        let reference = run_cooling_load(&cfg, trace.total(), &MetricsSink::disabled());
        assert_eq!(full, reference);
    }

    #[test]
    fn zero_deployment_changes_nothing() {
        let cfg = deployment_config();
        let trace = GoogleTrace::default_two_day();
        let none = run_partial_deployment(&cfg, trace.total(), Fraction::ZERO);
        assert!(none.peak_reduction.value().abs() < 1e-9);
        for (nw, w) in none.load_no_wax_kw.iter().zip(&none.load_with_wax_kw) {
            assert!((nw - w).abs() < 1e-9);
        }
    }

    #[test]
    fn reduction_grows_monotonically_with_deployment() {
        let cfg = deployment_config();
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
        let cfg = deployment_config();
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
        let cfg = deployment_config();
        let trace = GoogleTrace::default_two_day();
        deployment_sweep(&cfg, trace.total(), 1);
    }
}
