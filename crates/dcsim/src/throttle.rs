//! The thermally constrained (oversubscribed) scenario — Figure 12.
//!
//! §5.2: the cooling system is "significantly smaller than the thermal
//! output of the datacenter with all servers active", so "thermal
//! management techniques such as downclocking/DVFS ... must be applied to
//! prevent the datacenter from overheating". The policy, per tick:
//!
//! 1. try to serve the offered load at nominal frequency;
//! 2. if the resulting cooling load (net of wax absorption) exceeds the
//!    thermal limit, downclock to 1.6 GHz;
//! 3. if still over, cap utilization below the offered load (queued work
//!    is dropped from the throughput plot, as in the paper).
//!
//! Wax adds headroom: while melting, it absorbs `G·(T_air − T_wax)` per
//! server, letting the cluster hold nominal frequency "until the thermal
//! capacity of the wax is full".

use crate::cluster::MELT_EDGES;
use tts_obs::MetricsSink;
use tts_pcm::PcmState;
use tts_server::{ServerSpec, ServerWaxCharacteristics};
use tts_units::{Fraction, KiloWatts, Watts};
use tts_workload::TimeSeries;

/// Configuration of a constrained-throughput run.
#[derive(Debug, Clone)]
pub struct ConstrainedConfig {
    /// The server model.
    pub spec: ServerSpec,
    /// Servers in the cluster.
    pub servers: usize,
    /// Wax characteristics (the with-wax arm uses them; the no-wax arm
    /// ignores them).
    pub chars: ServerWaxCharacteristics,
    /// Thermal limit: the cluster heat the cooling system can remove, kW.
    pub limit: KiloWatts,
}

impl ConstrainedConfig {
    /// An oversubscribed cluster whose cooling can just sustain the whole
    /// cluster at `sustainable_util` utilization when downclocked to the
    /// throttle frequency — the knob that makes "downclocking is imposed"
    /// true at peak, as in the paper's setup.
    pub fn oversubscribed(
        spec: ServerSpec,
        servers: usize,
        chars: ServerWaxCharacteristics,
        sustainable_util: Fraction,
    ) -> Self {
        let thr = spec.cpu.throttle_ratio();
        let per_server = spec.wall_power(sustainable_util, thr);
        let limit = KiloWatts::new(per_server.value() * servers as f64 / 1000.0);
        Self {
            spec,
            servers,
            chars,
            limit,
        }
    }
}

/// One arm's state at a tick.
#[derive(Debug, Clone, Copy)]
struct TickDecision {
    /// Utilization actually served.
    utilization: Fraction,
    /// Frequency fraction used.
    freq: Fraction,
    /// Absolute throughput `u × f`.
    throughput: f64,
    /// Cluster cooling load presented to the plant, kW.
    cooling_load_kw: f64,
}

/// Result of a constrained run (one Figure 12 panel).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstrainedRun {
    /// Sample times, hours.
    pub times_h: Vec<f64>,
    /// Throughput with no thermal limit, normalized.
    pub ideal: Vec<f64>,
    /// Throughput without wax, normalized.
    pub no_wax: Vec<f64>,
    /// Throughput with wax, normalized.
    pub with_wax: Vec<f64>,
    /// Wax melt fraction over time.
    pub melt_fraction: Vec<f64>,
    /// The normalization base: peak *absolute* throughput of the no-wax
    /// arm ("normalized to the peak throughput while downclocked").
    pub norm_base: f64,
    /// Peak normalized throughput gain of wax over no-wax.
    pub peak_gain: Fraction,
    /// Hours by which wax delays the onset of thermal throttling.
    pub delay_hours: f64,
    /// Hours during which the with-wax arm sustains throughput above the
    /// no-wax peak.
    pub boosted_hours: f64,
}

tts_units::derive_json! { struct ConstrainedRun { times_h, ideal, no_wax, with_wax, melt_fraction, norm_base, peak_gain, delay_hours, boosted_hours } }

/// Served load at the limit: the largest utilization `u ≤ offered` such
/// that the cluster cooling load fits the budget, at a fixed frequency.
/// `wax_q(u, f)` is the per-server wax *absorption* when serving at that
/// operating point (release is handled separately, bounded by headroom).
fn max_feasible_util(
    spec: &ServerSpec,
    servers: usize,
    freq: Fraction,
    util_ceiling: Fraction,
    budget_w: f64,
    wax_q: &impl Fn(Fraction, Fraction) -> Watts,
) -> Fraction {
    let load = |u: Fraction| -> f64 {
        (spec.wall_power(u, freq) - wax_q(u, freq)).value() * servers as f64
    };
    if load(util_ceiling) <= budget_w {
        return util_ceiling;
    }
    let (mut lo, mut hi) = (0.0, util_ceiling.value());
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if load(Fraction::new(mid)) <= budget_w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Fraction::new(lo)
}

/// Records one finished constrained run into `sink`: tick counts (total
/// and thermally throttled), the melt-fraction series, and the headline
/// gains. Post-hoc from the stored series, so all gauge writes are serial.
fn record_constrained_run(sink: &MetricsSink, run: &ConstrainedRun) {
    if !sink.is_enabled() {
        return;
    }
    sink.counter("throttle.ticks").add(run.times_h.len() as u64);
    // A tick is throttled when the wax arm serves less than the ideal arm
    // would — the thermal limit forced a downclock or utilization cap.
    let throttled = run
        .ideal
        .iter()
        .zip(&run.with_wax)
        .filter(|(ideal, wax)| **wax < **ideal - 1e-9)
        .count();
    sink.counter("throttle.throttled_ticks")
        .add(throttled as u64);
    let hist = sink.histogram("throttle.melt_fraction", &MELT_EDGES);
    for &m in &run.melt_fraction {
        hist.record(m);
    }
    sink.gauge("throttle.melt_fraction_last")
        .set(run.melt_fraction.last().copied().unwrap_or(0.0));
    sink.gauge("throttle.peak_gain").set(run.peak_gain.value());
    sink.gauge("throttle.delay_hours").set(run.delay_hours);
    sink.gauge("throttle.boosted_hours").set(run.boosted_hours);
}

/// Runs the Figure 12 experiment: ideal / no-wax / with-wax throughput
/// under a thermal limit, recording the finished run into `sink` (see
/// `record_constrained_run`). With an enabled sink, only call from serial
/// code — the gauges are last-value-wins.
pub fn run_constrained(
    config: &ConstrainedConfig,
    trace: &TimeSeries,
    sink: &MetricsSink,
) -> ConstrainedRun {
    let dt = trace.dt();
    let spec = &config.spec;
    let chars = &config.chars;
    let n = config.servers;
    let thr = spec.cpu.throttle_ratio();
    let budget_w = config.limit.watts().value();
    let mut pcm = PcmState::new(&chars.material, chars.mass, chars.idle_air_temp);

    let mut times_h = Vec::with_capacity(trace.len());
    let mut ideal_abs = Vec::with_capacity(trace.len());
    let mut nowax_abs = Vec::with_capacity(trace.len());
    let mut wax_abs = Vec::with_capacity(trace.len());
    let mut melt = Vec::with_capacity(trace.len());
    let mut first_throttle_nowax: Option<f64> = None;
    let mut first_throttle_wax: Option<f64> = None;

    for (i, &u_raw) in trace.values().iter().enumerate() {
        let t_h = i as f64 * dt.value() / 3600.0;
        let offered = Fraction::new(u_raw);
        times_h.push(t_h);
        ideal_abs.push(spec.throughput(offered, Fraction::ONE));

        // --- No-wax arm: throttle/cap to fit the budget. ---
        let no_wax_q = |_: Fraction, _: Fraction| Watts::ZERO;
        let decision_nowax = decide(spec, n, offered, budget_w, thr, &no_wax_q);
        if decision_nowax.throughput < spec.throughput(offered, Fraction::ONE) - 1e-9
            && first_throttle_nowax.is_none()
        {
            first_throttle_nowax = Some(t_h);
        }
        nowax_abs.push(decision_nowax.throughput);

        // --- With-wax arm: wax absorption adds headroom. ---
        // Absorption at a candidate operating point: relax a *clone* of
        // the wax state against the air temperature that point produces.
        // Only absorption (q > 0) counts toward feasibility — release is
        // not schedulable and is bounded by headroom at commit time.
        let wax_q = |u: Fraction, f: Fraction| -> Watts {
            let wall = spec.wall_power(u, f);
            let t_air = chars.air_temp_model.at(wall);
            let mut probe = pcm.clone();
            probe
                .step(t_air, chars.effective_coupling(), dt)
                .max(Watts::ZERO)
        };
        let decision_wax = decide(spec, n, offered, budget_w, thr, &wax_q);
        if decision_wax.throughput < spec.throughput(offered, Fraction::ONE) - 1e-9
            && first_throttle_wax.is_none()
        {
            first_throttle_wax = Some(t_h);
        }
        wax_abs.push(decision_wax.throughput);
        // Commit the wax step at the operating point actually chosen,
        // bounding release by the plant's current headroom.
        let wall = spec.wall_power(decision_wax.utilization, decision_wax.freq);
        let t_air = chars.air_temp_model.at(wall);
        let headroom = Watts::new((budget_w / n as f64 - wall.value()).max(0.0));
        pcm.step_with_release_cap(t_air, chars.effective_coupling(), dt, headroom);
        melt.push(pcm.melt_fraction().value());
    }

    let norm_base = nowax_abs.iter().copied().fold(f64::MIN, f64::max);
    let normalize = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| x / norm_base).collect() };
    let peak_wax_norm = wax_abs.iter().copied().fold(f64::MIN, f64::max) / norm_base;
    let boosted_ticks = wax_abs.iter().filter(|&&x| x > norm_base * 1.001).count();
    let delay_hours = match (first_throttle_nowax, first_throttle_wax) {
        (Some(a), Some(b)) => (b - a).max(0.0),
        (Some(a), None) => times_h.last().copied().unwrap_or(a) - a,
        _ => 0.0,
    };

    let run = ConstrainedRun {
        ideal: normalize(&ideal_abs),
        no_wax: normalize(&nowax_abs),
        with_wax: normalize(&wax_abs),
        melt_fraction: melt,
        norm_base,
        peak_gain: Fraction::new(peak_wax_norm - 1.0),
        delay_hours,
        boosted_hours: boosted_ticks as f64 * dt.value() / 3600.0,
        times_h,
    };
    record_constrained_run(sink, &run);
    run
}

/// The thermal-management policy at one tick: serve as much work as the
/// thermal budget allows, choosing between nominal frequency (possibly
/// with capped utilization) and the 1.6 GHz throttle (possibly capped) —
/// whichever yields more throughput. This generalizes the paper's
/// "downclocking and/or job relocation must be applied": for the
/// high-idle-power servers here, downclocking dominates utilization
/// capping at nominal frequency whenever the budget is tight, so the
/// no-wax arm reproduces the paper's imposed 1.6 GHz behaviour, while the
/// with-wax arm can "maintain clock speeds and/or utilization".
fn decide(
    spec: &ServerSpec,
    servers: usize,
    offered: Fraction,
    budget_w: f64,
    throttle: Fraction,
    wax_q: &impl Fn(Fraction, Fraction) -> Watts,
) -> TickDecision {
    let mut best: Option<TickDecision> = None;
    for freq in [Fraction::ONE, throttle] {
        // Serving the full offered work at frequency `f` needs machine
        // utilization `offered / f` (a downclocked machine is busy longer
        // per unit of work); utilization saturates at 1.
        let ceiling = Fraction::new(offered.value() / freq.value());
        let u = max_feasible_util(spec, servers, freq, ceiling, budget_w, wax_q);
        let load = (spec.wall_power(u, freq) - wax_q(u, freq)).value() * servers as f64;
        let candidate = TickDecision {
            utilization: u,
            freq,
            throughput: spec.throughput(u, freq),
            cooling_load_kw: load / 1000.0,
        };
        // Prefer more throughput; on ties prefer the cooler operating
        // point (which also melts the wax more slowly).
        let better = match &best {
            None => true,
            Some(b) => {
                candidate.throughput > b.throughput + 1e-12
                    || ((candidate.throughput - b.throughput).abs() <= 1e-12
                        && candidate.cooling_load_kw < b.cooling_load_kw)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best.expect("two candidates evaluated")
}

/// Grid-searches the melting point that maximizes the constrained
/// cluster's peak throughput gain (ties broken by longer throttle delay).
///
/// In the constrained scenario the optimal wax melts near the *thermal
/// limit's* air temperature — lower than the fully-subscribed case — so
/// the paper's freedom to pick the commercial-paraffin grade matters here
/// too. Candidate runs stay unobserved (they would race on the gauges);
/// the search counts `throttle.candidates_evaluated` and then serially
/// replays the winner's stored series into `sink` (see
/// `record_constrained_run`), keeping the snapshot byte-identical at any
/// thread count.
pub fn select_melting_point_constrained(
    config: &ConstrainedConfig,
    trace: &TimeSeries,
    candidates_c: impl IntoIterator<Item = f64>,
    sink: &MetricsSink,
) -> (tts_pcm::PcmMaterial, ConstrainedRun) {
    // Independent simulations per candidate → the shared sweep on the
    // tts_exec pool; the ordered results feed the same in-order reduction
    // as the serial loop.
    let runs: Vec<(f64, ConstrainedRun)> = crate::cluster::sweep_candidates(
        candidates_c.into_iter().collect(),
        sink,
        "throttle.candidates_evaluated",
        |c| {
            let cfg = ConstrainedConfig {
                chars: config.chars.with_melting_point(tts_units::Celsius::new(c)),
                spec: config.spec.clone(),
                servers: config.servers,
                limit: config.limit,
            };
            run_constrained(&cfg, trace, &MetricsSink::disabled())
        },
    );
    let best_gain = runs
        .iter()
        .map(|(_, r)| r.peak_gain.value())
        .fold(f64::MIN, f64::max);
    // A slightly smaller boost held for hours beats a marginally larger
    // spike: among near-optimal gains, take the longest throttle delay
    // (the paper reports both numbers together: "+69 % over 3.1 hours").
    let (c, run) = runs
        .into_iter()
        .filter(|(_, r)| r.peak_gain.value() >= 0.95 * best_gain)
        .max_by(|(_, a), (_, b)| {
            a.delay_hours
                .partial_cmp(&b.delay_hours)
                .expect("delays are finite")
        })
        .expect("at least one candidate melting point");
    record_constrained_run(sink, &run);
    (
        tts_pcm::PcmMaterial::commercial_paraffin(tts_units::Celsius::new(c)),
        run,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::default_melting_candidates;
    use tts_pcm::PcmMaterial;
    use tts_server::ServerClass;
    use tts_units::Celsius;
    use tts_workload::GoogleTrace;

    fn config_for(class: ServerClass) -> ConstrainedConfig {
        let spec = class.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
        );
        ConstrainedConfig::oversubscribed(spec, 1008, chars, Fraction::new(0.71))
    }

    fn best_run_for(class: ServerClass) -> ConstrainedRun {
        let cfg = config_for(class);
        let trace = GoogleTrace::default_two_day();
        let (_, run) = select_melting_point_constrained(
            &cfg,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        run
    }

    #[test]
    fn below_the_limit_all_three_arms_agree() {
        // Paper: "Below the thermal limit, all three have the same
        // throughput."
        let cfg = config_for(ServerClass::LowPower1U);
        let trace = GoogleTrace::default_two_day();
        let run = run_constrained(&cfg, trace.total(), &MetricsSink::disabled());
        let mut agreeing = 0;
        let mut off_peak = 0;
        for i in 0..run.times_h.len() {
            if run.ideal[i] < run.no_wax[i] + 1e-9 {
                off_peak += 1;
                if (run.ideal[i] - run.with_wax[i]).abs() < 1e-9 {
                    agreeing += 1;
                }
            }
        }
        assert!(off_peak > 0, "the trough must sit below the limit");
        assert_eq!(agreeing, off_peak, "arms must agree whenever unconstrained");
    }

    #[test]
    fn no_wax_peak_is_the_normalization_base() {
        let cfg = config_for(ServerClass::LowPower1U);
        let trace = GoogleTrace::default_two_day();
        let run = run_constrained(&cfg, trace.total(), &MetricsSink::disabled());
        let peak_nowax = run.no_wax.iter().copied().fold(f64::MIN, f64::max);
        assert!((peak_nowax - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wax_boosts_peak_throughput_and_delays_throttling() {
        for class in ServerClass::ALL {
            let run = best_run_for(class);
            assert!(
                run.peak_gain.value() > 0.10,
                "{class}: gain {} (paper: 33–69 %)",
                run.peak_gain
            );
            assert!(
                run.delay_hours > 0.5,
                "{class}: delay {} h (paper: 3.1–5.1 h)",
                run.delay_hours
            );
        }
    }

    #[test]
    fn the_2u_cluster_gains_the_most() {
        // The paper's headline ordering: 69 % (2U) ≫ 34 % (OCP) ≈ 33 % (1U).
        // The 2U couples the most wax (4 L in four thin boxes at 69 %
        // blockage) to the most CPU-dominated power budget.
        let g1u = best_run_for(ServerClass::LowPower1U).peak_gain.value();
        let g2u = best_run_for(ServerClass::HighThroughput2U)
            .peak_gain
            .value();
        let gocp = best_run_for(ServerClass::OpenComputeBlade)
            .peak_gain
            .value();
        assert!(
            g2u > g1u && g2u > gocp,
            "2U must lead: 1U {g1u:.2}, 2U {g2u:.2}, OCP {gocp:.2}"
        );
    }

    #[test]
    fn ideal_peaks_near_twice_the_downclocked_peak() {
        // The Figure 12 y-axis reaches ~2.0 at the ideal peak with the
        // paper's oversubscription level.
        let cfg = config_for(ServerClass::HighThroughput2U);
        let trace = GoogleTrace::default_two_day();
        let run = run_constrained(&cfg, trace.total(), &MetricsSink::disabled());
        let ideal_peak = run.ideal.iter().copied().fold(f64::MIN, f64::max);
        assert!(
            (1.4..2.6).contains(&ideal_peak),
            "ideal peak {ideal_peak} (paper plots ≈ 2.0)"
        );
    }

    #[test]
    fn wax_gain_is_transient_not_permanent() {
        // Once the wax is saturated the with-wax arm falls back to the
        // no-wax plateau.
        let run = best_run_for(ServerClass::LowPower1U);
        let trace_hours = run.times_h.last().copied().unwrap_or(0.0);
        assert!(
            run.boosted_hours < 0.75 * trace_hours,
            "boost must end when the wax saturates: {} of {} h",
            run.boosted_hours,
            trace_hours
        );
        assert!(run.boosted_hours > 0.5);
        // The wax melts substantially during the boost.
        let max_melt = run.melt_fraction.iter().copied().fold(f64::MIN, f64::max);
        assert!(max_melt > 0.5, "wax barely melted: {max_melt}");
    }

    #[test]
    fn bigger_thermal_limit_means_less_gain() {
        let spec = ServerClass::LowPower1U.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
        );
        let trace = GoogleTrace::default_two_day();
        let tight = run_constrained(
            &ConstrainedConfig::oversubscribed(
                spec.clone(),
                1008,
                chars.clone(),
                Fraction::new(0.65),
            ),
            trace.total(),
            &MetricsSink::disabled(),
        );
        let loose = run_constrained(
            &ConstrainedConfig::oversubscribed(spec, 1008, chars, Fraction::new(0.95)),
            trace.total(),
            &MetricsSink::disabled(),
        );
        assert!(
            tight.peak_gain.value() >= loose.peak_gain.value(),
            "tight {} vs loose {}",
            tight.peak_gain,
            loose.peak_gain
        );
    }
}
