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
//!
//! Steps 1–3 bisect for the largest feasible utilization at each
//! frequency, so one tick evaluates the power model and the wax ~100
//! times. Each piece of that work is done once:
//! - the no-wax arm never reads the wax, so it is computed once per
//!   sweep (`no_wax_arm`) and shared by every melting-point candidate;
//! - each frequency's wall-power curve (`ServerSpec::wall_power_at`) is
//!   built once per run;
//! - the wax probe (`PcmState::probe`) is built once per tick and shared
//!   by every bisection step at both frequencies.
//!
//! All three reuse the exact arithmetic of the per-call path, so results
//! are bit-identical to evaluating everything from scratch.
//!
//! What is left per tick is the two bisections themselves: each step is
//! one long dependency chain (wall power, air temperature, wax probe).
//! The two frequencies' bisections are independent, so
//! `max_feasible_utils` steps both in one loop and the CPU overlaps the
//! two chains. The power and wax leaves they call (`tts-server`'s
//! component models and `LinearAirTemp::at`, `tts-pcm`'s
//! `Relaxation::settle` and `EnthalpyCurve::enthalpy_at`) are
//! `#[inline]`, so each chain compiles into this crate without calls
//! other than libm's `fma`.

use crate::cluster::{record_melt_fraction, ClusterConfig};
use tts_obs::MetricsSink;
use tts_pcm::{PcmMaterial, PcmState};
use tts_server::ServerSpec;
use tts_units::{Celsius, Fraction, KiloWatts, Watts};
use tts_workload::TimeSeries;

/// One arm's state at a tick.
#[derive(Debug)]
struct TickDecision {
    /// Absolute throughput `u × f`.
    throughput: f64,
    /// Cluster cooling load presented to the plant, kW.
    cooling_load_kw: f64,
    /// Per-server wall power at the chosen operating point.
    wall: Watts,
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
    /// Peak normalized throughput gain of wax over no-wax, as a ratio
    /// (`0.4` = +40 %): the with-wax peak over `norm_base`, minus one. Not
    /// clamped: a tight limit can push it past `1.0`.
    pub peak_gain: f64,
    /// Hours by which wax delays the onset of thermal throttling.
    pub delay_hours: f64,
    /// Hours during which the with-wax arm sustains throughput above the
    /// no-wax peak.
    pub boosted_hours: f64,
}

tts_units::derive_json! { struct ConstrainedRun { times_h, ideal, no_wax, with_wax, melt_fraction, norm_base, peak_gain, delay_hours, boosted_hours } }

/// Served load at the limit, per lane: the largest utilization
/// `u ≤ ceilings[l]` whose cluster cooling load `load(l, u)` fits the
/// budget, by bisection. A lane that fits at its ceiling returns it
/// unbisected. The lanes are independent and step through one loop, so
/// the CPU overlaps their evaluation chains; each lane's `mid`,
/// comparison and `Fraction::new` run in the one-lane order, so every
/// lane's bits are those of a bisection run alone.
fn max_feasible_utils<const L: usize>(
    ceilings: [Fraction; L],
    budget_w: f64,
    load: impl Fn(usize, Fraction) -> f64,
) -> [Fraction; L] {
    let fits: [bool; L] = std::array::from_fn(|l| load(l, ceilings[l]) <= budget_w);
    if fits.iter().all(|&f| f) {
        return ceilings;
    }
    let mut lo = [0.0; L];
    let mut hi = ceilings.map(Fraction::value);
    for _ in 0..50 {
        for l in 0..L {
            if fits[l] {
                continue;
            }
            let mid = 0.5 * (lo[l] + hi[l]);
            if load(l, Fraction::new(mid)) <= budget_w {
                lo[l] = mid;
            } else {
                hi[l] = mid;
            }
        }
    }
    std::array::from_fn(|l| {
        if fits[l] {
            ceilings[l]
        } else {
            Fraction::new(lo[l])
        }
    })
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
    record_melt_fraction(sink, "throttle", &run.melt_fraction);
    sink.gauge("throttle.peak_gain").set(run.peak_gain);
    sink.gauge("throttle.delay_hours").set(run.delay_hours);
    sink.gauge("throttle.boosted_hours").set(run.boosted_hours);
}

/// The half of a constrained run that does not depend on the wax: the
/// ideal and no-wax series. It reads only `spec`, `servers`, the limit and
/// the trace — never `chars` — so a melting-point sweep computes it once
/// and shares it across every candidate.
struct NoWaxArm {
    /// Sample times, hours.
    times_h: Vec<f64>,
    /// Absolute throughput with no thermal limit.
    ideal_abs: Vec<f64>,
    /// Absolute throughput without wax.
    nowax_abs: Vec<f64>,
    /// Hour of the first tick the no-wax arm serves less than the ideal.
    first_throttle: Option<f64>,
}

/// Per-server wall power as a function of utilization at the two policy
/// frequencies, nominal first, then the throttle.
fn power_curves(spec: &ServerSpec) -> [(Fraction, impl Fn(Fraction) -> Watts + '_); 2] {
    let thr = spec.cpu.throttle_ratio();
    [
        (Fraction::ONE, spec.wall_power_at(Fraction::ONE)),
        (thr, spec.wall_power_at(thr)),
    ]
}

/// Runs the no-wax arm of `config` under `limit` over `trace`.
fn no_wax_arm(config: &ClusterConfig, limit: KiloWatts, trace: &TimeSeries) -> NoWaxArm {
    let spec = &config.spec;
    let powers = power_curves(spec);
    let budget_w = limit.watts().value();
    let mut arm = NoWaxArm {
        times_h: Vec::with_capacity(trace.len()),
        ideal_abs: Vec::with_capacity(trace.len()),
        nowax_abs: Vec::with_capacity(trace.len()),
        first_throttle: None,
    };
    for (i, &u_raw) in trace.values().iter().enumerate() {
        let t_h = i as f64 * trace.dt().value() / 3600.0;
        let offered = Fraction::new(u_raw);
        let ideal = spec.throughput(offered, Fraction::ONE);
        let no_wax_q = |_: Watts| Watts::ZERO;
        let decision = decide(spec, &powers, config.servers, offered, budget_w, &no_wax_q);
        if decision.throughput < ideal - 1e-9 && arm.first_throttle.is_none() {
            arm.first_throttle = Some(t_h);
        }
        arm.times_h.push(t_h);
        arm.ideal_abs.push(ideal);
        arm.nowax_abs.push(decision.throughput);
    }
    arm
}

/// Runs the with-wax arm of `config` under `limit` over `trace` against
/// its precomputed no-wax arm, and assembles the run.
fn with_wax_run(
    config: &ClusterConfig,
    limit: KiloWatts,
    trace: &TimeSeries,
    arm: &NoWaxArm,
) -> ConstrainedRun {
    let dt = trace.dt();
    let spec = &config.spec;
    let chars = &config.chars;
    let n = config.servers;
    let powers = power_curves(spec);
    let budget_w = limit.watts().value();
    let coupling = chars.effective_coupling();
    let mut pcm = PcmState::new(&chars.material, chars.mass, chars.idle_air_temp);

    let mut wax_abs = Vec::with_capacity(trace.len());
    let mut melt = Vec::with_capacity(trace.len());
    let mut first_throttle_wax: Option<f64> = None;

    for (i, &u_raw) in trace.values().iter().enumerate() {
        let offered = Fraction::new(u_raw);
        // Absorption at a candidate operating point: relax the wax state
        // against the air temperature that point produces, without
        // committing. Only absorption (q > 0) counts toward feasibility —
        // release is not schedulable and is bounded by headroom at commit
        // time.
        let decision = {
            let probe = pcm.probe(coupling, dt);
            let wax_q = |wall: Watts| probe(chars.air_temp_model.at(wall)).max(Watts::ZERO);
            decide(spec, &powers, n, offered, budget_w, &wax_q)
        };
        if decision.throughput < arm.ideal_abs[i] - 1e-9 && first_throttle_wax.is_none() {
            first_throttle_wax = Some(arm.times_h[i]);
        }
        wax_abs.push(decision.throughput);
        // Commit the wax step at the operating point actually chosen,
        // bounding release by the plant's current headroom.
        let t_air = chars.air_temp_model.at(decision.wall);
        let headroom = Watts::new((budget_w / n as f64 - decision.wall.value()).max(0.0));
        pcm.step_with_release_cap(t_air, coupling, dt, headroom);
        melt.push(pcm.melt_fraction().value());
    }

    let norm_base = arm.nowax_abs.iter().copied().fold(f64::MIN, f64::max);
    let normalize = |v: &[f64]| -> Vec<f64> { v.iter().map(|x| x / norm_base).collect() };
    let peak_wax_norm = wax_abs.iter().copied().fold(f64::MIN, f64::max) / norm_base;
    let boosted_ticks = wax_abs.iter().filter(|&&x| x > norm_base * 1.001).count();
    let delay_hours = match (arm.first_throttle, first_throttle_wax) {
        (Some(a), Some(b)) => (b - a).max(0.0),
        (Some(a), None) => arm.times_h.last().copied().unwrap_or(a) - a,
        _ => 0.0,
    };

    ConstrainedRun {
        ideal: normalize(&arm.ideal_abs),
        no_wax: normalize(&arm.nowax_abs),
        with_wax: normalize(&wax_abs),
        melt_fraction: melt,
        norm_base,
        peak_gain: peak_wax_norm - 1.0,
        delay_hours,
        boosted_hours: boosted_ticks as f64 * dt.value() / 3600.0,
        times_h: arm.times_h.clone(),
    }
}

/// Runs the Figure 12 experiment: ideal / no-wax / with-wax throughput of
/// `config` under the thermal limit `limit` (the cluster heat the cooling
/// system can remove; see [`ClusterConfig::thermal_limit`]), recording the
/// finished run into `sink` (see `record_constrained_run`). With an
/// enabled sink, only call from serial code — the gauges are
/// last-value-wins.
pub fn run_constrained(
    config: &ClusterConfig,
    limit: KiloWatts,
    trace: &TimeSeries,
    sink: &MetricsSink,
) -> ConstrainedRun {
    let run = with_wax_run(config, limit, trace, &no_wax_arm(config, limit, trace));
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
///
/// `powers` comes from `power_curves`; `wax_q(wall)` is the per-server wax
/// *absorption* at an operating point drawing `wall` (release is handled
/// separately, bounded by headroom).
fn decide(
    spec: &ServerSpec,
    powers: &[(Fraction, impl Fn(Fraction) -> Watts); 2],
    servers: usize,
    offered: Fraction,
    budget_w: f64,
    wax_q: &impl Fn(Watts) -> Watts,
) -> TickDecision {
    let cooling_load_w = |wall: Watts| (wall - wax_q(wall)).value() * servers as f64;
    // Serving the full offered work at frequency `f` needs machine
    // utilization `offered / f` (a downclocked machine is busy longer per
    // unit of work); utilization saturates at 1.
    let ceilings = powers
        .each_ref()
        .map(|(freq, _)| Fraction::new(offered.value() / freq.value()));
    let utils = max_feasible_utils(ceilings, budget_w, |lane, u| {
        cooling_load_w((powers[lane].1)(u))
    });
    let mut best: Option<TickDecision> = None;
    for ((freq, wall_power), u) in powers.iter().zip(utils) {
        let freq = *freq;
        let wall = wall_power(u);
        let candidate = TickDecision {
            throughput: spec.throughput(u, freq),
            cooling_load_kw: cooling_load_w(wall) / 1000.0,
            wall,
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

/// Grid-searches the melting point that maximizes the peak throughput gain
/// of `config` under `limit` (ties broken by longer throttle delay).
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
    config: &ClusterConfig,
    limit: KiloWatts,
    trace: &TimeSeries,
    candidates_c: impl IntoIterator<Item = f64>,
    sink: &MetricsSink,
) -> (PcmMaterial, ConstrainedRun) {
    // The no-wax arm ignores the wax, so every candidate shares one.
    let arm = no_wax_arm(config, limit, trace);
    // Independent simulations per candidate → the shared sweep on the
    // tts_exec pool; the ordered results feed the same in-order reduction
    // as the serial loop.
    let runs: Vec<(f64, ConstrainedRun)> = crate::cluster::sweep_candidates(
        candidates_c.into_iter().collect(),
        sink,
        "throttle.candidates_evaluated",
        |c| {
            with_wax_run(
                &config.with_melting_point(Celsius::new(c)),
                limit,
                trace,
                &arm,
            )
        },
    );
    let best_gain = runs
        .iter()
        .map(|(_, r)| r.peak_gain)
        .fold(f64::MIN, f64::max);
    // A slightly smaller boost held for hours beats a marginally larger
    // spike: among near-optimal gains, take the longest throttle delay
    // (the paper reports both numbers together: "+69 % over 3.1 hours").
    // (`min` keeps the best itself eligible when every gain is negative.)
    let near_best = (0.95 * best_gain).min(best_gain);
    let (c, run) = runs
        .into_iter()
        .filter(|(_, r)| r.peak_gain >= near_best)
        .max_by(|(_, a), (_, b)| {
            a.delay_hours
                .partial_cmp(&b.delay_hours)
                .expect("delays are finite")
        })
        .expect("at least one candidate melting point");
    record_constrained_run(sink, &run);
    (PcmMaterial::commercial_paraffin(Celsius::new(c)), run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::default_melting_candidates;
    use tts_rng::prop::prelude::*;
    use tts_server::{ServerClass, ServerWaxCharacteristics};
    use tts_units::json::ToJson;
    use tts_workload::GoogleTrace;

    /// The one-lane bisection that `max_feasible_utils` replaced, kept as
    /// its oracle.
    fn max_feasible_util(
        util_ceiling: Fraction,
        budget_w: f64,
        load: impl Fn(Fraction) -> f64,
    ) -> Fraction {
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

    /// One lane's test load: a ceiling (`kind` 0 and 1 pin it to 0 and 1),
    /// a cubic (monotone) or sine (non-monotone) shape of rate `k`, and an
    /// offset that puts `load(ceiling)` `margin` below the budget when
    /// `fits`, or `margin` above it.
    fn test_lane(
        (raw, kind, monotone, k): (f64, usize, usize, f64),
        budget_w: f64,
        fits: bool,
        margin: f64,
    ) -> (Fraction, impl Fn(Fraction) -> f64) {
        let ceiling = Fraction::new(match kind {
            0 => 0.0,
            1 => 1.0,
            _ => raw,
        });
        let shape = move |u: Fraction| {
            let u = u.value();
            budget_w
                * if monotone == 1 {
                    u + k * u * u * u
                } else {
                    (k * u).sin()
                }
        };
        let offset = budget_w - shape(ceiling) + if fits { -margin } else { margin };
        (ceiling, move |u| offset + shape(u))
    }

    proptest! {
        #[test]
        fn lane_bisection_matches_one_lane_bisections(
            lane0 in (0.0f64..1.0, 0usize..4, 0usize..2, 0.5f64..40.0),
            lane1 in (0.0f64..1.0, 0usize..4, 0usize..2, 0.5f64..40.0),
            budget_w in 1.0e3f64..1.0e6,
            fits in 0usize..4,
            margin in 1.0e-3f64..1.0e3,
        ) {
            // `fits` is a two-bit mask: both lanes, one of them (either
            // side) or neither feasible at its ceiling.
            let (c0, load0) = test_lane(lane0, budget_w, fits & 1 != 0, margin);
            let (c1, load1) = test_lane(lane1, budget_w, fits & 2 != 0, margin);
            let load = |lane: usize, u: Fraction| if lane == 0 { load0(u) } else { load1(u) };
            prop_assert_eq!(load0(c0) <= budget_w, fits & 1 != 0);
            prop_assert_eq!(load1(c1) <= budget_w, fits & 2 != 0);

            let lanes = max_feasible_utils([c0, c1], budget_w, load);
            for (lane, (got, ceiling)) in lanes.iter().zip([c0, c1]).enumerate() {
                let alone = max_feasible_util(ceiling, budget_w, |u| load(lane, u));
                prop_assert_eq!(got.value().to_bits(), alone.value().to_bits(), "lane {lane}");
            }
            let [single] = max_feasible_utils([c1], budget_w, |_, u| load1(u));
            prop_assert_eq!(single.value().to_bits(), lanes[1].value().to_bits());
        }
    }

    fn cluster_for(class: ServerClass) -> ClusterConfig {
        let spec = class.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
        );
        ClusterConfig::paper_cluster(spec, chars)
    }

    /// The paper's oversubscribed cluster of `class` and its thermal limit.
    fn config_for(class: ServerClass) -> (ClusterConfig, KiloWatts) {
        let cfg = cluster_for(class);
        let limit = cfg.thermal_limit(Fraction::new(0.71));
        (cfg, limit)
    }

    fn best_run_for(class: ServerClass) -> ConstrainedRun {
        let (cfg, limit) = config_for(class);
        let trace = GoogleTrace::default_two_day();
        let (_, run) = select_melting_point_constrained(
            &cfg,
            limit,
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
        let (cfg, limit) = config_for(ServerClass::LowPower1U);
        let trace = GoogleTrace::default_two_day();
        let run = run_constrained(&cfg, limit, trace.total(), &MetricsSink::disabled());
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
        let (cfg, limit) = config_for(ServerClass::LowPower1U);
        let trace = GoogleTrace::default_two_day();
        let run = run_constrained(&cfg, limit, trace.total(), &MetricsSink::disabled());
        let peak_nowax = run.no_wax.iter().copied().fold(f64::MIN, f64::max);
        assert!((peak_nowax - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wax_boosts_peak_throughput_and_delays_throttling() {
        for class in ServerClass::ALL {
            let run = best_run_for(class);
            assert!(
                run.peak_gain > 0.10,
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
        let g1u = best_run_for(ServerClass::LowPower1U).peak_gain;
        let g2u = best_run_for(ServerClass::HighThroughput2U).peak_gain;
        let gocp = best_run_for(ServerClass::OpenComputeBlade).peak_gain;
        assert!(
            g2u > g1u && g2u > gocp,
            "2U must lead: 1U {g1u:.2}, 2U {g2u:.2}, OCP {gocp:.2}"
        );
    }

    #[test]
    fn ideal_peaks_near_twice_the_downclocked_peak() {
        // The Figure 12 y-axis reaches ~2.0 at the ideal peak with the
        // paper's oversubscription level.
        let (cfg, limit) = config_for(ServerClass::HighThroughput2U);
        let trace = GoogleTrace::default_two_day();
        let run = run_constrained(&cfg, limit, trace.total(), &MetricsSink::disabled());
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
    fn the_sweep_winner_matches_a_standalone_run() {
        // The sweep shares one no-wax arm across its candidates; the winner
        // must be exactly what a standalone run of its config produces.
        let (cfg, limit) = config_for(ServerClass::LowPower1U);
        let trace = GoogleTrace::default_two_day();
        let (material, winner) = select_melting_point_constrained(
            &cfg,
            limit,
            trace.total(),
            default_melting_candidates(),
            &MetricsSink::disabled(),
        );
        let standalone = run_constrained(
            &cfg.with_melting_point(material.melting_point()),
            limit,
            trace.total(),
            &MetricsSink::disabled(),
        );
        assert_eq!(winner.to_json(), standalone.to_json());
    }

    #[test]
    fn peak_gain_is_not_clamped_at_one_hundred_percent() {
        // At 20 % sustainable utilization the wax more than doubles the
        // no-wax peak; a gain clamped to [0, 1] would read 1.0 for both
        // melting points below and tie them.
        let cfg = cluster_for(ServerClass::LowPower1U);
        let limit = cfg.thermal_limit(Fraction::new(0.2));
        let trace = GoogleTrace::default_two_day();
        let gain_at = |melt_c: f64| {
            let run = run_constrained(
                &cfg.with_melting_point(Celsius::new(melt_c)),
                limit,
                trace.total(),
                &MetricsSink::disabled(),
            );
            let peak = run.with_wax.iter().copied().fold(f64::MIN, f64::max);
            assert_eq!(run.peak_gain, peak - 1.0, "{melt_c} °C");
            run.peak_gain
        };
        let (g35, g40) = (gain_at(35.0), gain_at(40.0));
        assert!(g35 > 1.5, "35 °C gain {g35}");
        assert!(g40 > 1.0 && g40 < g35, "40 °C gain {g40} vs 35 °C {g35}");
    }

    /// FNV-1a over the bits of every series (length first) and scalar of
    /// `run`.
    fn fingerprint(run: &ConstrainedRun) -> u64 {
        let mut bytes = Vec::new();
        for series in [
            &run.times_h,
            &run.ideal,
            &run.no_wax,
            &run.with_wax,
            &run.melt_fraction,
        ] {
            bytes.extend_from_slice(&(series.len() as u64).to_le_bytes());
            for x in series {
                bytes.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        for x in [
            run.norm_base,
            run.peak_gain,
            run.delay_hours,
            run.boosted_hours,
        ] {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        tts_units::fnv1a64(&bytes)
    }

    /// `run_constrained`'s output bits away from the sweep: every class at
    /// the paper's limit and the 1U at the tight 20 % limit, where the
    /// gain passes 100 %. Recorded before the two frequency bisections
    /// were stepped in one loop; any change to the bisection, the power
    /// model or the wax step moves one of these.
    #[test]
    fn constrained_runs_are_pinned() {
        let trace = GoogleTrace::default_two_day();
        let fingerprint_at = |class: ServerClass, sustainable: f64| {
            let cfg = cluster_for(class);
            let limit = cfg.thermal_limit(Fraction::new(sustainable));
            let run = run_constrained(&cfg, limit, trace.total(), &MetricsSink::disabled());
            fingerprint(&run)
        };
        let got = [
            fingerprint_at(ServerClass::LowPower1U, 0.71),
            fingerprint_at(ServerClass::HighThroughput2U, 0.71),
            fingerprint_at(ServerClass::OpenComputeBlade, 0.71),
            fingerprint_at(ServerClass::LowPower1U, 0.2),
        ];
        let pinned: [u64; 4] = [
            0x06f2_eee1_273b_25e7,
            0x40e9_301a_6b0a_f9af,
            0x9164_1494_eaa0_ee11,
            0xaa83_5297_8505_7e4d,
        ];
        for (i, (g, p)) in got.iter().zip(&pinned).enumerate() {
            assert_eq!(g, p, "case {i}: fingerprint {g:#018x}, pinned {p:#018x}");
        }
    }

    #[test]
    fn bigger_thermal_limit_means_less_gain() {
        let cfg = cluster_for(ServerClass::LowPower1U);
        let trace = GoogleTrace::default_two_day();
        let tight = run_constrained(
            &cfg,
            cfg.thermal_limit(Fraction::new(0.65)),
            trace.total(),
            &MetricsSink::disabled(),
        );
        let loose = run_constrained(
            &cfg,
            cfg.thermal_limit(Fraction::new(0.95)),
            trace.total(),
            &MetricsSink::disabled(),
        );
        assert!(
            tight.peak_gain >= loose.peak_gain,
            "tight {} vs loose {}",
            tight.peak_gain,
            loose.peak_gain
        );
    }
}
