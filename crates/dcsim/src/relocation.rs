//! Job relocation: the other thermal-management lever.
//!
//! §5.2 names two ways to keep an oversubscribed datacenter under its
//! thermal limit: "downclocking/DVFS or relocating work to other
//! datacenters [18–20]". The main Figure 12 experiment uses DVFS; this
//! extension models relocation — excess work ships to a remote site over
//! the WAN — and compares the two against thermal time shifting.
//!
//! Relocation serves everything (the remote site has capacity) but pays a
//! per-work cost: WAN egress, remote capacity premium, and latency-driven
//! revenue loss, folded into one `$ per server-hour of relocated work`
//! figure. The wax serves the same excess *locally* for the price of the
//! paraffin — the comparison this module quantifies.

use crate::throttle::ConstrainedRun;
use tts_units::{Dollars, Seconds};
use tts_workload::TimeSeries;

/// Cost of serving one server-hour of work at the remote site instead of
/// locally (egress + remote premium + SLA penalty), $.
pub const DEFAULT_RELOCATION_COST_PER_SERVER_HOUR: f64 = 0.12;

/// Head-to-head: what the wax saves in relocation costs over one
/// constrained run of a `servers`-server cluster sampled every `dt`.
///
/// The run's no-wax arm *is* the local service curve under relocation:
/// everything above it ships out. Returns `(relocation_only_cost,
/// relocation_cost_with_wax)`: the second still relocates whatever the
/// *wax-assisted* arm cannot serve.
pub fn wax_vs_relocation(
    run: &ConstrainedRun,
    servers: usize,
    dt: Seconds,
    cost_per_server_hour: Dollars,
) -> (Dollars, Dollars) {
    let dt_h = dt.value() / 3600.0;
    let n = servers as f64;
    let mut excess_nowax = 0.0;
    let mut excess_wax = 0.0;
    for i in 0..run.times_h.len() {
        excess_nowax += (run.ideal[i] - run.no_wax[i]).max(0.0) * dt_h;
        excess_wax += (run.ideal[i] - run.with_wax[i]).max(0.0) * dt_h;
    }
    // Normalized work → server-hours: 1.0 of normalized throughput is
    // `norm_base` × N server-equivalents of work.
    let to_dollars = |work: f64| -> Dollars { cost_per_server_hour * (work * run.norm_base * n) };
    (to_dollars(excess_nowax), to_dollars(excess_wax))
}

/// Scales a per-trace relocation saving to a yearly figure (the trace
/// covers `trace.duration()`).
pub fn yearly_saving(saving_per_trace: Dollars, trace: &TimeSeries) -> Dollars {
    let days = trace.duration() / Seconds::DAY;
    saving_per_trace * (365.25 / days)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::throttle::run_constrained;
    use tts_obs::MetricsSink;
    use tts_pcm::PcmMaterial;
    use tts_server::{ServerClass, ServerWaxCharacteristics};
    use tts_units::{Celsius, Fraction};
    use tts_workload::GoogleTrace;

    fn config() -> ClusterConfig {
        let spec = ServerClass::LowPower1U.spec();
        let chars = ServerWaxCharacteristics::extract(
            &spec,
            &PcmMaterial::commercial_paraffin(Celsius::new(40.0)),
        );
        ClusterConfig::paper_cluster(spec, chars)
    }

    #[test]
    fn wax_cuts_the_relocation_bill() {
        let cfg = config();
        let trace = GoogleTrace::default_two_day();
        let limit = cfg.thermal_limit(Fraction::new(0.71));
        let run = run_constrained(&cfg, limit, trace.total(), &MetricsSink::disabled());
        let (without, with) = wax_vs_relocation(
            &run,
            cfg.servers,
            trace.total().dt(),
            Dollars::new(DEFAULT_RELOCATION_COST_PER_SERVER_HOUR),
        );
        assert!(
            with.value() < without.value(),
            "wax must absorb some excess: {with} vs {without}"
        );
        // And meaningfully so — at least 10 % of the bill.
        assert!(with.value() < 0.9 * without.value());
    }

    #[test]
    fn yearly_scaling() {
        let trace = GoogleTrace::default_two_day();
        let yearly = yearly_saving(Dollars::new(100.0), trace.total());
        assert!((yearly.value() - 100.0 * 365.25 / 2.0).abs() < 1e-6);
    }
}
