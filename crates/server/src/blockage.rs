//! The Figure 7 airflow-blockage sweeps.
//!
//! §4.1: "We conduct a series of experiments in Icepak blocking airflow
//! with a uniform grille downwind of the CPU heat sinks ... we maintain a
//! constant frequency and power consumption to maintain parity across
//! configurations." For each blockage level the server runs at full load
//! until steady state and the outlet/socket temperatures are recorded.

use crate::model::ServerThermalModel;
use crate::spec::ServerSpec;
use tts_obs::MetricsSink;
use tts_units::{Celsius, CubicMetersPerSecond, Fraction, Seconds};

/// One point of a blockage sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockageRow {
    /// Grille blockage fraction.
    pub blockage: Fraction,
    /// Steady-state mixed outlet temperature.
    pub outlet: Celsius,
    /// Steady-state wax-zone (behind-sockets) air temperature.
    pub wax_zone: Celsius,
    /// Per-socket package temperatures.
    pub sockets: Vec<Celsius>,
    /// Airflow at the operating point.
    pub flow: CubicMetersPerSecond,
}

tts_units::derive_json! { struct BlockageRow { blockage, outlet, wax_zone, sockets, flow } }

/// Sweeps grille blockage at full load for one server.
///
/// Each point is an independent steady-state settle, so the sweep runs on
/// the [`tts_exec`] pool; row order (and every bit of every row) matches
/// the serial sweep regardless of `TTS_THREADS`. Every per-point model
/// reports its thermal hot-path metrics to `sink` (shared counters —
/// totals commute, so the snapshot is thread-invariant), and the sweep
/// adds one `fig7.blockage_points` count per row.
///
/// # Panics
/// Panics if any steady state fails to converge (a model bug, not a data
/// condition).
pub fn sweep(spec: &ServerSpec, blockages: &[f64], sink: &MetricsSink) -> Vec<BlockageRow> {
    let rows = tts_exec::par_map(blockages, |&b| {
        let blockage = Fraction::new(b);
        let mut m = ServerThermalModel::with_grille(spec.clone(), blockage);
        m.set_metrics(sink);
        m.set_load(Fraction::ONE, Fraction::ONE);
        m.run_to_steady_state(Seconds::new(30.0), 1e-5, Seconds::new(1e6))
            .expect("blockage sweep steady state");
        BlockageRow {
            blockage,
            outlet: m.outlet_temp(),
            wax_zone: m.wax_air_temp(),
            sockets: (0..spec.cpu.sockets).map(|s| m.cpu_temp(s)).collect(),
            flow: m.operating_point().flow,
        }
    });
    sink.counter("fig7.blockage_points").add(rows.len() as u64);
    rows
}

/// The paper's 0–90 % sweep in 10 % steps; see [`sweep`].
pub fn default_sweep(spec: &ServerSpec, sink: &MetricsSink) -> Vec<BlockageRow> {
    let points: Vec<f64> = (0..=9).map(|i| i as f64 * 0.1).collect();
    sweep(spec, &points, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ServerClass;

    fn rise(rows: &[BlockageRow], from: usize, to: usize) -> f64 {
        rows[to].outlet.value() - rows[from].outlet.value()
    }

    #[test]
    fn outlet_temperature_rises_monotonically_with_blockage() {
        for class in ServerClass::ALL {
            let rows = sweep(
                &class.spec(),
                &[0.0, 0.3, 0.6, 0.9],
                &MetricsSink::disabled(),
            );
            for w in rows.windows(2) {
                assert!(
                    w[1].outlet.value() >= w[0].outlet.value() - 0.01,
                    "{class}: outlet must not fall as blockage grows"
                );
                assert!(
                    w[1].flow.value() < w[0].flow.value(),
                    "{class}: flow must fall as blockage grows"
                );
            }
        }
    }

    #[test]
    fn one_u_matches_figure_7a_shape() {
        // "From 0 % up to 90 % of air flow blocked, we observe a 14 °C
        // increase in air temperatures at the outlet, and at no time do the
        // CPU temperatures reach unsafe levels."
        let rows = default_sweep(&ServerClass::LowPower1U.spec(), &MetricsSink::disabled());
        let total_rise = rise(&rows, 0, 9);
        assert!(
            (8.0..22.0).contains(&total_rise),
            "1U outlet rise 0→90 %: {total_rise} K (paper: 14 K)"
        );
        // "CPU temperatures ... rise less than 2 °C below 50 %, and begin
        // to rise quicker thereafter."
        let cpu_at = |i: usize| {
            rows[i]
                .sockets
                .iter()
                .map(|t| t.value())
                .fold(f64::MIN, f64::max)
        };
        let early_cpu_rise = cpu_at(5) - cpu_at(0);
        assert!(
            early_cpu_rise < 4.0,
            "1U CPU rise below 50 % blockage: {early_cpu_rise} K (paper: < 2 K)"
        );
        // The CPUs stay safe through the wax operating point (70 %
        // blockage) — the condition the deployed configuration relies on.
        for row in rows.iter().take(8) {
            for (s, t) in row.sockets.iter().enumerate() {
                assert!(
                    t.value() < 95.0,
                    "1U socket {s} unsafe at {:.0}% blockage: {t}",
                    row.blockage.percent()
                );
            }
        }
    }

    #[test]
    fn two_u_matches_figure_7b_shape() {
        // "below 50 % ... almost negligible impact ... above 50 % the
        // temperature increases exponentially" (unsafe above 70 %).
        let rows = default_sweep(
            &ServerClass::HighThroughput2U.spec(),
            &MetricsSink::disabled(),
        );
        let early = rise(&rows, 0, 5); // 0 → 50 %
        let late = rise(&rows, 5, 9); // 50 → 90 %
        assert!(
            early < 5.0,
            "2U outlet rise below 50 % too large: {early} K"
        );
        assert!(
            late > 3.0 * early.max(0.5),
            "2U must have a knee: early {early} K, late {late} K"
        );
        // CPU temperatures reach unsafe levels at extreme blockage.
        let max_cpu_90 = rows[9]
            .sockets
            .iter()
            .map(|t| t.value())
            .fold(f64::MIN, f64::max);
        assert!(max_cpu_90 > 100.0, "2U sockets at 90 %: {max_cpu_90}");
    }

    #[test]
    fn open_compute_matches_figure_7c_shape() {
        // "temperatures ... rise to unsafe levels as soon as almost any
        // airflow is obstructed" — a steep initial slope, starting from an
        // already-hot outlet (~68 °C).
        let rows = default_sweep(
            &ServerClass::OpenComputeBlade.spec(),
            &MetricsSink::disabled(),
        );
        assert!(
            (60.0..80.0).contains(&rows[0].outlet.value()),
            "OCP baseline outlet {} (paper: ~68 °C)",
            rows[0].outlet.value()
        );
        let early = rise(&rows, 0, 3); // 0 → 30 %
        assert!(
            early > 3.0,
            "OCP must heat up quickly under small blockage: {early} K by 30 %"
        );
    }

    #[test]
    fn per_class_early_sensitivity_ordering() {
        // The defining contrast of Figure 7: at 30 % blockage the OCP
        // suffers most and the 2U least.
        let early_rises: Vec<f64> = ServerClass::ALL
            .iter()
            .map(|c| {
                let rows = sweep(&c.spec(), &[0.0, 0.3], &MetricsSink::disabled());
                rise(&rows, 0, 1)
            })
            .collect();
        let (r1u, r2u, rocp) = (early_rises[0], early_rises[1], early_rises[2]);
        assert!(rocp > r1u, "OCP ({rocp}) must beat 1U ({r1u})");
        assert!(r1u > r2u, "1U ({r1u}) must beat 2U ({r2u})");
    }
}
