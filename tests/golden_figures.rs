//! Golden-value regression tests for the headline figure pipelines.
//!
//! These pin the current (seed-locked) outputs of the Figure 7 blockage
//! sweep, the Figure 11 cooling-load study, the Figure 12 constrained
//! throughput study, and the 1U extension studies filed in EXPERIMENTS.md.
//! The tolerances are tight — the pipelines are fully
//! deterministic, so anything beyond float noise means the physics or the
//! seeding changed and the fixture must be re-derived deliberately (run
//! `cargo run --release --example golden_scan` equivalent logic and update
//! the constants below, explaining why in the commit).

use thermal_time_shifting::extensions::{
    flash_crowd_study, lifetime_study, partial_deployment_study, relocation_study,
};
use thermal_time_shifting::Scenario;
use tts_obs::MetricsSink;
use tts_server::blockage::{default_sweep, BlockageRow};
use tts_server::ServerClass;

/// Relative tolerance for deterministic pipelines: float noise only.
const REL_TOL: f64 = 1e-9;

fn assert_close(actual: f64, expected: f64, what: &str) {
    let tol = REL_TOL * (1.0 + expected.abs());
    assert!(
        (actual - expected).abs() <= tol,
        "{what}: got {actual}, pinned {expected} (tol {tol:e})"
    );
}

/// Figure 7 fixture: (class, first/last row of the 10-point sweep).
/// Columns: blockage, outlet °C, wax-zone °C, airflow m³/s.
struct BlockageFixture {
    class: ServerClass,
    first: [f64; 4],
    last: [f64; 4],
}

const FIG7_GOLD: [BlockageFixture; 3] = [
    BlockageFixture {
        class: ServerClass::LowPower1U,
        first: [0.0, 34.945020, 48.787406, 0.016133550],
        last: [0.9, 50.565686, 86.150310, 0.006275938],
    },
    BlockageFixture {
        class: ServerClass::HighThroughput2U,
        first: [0.0, 35.429635, 49.961602, 0.041578133],
        last: [0.9, 48.018779, 80.091599, 0.018838764],
    },
    BlockageFixture {
        class: ServerClass::OpenComputeBlade,
        first: [0.0, 68.752366, 73.252714, 0.007708688],
        last: [0.9, 256.586585, 286.131515, 0.001174200],
    },
];

// The fig7 fixtures above are printed to 6/9 decimals; use a matching
// tolerance there instead of REL_TOL.
const FIG7_TOL: f64 = 5e-6;

/// The Figure 7 sweeps of the three classes, in paper order.
fn fig7() -> Vec<(ServerClass, Vec<BlockageRow>)> {
    ServerClass::ALL
        .iter()
        .map(|&c| (c, default_sweep(&c.spec(), &MetricsSink::disabled())))
        .collect()
}

#[test]
fn fig7_blockage_sweep_matches_golden_values() {
    let sweeps = fig7();
    assert_eq!(sweeps.len(), 3, "three server classes");
    for gold in &FIG7_GOLD {
        let (_, rows) = sweeps
            .iter()
            .find(|(c, _)| *c == gold.class)
            .expect("class present in fig7 output");
        assert_eq!(rows.len(), 10, "10-point sweep");
        for (row, pin) in [(&rows[0], &gold.first), (&rows[9], &gold.last)] {
            let got = [
                row.blockage.value(),
                row.outlet.value(),
                row.wax_zone.value(),
                row.flow.value(),
            ];
            for (g, p) in got.iter().zip(pin) {
                let tol = FIG7_TOL * (1.0 + p.abs());
                assert!(
                    (g - p).abs() <= tol,
                    "fig7 {:?}: got {g}, pinned {p}",
                    gold.class
                );
            }
        }
    }
}

#[test]
fn fig7_sweep_is_monotone_in_blockage() {
    // Structural invariant alongside the point pins: more blockage means
    // less flow and hotter wax-zone air, for every class.
    for (class, rows) in fig7() {
        for w in rows.windows(2) {
            assert!(
                w[1].flow.value() < w[0].flow.value(),
                "{class:?}: flow must fall with blockage"
            );
            assert!(
                w[1].wax_zone.value() > w[0].wax_zone.value(),
                "{class:?}: wax-zone temperature must rise with blockage"
            );
        }
    }
}

const FIG11_GOLD: [(ServerClass, f64); 3] = [
    (ServerClass::LowPower1U, 7.344114075480334),
    (ServerClass::HighThroughput2U, 8.836171055798314),
    (ServerClass::OpenComputeBlade, 6.0791419240973426),
];

#[test]
fn fig11_peak_cooling_reduction_matches_golden_values() {
    for (class, pinned) in FIG11_GOLD {
        let study = Scenario::new(class).cooling_load_study();
        assert_close(
            study.run.peak_reduction.percent(),
            pinned,
            &format!("fig11 {class:?} peak reduction %"),
        );
    }
}

/// Figure 12 fixture: (class, peak gain %, boosted hours over the 2-day run).
const FIG12_GOLD: [(ServerClass, f64, f64); 3] = [
    (ServerClass::LowPower1U, 40.845070423, 25.083333333),
    (ServerClass::HighThroughput2U, 45.746954132, 12.0),
    (ServerClass::OpenComputeBlade, 30.273948847, 4.25),
];

// Printed to 9 decimals when pinned.
const FIG12_TOL: f64 = 5e-9;

#[test]
fn fig12_throughput_study_matches_golden_values() {
    for (class, gain, hours) in FIG12_GOLD {
        let run = Scenario::new(class).constrained_study().run;
        let got_gain = run.peak_gain * 100.0;
        let got_hours = run.boosted_hours;
        assert!(
            (got_gain - gain).abs() <= FIG12_TOL * (1.0 + gain.abs()),
            "fig12 {class:?} peak gain: got {got_gain}, pinned {gain}"
        );
        assert!(
            (got_hours - hours).abs() <= FIG12_TOL * (1.0 + hours.abs()),
            "fig12 {class:?} boosted hours: got {got_hours}, pinned {hours}"
        );
    }
}

#[test]
fn relocation_bill_pair_matches_golden_values() {
    // EXPERIMENTS.md: "$140219/yr → $118231/yr per oversubscribed cluster".
    let s = relocation_study(ServerClass::LowPower1U);
    assert_close(
        s.without_pcm_per_year.value(),
        140218.8937664896,
        "relocation bill without wax, $/yr",
    );
    assert_close(
        s.with_pcm_per_year.value(),
        118230.50745009784,
        "relocation bill with wax, $/yr",
    );
}

/// The 1U rack-by-rack deployment curve: (equipped, peak reduction).
const DEPLOYMENT_GOLD: [(f64, f64); 5] = [
    (0.0, 0.0),
    (0.25, 0.018705412251515896),
    (0.5, 0.037410824503032014),
    (0.75, 0.055715550109669554),
    (1.0, 0.07344114075480335),
];

#[test]
fn partial_deployment_curve_matches_golden_values() {
    let class = ServerClass::LowPower1U;
    let points = partial_deployment_study(class, &Scenario::new(class).cooling_load_study(), 5);
    assert_eq!(points.len(), DEPLOYMENT_GOLD.len());
    for (p, (equipped, reduction)) in points.iter().zip(DEPLOYMENT_GOLD) {
        assert_close(p.equipped.value(), equipped, "deployment equipped fraction");
        assert_close(
            p.peak_reduction.value(),
            reduction,
            &format!("deployment peak reduction at {equipped}"),
        );
    }
}

#[test]
fn flash_crowd_reductions_match_golden_values() {
    let class = ServerClass::LowPower1U;
    let s = flash_crowd_study(class, &Scenario::new(class).cooling_load_study());
    assert_close(
        s.calm_reduction.value(),
        0.07344114075480335,
        "calm reduction",
    );
    assert_close(
        s.surge_reduction.value(),
        0.08251502665732957,
        "surge reduction",
    );
}

#[test]
fn lifetime_capacities_match_golden_values() {
    let s = lifetime_study(&Scenario::new(ServerClass::LowPower1U).cooling_load_study());
    assert_close(
        s.capacity_after_server_life.value(),
        0.9160698791783191,
        "capacity after the 4-year server life",
    );
    assert_close(
        s.capacity_after_plant_life.value(),
        0.8031718518526472,
        "capacity after the 10-year plant life",
    );
    assert_eq!(s.cycles_to_80pct, 3719, "daily cycles to 80 % capacity");
}
