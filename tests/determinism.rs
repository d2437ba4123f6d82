//! Every experiment must be exactly reproducible: seeded randomness only.

use thermal_time_shifting::Scenario;
use tts_obs::MetricsSink;
use tts_server::blockage::default_sweep;
use tts_server::validation::{run, ValidationConfig};
use tts_server::ServerClass;
use tts_units::json::ToJson;
use tts_units::Seconds;
use tts_workload::{GoogleTrace, JobStream, JobType};

#[test]
fn workload_generation_is_bit_identical() {
    let a = GoogleTrace::default_two_day();
    let b = GoogleTrace::default_two_day();
    assert_eq!(a, b);
}

#[test]
fn job_streams_are_bit_identical() {
    let t = GoogleTrace::default_two_day();
    let mk = || {
        JobStream::new(t.total().clone(), JobType::WebSearch, 16, 99)
            .collect_all()
            .iter()
            .map(|j| (j.arrival.value(), j.service_time.value()))
            .collect::<Vec<_>>()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn cooling_load_study_is_bit_identical() {
    let a = Scenario::new(ServerClass::LowPower1U).cooling_load_study();
    let b = Scenario::new(ServerClass::LowPower1U).cooling_load_study();
    assert_eq!(a.run, b.run);
    assert_eq!(a.material, b.material);
}

#[test]
fn validation_experiment_is_bit_identical() {
    let cfg = ValidationConfig {
        idle_before_h: 0.25,
        load_h: 2.0,
        idle_after_h: 2.0,
        sample_period: Seconds::new(120.0),
        ..Default::default()
    };
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(a, b);
}

/// The Figure 11 study for `class`, serialized.
fn fig11(class: ServerClass) -> String {
    Scenario::new(class).cooling_load_study().to_json_pretty()
}

#[test]
fn cooling_load_pipeline_json_is_byte_identical() {
    // The whole seeded pipeline — trace generation, melting-point grid
    // search, cluster simulation — run twice, serialized, and compared as
    // raw bytes. Any hidden nondeterminism (map iteration order, float
    // formatting, unseeded randomness) breaks this.
    let a = fig11(ServerClass::LowPower1U);
    let b = fig11(ServerClass::LowPower1U);
    assert_eq!(a.as_bytes(), b.as_bytes());
}

#[test]
fn constrained_pipeline_json_is_byte_identical() {
    let a = Scenario::new(ServerClass::HighThroughput2U)
        .constrained_study()
        .to_json_pretty();
    let b = Scenario::new(ServerClass::HighThroughput2U)
        .constrained_study()
        .to_json_pretty();
    assert_eq!(a.as_bytes(), b.as_bytes());
}

/// Runs `f` with the `tts_exec` worker count pinned to `threads`,
/// restoring the default afterwards even on panic. The override is
/// process-global, so a mutex keeps concurrently running tests from
/// clobbering each other's setting.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK.lock();
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            tts_exec::set_thread_override(None);
        }
    }
    let _reset = Reset;
    tts_exec::set_thread_override(Some(threads));
    let out = f();
    drop(guard);
    out
}

#[test]
fn fig7_json_is_byte_identical_across_thread_counts() {
    // The tentpole determinism contract: the parallel execution engine
    // must make thread count unobservable. The full Figure 7 pipeline
    // (three servers × ten blockage steady-states) serialized at 1 worker
    // and at 8 workers must agree byte for byte.
    let fig7 = || {
        ServerClass::ALL
            .iter()
            .map(|c| {
                let rows = default_sweep(&c.spec(), &MetricsSink::disabled());
                format!("{c}:{}", rows.to_json_pretty())
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = with_threads(1, fig7);
    let parallel = with_threads(8, fig7);
    assert_eq!(serial.as_bytes(), parallel.as_bytes());
}

#[test]
fn fig11_json_is_byte_identical_across_thread_counts() {
    // The melting-point grid search fans out per candidate; its in-order
    // reduction must pick the same winner (and produce the same bytes)
    // at any worker count.
    let serial = with_threads(1, || fig11(ServerClass::LowPower1U));
    let parallel = with_threads(8, || fig11(ServerClass::LowPower1U));
    assert_eq!(serial.as_bytes(), parallel.as_bytes());
}

/// Runs a registered experiment with a fresh metrics registry at the
/// given worker count and returns the rendered sidecar bytes.
fn sidecar_bytes(name: &str, threads: usize) -> String {
    with_threads(threads, || {
        let exp = thermal_time_shifting::experiment::find(name).expect("registered experiment");
        let ctx = thermal_time_shifting::ExecCtx::with_metrics();
        exp.run_with(&ctx, &Default::default())
            .expect("default params");
        ctx.sidecar(None, None)
            .expect("metrics enabled")
            .to_string_pretty()
    })
}

#[test]
fn fig7_metrics_sidecar_is_byte_identical_across_thread_counts() {
    // The observability contract: deterministic metrics (tick counters,
    // solver histograms, replayed gauges) must be as thread-invariant as
    // the physics. The whole Figure 7 pipeline instrumented and snapshotted
    // at 1, 4, and 8 workers must serialize byte for byte.
    let one = sidecar_bytes("fig7", 1);
    let four = sidecar_bytes("fig7", 4);
    let eight = sidecar_bytes("fig7", 8);
    assert_eq!(one.as_bytes(), four.as_bytes());
    assert_eq!(one.as_bytes(), eight.as_bytes());
}

#[test]
fn discrete_sim_metrics_sidecar_is_byte_identical_across_thread_counts() {
    // Same contract for the event-driven simulator, including the periodic
    // flush snapshots stamped with simulated time.
    let one = sidecar_bytes("dcsim", 1);
    let four = sidecar_bytes("dcsim", 4);
    let eight = sidecar_bytes("dcsim", 8);
    assert_eq!(one.as_bytes(), four.as_bytes());
    assert_eq!(one.as_bytes(), eight.as_bytes());
}

#[test]
fn scenarios_matrix_json_is_byte_identical_across_thread_counts() {
    // The scenario matrix fans its (site × backend × trace) cells out
    // through the ordered executor; the golden contract is that the
    // machine-readable summary — the same bytes `--write` files and
    // `ttsd` serves — is identical at 1, 4, and 8 workers.
    let render = |threads: usize| -> String {
        with_threads(threads, || {
            let exp = thermal_time_shifting::experiment::find("scenarios").expect("registered");
            let ctx = thermal_time_shifting::ExecCtx::disabled();
            let params = thermal_time_shifting::experiment::Params {
                sites: Some(2),
                backends: Some(3),
                traces: Some(2),
                seed: Some(42),
                ..Default::default()
            };
            let fig = exp.run_with(&ctx, &params).expect("supported params");
            exp.emit_json(&fig).to_string_pretty()
        })
    };
    let one = render(1);
    let four = render(4);
    let eight = render(8);
    assert_eq!(one.as_bytes(), four.as_bytes());
    assert_eq!(one.as_bytes(), eight.as_bytes());
    // The summary carries the matrix aggregate the CI gate checks.
    assert!(one.contains("hotwater_reuse_win_cells"));
}

#[test]
fn different_seeds_change_the_noise_not_the_physics() {
    let base = ValidationConfig {
        idle_before_h: 0.25,
        load_h: 2.0,
        idle_after_h: 2.0,
        sample_period: Seconds::new(120.0),
        ..Default::default()
    };
    let other = ValidationConfig {
        seed: 0xfeed,
        ..base.clone()
    };
    let a = run(&base);
    let b = run(&other);
    // Reference ("real") traces differ (noise + perturbation) ...
    assert_ne!(a.real_wax, b.real_wax);
    // ... but the production model is seed-free and identical.
    assert_eq!(a.icepak_wax, b.icepak_wax);
}
