//! Satellite guarantee of the design-search subsystem: on the paper's
//! melting-point space the surrogate-driven search finds the *same*
//! optimum as fig11's exhaustive sweep — same material, bit-identical
//! objective — in at most a tenth of the sweep's simulator evaluations,
//! the `design` experiment's cross-check is fig11's own selection, and the
//! experiment's machine-readable summary is byte-identical across thread
//! budgets.

use thermal_time_shifting::design::{self, SearchConfig};
use thermal_time_shifting::experiment::{find, ExecCtx, Figure};
use thermal_time_shifting::params::Params;
use tts_dcsim::cluster::{default_melting_candidates, select_melting_point};
use tts_dcsim::ClusterConfig;
use tts_obs::MetricsSink;
use tts_pcm::PcmMaterial;
use tts_server::{ServerClass, ServerWaxCharacteristics};
use tts_units::Celsius;
use tts_workload::GoogleTrace;

fn paper_config() -> ClusterConfig {
    let spec = ServerClass::LowPower1U.spec();
    let chars = ServerWaxCharacteristics::extract(
        &spec,
        &PcmMaterial::commercial_paraffin(Celsius::new(45.0)),
    );
    ClusterConfig::paper_cluster(spec, chars)
}

#[test]
fn design_matches_grid_in_a_tenth_of_the_evals() {
    let config = paper_config();
    let trace = GoogleTrace::default_two_day().total().clone();
    let sink = MetricsSink::disabled();
    let candidates = default_melting_candidates();
    let grid_evals = candidates.len();

    let cmaes = design::search_melting_point(
        &config,
        &trace,
        &SearchConfig {
            budget: grid_evals / 10,
            ..SearchConfig::default()
        },
        &sink,
    );
    let (grid_material, grid_run) = select_melting_point(&config, &trace, candidates, &sink);
    let grid_melt_c = grid_material.melting_point().value();

    assert!(
        cmaes.evals * 10 <= grid_evals,
        "design paid {} evals, grid paid {grid_evals}",
        cmaes.evals,
    );
    assert_eq!(
        cmaes.best_x[0].to_bits(),
        grid_melt_c.to_bits(),
        "design picked {} °C, grid picked {grid_melt_c} °C",
        cmaes.best_x[0],
    );
    assert_eq!(
        cmaes.best_value.to_bits(),
        grid_run.peak_with_wax.value().to_bits(),
        "objective differs: {} vs {}",
        cmaes.best_value,
        grid_run.peak_with_wax.value()
    );
    // Same material, down to the derived melting point of the run.
    assert_eq!(cmaes.best_out.melting_point, grid_run.melting_point);
}

fn run(name: &str, params: Params) -> Figure {
    find(name)
        .expect("experiment registered")
        .run_with(&ExecCtx::disabled(), &params)
        .expect("schema accepts servers")
}

#[test]
fn design_cross_check_is_fig11s_own_selection() {
    // The `design` experiment's grid row is fig11's sweep, not a copy of
    // it: at a non-default cluster size its `grid_melt_c` must be the wax
    // fig11 ships for the same 1U cluster.
    let params = || Params {
        servers: Some(126),
        ..Params::default()
    };
    let design = run("design", params());
    let fig11 = run("fig11", params());
    let fig11a = fig11
        .artifacts
        .iter()
        .find(|(path, _)| path == "results/fig11a.json")
        .map(|(_, doc)| doc)
        .expect("fig11 writes panel (a)");
    let fig11_melt_c = fig11a
        .get("melting_point")
        .and_then(|v| v.as_f64())
        .expect("fig11a records its melting point");
    let grid_melt_c = design
        .key_value("grid_melt_c")
        .expect("design reports grid_melt_c");
    assert_eq!(grid_melt_c.to_bits(), fig11_melt_c.to_bits());
    assert_eq!(design.key_value("design_matches_grid"), Some(1.0));
}

#[test]
fn design_summary_is_byte_identical_across_thread_budgets() {
    let emit = |threads: usize| {
        tts_exec::with_thread_budget(threads, || {
            let exp = find("design").expect("design experiment registered");
            let ctx = ExecCtx::disabled();
            let params = Params {
                servers: Some(126),
                ..Params::default()
            };
            let fig = exp.run_with(&ctx, &params).expect("schema accepts servers");
            exp.emit_json(&fig).to_string_pretty()
        })
    };
    let one = emit(1);
    let four = emit(4);
    assert_eq!(one, four, "summary differs between 1 and 4 threads");
}
