//! The §3 / Figure 4 validation experiment: model vs. "real" server, wax
//! vs. placebo, over 1 h idle + 12 h load + 12 h idle.
//!
//! ```text
//! cargo run --release --example validate_server
//! ```

use thermal_time_shifting::chart::ascii_chart;
use tts_server::validation::{run, ValidationConfig, PERTURBATION, SENSOR_SIGMA_K};

fn main() {
    let config = ValidationConfig::default();
    println!(
        "protocol: {} h idle, {} h loaded, {} h idle; sensor sigma {} K, parameter perturbation {} %",
        config.idle_before_h,
        config.load_h,
        config.idle_after_h,
        SENSOR_SIGMA_K,
        PERTURBATION * 100.0
    );
    let r = run(&config);

    println!("\ntemperatures near the wax box (°C), all four configurations:\n");
    let chart = ascii_chart(
        &[
            ("real wax", &r.real_wax),
            ("real placebo", &r.real_placebo),
            ("model wax", &r.icepak_wax),
            ("model placebo", &r.icepak_placebo),
        ],
        76,
        16,
    );
    println!("{chart}");

    println!("model vs. reference agreement:");
    println!(
        "  loaded steady state : mean diff {:+.2} K (wax), {:+.2} K (placebo)  [paper: 0.22 °C]",
        r.steady_wax.mean_difference, r.steady_placebo.mean_difference
    );
    println!(
        "  full transient      : RMSE {:.2} K, correlation r = {:.3}",
        r.transient_wax.rmse, r.transient_wax.correlation
    );

    // The wax's signature: cooler during heat-up, warmer during cool-down.
    let mid_heat = index_at(&r.time_h, config.idle_before_h + 1.0);
    let mid_cool = index_at(&r.time_h, config.idle_before_h + config.load_h + 1.0);
    println!(
        "  wax effect          : heat-up {:+.2} K vs placebo; cool-down {:+.2} K vs placebo",
        r.icepak_wax[mid_heat] - r.icepak_placebo[mid_heat],
        r.icepak_wax[mid_cool] - r.icepak_placebo[mid_cool],
    );
}

fn index_at(times: &[f64], t: f64) -> usize {
    times
        .iter()
        .position(|&x| x >= t)
        .unwrap_or(times.len() - 1)
}
