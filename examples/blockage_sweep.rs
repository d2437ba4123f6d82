//! Figure 7: how much airflow can each server afford to give up for wax?
//!
//! ```text
//! cargo run --release --example blockage_sweep
//! ```

use tts_obs::MetricsSink;
use tts_server::blockage::default_sweep;
use tts_server::ServerClass;

fn main() {
    for class in ServerClass::ALL {
        let spec = class.spec();
        println!(
            "=== {class} (wax placement: {}) ===",
            spec.default_wax().label
        );
        println!(
            "{:>9} {:>11} {:>12} {:>12} {:>20}",
            "blockage", "outlet °C", "wax zone °C", "flow CFM", "sockets °C"
        );
        for row in default_sweep(&spec, &MetricsSink::disabled()) {
            let sockets: Vec<String> = row
                .sockets
                .iter()
                .map(|t| format!("{:.0}", t.value()))
                .collect();
            println!(
                "{:>8.0}% {:>11.1} {:>12.1} {:>12.1} {:>20}",
                row.blockage.percent(),
                row.outlet.value(),
                row.wax_zone.value(),
                row.flow.cfm(),
                sockets.join("/")
            );
        }
        println!();
    }
    println!("Paper's reading of these sweeps (§4.1):");
    println!("  1U  — 14 °C outlet rise by 90 %; safe to block 70 % for 1.2 L of wax.");
    println!("  2U  — negligible below ~50-60 %, exponential past 70 %; 69 % chosen for 4 L.");
    println!("  OCP — unsafe as soon as almost any airflow is obstructed; wax only in");
    println!("        reclaimed insert/SSD space (0.5-1.5 L, no added blockage).");
}
