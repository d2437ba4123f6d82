//! Figure 11 + the §5.1 TCO story: peak cooling-load reduction for all
//! three datacenter configurations, and what it is worth.
//!
//! ```text
//! cargo run --release --example cooling_load
//! ```

use thermal_time_shifting::chart::ascii_chart;
use thermal_time_shifting::experiments::paper_fig11_reduction;
use thermal_time_shifting::Scenario;
use tts_dcsim::cluster::{melt_onset_load_fraction, ClusterConfig};
use tts_server::ServerClass;
use tts_tco::{
    added_servers, cooling_downsize_savings_per_year, retrofit_savings_per_year, Table2, TcoInput,
};

fn main() {
    let table = Table2::paper();
    for class in ServerClass::ALL {
        let study = Scenario::new(class).cooling_load_study();
        let run = &study.run;
        println!("=== {class} ===");
        let chart = ascii_chart(
            &[
                ("cooling load kW", &run.load_no_wax_kw),
                ("with PCM", &run.load_with_wax_kw),
            ],
            72,
            11,
        );
        println!("{chart}");
        println!(
            "  wax: {} ({:.1} L/server), melt onset ~{:.0} % of peak power",
            study.material.name(),
            study.chars.mass.value() / (study.chars.material.density().value() * 1000.0),
            melt_onset_load_fraction(&ClusterConfig::paper_cluster(
                class.spec(),
                study.chars.clone()
            )) * 100.0
        );
        println!(
            "  peak: {:.0} kW -> {:.0} kW = {:.1} % reduction (paper: {:.1} %)",
            run.peak_no_wax.value(),
            run.peak_with_wax.value(),
            run.peak_reduction.percent(),
            paper_fig11_reduction(class)
        );

        // The two §5.1 monetizations, at datacenter scale.
        let dc = TcoInput::paper_10mw(class, true);
        let downsize =
            cooling_downsize_savings_per_year(&table, dc.critical_kw, run.peak_reduction);
        let added = added_servers(dc.servers, run.peak_reduction);
        let retrofit = retrofit_savings_per_year(&table, dc.critical_kw, run.peak_reduction);
        println!(
            "  10 MW datacenter ({} servers): smaller plant saves ${:.0}k/yr,",
            dc.servers,
            downsize.value() / 1e3
        );
        println!(
            "  or +{added} servers (+{:.1} %) under the same plant; retrofit avoids ${:.2}M/yr\n",
            added as f64 / dc.servers as f64 * 100.0,
            retrofit.value() / 1e6
        );
    }
}
