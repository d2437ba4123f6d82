//! Figure 12 + the §5.2 TCO efficiency: throughput in a thermally
//! constrained (oversubscribed-cooling) datacenter.
//!
//! ```text
//! cargo run --release --example constrained_throughput
//! ```

use thermal_time_shifting::chart::ascii_chart;
use thermal_time_shifting::experiments::paper_fig12;
use thermal_time_shifting::Scenario;
use tts_server::ServerClass;
use tts_tco::tco_efficiency;
use tts_units::Fraction;

fn main() {
    for class in ServerClass::ALL {
        let study = Scenario::new(class).constrained_study();
        let run = &study.run;
        let (paper_gain, paper_hours) = paper_fig12(class);
        println!(
            "=== {class} (thermal limit {:.0} kW/cluster) ===",
            study.limit_kw
        );
        let chart = ascii_chart(
            &[
                ("ideal", &run.ideal),
                ("no wax", &run.no_wax),
                ("with wax", &run.with_wax),
            ],
            72,
            11,
        );
        println!("{chart}");
        println!(
            "  wax {} holds the cluster past its thermal limit:",
            study.material.name()
        );
        println!(
            "  peak throughput +{:.1} % (paper: +{:.0} %); throttle delayed {:.2} h;",
            run.peak_gain * 100.0,
            paper_gain,
            run.delay_hours
        );
        println!(
            "  throughput boosted for {:.1} h/day (paper: {:.1} h)",
            run.boosted_hours / 2.0,
            paper_hours
        );
        let eff = tco_efficiency(class, Fraction::new(run.peak_gain));
        println!(
            "  TCO efficiency vs. buying that throughput as machines: +{:.1} %\n",
            eff * 100.0
        );
    }
}
