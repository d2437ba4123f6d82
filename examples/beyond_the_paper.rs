//! Extension studies the paper motivates but does not evaluate:
//! tariff/free-cooling OpEx arbitrage, job relocation vs. wax, rack-by-rack
//! deployment, flash crowds, and multi-year wax degradation.
//!
//! ```text
//! cargo run --release --example beyond_the_paper
//! ```

use thermal_time_shifting::extensions::{
    cooling_opex_study, flash_crowd_study, lifetime_study, partial_deployment_study,
    relocation_study,
};
use tts_server::ServerClass;

fn main() {
    let class = ServerClass::LowPower1U;
    println!("extension studies for the {class} cluster (1008 servers)\n");

    // 1. Figure 1's "off-peak power is cheaper / night air is colder".
    let opex = cooling_opex_study(class);
    println!("1. cooling electricity (tariff + economizer):");
    println!(
        "   ${:.0}/yr -> ${:.0}/yr with PCM  ({:.2} % saved by shifting work to cheap, cold nights)\n",
        opex.without_pcm_per_year.value(),
        opex.with_pcm_per_year.value(),
        opex.saving.percent()
    );

    // 2. §5.2's other lever: ship excess work to another datacenter.
    let reloc = relocation_study(class);
    println!("2. job relocation vs. wax (oversubscribed cooling):");
    println!(
        "   WAN/SLA bill ${:.0}/yr without PCM -> ${:.0}/yr with PCM per cluster\n",
        reloc.without_pcm_per_year.value(),
        reloc.with_pcm_per_year.value()
    );

    // 3. Rack-by-rack retrofit.
    println!("3. partial deployment (fraction of fleet with wax -> peak reduction):");
    for p in partial_deployment_study(class, 5) {
        let bar = "#".repeat((p.peak_reduction.value() * 400.0) as usize);
        println!(
            "   {:>4.0} % equipped: {:>5.2} % |{bar}",
            p.equipped.percent(),
            p.peak_reduction.percent()
        );
    }
    println!("   (diminishing returns: the first racks clip the highest point)\n");

    // 4. A flash crowd on top of the daily peak.
    let crowd = flash_crowd_study(class);
    println!("4. flash crowd (+20 % for 1 h at the daily peak):");
    println!(
        "   calm-trace reduction {:.2} %, surge-trace reduction {:.2} %\n",
        crowd.calm_reduction.percent(),
        crowd.surge_reduction.percent()
    );

    // 5. A cooling-plant failure: how much ride-through does the wax buy?
    {
        use tts_cooling::emergency::{ride_through, DegradedCooling, RoomModel};
        use tts_units::{Celsius, Joules, Seconds, Watts, WattsPerKelvin};
        let room = RoomModel::cluster_room();
        let it = Watts::new(180_000.0);
        // The plant fully offline for up to a day.
        let outage = DegradedCooling {
            plant_capacity: Watts::ZERO,
            profile: &|_| 0.0,
        };
        let day = Seconds::new(86_400.0);
        let bare = ride_through(
            &room,
            it,
            outage,
            WattsPerKelvin::ZERO,
            Joules::ZERO,
            Celsius::new(28.0),
            day,
        )
        .time_to_critical
        .expect("bare room overheats");
        let waxed = ride_through(
            &room,
            it,
            outage,
            WattsPerKelvin::new(1008.0 * 5.0),
            Joules::new(1008.0 * 2.0e5),
            Celsius::new(28.0),
            day,
        )
        .time_to_critical
        .expect("waxed room still overheats, later");
        println!("5. cooling-failure ride-through (full-power 1U cluster):");
        println!(
            "   {:.1} min bare -> {:.1} min with low-melting wax (rate-limited: the",
            bare.value() / 60.0,
            waxed.value() / 60.0
        );
        println!("   fleet's 200 MJ of latent storage can only drain a few kW passively)\n");
    }

    // 6. Does the wax last?
    let life = lifetime_study(class);
    println!("6. wax cycling endurance (one melt/freeze cycle per day):");
    println!(
        "   {:.1} % capacity after the 4-year server life, {:.1} % after the 10-year plant life",
        life.capacity_after_server_life.percent(),
        life.capacity_after_plant_life.percent()
    );
    println!(
        "   80 % end-of-life criterion reached after {} cycles (~{:.0} years)",
        life.cycles_to_80pct,
        life.cycles_to_80pct as f64 / 365.25
    );
}
