//! End-to-end reproduction criteria: the paper's headline claims, checked
//! through the full public API (thermal model → characteristics →
//! datacenter simulation → cost model).

use thermal_time_shifting::experiments::{self, paper_fig11_reduction};
use thermal_time_shifting::{ConstrainedStudy, CoolingLoadStudy, Scenario};
use tts_server::ServerClass;

fn fig11_all() -> Vec<CoolingLoadStudy> {
    ServerClass::ALL
        .iter()
        .map(|&c| Scenario::new(c).cooling_load_study())
        .collect()
}

fn fig12_all() -> Vec<ConstrainedStudy> {
    ServerClass::ALL
        .iter()
        .map(|&c| Scenario::new(c).constrained_study())
        .collect()
}

#[test]
fn headline_claim_peak_cooling_reduction() {
    // "PCM can reduce the necessary cooling system size by up to 12 %":
    // every class lands within 0.5–1.5× of its paper number, and the best
    // class shaves ≥ 7 %.
    let results = fig11_all();
    let mut best: f64 = 0.0;
    for (class, r) in ServerClass::ALL.iter().zip(&results) {
        let measured = r.run.peak_reduction.percent();
        let paper = paper_fig11_reduction(*class);
        assert!(
            measured > 0.5 * paper && measured < 1.5 * paper,
            "{class}: {measured}% vs paper {paper}%"
        );
        best = best.max(measured);
    }
    assert!(best >= 7.0, "best reduction only {best}%");
}

#[test]
fn headline_claim_2u_shaves_the_most() {
    // Figure 11's ordering: the 2U (most wax per server) wins.
    let results = fig11_all();
    let r = |i: usize| results[i].run.peak_reduction.percent();
    assert!(r(1) >= r(0), "2U {} vs 1U {}", r(1), r(0));
    assert!(r(1) >= r(2), "2U {} vs OCP {}", r(1), r(2));
}

#[test]
fn headline_claim_constrained_throughput() {
    // "PCM can increase peak throughput up to 69 % while delaying the
    // onset of thermal limits by over 3 hours": gains in the tens of
    // percent, 2U leading, boosts lasting hours.
    let results = fig12_all();
    let gain = |i: usize| results[i].run.peak_gain * 100.0;
    for (i, (class, r)) in ServerClass::ALL.iter().zip(&results).enumerate() {
        assert!(gain(i) >= 15.0, "{class}: gain {}%", gain(i));
        assert!(
            r.run.boosted_hours >= 1.0,
            "{class}: boosted only {} h",
            r.run.boosted_hours
        );
    }
    assert!(
        gain(1) > gain(0) && gain(1) > gain(2),
        "2U must gain the most"
    );
}

#[test]
fn refreeze_completes_within_the_daily_cycle() {
    // §5.1: "there is sufficient cooling capacity to completely resolidify
    // before the end of a 24 hour cycle", with the elevated tail lasting
    // 6–9 h.
    for class in ServerClass::ALL {
        let study = Scenario::new(class).cooling_load_study();
        assert!(study.run.refrozen_at_end, "{class}: wax still molten");
        let per_day = study.run.elevated_hours / 2.0;
        assert!(
            (2.0..14.0).contains(&per_day),
            "{class}: refreeze tail {per_day} h/day (paper: 6-9 h)"
        );
    }
}

#[test]
fn melt_onset_in_the_upper_load_range() {
    // §5.1: "the best wax typically begins to melt when a server exceeds
    // 75 % load" — accept 50–100 % of peak power.
    for class in ServerClass::ALL {
        let study = Scenario::new(class).cooling_load_study();
        let onset = study.chars.melt_onset_power();
        let peak = class
            .spec()
            .wall_power(tts_units::Fraction::ONE, tts_units::Fraction::ONE);
        let frac = onset.value() / peak.value();
        assert!(
            (0.5..=1.05).contains(&frac),
            "{class}: melt onset at {:.0}% of peak power",
            frac * 100.0
        );
    }
}

#[test]
fn tco_analyses_scale_with_the_reductions() {
    let f11 = fig11_all();
    let f12 = fig12_all();
    for ((class, f11), f12) in ServerClass::ALL.iter().zip(&f11).zip(&f12) {
        let s = experiments::tco_summary(
            *class,
            f11.run.peak_reduction,
            tts_units::Fraction::new(f12.run.peak_gain),
        );
        // Six-figure downsizing savings, seven-figure retrofit savings.
        assert!(
            (5e4..6e5).contains(&s.downsize_savings_per_year.measured),
            "{class}: downsize {}",
            s.downsize_savings_per_year.measured
        );
        assert!(
            (1e6..6e6).contains(&s.retrofit_savings_per_year.measured),
            "{class}: retrofit {}",
            s.retrofit_savings_per_year.measured
        );
        // Thousands of added servers in a 10 MW datacenter.
        assert!(
            s.added_servers.measured > 1000.0,
            "{class}: added {}",
            s.added_servers.measured
        );
        // Double-digit TCO efficiency.
        assert!(
            (10.0..50.0).contains(&s.tco_efficiency_pct.measured),
            "{class}: efficiency {}",
            s.tco_efficiency_pct.measured
        );
    }
}

#[test]
fn validation_agrees_sub_kelvin_at_steady_state() {
    // Figure 4's bottom line (paper: 0.22 °C mean difference).
    let r = tts_server::validation::run(&tts_server::validation::ValidationConfig {
        idle_before_h: 0.5,
        load_h: 6.0,
        idle_after_h: 6.0,
        sample_period: tts_units::Seconds::new(120.0),
        ..Default::default()
    });
    assert!(
        r.steady_wax.mean_difference.abs() < 1.5,
        "steady-state mean difference {} K",
        r.steady_wax.mean_difference
    );
    assert!(r.transient_wax.correlation > 0.95);
}
