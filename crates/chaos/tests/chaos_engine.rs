//! The cross-crate simulation-test harness, driven through the in-repo
//! property harness: N seeded scenarios per test, every invariant
//! checked after every event, failing cases replayable from the printed
//! `TTS_PROP_SEED` / `repro chaos --seed` one-liners.

use tts_chaos::{
    run_batch, run_scenario, seed_chain, BatchConfig, FaultPlan, PlanConfig, PlanFaultHook,
};
use tts_dcsim::discrete::FaultHook;
use tts_rng::prop::prelude::*;
use tts_units::json::{parse, FromJson, ToJson};

proptest! {
    #![cases(16)]
    #[test]
    fn any_seed_scenario_holds_every_invariant(seed in 0u64..(1 << 53)) {
        let report = run_scenario(seed, 4);
        prop_assert!(
            report.all_green(),
            "seed {seed:#x} violated {} invariant(s): {:?}\nreplay with: {}",
            report.violations.len(),
            report.violations,
            report.replay_command()
        );
        prop_assert!(report.checks > 1_000, "scenario must actually check things");
    }

    #[test]
    fn sampled_plans_round_trip_through_json(seed in 0u64..(1 << 53)) {
        let cfg = PlanConfig {
            max_faults: 24,
            ..PlanConfig::default()
        };
        let plan = FaultPlan::sample(seed, &cfg);
        let text = plan.to_json().to_string_pretty();
        let round = FaultPlan::from_json(&parse(&text).expect("plan JSON parses"))
            .expect("plan JSON deserializes");
        prop_assert_eq!(&round, &plan);
        prop_assert_eq!(round.to_json().to_string_pretty(), text);
    }

    #[test]
    fn plan_hooks_always_advance_past_now(seed in 0u64..(1 << 53)) {
        let plan = FaultPlan::sample(seed, &PlanConfig::default());
        let mut hook = PlanFaultHook::from_plan(&plan);
        // Drain the schedule through the FaultHook contract: after
        // pop_actions(now), next_time() must be strictly later than now.
        let mut popped = 0;
        while let Some(t) = hook.next_time() {
            let actions = hook.pop_actions(t);
            prop_assert!(!actions.is_empty(), "a due hook must yield actions");
            popped += actions.len();
            if let Some(next) = hook.next_time() {
                prop_assert!(next > t, "hook stalled at t={t}");
            }
        }
        prop_assert!(hook.pop_actions(f64::INFINITY).is_empty());
        // The hook carries exactly the event-level (kill/revive) faults.
        let kills_and_revives = plan
            .faults
            .iter()
            .filter(|f| matches!(f.kind(), "ServerKill" | "ServerRevive"))
            .count();
        prop_assert_eq!(popped, kills_and_revives);
    }
}

#[test]
fn batches_are_byte_identical_across_thread_counts() {
    let cfg = BatchConfig {
        seeds: 6,
        ..BatchConfig::default()
    };
    let render = |threads| {
        tts_exec::with_thread_budget(threads, || run_batch(&cfg).to_json().to_string_pretty())
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(serial, parallel, "TTS_THREADS must never change the bytes");
}

#[test]
fn the_seed_chain_is_independent_of_batch_size() {
    // Prefix property: growing the batch never changes earlier seeds, so
    // a failing seed replays identically outside its original batch.
    let short = seed_chain(99, 4);
    let long = seed_chain(99, 16);
    assert_eq!(&long[..4], &short[..]);
}

#[test]
fn a_violation_report_carries_its_replay_line() {
    let report = run_scenario(42, 4);
    assert_eq!(report.replay_command(), "repro chaos --seed 0x2a");
    assert_eq!(report.seed, 42);
}
