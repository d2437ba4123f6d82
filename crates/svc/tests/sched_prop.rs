//! Property tests for the partitioned thread-budget scheduler (on the
//! in-repo `prop` harness — `TTS_PROP_CASES` / `TTS_PROP_SEED` apply).
//!
//! The two halves of the ISSUE's scheduler contract:
//!
//! * **Admission** — concurrent leases never overcommit: at every
//!   instant the sum of outstanding grants is at most the budget, every
//!   grant is in `1..=min(want, budget)`… and everything leased is
//!   returned (the pool drains to zero).
//! * **Determinism** — the budget split cannot change result bytes.
//!   Running the same experiment under any `(budget, want)` pair yields
//!   the summary byte-for-byte; only latency may differ.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use thermal_time_shifting::experiment::{self, ExecCtx, Params};
use tts_obs::{Determinism, MetricsSink};
use tts_rng::prop::prelude::*;
use tts_svc::sched::Scheduler;

proptest! {
    #[test]
    fn concurrent_leases_never_exceed_the_budget(
        budget in 1usize..6,
        max_wait in 0usize..4,
        wants in collection::vec(1usize..9, 1..12),
    ) {
        let sink = MetricsSink::fresh();
        let sched = Arc::new(Scheduler::new(budget, max_wait, &sink));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let admitted = Arc::new(AtomicUsize::new(0));
        let rejected = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|s| {
            for (i, &want) in wants.iter().enumerate() {
                let sched = Arc::clone(&sched);
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                let admitted = Arc::clone(&admitted);
                let rejected = Arc::clone(&rejected);
                s.spawn(move || {
                    // Mix both admission paths: even indices may be
                    // rejected by the bounded queue, odd ones always wait.
                    let lease = if i % 2 == 0 {
                        match sched.lease(want) {
                            Ok(l) => l,
                            Err(_) => {
                                rejected.fetch_add(1, Ordering::SeqCst);
                                return;
                            }
                        }
                    } else {
                        sched.lease_queued(want)
                    };
                    let grant = lease.threads();
                    assert!(grant >= 1, "grant must be at least one thread");
                    assert!(grant <= want.max(1), "grant {grant} beyond ask {want}");
                    let now = in_flight.fetch_add(grant, Ordering::SeqCst) + grant;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Hold the lease long enough for peers to overlap.
                    std::thread::sleep(Duration::from_millis(2));
                    in_flight.fetch_sub(grant, Ordering::SeqCst);
                    admitted.fetch_add(1, Ordering::SeqCst);
                    drop(lease);
                });
            }
        });

        prop_assert!(
            peak.load(Ordering::SeqCst) <= budget,
            "peak {} overcommitted budget {budget}",
            peak.load(Ordering::SeqCst)
        );
        prop_assert_eq!(
            admitted.load(Ordering::SeqCst) + rejected.load(Ordering::SeqCst),
            wants.len()
        );
        // Unbounded leases are never rejected, so at least half ran.
        prop_assert!(admitted.load(Ordering::SeqCst) >= wants.len() / 2);
        // Everything granted was returned.
        prop_assert_eq!(sched.leased(), 0);
    }

    #[test]
    fn a_queued_wide_ask_is_not_starved_by_later_narrow_ones(
        budget in 2usize..5,
        followers in 1usize..6,
    ) {
        let sink = MetricsSink::fresh();
        let sched = Arc::new(Scheduler::new(budget, 64, &sink));
        // Fill the pool, then queue one whole-budget ask and a stream of
        // 1-thread asks behind it. FIFO order means the wide ask runs
        // even though every narrow follower would fit sooner.
        let filler = sched.lease(budget).unwrap();
        let wide_ran = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            let wide_sched = Arc::clone(&sched);
            let wide_flag = Arc::clone(&wide_ran);
            let wide = s.spawn(move || {
                let lease = wide_sched.lease_queued(budget);
                wide_flag.store(1, Ordering::SeqCst);
                drop(lease);
            });
            // Wait until the wide ask holds its ticket (the scheduler's
            // waiting gauge reads 1) before the narrow ones queue behind
            // it; a fixed sleep loses that race on a loaded host.
            let waiting = sink.gauge_tagged("svc.sched.waiting", Determinism::BestEffort);
            while waiting.value() < 1.0 {
                std::thread::yield_now();
            }
            for _ in 0..followers {
                let sched = Arc::clone(&sched);
                let wide_ran = Arc::clone(&wide_ran);
                s.spawn(move || {
                    let lease = sched.lease_queued(1);
                    assert_eq!(
                        wide_ran.load(Ordering::SeqCst),
                        1,
                        "a narrow follower overtook the wide ask at the head"
                    );
                    drop(lease);
                });
            }
            std::thread::sleep(Duration::from_millis(5));
            drop(filler);
            wide.join().unwrap();
        });
        prop_assert_eq!(sched.leased(), 0);
    }
}

/// The determinism half, as a plain exhaustive check (each probe runs a
/// real experiment, so random sampling would only add wall-clock): the
/// same scenario under five different `(budget, want)` splits produces
/// the same summary bytes the `repro` harness would file.
#[test]
fn result_bytes_are_identical_across_budget_splits() {
    let exp = experiment::find("fig7").expect("fig7 registered");
    let reference = exp
        .emit_json(
            &exp.run_with(&ExecCtx::disabled(), &Params::default())
                .unwrap(),
        )
        .to_string_pretty();
    for (budget, want) in [(1usize, 1usize), (2, 1), (2, 2), (4, 3), (8, 8)] {
        let sink = MetricsSink::fresh();
        let sched = Scheduler::new(budget, 4, &sink);
        let lease = sched.lease(want).expect("empty scheduler admits");
        let fig = lease.run(|| {
            exp.run_with(&ExecCtx::disabled(), &Params::default())
                .unwrap()
        });
        assert_eq!(
            exp.emit_json(&fig).to_string_pretty(),
            reference,
            "budget={budget} want={want} changed the bytes"
        );
    }
}
