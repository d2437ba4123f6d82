//! Property tests for the calendar queue, driven by the in-repo `tts_rng::prop`
//! harness. The frozen heap `EventQueue` (from the dev-only
//! `tts-dcsim-oracle` crate) is the ordering oracle: both queues
//! promise the same total order — ascending time, insertion sequence breaking
//! ties — so any divergence is a calendar bug.
//!
//! On failure the harness prints the failing case plus a
//! `reproduce first with: TTS_PROP_SEED=0x…` line, so every red run is
//! replayable.

use tts_dcsim::CalendarQueue;
use tts_dcsim_oracle::EventQueue;
use tts_rng::prop::prelude::*;

/// Quantizes raw ticks onto a coarse grid so generated schedules carry many
/// exact time ties, exercising the insertion-sequence tie-break.
fn tick_to_time(tick: u32) -> f64 {
    f64::from(tick) * 0.25
}

proptest! {
    /// Draining a freshly filled queue yields exactly the reference order:
    /// a *stable* sort by time (stable = insertion sequence breaks ties),
    /// and bit-for-bit the same sequence as the heap oracle.
    #[test]
    fn drain_matches_reference_sort(ticks in collection::vec(0u32..64, 1..300)) {
        let mut calendar = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let mut reference: Vec<(f64, usize)> = Vec::with_capacity(ticks.len());
        for (seq, &tick) in ticks.iter().enumerate() {
            let t = tick_to_time(tick);
            calendar.push(t, seq);
            heap.push(t, seq);
            reference.push((t, seq));
        }
        reference.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

        let mut drained = Vec::with_capacity(ticks.len());
        while let Some(ev) = calendar.pop() {
            prop_assert_eq!(Some(ev), heap.pop());
            drained.push(ev);
        }
        prop_assert!(calendar.is_empty());
        prop_assert!(heap.is_empty());
        prop_assert_eq!(drained, reference);
    }

    /// Interleaved insert/extract: after an arbitrary schedule of pushes and
    /// pops, no element is ever lost or duplicated, and every pop agrees with
    /// the oracle even while both queues are mid-stream.
    #[test]
    fn interleaved_ops_never_lose_or_duplicate(
        ops in collection::vec((0u32..64, 0usize..3), 1..200),
    ) {
        let mut calendar = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let mut pushed = 0usize;
        let mut seen = vec![0u32; ops.len()];

        for (seq, &(tick, pops)) in ops.iter().enumerate() {
            let t = tick_to_time(tick);
            calendar.push(t, seq);
            heap.push(t, seq);
            pushed += 1;
            for _ in 0..pops {
                prop_assert_eq!(calendar.peek_time(), heap.peek_time());
                let got = calendar.pop();
                prop_assert_eq!(got, heap.pop());
                if let Some((_, id)) = got {
                    seen[id] += 1;
                }
            }
            prop_assert_eq!(calendar.len(), heap.len());
        }
        while let Some(ev) = calendar.pop() {
            prop_assert_eq!(Some(ev), heap.pop());
            seen[ev.1] += 1;
        }
        prop_assert!(heap.is_empty());

        // Conservation: each of the `pushed` ids came out exactly once.
        prop_assert_eq!(seen.iter().map(|&n| n as usize).sum::<usize>(), pushed);
        prop_assert!(seen.iter().all(|&n| n == 1));
    }
}

proptest! {
    // Fewer cases: each one floods 600+ events through several rebuilds.
    #![cases(24)]

    /// Bucket resizing preserves order. The queue starts at 16 buckets and
    /// rebuilds whenever len crosses 2x buckets (grow) or buckets/4 (shrink),
    /// so a 600+ element flood forces several grows, the deep drain forces
    /// shrinks, and the wide time spread forces width re-estimation — all
    /// while the drained sequence must keep matching the oracle.
    #[test]
    fn resize_cycle_preserves_order(
        flood in collection::vec(0.0f64..1.0e6, 600..900),
        refill in collection::vec(0u32..64, 50..120),
        drain_frac in 0.5f64..0.95,
    ) {
        let mut calendar = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let mut seq = 0usize;
        for &t in &flood {
            calendar.push(t, seq);
            heap.push(t, seq);
            seq += 1;
        }

        // Drain deep enough to trigger shrink rebuilds…
        let drain_n = (flood.len() as f64 * drain_frac) as usize;
        for _ in 0..drain_n {
            prop_assert_eq!(calendar.pop(), heap.pop());
        }

        // …then refill with a tie-heavy cluster (grows again) and drain flat.
        for &tick in &refill {
            let t = tick_to_time(tick);
            calendar.push(t, seq);
            heap.push(t, seq);
            seq += 1;
        }
        prop_assert_eq!(calendar.len(), heap.len());
        while let Some(ev) = calendar.pop() {
            prop_assert_eq!(Some(ev), heap.pop());
        }
        prop_assert!(calendar.is_empty());
        prop_assert!(heap.is_empty());
    }
}

/// Push far past the grow threshold, drain past the shrink threshold, and
/// check the full drain against the heap oracle: a fixed xorshift schedule
/// that needs no harness to replay.
#[test]
fn matches_heap_through_grow_and_shrink() {
    let mut cal = CalendarQueue::new();
    let mut heap = EventQueue::new();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut times = Vec::new();
    for _ in 0..500 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        times.push((x % 100_000) as f64 / 10.0);
    }
    for (i, &t) in times.iter().enumerate() {
        cal.push(t, i);
        heap.push(t, i);
    }
    while let Some(expected) = heap.pop() {
        assert_eq!(cal.pop(), Some(expected));
    }
    assert!(cal.is_empty());
}
