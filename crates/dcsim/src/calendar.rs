//! A bucketed calendar queue with deterministic ordering.
//!
//! The discrete engine's event queue. Events are hashed by time into a
//! ring of buckets (one "day" per bucket, the ring is a "year"); a
//! cursor sweeps the ring one day at a time, so with a well-chosen
//! bucket width both enqueue and dequeue are O(1) amortized (R. Brown,
//! CACM 1988).
//!
//! # Determinism contract
//!
//! The queue realises **exactly** the same total order as a binary heap
//! keyed on `(time, insertion sequence)`: ascending time, FIFO on ties.
//! Within the cursor's current day the next event is selected by a full
//! `(time, seq)` scan — never by storage position — so bucket layout,
//! resize history, and float-boundary quirks cannot leak into pop order.
//! The property suite in `tests/calendar_props.rs` drives this against
//! the frozen heap queue of the dev-only `tts-dcsim-oracle` crate.
//!
//! # Parameters
//!
//! The ring starts at [`CalendarQueue::MIN_BUCKETS`] buckets of width 1 s
//! and rebuilds when the population crosses 2× the bucket count (grow) or
//! ¼ of it (shrink). Each rebuild re-estimates the width as the mean gap
//! between the earliest and latest pending event — a pure function of the
//! pending set, so rebuilds are as deterministic as everything else.

/// An entry in the queue: `(time, seq, payload)`.
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    seq: u64,
    payload: E,
}

/// A time-ordered event queue with FIFO tie-breaking, backed by a bucket
/// ring instead of a heap. Same observable contract as a binary heap;
/// `peek_time` takes `&mut self` because it may advance the cursor past
/// empty days (it never skips an event).
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// The ring. `buckets[w.rem_euclid(n)]` holds every pending event
    /// whose day index is `w` (mod n). Buckets are unsorted; order is
    /// decided at pop time.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket width in seconds (one "day").
    width: f64,
    /// Day index the sweep cursor is in. Every pending event lives in day
    /// `>= window` — pushes into an earlier day move the cursor back.
    window: i64,
    len: usize,
    next_seq: u64,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Smallest (and initial) ring size.
    pub const MIN_BUCKETS: usize = 16;
    /// Smallest permitted bucket width (s); guards the day-index math
    /// against degenerate all-ties populations.
    pub const MIN_WIDTH: f64 = 1e-9;

    /// An empty queue (16 buckets of 1 s until the first rebuild).
    pub fn new() -> Self {
        Self {
            buckets: (0..Self::MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            window: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// The day index of time `t` (monotone non-decreasing in `t`).
    fn day_of(&self, t: f64) -> i64 {
        (t / self.width).floor() as i64
    }

    fn bucket_of(&self, day: i64) -> usize {
        day.rem_euclid(self.buckets.len() as i64) as usize
    }

    /// Schedules `payload` at `time`.
    ///
    /// # Panics
    /// Panics on a NaN time — a NaN would silently corrupt the ordering.
    pub fn push(&mut self, time: f64, payload: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        let day = self.day_of(time);
        if day < self.window {
            // The new event is earlier than the cursor's day: rewind so
            // the sweep cannot miss it. Popped events are gone from the
            // buckets, so rewinding never re-delivers.
            self.window = day;
        }
        let b = self.bucket_of(day);
        self.buckets[b].push(Entry { time, seq, payload });
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Locates the next event — `(bucket, position)` of the pending entry
    /// minimizing `(time, seq)` — advancing the cursor past empty days.
    fn locate_next(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        // Sweep at most one full year; day ordering equals time ordering
        // (distinct days never hold tied times), so the first non-empty
        // day contains the global minimum.
        for _ in 0..self.buckets.len() {
            let b = self.bucket_of(self.window);
            let hit = self.buckets[b]
                .iter()
                .enumerate()
                .filter(|(_, e)| self.day_of(e.time) == self.window)
                .min_by(|(_, x), (_, y)| {
                    x.time
                        .partial_cmp(&y.time)
                        .unwrap_or(core::cmp::Ordering::Equal)
                        .then(x.seq.cmp(&y.seq))
                });
            if let Some((pos, _)) = hit {
                return Some((b, pos));
            }
            self.window += 1;
        }
        // A whole year was empty — the next event is far in the future.
        // Jump straight to the global minimum instead of spinning.
        let mut best: Option<(usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (pos, e) in bucket.iter().enumerate() {
                let better = match best {
                    None => true,
                    Some((bb, bp)) => {
                        let cur = &self.buckets[bb][bp];
                        e.time < cur.time || (e.time == cur.time && e.seq < cur.seq)
                    }
                };
                if better {
                    best = Some((b, pos));
                }
            }
        }
        let (b, pos) = best.expect("len > 0 but no entry found");
        self.window = self.day_of(self.buckets[b][pos].time);
        Some((b, pos))
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let (b, pos) = self.locate_next()?;
        // swap_remove is safe: selection is by (time, seq), never by
        // storage position.
        let e = self.buckets[b].swap_remove(pos);
        self.len -= 1;
        if self.buckets.len() > Self::MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.rebuild((self.buckets.len() / 2).max(Self::MIN_BUCKETS));
        }
        Some((e.time, e.payload))
    }

    /// The time of the earliest pending event. May advance the cursor
    /// (hence `&mut`), but never removes or reorders anything.
    pub fn peek_time(&mut self) -> Option<f64> {
        self.locate_next().map(|(b, pos)| self.buckets[b][pos].time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-buckets every pending event into a ring of `n` buckets, picking
    /// a fresh width from the pending population. Pure function of the
    /// pending set + `n`, so the rebuilt layout is deterministic.
    fn rebuild(&mut self, n: usize) {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            entries.append(bucket);
        }
        if entries.len() >= 2 {
            let mut min_t = f64::INFINITY;
            let mut max_t = f64::NEG_INFINITY;
            for e in &entries {
                min_t = min_t.min(e.time);
                max_t = max_t.max(e.time);
            }
            let spread = max_t - min_t;
            if spread > 0.0 && spread.is_finite() {
                self.width = (spread / entries.len() as f64).max(Self::MIN_WIDTH);
            }
        }
        self.buckets = (0..n).map(|_| Vec::new()).collect();
        // The cursor must sit at (or before) the earliest pending day in
        // the *new* width.
        self.window = entries
            .iter()
            .map(|e| self.day_of(e.time))
            .min()
            .unwrap_or(0);
        for e in entries {
            let b = self.bucket_of(self.day_of(e.time));
            self.buckets[b].push(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = CalendarQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        q.push(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn peek_and_len() {
        let mut q = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(5.0, ());
        q.push(2.0, ());
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let mut q = CalendarQueue::new();
        q.push(f64::NAN, ());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = CalendarQueue::new();
        q.push(10.0, 10);
        q.push(1.0, 1);
        assert_eq!(q.pop(), Some((1.0, 1)));
        q.push(5.0, 5);
        q.push(0.5, 0); // earlier than everything else pending
        assert_eq!(q.pop(), Some((0.5, 0)));
        assert_eq!(q.pop(), Some((5.0, 5)));
        assert_eq!(q.pop(), Some((10.0, 10)));
    }

    #[test]
    fn sparse_far_future_event_is_found() {
        // One event a million "years" past the cursor: the rotation
        // fallback must jump to it rather than sweep day by day.
        let mut q = CalendarQueue::new();
        q.push(0.5, "soon");
        q.push(9.0e9, "later");
        assert_eq!(q.pop(), Some((0.5, "soon")));
        assert_eq!(q.pop(), Some((9.0e9, "later")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_before_cursor_after_pops_is_delivered_first() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.push(i as f64 * 7.0, i);
        }
        for _ in 0..50 {
            q.pop();
        }
        q.push(0.25, 1000); // far earlier than the cursor's day
        assert_eq!(q.pop(), Some((0.25, 1000)));
    }
}
