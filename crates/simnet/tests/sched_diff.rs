//! Differential tests: the timer wheel against a reference binary heap.
//!
//! [`WheelQueue`] is the simulator's only event queue. The reference
//! below is a min-heap over `(at, seq)`, whose pop order is the
//! dispatch contract by definition, so the wheel always has an
//! independent oracle. Every test drives both queues with
//! the *same* operation sequence and asserts they agree — on each pop,
//! on each non-mutating peek, and on the final drain. Seeded generators
//! (`util::check` + `util::seed`) cover the regimes where a wheel can
//! diverge from a heap: bursts of equal-timestamp events (FIFO
//! tie-breaking), far-future events that overflow into high wheel
//! levels (cascade correctness), near-term work interleaved with rare
//! far-future outliers, and pops cut short by a dispatch limit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simnet::rng::Rng;
use simnet::{SimTime, WheelQueue};
use util::check::{check, Gen};
use util::seed;

/// One observable pop result.
type Popped = (SimTime, u64, u64);

/// The reference queue: pops in ascending `(at, seq)` order. `seq` is
/// unique per push, so the item never takes part in the ordering.
#[derive(Default)]
struct HeapQueue {
    heap: BinaryHeap<Reverse<Popped>>,
}

impl HeapQueue {
    fn push(&mut self, at: SimTime, seq: u64, item: u64) {
        self.heap.push(Reverse((at, seq, item)));
    }

    fn pop(&mut self) -> Option<Popped> {
        self.heap.pop().map(|Reverse(p)| p)
    }

    fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Pops both queues once and asserts byte-for-byte agreement.
fn pop_both(wheel: &mut WheelQueue<u64>, heap: &mut HeapQueue) -> Option<Popped> {
    let w = wheel.pop();
    let h = heap.pop();
    assert_eq!(w, h, "wheel and heap disagreed on pop order");
    w
}

/// Drives both queues through `ops` interleaved push/pop operations,
/// with `delay` choosing each push's offset from the current clock, then
/// drains and compares the tails.
fn drive(g: &mut Gen, ops: usize, mut delay: impl FnMut(&mut Gen) -> u64) {
    let mut wheel: WheelQueue<u64> = WheelQueue::new();
    let mut heap = HeapQueue::default();
    let mut now = 0u64;
    let mut seq = 0u64;
    for _ in 0..ops {
        if wheel.is_empty() || g.bool() {
            let at = now.saturating_add(delay(g));
            wheel.push(SimTime::from_micros(at), seq, seq);
            heap.push(SimTime::from_micros(at), seq, seq);
            seq += 1;
        } else if let Some((at, _, _)) = pop_both(&mut wheel, &mut heap) {
            now = at.as_micros();
        }
        assert_eq!(wheel.next_at(), heap.next_at(), "peek disagreement");
        assert_eq!(wheel.len(), heap.len());
    }
    while !heap.is_empty() {
        pop_both(&mut wheel, &mut heap);
    }
    assert!(wheel.is_empty());
}

#[test]
fn random_schedules_pop_identically() {
    check("sched-diff-random", 40, |g| {
        drive(g, 400, |g| g.u64_in(0, 10_000));
    });
}

#[test]
fn equal_timestamp_bursts_stay_fifo() {
    // Half of all pushes land at exactly the current time, so FIFO
    // tie-breaking is doing almost all of the ordering work.
    check("sched-diff-bursts", 40, |g| {
        drive(g, 400, |g| if g.bool() { 0 } else { g.u64_in(0, 3) });
    });
}

#[test]
fn far_future_events_overflow_wheel_levels() {
    // Delays of `digit << (6 * level)` place events on every wheel level
    // up to the top (level 10 covers bits 60..64), forcing cascades to
    // interleave with near-term work.
    check("sched-diff-far-future", 40, |g| {
        drive(g, 300, |g| {
            let digit = g.u64_in(1, 63);
            let level = g.usize_in(0, 10) as u32;
            digit.checked_shl(6 * level).unwrap_or(u64::MAX)
        });
    });
}

#[test]
fn near_term_work_with_far_future_outliers_pops_identically() {
    // Mostly sub-millisecond delays, with one push in 17 thrown ~2^40 µs
    // out: near-term dispatch keeps interleaving with buckets parked on
    // the high levels.
    check("sched-diff-outliers", 40, |g| {
        drive(g, 2_000, |g| {
            let delay = g.u64_in(0, 999);
            if g.u64_in(0, 16) == 0 {
                delay << 40
            } else {
                delay
            }
        });
    });
}

#[test]
fn pop_limit_cuts_both_backends_at_the_same_event() {
    // Models Simulator::set_event_limit: dispatch stops after a fixed
    // number of pops, more work arrives, then the run resumes. The
    // prefix before the cut, the cut point, and the tail must all agree.
    check("sched-diff-limit", 30, |g| {
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut heap = HeapQueue::default();
        let mut seq = 0u64;
        let mut push_burst =
            |wheel: &mut WheelQueue<u64>, heap: &mut HeapQueue, g: &mut Gen, base: u64| {
                for _ in 0..g.usize_in(5, 40) {
                    let at = SimTime::from_micros(base + g.u64_in(0, 100));
                    wheel.push(at, seq, seq);
                    heap.push(at, seq, seq);
                    seq += 1;
                }
            };
        push_burst(&mut wheel, &mut heap, g, 0);
        let limit = g.usize_in(1, 20);
        let mut resume_at = 0;
        for _ in 0..limit {
            if let Some((at, _, _)) = pop_both(&mut wheel, &mut heap) {
                resume_at = at.as_micros();
            }
        }
        // New work lands relative to where the limited run stopped.
        push_burst(&mut wheel, &mut heap, g, resume_at);
        while !heap.is_empty() {
            pop_both(&mut wheel, &mut heap);
        }
        assert!(wheel.is_empty());
    });
}

#[test]
fn derived_seed_schedules_are_reproducible() {
    // The same derived seed must produce the same pop sequence from the
    // wheel alone — the scheduler itself adds no hidden state.
    let run = |seed_val: u64| {
        let mut rng = Rng::seed_from_u64(seed_val);
        let mut wheel: WheelQueue<u64> = WheelQueue::new();
        let mut out = Vec::new();
        let mut now = 0u64;
        for seq in 0..500u64 {
            let delay = rng.gen_range_f64(0.0, 5_000.0) as u64;
            wheel.push(SimTime::from_micros(now + delay), seq, seq);
            if seq % 3 == 0 {
                if let Some((at, s, item)) = wheel.pop() {
                    now = at.as_micros();
                    out.push((at, s, item));
                }
            }
        }
        while let Some(p) = wheel.pop() {
            out.push(p);
        }
        out
    };
    for replicate in 0..3 {
        let s = seed::derive(42, "sched-diff", replicate);
        assert_eq!(run(s), run(s), "replicate {replicate} not reproducible");
    }
    assert_ne!(
        run(seed::derive(42, "sched-diff", 0)),
        run(seed::derive(42, "sched-diff", 1)),
        "distinct replicates should explore distinct schedules"
    );
}
