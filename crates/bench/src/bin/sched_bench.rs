//! Simulator-core microbenchmark: events/sec and allocs/event for the
//! timer-wheel event queue.
//!
//! Three workloads isolate the scheduler's costs:
//!
//! - `pingpong` — a zero-loss two-node packet exchange: the transmit /
//!   deliver hot path, where pooled buffers and the recycled action
//!   scratch should drive steady-state heap traffic to zero.
//! - `timers` — thousands of outstanding timers, each re-armed on fire:
//!   a deep queue exercising the wheel's O(1) push/pop.
//! - `rawq` — the same standing population on a bare [`WheelQueue`],
//!   without the dispatch loop.
//!
//! Run `scripts/bench_reproduce.sh sched` to record the results into
//! BENCH_reproduce.json.
//!
//! Usage: `sched_bench [--events N] [--json]`

use simnet::{
    Context, LinkConfig, LinkId, Message, Node, SimDuration, SimTime, Simulator, TimerKey,
    WheelQueue,
};
use softstage_bench::alloc_counter::{snapshot, CountingAlloc};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Clone, Debug)]
struct Ball;
impl Message for Ball {
    fn wire_size(&self) -> usize {
        1200
    }
}

/// Returns the ball on every receipt — one dispatch per hop, forever.
struct Paddle {
    kick: bool,
    link: Option<LinkId>,
}
impl Node<Ball> for Paddle {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        if self.kick {
            if let Some(l) = self.link {
                ctx.send(l, Ball);
            }
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, Ball>, link: LinkId, msg: Ball) {
        ctx.send(link, msg);
    }
}

/// Keeps a fixed population of outstanding timers, re-arming each one as
/// it fires with a deterministic pseudorandom delay.
struct TimerFarm {
    outstanding: u32,
    lcg: u64,
}
impl TimerFarm {
    fn next_delay(&mut self) -> SimDuration {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        SimDuration::from_micros((self.lcg >> 33) % 10_000 + 1)
    }
}
impl Node<Ball> for TimerFarm {
    fn on_start(&mut self, ctx: &mut Context<'_, Ball>) {
        for key in 0..self.outstanding {
            let d = self.next_delay();
            ctx.set_timer(d, u64::from(key));
        }
    }
    fn on_packet(&mut self, _: &mut Context<'_, Ball>, _: LinkId, _: Ball) {}
    fn on_timer(&mut self, ctx: &mut Context<'_, Ball>, key: TimerKey) {
        let d = self.next_delay();
        ctx.set_timer(d, key);
    }
}

struct Measure {
    events_per_sec: f64,
    allocs_per_event: f64,
}

/// Runs `sim` to `warmup` dispatched events, then measures the next
/// `events` dispatches.
fn measure(mut sim: Simulator<Ball>, warmup: u64, events: u64) -> Measure {
    sim.run_while(SimTime::MAX, |s| s.stats().events >= warmup);
    let before_alloc = snapshot();
    let before_events = sim.stats().events;
    let t0 = Instant::now();
    let target = before_events + events;
    sim.run_while(SimTime::MAX, |s| s.stats().events >= target);
    let elapsed = t0.elapsed().as_secs_f64();
    let did = sim.stats().events - before_events;
    let heap_ops = snapshot().since(before_alloc).heap_ops();
    Measure {
        events_per_sec: did as f64 / elapsed.max(1e-9),
        allocs_per_event: heap_ops as f64 / (did.max(1)) as f64,
    }
}

fn pingpong(warmup: u64, events: u64) -> Measure {
    let mut sim = Simulator::new(7);
    let a = sim.add_node(Box::new(Paddle {
        kick: true,
        link: None,
    }));
    let b = sim.add_node(Box::new(Paddle {
        kick: false,
        link: None,
    }));
    let l = sim.add_link(
        a,
        b,
        LinkConfig::wired(100_000_000, SimDuration::from_micros(50)),
    );
    sim.node_mut::<Paddle>(a).expect("paddle a").link = Some(l);
    sim.node_mut::<Paddle>(b).expect("paddle b").link = Some(l);
    measure(sim, warmup, events)
}

fn timers(warmup: u64, events: u64) -> Measure {
    let mut sim = Simulator::new(7);
    sim.add_node(Box::new(TimerFarm {
        outstanding: 4096,
        lcg: 0x9e3779b97f4a7c15,
    }));
    measure(sim, warmup, events)
}

/// Raw queue throughput without the dispatch loop: push/pop cycles on a
/// standing population.
fn raw_queue(events: u64) -> Measure {
    let mut q: WheelQueue<u64> = WheelQueue::new();
    let mut lcg = 1u64;
    let mut now = 0u64;
    let mut seq = 0u64;
    // Standing population of 4096.
    for _ in 0..4096 {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.push(SimTime::from_micros(now + (lcg >> 33) % 10_000), seq, seq);
        seq += 1;
    }
    // Warm the pools with one full rotation.
    for _ in 0..8192 {
        if let Some((at, _, _)) = q.pop() {
            now = at.as_micros();
        }
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.push(SimTime::from_micros(now + (lcg >> 33) % 10_000), seq, seq);
        seq += 1;
    }
    let before_alloc = snapshot();
    let t0 = Instant::now();
    for _ in 0..events {
        if let Some((at, _, _)) = q.pop() {
            now = at.as_micros();
        }
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
        q.push(SimTime::from_micros(now + (lcg >> 33) % 10_000), seq, seq);
        seq += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let heap_ops = snapshot().since(before_alloc).heap_ops();
    Measure {
        events_per_sec: events as f64 / elapsed.max(1e-9),
        allocs_per_event: heap_ops as f64 / events.max(1) as f64,
    }
}

fn main() {
    let mut events: u64 = 2_000_000;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--events" => {
                events = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--events needs a number");
            }
            "--json" => json = true,
            other => {
                eprintln!("sched_bench: unknown argument {other}");
                eprintln!("usage: sched_bench [--events N] [--json]");
                std::process::exit(2);
            }
        }
    }
    let warmup = (events / 10).max(10_000);

    let results = [
        ("pingpong_wheel", pingpong(warmup, events)),
        ("timers_wheel", timers(warmup, events)),
        ("rawq_wheel", raw_queue(events)),
    ];

    if json {
        // One compact object on one line; bench_reproduce.sh embeds it
        // verbatim as BENCH_reproduce.json's "sched" entry.
        let fields: Vec<String> = results
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{}_eps\": {:.0}, \"{}_allocs_per_event\": {:.4}",
                    name, m.events_per_sec, name, m.allocs_per_event
                )
            })
            .collect();
        println!("{{{}, \"events\": {}}}", fields.join(", "), events);
    } else {
        println!("sched_bench: {events} measured events per scenario (warmup {warmup})");
        for (name, m) in &results {
            println!(
                "  {name:<16} {:>12.0} events/sec  {:.4} allocs/event",
                m.events_per_sec, m.allocs_per_event
            );
        }
    }
}
