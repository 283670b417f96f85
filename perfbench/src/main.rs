//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <fleet-uniform|fleet-xftp|testbed-fig6>
//!           [--seed N] [--seconds S] [--trace 0|1] [--record]
//! ```
//!
//! One workload per process, single-threaded, as a closed batch: worlds
//! run back to back until `--seconds` have passed (at least one batch).
//! The untraced run (`--trace 0`) calls the public entry points
//! (`fleet::build` + `FleetWorld::run`, `testbed::build` +
//! `Testbed::run`) and reports the end-to-end metrics. The traced run
//! (`--trace 1`) pairs every untraced world with a traced twin whose
//! nodes are timed per role, checks the two are equivalent, and reports
//! the per-layer metrics. `--record` prints the expected outputs of one
//! batch as a row for `src/expected.rs`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An operation is one
//! world (fleets) or one download (testbed); it fails on a panic, a
//! content mismatch, an unfinished client, or a result that differs from
//! the recorded value for the seed or from an earlier batch of the run.

mod expected;
mod layers;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use simnet::{SimDuration, SimStats, SimTime};
use softstage::SoftStageConfig;
use softstage_experiments::fleet::{self, FleetParams, FleetSummary, FleetWorld};
use softstage_experiments::testbed::{self, RunResult, Testbed};
use softstage_experiments::workload::ZipfCatalog;
use softstage_experiments::{ExperimentParams, MB, MBPS};
use util::json::Json;
use vehicular::CoverageSchedule;
use xia_addr::sha1::Sha1;

use layers::Counts;
use perfbench::timed::{Role, RoleClocks};
use perfbench::worlds::{self, ClientOutcome, SetupSplit};

const USAGE: &str = "usage: perfbench --workload <fleet-uniform|fleet-xftp|testbed-fig6> \
                     [--seed N] [--seconds S] [--trace 0|1] [--record]";

/// Builds per run, at least: `setup_s` is their median. Fleet batches
/// build one world each, so the remainder are built and dropped unrun.
const MIN_SETUP_SAMPLES: usize = 5;

/// Where the traced fleet run writes its per-simulated-second rows.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetUniform,
    FleetXftp,
    TestbedFig6,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet-uniform" => Some(Workload::FleetUniform),
            "fleet-xftp" => Some(Workload::FleetXftp),
            "testbed-fig6" => Some(Workload::TestbedFig6),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetUniform => "fleet-uniform",
            Workload::FleetXftp => "fleet-xftp",
            Workload::TestbedFig6 => "testbed-fig6",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    record: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record) = (42u64, 10.0f64, false, false);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        record,
    })
}

/// One run's outcome: operations and named metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one operation, logging it when it failed.
    fn count<T>(&mut self, what: &str, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }

    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                let metric = vec![
                    ("value".into(), Json::Float(value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ];
                (name.clone(), Json::Obj(metric))
            })
            .collect();
        Json::Obj(vec![
            (
                "correct".into(),
                Json::Bool(self.failed == 0 && self.attempted > 0),
            ),
            ("attempted".into(), Json::Int(self.attempted as i64)),
            ("failed".into(), Json::Int(self.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Runs `op`, turning a panic into a failed operation.
fn attempt<T>(op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|_| Err("panicked".to_string()))
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in MB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host-speed witness, in milliseconds, each the median of five.
/// `alu` is a dependent chain of 2^24 xorshift64* steps with no memory
/// traffic; `mem` is 2^18 dependent loads along one random cycle through
/// a 32 MB table, so it feels memory latency and contention the chain
/// cannot. Neither calls repository code: they move with the host and
/// with nothing else.
struct Witness {
    alu_ms: f64,
    mem_ms: f64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn witness() -> Witness {
    let time_ms = |f: &dyn Fn()| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    };
    let alu_ms = time_ms(&|| {
        let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
        for _ in 0..(1u32 << 24) {
            x = xorshift(&mut x);
        }
        black_box(x);
    });
    // Sattolo's shuffle: the table is a single cycle through every slot.
    let mut table: Vec<u32> = (0..1u32 << 23).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15;
    for i in (1..table.len()).rev() {
        let j = (xorshift(&mut x) % i as u64) as usize;
        table.swap(i, j);
    }
    let mem_ms = time_ms(&|| {
        let mut at = black_box(0u32);
        for _ in 0..(1u32 << 18) {
            at = table[at as usize];
        }
        black_box(at);
    });
    Witness { alu_ms, mem_ms }
}

/// The process's CPU seconds (user + sys) from `/proc/self/stat`. Set
/// against wall time it shows when the host, not the code, withheld CPU.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // After the parenthesised command name, utime and stime are the
    // 12th and 13th fields, in clock ticks of 1/100 s.
    let ticks: f64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(2))
        .into_iter()
        .flatten()
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

// ---------------------------------------------------------------- fleets

fn fleet_params(workload: Workload, seed: u64) -> FleetParams {
    FleetParams {
        clients: 1000,
        zipf_skew: 0.0,
        staging: workload == Workload::FleetUniform,
        ..FleetParams::default()
    }
    .with_seed(seed)
}

/// SHA-1 of every client's working set, from independently regenerated
/// object bytes.
fn expected_client_digests(p: &FleetParams) -> Vec<[u8; 20]> {
    let objects: Vec<_> = (0..p.catalog_objects)
        .map(|o| {
            worlds::content(
                p.chunks_per_object * p.chunk_size,
                worlds::fleet_object_seed(p.seed, o),
            )
        })
        .collect();
    let catalog = ZipfCatalog::new(p.catalog_objects, p.zipf_skew);
    (0..p.clients)
        .map(|i| {
            let mut h = Sha1::new();
            for o in worlds::client_objects(&catalog, p.seed, i as u32, p.objects_per_client) {
                h.update(&objects[o]);
            }
            h.finalize()
        })
        .collect()
}

fn recorded_fleet(workload: Workload, seed: u64) -> Option<&'static str> {
    let table = match workload {
        Workload::FleetUniform => expected::FLEET_UNIFORM,
        _ => expected::FLEET_XFTP,
    };
    table.iter().find(|(s, _)| *s == seed).map(|(_, d)| *d)
}

/// Builds and runs one fleet world through the public entry points.
fn fleet_world(p: &FleetParams) -> (FleetWorld, FleetSummary, Duration, Duration) {
    let t = Instant::now();
    let mut world = fleet::build(p);
    let build = t.elapsed();
    let t = Instant::now();
    let summary = world.run();
    (world, summary, build, t.elapsed())
}

/// Checks a finished fleet world: every client done with the bytes it
/// asked for, and the digest equal to the recorded one and to the run's
/// first world.
fn check_fleet(
    world: &FleetWorld,
    summary: &FleetSummary,
    expected: &[[u8; 20]],
    recorded: Option<&str>,
    first: &mut Option<String>,
) -> Result<(), String> {
    if summary.completed != world.clients.len() {
        return Err(format!(
            "{} of {} clients finished",
            summary.completed,
            world.clients.len()
        ));
    }
    for (i, &id) in world.clients.iter().enumerate() {
        if worlds::client_app(&world.sim, id).content_digest() != expected[i] {
            return Err(format!("client {i} delivered the wrong bytes"));
        }
    }
    if let Some(want) = recorded {
        if summary.digest != want {
            return Err(format!("digest {} != recorded {want}", summary.digest));
        }
    }
    match first {
        Some(d) if *d != summary.digest => {
            Err(format!("digest {} != first world {d}", summary.digest))
        }
        Some(_) => Ok(()),
        None => {
            *first = Some(summary.digest.clone());
            Ok(())
        }
    }
}

fn untraced_fleet(args: &Args, report: &mut Report) {
    let p = fleet_params(args.workload, args.seed);
    let expected = expected_client_digests(&p);
    let recorded = recorded_fleet(args.workload, args.seed);
    let mut first = None;
    let (mut setup, mut sim, mut cps) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let outcome = attempt(|| {
            let (world, summary, build, run) = fleet_world(&p);
            check_fleet(&world, &summary, &expected, recorded, &mut first)?;
            Ok((build, run, world.sim.stats().events))
        });
        if let Some((build, run, events)) = report.count("fleet world", outcome) {
            eprintln!(
                "world: build {:.3} s, run {:.3} s, {events} events",
                build.as_secs_f64(),
                run.as_secs_f64()
            );
            setup.push(build.as_secs_f64());
            sim.push(run.as_secs_f64());
            cps.push(p.clients as f64 / (build + run).as_secs_f64());
        }
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    while setup.len() < MIN_SETUP_SAMPLES {
        let t = Instant::now();
        let world = fleet::build(&p);
        setup.push(t.elapsed().as_secs_f64());
        drop(world);
    }
    report.metric("clients_per_s", median(&cps), "1/s");
    report.metric("sim_s", median(&sim), "s");
    report.metric("setup_s", median(&setup), "s");
}

fn traced_fleet(args: &Args, report: &mut Report, layers: &mut Layers) {
    let p = fleet_params(args.workload, args.seed);
    let recorded = recorded_fleet(args.workload, args.seed);
    let (mut expected, mut first) = (None, None);
    let start = Instant::now();
    loop {
        let rows_wanted = layers.batches == 0.0;
        let traced = attempt(|| {
            let rss = status_mb("VmRSS");
            let mut tw = worlds::traced_fleet(&p);
            let rss_mb = status_mb("VmRSS") - rss;
            let mut rows = SecondRows::new();
            let t = Instant::now();
            tw.run(|w| rows.push(w));
            let run = t.elapsed();
            if rows_wanted {
                rows.write(args);
            }
            Ok(TracedRun {
                stats: tw.sim.stats().clone(),
                outcomes: (0..tw.clients.len())
                    .map(|i| ClientOutcome::of(tw.client(i)))
                    .collect(),
                setup: tw.setup,
                rss_mb,
                run,
                clocks: Rc::clone(&tw.clocks),
                counts: Counts::of(&tw.sim, tw.core, &tw.edges, &tw.clients),
            })
        });
        let expected = expected.get_or_insert_with(|| expected_client_digests(&p));
        let twin = attempt(|| {
            let (world, summary, _, run) = fleet_world(&p);
            check_fleet(&world, &summary, expected, recorded, &mut first)?;
            let outcomes = world
                .clients
                .iter()
                .map(|&id| ClientOutcome::of(worlds::client_app(&world.sim, id)))
                .collect();
            Ok((world.sim.stats().clone(), outcomes, run))
        });
        let Some((traced, untraced_run)) = guard(report, "fleet world", traced, twin) else {
            break;
        };
        layers.add_world(&traced, untraced_run);
        layers.batches += 1.0;
        if start.elapsed() >= args.seconds {
            break;
        }
    }
}

/// Per-simulated-second rows of a traced fleet run: where per-event
/// cost climbs as the fleet fills.
struct SecondRows {
    text: String,
    last_wall: Instant,
    last_events: u64,
    last_busy: [u64; 4],
}

impl SecondRows {
    fn new() -> Self {
        SecondRows {
            text: String::new(),
            last_wall: Instant::now(),
            last_events: 0,
            last_busy: [0; 4],
        }
    }

    fn push(&mut self, w: &worlds::TracedFleet) {
        let now = Instant::now();
        let events = w.sim.stats().events;
        let busy = Role::ALL.map(|r| w.clocks.busy_ns(r));
        let wall_s = (now - self.last_wall).as_secs_f64();
        let d_events = events - self.last_events;
        let mut row = vec![
            ("sim_time_s".into(), Json::Float(w.sim.now().as_secs_f64())),
            ("events".into(), Json::Int(d_events as i64)),
            (
                "active_clients".into(),
                Json::Int(w.active_clients() as i64),
            ),
            ("wall_s".into(), Json::Float(wall_s)),
            (
                "ns_per_event".into(),
                Json::Float(ratio(wall_s * 1e9, d_events as f64)),
            ),
        ];
        let mut self_s = wall_s;
        for (i, role) in Role::ALL.iter().enumerate() {
            let busy_s = (busy[i] - self.last_busy[i]) as f64 / 1e9;
            self_s -= busy_s;
            row.push((format!("{}_busy_s", role.name()), Json::Float(busy_s)));
        }
        row.push(("simnet_self_s".into(), Json::Float(self_s)));
        self.text.push_str(&Json::Obj(row).to_string_compact());
        self.text.push('\n');
        self.last_wall = now;
        self.last_events = events;
        self.last_busy = busy;
    }

    fn write(&self, args: &Args) {
        let path = format!(
            "{OUT_DIR}/seconds-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        );
        match std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, &self.text)) {
            Ok(()) => eprintln!("per-second rows: {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

// --------------------------------------------------------------- testbed

/// One Fig. 6 download of the `testbed-fig6` batch.
struct Download {
    label: String,
    params: ExperimentParams,
    schedule: CoverageSchedule,
    config: SoftStageConfig,
}

/// Simulated-time budget of one download (Fig. 6's horizon).
fn fig6_deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(4_000)
}

/// The batch: Table III default, 0.25 MB chunks, 15 Mbps Internet and
/// 37 % wireless loss, each downloaded by SoftStage then Xftp on one
/// seed, as `fig6::compare` pairs them.
fn fig6_downloads(seed: u64) -> Vec<Download> {
    let base = ExperimentParams {
        seed,
        ..ExperimentParams::default()
    };
    let points = [
        ("default", base.clone()),
        (
            "chunk-0.25MB",
            ExperimentParams {
                chunk_size: MB / 4,
                ..base.clone()
            },
        ),
        (
            "internet-15Mbps",
            ExperimentParams {
                internet_bw_bps: 15 * MBPS,
                ..base.clone()
            },
        ),
        (
            "loss-37%",
            ExperimentParams {
                wireless_loss: 0.37,
                ..base
            },
        ),
    ];
    let mut out = Vec::new();
    for (label, params) in points {
        let schedule = params.alternating_schedule(SimDuration::from_secs(4_000));
        for (client, config) in [
            ("softstage", SoftStageConfig::default()),
            ("xftp", SoftStageConfig::baseline()),
        ] {
            out.push(Download {
                label: format!("{label}/{client}"),
                params: params.clone(),
                schedule: schedule.clone(),
                config,
            });
        }
    }
    out
}

/// Builds and runs one download through the public entry points.
fn download(d: &Download) -> (Testbed, RunResult, Duration, Duration) {
    let t = Instant::now();
    let mut tb = testbed::build(&d.params, &d.schedule, d.config.clone());
    let build = t.elapsed();
    let t = Instant::now();
    let result = tb.run(fig6_deadline());
    (tb, result, build, t.elapsed())
}

/// Checks one download: finished with intact content, and equal to the
/// recorded outcome and to the run's first batch.
fn check_download(
    result: &RunResult,
    recorded: Option<(u64, bool)>,
    first: &mut Option<(u64, bool)>,
) -> Result<(u64, bool), String> {
    let got = (
        result.completion.map_or(u64::MAX, SimTime::as_micros),
        result.content_ok,
    );
    if !result.content_ok {
        return Err(format!(
            "content check failed (completion {:?})",
            result.completion
        ));
    }
    if let Some(want) = recorded {
        if got != want {
            return Err(format!("outcome {got:?} != recorded {want:?}"));
        }
    }
    match *first {
        Some(f) if f != got => Err(format!("outcome {got:?} != first batch {f:?}")),
        _ => {
            *first = Some(got);
            Ok(got)
        }
    }
}

fn recorded_downloads(seed: u64) -> Vec<Option<(u64, bool)>> {
    let row = expected::TESTBED_FIG6.iter().find(|(s, _)| *s == seed);
    (0..8).map(|i| row.map(|(_, r)| r[i])).collect()
}

fn untraced_testbed(args: &Args, report: &mut Report) {
    let downloads = fig6_downloads(args.seed);
    let recorded = recorded_downloads(args.seed);
    let mut first = vec![None; downloads.len()];
    let (mut setup, mut sim, mut cps) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let (mut build_sum, mut run_sum) = (Duration::ZERO, Duration::ZERO);
        for (i, d) in downloads.iter().enumerate() {
            let outcome = attempt(|| {
                let (_tb, result, build, run) = download(d);
                check_download(&result, recorded[i], &mut first[i])?;
                Ok((build, run))
            });
            if let Some((build, run)) = report.count(&d.label, outcome) {
                setup.push(build.as_secs_f64());
                build_sum += build;
                run_sum += run;
            }
        }
        eprintln!(
            "batch: build {:.3} s, run {:.3} s",
            build_sum.as_secs_f64(),
            run_sum.as_secs_f64()
        );
        sim.push(run_sum.as_secs_f64());
        cps.push(downloads.len() as f64 / (build_sum + run_sum).as_secs_f64());
        if start.elapsed() >= args.seconds {
            break;
        }
    }
    report.metric("clients_per_s", median(&cps), "1/s");
    report.metric("sim_s", median(&sim), "s");
    report.metric("setup_s", median(&setup), "s");
}

fn traced_testbed(args: &Args, report: &mut Report, layers: &mut Layers) {
    let downloads = fig6_downloads(args.seed);
    let recorded = recorded_downloads(args.seed);
    let mut first = vec![None; downloads.len()];
    let start = Instant::now();
    loop {
        for (i, d) in downloads.iter().enumerate() {
            let traced = attempt(|| {
                let clocks = Rc::new(RoleClocks::default());
                let rss = status_mb("VmRSS");
                let mut tw =
                    worlds::traced_testbed(&d.params, &d.schedule, d.config.clone(), &clocks);
                let rss_mb = status_mb("VmRSS") - rss;
                let t = Instant::now();
                let content_ok = tw.run(fig6_deadline());
                let run = t.elapsed();
                if !content_ok {
                    return Err("traced download failed its content check".to_string());
                }
                Ok(TracedRun {
                    stats: tw.sim.stats().clone(),
                    outcomes: vec![ClientOutcome::of(tw.client_app())],
                    setup: tw.setup,
                    rss_mb,
                    run,
                    clocks,
                    counts: Counts::of(&tw.sim, tw.core, &tw.edges, &[tw.client]),
                })
            });
            let twin = attempt(|| {
                let (tb, result, _, run) = download(d);
                check_download(&result, recorded[i], &mut first[i])?;
                let outcome = ClientOutcome::of(tb.client_app());
                Ok((tb.sim.stats().clone(), vec![outcome], run))
            });
            if let Some((traced, untraced_run)) = guard(report, &d.label, traced, twin) {
                layers.add_world(&traced, untraced_run);
            }
        }
        layers.batches += 1.0;
        if start.elapsed() >= args.seconds || report.failed > 0 {
            break;
        }
    }
}

// ---------------------------------------------------------------- layers

/// One traced world, run and read out.
struct TracedRun {
    stats: SimStats,
    outcomes: Vec<ClientOutcome>,
    setup: SetupSplit,
    /// Resident-set growth across the build.
    rss_mb: f64,
    run: Duration,
    clocks: Rc<RoleClocks>,
    counts: Counts,
}

/// Counts a traced world and its untraced twin as two operations. The
/// traced one fails unless the equivalence guard holds between them.
fn guard(
    report: &mut Report,
    what: &str,
    traced: Result<TracedRun, String>,
    twin: Result<(SimStats, Vec<ClientOutcome>, Duration), String>,
) -> Option<(TracedRun, Duration)> {
    let twin = report.count(&format!("untraced {what}"), twin);
    let traced = traced.and_then(|t| {
        let (stats, outcomes, _) = twin.as_ref().ok_or("no untraced twin to compare with")?;
        worlds::equivalent(stats, &t.stats, outcomes, &t.outcomes)?;
        Ok(t)
    });
    let traced = report.count(&format!("traced {what}"), traced)?;
    Some((traced, twin?.2))
}

/// Per-layer totals over the worlds of a traced run, reported per batch
/// (times, counts) or per world (set-up).
#[derive(Default)]
struct Layers {
    batches: f64,
    worlds: f64,
    setup: SetupSplit,
    /// Resident-set growth across the process's first traced build, the
    /// one whose heap is not reused from an earlier world.
    rss_mb: Option<f64>,
    traced_s: f64,
    untraced_s: f64,
    busy_s: [f64; 4],
    calls: [f64; 4],
    counts: Counts,
}

impl Layers {
    fn add_world(&mut self, t: &TracedRun, untraced: Duration) {
        self.worlds += 1.0;
        self.setup.add(&t.setup);
        self.rss_mb.get_or_insert(t.rss_mb);
        self.traced_s += t.run.as_secs_f64();
        self.untraced_s += untraced.as_secs_f64();
        for (i, &role) in Role::ALL.iter().enumerate() {
            self.busy_s[i] += t.clocks.busy_ns(role) as f64 / 1e9;
            self.calls[i] += t.clocks.calls(role) as f64;
        }
        self.counts.add(&t.counts);
    }

    fn report(&self, r: &mut Report) {
        let (b, w) = (self.batches.max(1.0), self.worlds.max(1.0));
        // Every batch repeats the same counts exactly: report one batch's.
        let per_batch = |n: u64| n as f64 / b;
        let c = &self.counts;
        r.metric("experiments.setup.content_s", self.setup.content_s / w, "s");
        r.metric("experiments.setup.publish_s", self.setup.publish_s / w, "s");
        r.metric("experiments.setup.wire_s", self.setup.wire_s / w, "s");
        r.metric("experiments.setup.rss_mb", self.rss_mb.unwrap_or(0.0), "MB");

        let traced_s = self.traced_s / b;
        let busy: Vec<f64> = self.busy_s.iter().map(|s| s / b).collect();
        let self_s = traced_s - busy.iter().sum::<f64>();
        r.metric("simnet.self_s", self_s, "s");
        r.metric(
            "simnet.ns_per_event",
            ratio(self_s * 1e9, per_batch(c.events)),
            "ns",
        );
        r.metric("simnet.events", per_batch(c.events), "count");
        r.metric("simnet.timers", per_batch(c.timers), "count");
        r.metric("simnet.packets", per_batch(c.packets), "count");
        r.metric("simnet.link.lost", per_batch(c.link_lost), "count");
        r.metric(
            "simnet.link.queue_drops",
            per_batch(c.link_queue_drops),
            "count",
        );
        r.metric(
            "simnet.link.attempts_per_delivery",
            ratio(c.link_attempts as f64, c.link_delivered as f64),
            "ratio",
        );

        for (i, &role) in Role::ALL.iter().enumerate() {
            let layer = match role {
                Role::Origin | Role::Client => "xia-host",
                Role::Core | Role::Edge => "xia-router",
            };
            let prefix = format!("{layer}.{}", role.name());
            let calls = self.calls[i] / b;
            r.metric(format!("{prefix}.busy_s"), busy[i], "s");
            r.metric(format!("{prefix}.calls"), calls, "count");
            r.metric(
                format!("{prefix}.ns_per_call"),
                ratio(busy[i] * 1e9, calls),
                "ns",
            );
        }
        r.metric("xia-router.forwarded", per_batch(c.forwarded), "count");
        r.metric(
            "xia-router.cid_intercepts",
            per_batch(c.cid_intercepts),
            "count",
        );
        r.metric(
            "xia-router.dropped_no_route",
            per_batch(c.dropped_no_route),
            "count",
        );

        r.metric("xcache.edge.hits", per_batch(c.cache_hits), "count");
        r.metric("xcache.edge.misses", per_batch(c.cache_misses), "count");
        r.metric(
            "xcache.edge.insertions",
            per_batch(c.cache_insertions),
            "count",
        );
        r.metric(
            "xcache.edge.evictions",
            per_batch(c.cache_evictions),
            "count",
        );
        r.metric(
            "xcache.edge.hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        );
        r.metric(
            "xcache.edge.evict_log_dropped",
            per_batch(c.evict_log_dropped),
            "count",
        );

        r.metric("softstage.vnf.requests", per_batch(c.vnf_requests), "count");
        r.metric("softstage.vnf.staged", per_batch(c.vnf_staged), "count");
        r.metric("softstage.vnf.rejected", per_batch(c.vnf_rejected), "count");
        r.metric("softstage.vnf.peak_depth", c.vnf_peak_depth as f64, "count");
        r.metric(
            "softstage.client.stage_requests",
            per_batch(c.client_stage_requests),
            "count",
        );
        r.metric(
            "softstage.client.from_staged",
            per_batch(c.client_from_staged),
            "count",
        );
        r.metric(
            "softstage.client.from_origin",
            per_batch(c.client_from_origin),
            "count",
        );
        r.metric(
            "softstage.staged_use_ratio",
            ratio(c.client_from_staged as f64, c.vnf_staged as f64),
            "ratio",
        );
        let jobs = c.vnf_staged + c.vnf_already_cached + c.vnf_failed + c.vnf_rejected;
        r.metric(
            "softstage.reject_ratio",
            ratio(c.vnf_rejected as f64, jobs as f64),
            "ratio",
        );

        r.metric("trace.sim_s", traced_s, "s");
        r.metric(
            "trace.overhead",
            ratio(self.traced_s, self.untraced_s) - 1.0,
            "ratio",
        );
        eprintln!(
            "attribution: busy {:.3} s (origin {:.3}, core {:.3}, edge {:.3}, client {:.3}) + simnet.self_s {:.3} = trace.sim_s {:.3}",
            busy.iter().sum::<f64>(),
            busy[0],
            busy[1],
            busy[2],
            busy[3],
            self_s,
            traced_s
        );
    }
}

// ---------------------------------------------------------------- record

/// Prints one batch's outputs as a row of the matching `expected.rs`
/// table.
fn record(args: &Args) -> Result<(), String> {
    match args.workload {
        Workload::FleetUniform | Workload::FleetXftp => {
            let p = fleet_params(args.workload, args.seed);
            let (world, summary, _, _) = fleet_world(&p);
            check_fleet(
                &world,
                &summary,
                &expected_client_digests(&p),
                None,
                &mut None,
            )?;
            println!("    ({}, \"{}\"),", args.seed, summary.digest);
        }
        Workload::TestbedFig6 => {
            let mut row = Vec::new();
            for d in fig6_downloads(args.seed) {
                let (_, result, _, _) = download(&d);
                let (us, ok) = check_download(&result, None, &mut None)?;
                row.push(format!("({us}, {ok})"));
            }
            println!("    ({}, [{}]),", args.seed, row.join(", "));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("record failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let started = Instant::now();
    let witness_before = witness();
    let mut report = Report::default();
    if args.trace {
        let mut layers = Layers::default();
        match args.workload {
            Workload::TestbedFig6 => traced_testbed(&args, &mut report, &mut layers),
            _ => traced_fleet(&args, &mut report, &mut layers),
        }
        layers.report(&mut report);
    } else {
        match args.workload {
            Workload::TestbedFig6 => untraced_testbed(&args, &mut report),
            _ => untraced_fleet(&args, &mut report),
        }
        report.metric("peak_rss_mb", status_mb("VmHWM"), "MB");
    }
    let witness_after = witness();
    let witness = Json::Obj(vec![
        (
            "kernels".into(),
            Json::Str(
                "alu: xorshift64* chain, 2^24 steps; mem: 2^18-load random cycle, 32 MB".into(),
            ),
        ),
        ("alu_before_ms".into(), Json::Float(witness_before.alu_ms)),
        ("alu_after_ms".into(), Json::Float(witness_after.alu_ms)),
        ("mem_before_ms".into(), Json::Float(witness_before.mem_ms)),
        ("mem_after_ms".into(), Json::Float(witness_after.mem_ms)),
        (
            "cpu_share".into(),
            Json::Float(cpu_seconds() / started.elapsed().as_secs_f64()),
        ),
    ]);
    println!("host-witness: {}", witness.to_string_compact());
    println!("{}", report.json());
    ExitCode::SUCCESS
}
