//! The serving-stack benchmark: a client's view of the TCP front door, and
//! where that time goes, on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path servbench/Cargo.toml -- \
//!     --workload hot_hits|hub_heavy|fraud_updates|all --seed N --seconds S --trace 0|1
//! ```
//!
//! The benchmark self-hosts a `NetServer` over one `HostRuntime` (2 CUs,
//! builtin routing table, default prepared cache) on the 10k Chung-Lu gate
//! graph and drives it over loopback with the binary protocol from a closed
//! loop: each caller sends one request, reads the whole reply, and only then
//! sends the next — a payment gateway blocking on its fraud verdict. One
//! caller by default (`--callers` up to the core count). Every answer is
//! checked against a reference counter that shares no code with the stack.
//!
//! A run is a sequence of episodes of fixed work, each on a freshly set-up
//! stack, until `--seconds` is spent; end-to-end metrics are taken per
//! episode and combined over the episodes that lost the fewest CPU ticks to
//! other guests of the machine.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates blocks
//! of untraced and traced requests; each traced request is replayed on a
//! replica runtime through the public call of every layer, spans are written
//! to `out/spans-<workload>.jsonl` beside this package's manifest, and the
//! per-layer metrics are printed. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod stack;
mod trace;
mod workload;

use pefp_graph::{GraphDelta, VertexId};
use pefp_host::wire::{Reply, Request};
use pefp_host::RuntimeStats;
use pefp_streaming::Transaction;
use stack::{Conn, Replay, Stack};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{fraud_count, Oracle, Workload};

/// Set-ups per untraced run, at least; `setup_s` is their median.
const SETUP_RUNS: usize = 3;

/// Requests per block when traced and untraced requests alternate.
const TRACE_BLOCK: u64 = 128;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    callers: usize,
}

const USAGE: &str = "usage: servbench --workload hot_hits|hub_heavy|fraud_updates|all \
     --seed N --seconds S --trace 0|1 [--callers N]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workloads: Vec::new(), seed: 1, seconds: 10.0, trace: false, callers: 1 };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or(bad(&"unknown workload"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--callers" => args.callers = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.workloads.is_empty() {
        return Err(format!("--workload is required\n{USAGE}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    if args.callers == 0 || args.callers > cores {
        return Err(format!("--callers must be 1..={cores} (the core count)"));
    }
    let sequential = args.trace || args.workloads.contains(&Workload::FraudUpdates);
    if args.callers > 1 && sequential {
        return Err("--callers > 1 needs --trace 0 and a static workload".to_string());
    }
    Ok(args)
}

/// One request as the client saw it, kept small: a run holds hundreds of
/// thousands, and they count towards the process's peak memory.
#[derive(Clone, Copy)]
struct Sample {
    /// Send to last reply byte, nanoseconds (tracing work excluded).
    latency_ns: u32,
    traced: bool,
    answered: bool,
}

/// What a closed loop counted.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    wrong: u64,
    busy: u64,
    wall_s: f64,
    /// A transport or protocol failure that ended the loop early.
    fatal: Option<String>,
}

impl Tally {
    /// Folds in another caller's or episode's tally.
    fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.busy += other.busy;
        self.fatal = self.fatal.take().or(other.fatal);
    }

    /// Sorted latencies of the traced or the untraced requests.
    fn latencies(&self, traced: bool) -> Vec<u64> {
        let mut sorted: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.latency_ns.into())
            .collect();
        sorted.sort_unstable();
        sorted
    }
}

/// The update stream of one `fraud_updates` episode in progress: the
/// transactions and their answers, the epoch the next `UpdateOk` must
/// follow, and the inserts the replica has not applied yet.
struct Updates<'a> {
    txs: &'a [Transaction],
    answers: &'a [u64],
    epoch: u64,
    unreplayed: GraphDelta,
}

/// One caller's view of a workload.
struct Caller<'a> {
    pool: &'a [(u32, u32, u32)],
    expected: &'a HashMap<(u32, u32, u32), u64>,
    offset: usize,
    updates: Option<Updates<'a>>,
    /// Trace request id of this loop's first request.
    first_id: u64,
}

/// How one request ended, short of a fatal failure.
enum Verdict {
    Answered,
    Busy,
    Failed,
    Wrong,
}

fn classify_count(reply: &Reply, expected: u64) -> Verdict {
    match reply {
        Reply::Summary { num_paths, .. } if *num_paths == expected => Verdict::Answered,
        Reply::Summary { .. } => Verdict::Wrong,
        Reply::Busy => Verdict::Busy,
        _ => Verdict::Failed,
    }
}

/// A served answer stands only if the replica's answer agrees with the
/// reference too.
fn with_replay(served: Verdict, replayed: Option<Result<u64, String>>, expected: u64) -> Verdict {
    match (served, replayed) {
        (Verdict::Answered, Some(Ok(n))) if n != expected => Verdict::Wrong,
        (Verdict::Answered, Some(Err(_))) => Verdict::Failed,
        (verdict, _) => verdict,
    }
}

impl Caller<'_> {
    /// Runs the closed loop for `requests` requests. With a trace, blocks of
    /// [`TRACE_BLOCK`] untraced and traced requests alternate.
    fn run(
        &mut self,
        conn: &mut Conn,
        requests: usize,
        mut trace: Option<(&mut Tracer, &mut Replay)>,
    ) -> Tally {
        let mut tally = Tally::default();
        let origin = Instant::now();
        for i in 0..requests {
            let traced = trace.is_some() && (i as u64 / TRACE_BLOCK) % 2 == 1;
            let tracing = match &mut trace {
                Some((tracer, replay)) if traced => Some((&mut **tracer, &mut **replay)),
                _ => None,
            };
            let result = match self.updates.is_some() {
                true => self.transaction(conn, i, tracing),
                false => self.count(conn, i, tracing),
            };
            tally.attempted += 1;
            let verdict = match result {
                Ok((latency_ns, verdict)) => {
                    tally.samples.push(Sample {
                        latency_ns: latency_ns.min(u32::MAX as u64) as u32,
                        traced,
                        answered: matches!(verdict, Verdict::Answered),
                    });
                    verdict
                }
                Err(e) => {
                    tally.fatal = Some(e);
                    Verdict::Failed
                }
            };
            match verdict {
                Verdict::Answered | Verdict::Failed => {}
                Verdict::Busy => tally.busy += 1,
                Verdict::Wrong => tally.wrong += 1,
            }
            tally.failed += u64::from(!matches!(verdict, Verdict::Answered));
            if tally.fatal.is_some() {
                break;
            }
        }
        tally.wall_s = origin.elapsed().as_secs_f64();
        tally
    }

    /// One COUNT from the static pool.
    fn count(
        &mut self,
        conn: &mut Conn,
        i: usize,
        trace: Option<(&mut Tracer, &mut Replay)>,
    ) -> Result<(u64, Verdict), String> {
        let key = self.pool[(self.offset + i) % self.pool.len()];
        let expected = self.expected[&key];
        let request = Request::Count { s: key.0, t: key.1, k: key.2 };
        let Some((tracer, replay)) = trace else {
            let started = Instant::now();
            let reply = conn.call(&request)?;
            return Ok((started.elapsed().as_nanos() as u64, classify_count(&reply, expected)));
        };
        let id = self.first_id + i as u64;
        let e2e = tracer.reserve();
        let started = Instant::now();
        let reply = conn.call_traced(&request, tracer, id, e2e)?;
        let ended = Instant::now();
        tracer.record(e2e, id, None, "e2e", started, ended);
        let replayed = replay.count(tracer, id, e2e, key);
        let verdict = with_replay(classify_count(&reply, expected), Some(replayed), expected);
        Ok((ended.duration_since(started).as_nanos() as u64, verdict))
    }

    /// One transaction: COUNT on the pre-insert epoch, then the UPDATE that
    /// inserts its edge. A refused or misnumbered UPDATE ends the run: every
    /// later answer would be asked of a graph the reference never saw.
    fn transaction(
        &mut self,
        conn: &mut Conn,
        i: usize,
        trace: Option<(&mut Tracer, &mut Replay)>,
    ) -> Result<(u64, Verdict), String> {
        let updates = self.updates.as_mut().expect("transaction on the update stream");
        let (tx, expected) = (updates.txs[i], updates.answers[i]);
        let key = fraud_count(&tx);
        let count = Request::Count { s: key.0, t: key.1, k: key.2 };
        let update = Request::Update { remove: false, edges: vec![(tx.from, tx.to)] };
        let edge = (VertexId(tx.from), VertexId(tx.to));

        let (latency_ns, count_reply, update_reply, replayed) = match trace {
            None => {
                let started = Instant::now();
                let count_reply = conn.call(&count)?;
                let update_reply = conn.call(&update)?;
                let latency_ns = started.elapsed().as_nanos() as u64;
                updates.unreplayed.insert_edge(edge.0, edge.1);
                (latency_ns, count_reply, update_reply, None)
            }
            Some((tracer, replay)) => {
                if !updates.unreplayed.is_empty() {
                    replay.runtime.apply_updates(&std::mem::take(&mut updates.unreplayed));
                }
                let id = self.first_id + i as u64;
                let e2e = tracer.reserve();
                let started = Instant::now();
                let count_reply = conn.call_traced(&count, tracer, id, e2e)?;
                let update_reply = conn.call_traced(&update, tracer, id, e2e)?;
                let ended = Instant::now();
                tracer.record(e2e, id, None, "e2e", started, ended);
                let replayed = replay.count(tracer, id, e2e, key);
                let mut delta = GraphDelta::new();
                delta.insert_edge(edge.0, edge.1);
                replay.apply(tracer, id, e2e, &delta);
                let latency_ns = ended.duration_since(started).as_nanos() as u64;
                (latency_ns, count_reply, update_reply, Some(replayed))
            }
        };
        match update_reply {
            Reply::UpdateOk { epoch, edges: 1 } if epoch == updates.epoch + 1 => {
                updates.epoch = epoch
            }
            other => {
                return Err(format!("UPDATE answered {other:?} after epoch {}", updates.epoch))
            }
        }
        Ok((latency_ns, with_replay(classify_count(&count_reply, expected), replayed, expected)))
    }
}

/// The nearest-rank q-quantile of an ascending sample.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The highest of p99, p99.9, … that has at least ten samples beyond it.
fn supported_tail(n: usize) -> Option<f64> {
    [0.99999, 0.9999, 0.999, 0.99].into_iter().find(|q| n as f64 * (1.0 - q) >= 10.0)
}

/// The interquartile mean: the mean of the middle half of `values`. Robust
/// to a few disturbed episodes like a median, but smooth where a median
/// jumps: episodes fall into a few thread-placement modes, and a median
/// flips between them as their shares cross one half.
fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// The first quartile of `values` (nearest rank).
fn lower_quartile(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    values.get((values.len().max(1) - 1) / 4).copied().unwrap_or(0.0)
}

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Clock ticks the hypervisor ran other guests while this machine's CPUs had
/// work (`steal` on the first line of `/proc/stat`), or 0 where unknown.
fn stolen_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|ticks| ticks.parse().ok()).unwrap_or(0)
}

/// The episodes the hypervisor stole least from: those at or below the first
/// quartile of steal, so at least a quarter of them — all of them on a quiet
/// machine, where most episodes lose no tick at all. One stolen 10 ms tick
/// delays about 2% of an episode's requests, which is its p99.
fn calm(episodes: &[Episode]) -> Vec<&Episode> {
    let mut stolen: Vec<u64> = episodes.iter().map(|e| e.stolen).collect();
    stolen.sort_unstable();
    let cut = stolen.get((stolen.len().max(1) - 1) / 4).copied().unwrap_or(0);
    episodes.iter().filter(|e| e.stolen <= cut).collect()
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The served runtime's counters that a run moves, summed over episodes.
#[derive(Default)]
struct Moved {
    cache_hits: u64,
    cache_lookups: u64,
    device_cycles: u64,
    queue_full: u64,
    invalidated: u64,
    updates: u64,
    completed: u64,
    cpu_routed: u64,
}

impl Moved {
    fn add(&mut self, before: &RuntimeStats, after: &RuntimeStats) {
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_lookups +=
            (after.cache_hits + after.cache_misses) - (before.cache_hits + before.cache_misses);
        self.device_cycles += after.total_device_cycles - before.total_device_cycles;
        self.queue_full += after.queue_full_rejections - before.queue_full_rejections;
        self.invalidated += after.cache_invalidated - before.cache_invalidated;
        self.updates += after.graph_updates - before.graph_updates;
        self.completed += after.completed - before.completed;
        self.cpu_routed += after.cpu_routed - before.cpu_routed;
    }

    fn hit_rate(&self) -> f64 {
        ratio(self.cache_hits as f64, self.cache_lookups as f64)
    }
}

/// One episode of a run, as the end-to-end metrics see it.
struct Episode {
    /// Clock ticks the hypervisor took from this machine's CPUs meanwhile.
    stolen: u64,
    seconds: f64,
    answered: u64,
    /// Sorted latencies of the untraced requests that completed in it.
    latencies: Vec<u64>,
}

impl Episode {
    fn of(tally: &Tally, stolen: u64) -> Episode {
        Episode {
            stolen,
            seconds: tally.wall_s,
            answered: tally.samples.iter().filter(|s| s.answered && !s.traced).count() as u64,
            latencies: tally.latencies(false),
        }
    }

    fn qps(&self) -> f64 {
        self.answered as f64 / self.seconds
    }
}

/// A finished run: the JSON result line and the human-readable table.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
}

impl Report {
    fn print(&self, workload: Workload) {
        println!("== {} ==", workload.name());
        for line in &self.lines {
            println!("  {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Drives one episode: `requests` requests over `callers` closed loops (the
/// first one traced, if `trace` is given), tallies folded together.
#[allow(clippy::too_many_arguments)]
fn drive(
    stack: &Stack,
    pool: &[(u32, u32, u32)],
    expected: &HashMap<(u32, u32, u32), u64>,
    updates: Option<Updates<'_>>,
    callers: usize,
    requests: usize,
    first_id: u64,
    trace: Option<(&mut Tracer, &mut Replay)>,
) -> Tally {
    let addr = stack.server.local_addr();
    let caller = |c: usize| Caller {
        pool,
        expected,
        offset: c * pool.len() / callers,
        updates: None,
        first_id,
    };
    let share = requests / callers;
    let run = |mut caller: Caller<'_>, requests, trace| match Conn::connect(addr) {
        Ok(mut conn) => caller.run(&mut conn, requests, trace),
        Err(e) => Tally { fatal: Some(format!("connect: {e}")), ..Tally::default() },
    };
    std::thread::scope(|scope| {
        let others: Vec<_> =
            (1..callers).map(|c| scope.spawn(move || run(caller(c), share, None))).collect();
        let first_share = requests - share * (callers - 1);
        let mut tally = run(Caller { updates, ..caller(0) }, first_share, trace);
        for other in others {
            let other = other.join().expect("caller thread");
            tally.wall_s = tally.wall_s.max(other.wall_s);
            tally.absorb(other);
        }
        tally
    })
}

fn run_workload(workload: Workload, args: &Args) -> Report {
    let pool = workload.pool(args.seed);
    let graph = pefp_bench::gate::gate_graph();
    let mut oracle = Oracle::new(&graph.csr);
    let expected: HashMap<(u32, u32, u32), u64> =
        pool.iter().map(|&(s, t, k)| ((s, t, k), oracle.count(s, t, k))).collect();
    let stream = (workload == Workload::FraudUpdates).then(|| {
        let accounts = graph.csr.num_vertices() as u32;
        Workload::transactions(args.seed, accounts, workload.episode_len(), &mut oracle)
    });

    // The replica gets its own copy of the graph, so the replay does not run
    // warm on rows the served request has just pulled into the CPU caches.
    let replica = || Replay::new(pefp_bench::gate::gate_graph(), &pool);
    let mut stack = Stack::set_up(&pool);
    let mut setup_s = vec![stack.setup_s];
    let mut replay = args.trace.then(replica);
    let mut tracer = Tracer::new(Instant::now());
    let mut tally = Tally::default();
    let mut episodes = Vec::new();
    let mut moved = Moved::default();
    let mut rss_mb = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let before = stack.runtime.stats();
        let stolen_before = stolen_ticks();
        let trace = replay.as_mut().map(|r| (&mut tracer, r));
        let updates = stream.as_ref().map(|(txs, answers)| Updates {
            txs,
            answers,
            epoch: stack.runtime.epoch(),
            unreplayed: GraphDelta::new(),
        });
        let (len, first_id) = (workload.episode_len(), tally.attempted);
        let loop_tally =
            drive(&stack, &pool, &expected, updates, args.callers, len, first_id, trace);
        moved.add(&before, &stack.runtime.stats());
        if rss_mb == 0.0 {
            // Peak memory of serving the first episode: later ones only add
            // the allocator's leftovers from the stacks torn down.
            rss_mb = peak_rss_mb();
        }
        episodes.push(Episode::of(&loop_tally, stolen_ticks() - stolen_before));
        tally.wall_s += loop_tally.wall_s;
        let took = Duration::from_secs_f64(loop_tally.wall_s);
        tally.absorb(loop_tally);
        // A new episode starts only if it should end before the deadline.
        if tally.fatal.is_some() || Instant::now() + took > deadline {
            break;
        }
        stack.server.shutdown();
        stack = Stack::set_up(&pool);
        setup_s.push(stack.setup_s);
        if let Some(old) = replay.take() {
            let mut fresh = replica();
            fresh.counts = old.counts;
            replay = Some(fresh);
        }
    }
    stack.server.shutdown();
    drop(stack);
    while !args.trace && setup_s.len() < SETUP_RUNS {
        let again = Stack::set_up(&pool);
        setup_s.push(again.setup_s);
        again.server.shutdown();
    }

    let mut lines = Vec::new();
    let mut correct = tally.wrong == 0;
    if let Some(e) = &tally.fatal {
        lines.push(format!("run ended early: {e}"));
        correct = false;
    }
    if workload == Workload::HotHits && moved.hit_rate() != 1.0 {
        lines
            .push(format!("premise broken: hot_hits cache hit rate {} is not 1", moved.hit_rate()));
        correct = false;
    }
    let error_rate = ratio(tally.failed as f64, tally.attempted as f64);
    lines.push(format!(
        "closed loop, {} caller(s), binary protocol over loopback, seed {}, {:.1} s measured",
        args.callers, args.seed, tally.wall_s
    ));
    lines.push(format!(
        "attempted {}  failed {}  (wrong {}, busy {})  error_rate {} fraction",
        tally.attempted, tally.failed, tally.wrong, tally.busy, error_rate
    ));
    lines.push(format!(
        "device_cycles {} cycles  ({:.1} cycles per request)",
        moved.device_cycles,
        ratio(moved.device_cycles as f64, tally.attempted as f64)
    ));

    let metrics = if let Some(replay) = &replay {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}.jsonl", workload.name()));
        match tracer.write_jsonl(&path) {
            Ok(()) => lines.push(format!("spans written to {}", path.display())),
            Err(e) => lines.push(format!("could not write spans to {}: {e}", path.display())),
        }
        per_layer(&tracer, &tally, replay, &moved, &mut lines)
    } else {
        let sorted = tally.latencies(false);
        lines.push(format!(
            "whole run: p50 {:.4} ms  p99 {:.4} ms over {} samples",
            quantile(&sorted, 0.50) / 1e6,
            quantile(&sorted, 0.99) / 1e6,
            sorted.len()
        ));
        if let Some(q) = supported_tail(sorted.len()) {
            lines.push(format!(
                "whole run: p{} {:.4} ms (the highest percentile with >= 10 samples beyond it)",
                q * 100.0,
                quantile(&sorted, q) / 1e6,
            ));
        }
        let thinnest = episodes.iter().map(|e| e.latencies.len()).min().unwrap_or(0);
        lines.push(format!("{} episodes, >= {thinnest} samples each", episodes.len()));
        if thinnest < 1000 {
            lines.push("an episode has < 1000 samples: its p99 has < 10 beyond it".to_string());
        }
        let calm = calm(&episodes);
        lines.push(format!(
            "{} lost the fewest CPU ticks to other guests: qps and p50 are their interquartile \
             means, p99 the first quartile of their p99s",
            calm.len()
        ));
        let over = |f: &dyn Fn(&Episode) -> f64| calm.iter().map(|e| f(e)).collect::<Vec<f64>>();
        // Interference only ever adds latency, and a single stolen tick
        // lands in an episode's p99, so the tail is read from the better
        // episodes: the first quartile of the calm episodes' p99s.
        let p99s = over(&|e| quantile(&e.latencies, 0.99) / 1e6);
        vec![
            ("qps", interquartile_mean(over(&Episode::qps)), "1/s"),
            ("p50_ms", interquartile_mean(over(&|e| quantile(&e.latencies, 0.50) / 1e6)), "ms"),
            ("p99_ms", lower_quartile(p99s), "ms"),
            ("setup_s", median(setup_s), "s"),
            ("rss_mb", rss_mb, "MB"),
        ]
    };
    Report { correct, attempted: tally.attempted, failed: tally.failed, metrics, lines }
}

/// The per-layer metrics of a traced run.
fn per_layer(
    tracer: &Tracer,
    tally: &Tally,
    replay: &Replay,
    moved: &Moved,
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let totals = tracer.totals();
    let traced = tally.latencies(true);
    let untraced = tally.latencies(false);
    let n = traced.len() as f64;
    let total = |name: &str| ratio(totals.get(name).map_or(0.0, |t| t.0), n);
    let own = |name: &str| ratio(totals.get(name).map_or(0.0, |t| t.1), n);
    let accounted = ratio(totals.values().map(|t| t.1).sum::<f64>(), n);
    lines.push(format!(
        "{} traced requests; layer self times sum to {:.3} us of the {:.3} us mean traced e2e",
        traced.len(),
        accounted / 1e3,
        total("e2e") / 1e3
    ));
    let c = &replay.counts;
    let prepared = c.preprocess_calls as f64;
    let engine_calls = c.engine_calls as f64;
    vec![
        ("net.front_door_us", own("e2e") / 1e3, "us"),
        ("wire.encode_ns", own("wire.encode"), "ns"),
        ("wire.decode_ns", own("wire.decode"), "ns"),
        ("runtime.submit_wait_us", total("runtime.submit_wait") / 1e3, "us"),
        ("runtime.dispatch_us", own("runtime.submit_wait") / 1e3, "us"),
        ("runtime.busy", moved.queue_full as f64, "count"),
        ("cache.hit_rate", moved.hit_rate(), "fraction"),
        ("cache.lookups", moved.cache_lookups as f64, "count"),
        (
            "cache.invalidated_per_update",
            ratio(moved.invalidated as f64, moved.updates as f64),
            "ratio",
        ),
        ("preprocess.us", own("preprocess") / 1e3, "us"),
        ("preprocess.kept_frac", ratio(c.kept_frac_sum, prepared), "fraction"),
        ("preprocess.infeasible_frac", ratio(c.infeasible as f64, prepared), "fraction"),
        ("routing.route_us", own("routing") / 1e3, "us"),
        ("routing.cpu_share", ratio(moved.cpu_routed as f64, moved.completed as f64), "fraction"),
        ("engine.us", own("engine") / 1e3, "us"),
        ("engine.sim_cycles_per_s", ratio(c.engine_cycles as f64, c.engine_ns / 1e9), "1/s"),
        ("engine.expansions", ratio(c.expansions as f64, engine_calls), "count"),
        ("engine.results_per_expansion", ratio(c.results as f64, c.expansions as f64), "ratio"),
        ("device.dram_words", ratio(c.dram_words as f64, engine_calls), "count"),
        ("device.bram_hit_rate", ratio(c.bram_hits as f64, c.bram_lookups as f64), "fraction"),
        ("device.buffer_flushes", ratio(c.buffer_flushes as f64, engine_calls), "count"),
        (
            "device.cycles_per_req",
            ratio(moved.device_cycles as f64, tally.attempted as f64),
            "cycles",
        ),
        ("baselines.bcdfs_us", own("baselines.bcdfs") / 1e3, "us"),
        ("baselines.join_us", own("baselines.join") / 1e3, "us"),
        ("delta.apply_us", own("delta.apply") / 1e3, "us"),
        ("delta.overlay_rows", ratio(c.overlay_rows as f64, n), "count"),
        ("trace.e2e_mean_us", total("e2e") / 1e3, "us"),
        (
            "trace.overhead_frac",
            ratio(quantile(&traced, 0.5), quantile(&untraced, 0.5)) - 1.0,
            "fraction",
        ),
    ]
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let mut ok = true;
    for &workload in &args.workloads {
        let report = run_workload(workload, &args);
        report.print(workload);
        ok &= report.correct && report.failed == 0;
    }
    if !ok {
        std::process::exit(1);
    }
}
