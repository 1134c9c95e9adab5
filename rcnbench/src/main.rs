//! The rcn benchmark: seeded in-process workloads over the workspace
//! crates, timed end to end and, in a separate traced run, per layer.
//!
//! ```text
//! cargo run --release --manifest-path rcnbench/Cargo.toml -- \
//!     --workload classify --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records
//! provenance. See `README.md` for the workloads and metrics.

mod items;
mod report;
mod runner;
mod seams;

use items::{classify_items, crash_items, Wrap};
use rcn_obs::{ProfileReport, Tracer};
use report::{median, quantile, ratio, Metrics};
use runner::{initial_probe, Items, Runner, Work};
use seams::IoStats;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Complete passes a run makes at least, so every verdict's minimum is
/// taken over several repetitions.
const MIN_PASSES: u64 = 3;

const USAGE: &str = "usage: rcnbench --workload <classify|crashsearch> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Classify,
    CrashSearch,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Classify => "classify",
            Workload::CrashSearch => "crashsearch",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    [Workload::Classify, Workload::CrashSearch]
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| "seed must be a whole number")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "seconds must be a number")?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Builds one workload's items.
fn setup(workload: Workload, seed: u64, wrap: &Wrap) -> Items {
    match workload {
        Workload::Classify => Items {
            classify: classify_items(seed, wrap),
            crash: Vec::new(),
            initially_violating: Vec::new(),
        },
        Workload::CrashSearch => {
            let (crash, initially_violating) = crash_items(seed, wrap);
            Items {
                classify: Vec::new(),
                crash,
                initially_violating,
            }
        }
    }
}

/// The items of the store cycle: the zoo items up to cap 6 (through
/// `DiskCache`) or the shipped protocols (through `ExplorerMemo`), the
/// items big enough for a store to matter. Repeats stay in: in the cold
/// pass, a repeated type or system (same cap or budget) reads what its
/// first occurrence wrote.
fn store_items(workload: Workload, seed: u64, wrap: &Wrap) -> Items {
    let mut items = setup(workload, seed, wrap);
    items.classify.retain(|item| item.is_zoo() && item.cap <= 6);
    items.crash.retain(|item| item.is_shipped());
    items
}

/// Times one set-up of the plain items.
fn timed_setup(workload: Workload, seed: u64) -> (Items, f64) {
    let started = Instant::now();
    let items = std::hint::black_box(setup(workload, seed, &Wrap(None)));
    (items, started.elapsed().as_secs_f64())
}

/// A fingerprint of an item mix: labels plus the full content of every
/// generated type and system.
fn mix_fingerprint(items: &Items) -> u64 {
    let mut h = DefaultHasher::new();
    for item in &items.classify {
        item.label.hash(&mut h);
        rcn_decide::type_fingerprint(&*item.ty).hash(&mut h);
    }
    for item in &items.crash {
        item.label.hash(&mut h);
        rcn_faults::system_fingerprint(&item.system).hash(&mut h);
    }
    h.finish()
}

/// What a run reports: its metrics, verdict tally and items.
struct Outcome {
    metrics: Metrics,
    correct: bool,
    passes: u64,
    tally: runner::Tally,
    items: Items,
}

/// The untraced run: end-to-end metrics over `seconds` of timed verdicts.
fn end_to_end(args: &Args, root: PathBuf) -> Outcome {
    let (items, first_setup_s) = timed_setup(args.workload, args.seed);
    let mut runner = Runner::new(&items, &items, root);
    // Set-up is repeated after every pass (and the copy dropped), so its
    // median samples the whole run rather than its first milliseconds.
    let mut setups = vec![first_setup_s];
    loop {
        let complete = runner.pass(Some((args.seconds, MIN_PASSES)));
        setups.push(timed_setup(args.workload, args.seed).1);
        if !complete {
            break;
        }
    }
    let tally = std::mem::take(&mut runner.tally);
    let mut sorted = tally.best.clone();
    sorted.sort_by(f64::total_cmp);
    let mut m = Metrics::default();
    m.push(
        "verdicts_per_s",
        ratio(sorted.len() as f64, sorted.iter().sum()),
        "1/s",
    );
    m.push("verdict_ms.p50", quantile(&sorted, 0.50) * 1e3, "ms");
    m.push("verdict_ms.p95", quantile(&sorted, 0.95) * 1e3, "ms");
    m.push("setup_s", median(&setups), "s");
    m.push("peak_rss_mb", report::peak_rss_mb(), "MB");
    Outcome {
        metrics: m,
        correct: tally.wrong == 0,
        passes: tally.complete_passes + 1,
        tally,
        items,
    }
}

fn io_snapshot(stats: &IoStats) -> [u64; 7] {
    [
        &stats.read_calls,
        &stats.read_ns,
        &stats.bytes_read,
        &stats.write_calls,
        &stats.write_ns,
        &stats.bytes_written,
        &stats.rename_calls,
    ]
    .map(IoStats::get)
}

/// Runs one pass and returns its work counts (with `spec.apply_calls`).
fn counted_pass(runner: &mut Runner<'_>, calls: &AtomicU64) -> Work {
    runner.work = Work::default();
    calls.store(0, Ordering::Relaxed);
    runner.pass(None);
    let mut work = std::mem::take(&mut runner.work);
    work.apply_calls = calls.load(Ordering::Relaxed);
    work
}

/// The traced run: per-layer metrics over a fixed number of passes.
///
/// 1. A sequential counting pass over the counted items (work counts,
///    reference verdicts).
/// 2. `R` rounds (at least 2, filling the run) of one untraced pass over
///    the plain items (the wall baseline) and one traced pass over the
///    counted items with spans in a ring (per-layer self time and counts).
/// 3. Two store cycles over [`store_items`] with counting I/O, each a cold
///    pass into a fresh directory and then a warm pass; the first is
///    reported, the second checks that its counts repeat.
/// 4. One pass over every item at 2 workers (`SearchEngine::new(2)`,
///    `CrashExplorer::with_threads(2)`), compared with pass 1.
fn traced(args: &Args, root: PathBuf) -> Outcome {
    let plain = setup(args.workload, args.seed, &Wrap(None));
    let calls = Arc::new(AtomicU64::new(0));
    let counted = setup(args.workload, args.seed, &Wrap(Some(calls.clone())));
    let mut runner = Runner::new(&counted, &plain, root.clone());
    let sequential = counted_pass(&mut runner, &calls);

    // Untraced and traced passes alternate, so drift over the run (cache
    // warm-up, frequency changes) falls on both sides alike.
    let tracer = Tracer::ring(1 << 24);
    let (mut untraced_best, mut traced_best) = (Vec::new(), Vec::new());
    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        runner.items = &plain;
        runner.tracer = Tracer::disabled();
        std::mem::swap(&mut runner.tally.best, &mut untraced_best);
        runner.pass(None);
        std::mem::swap(&mut runner.tally.best, &mut untraced_best);

        runner.items = &counted;
        runner.tracer = tracer.clone();
        std::mem::swap(&mut runner.tally.best, &mut traced_best);
        passes.push(counted_pass(&mut runner, &calls));
        std::mem::swap(&mut runner.tally.best, &mut traced_best);
    }
    runner.tracer = Tracer::disabled();

    let cache_io = Arc::new(IoStats::default());
    let memo_io = Arc::new(IoStats::default());
    let store_plain = store_items(args.workload, args.seed, &Wrap(None));
    let store_counted = store_items(args.workload, args.seed, &Wrap(Some(calls.clone())));
    let mut store = Runner::new(&store_counted, &store_plain, root.join("store"));
    store.stores = true;
    store.cache_io = Some(cache_io.clone());
    store.memo_io = Some(memo_io.clone());
    let stored = counted_pass(&mut store, &calls);
    let (cache, memo) = (io_snapshot(&cache_io), io_snapshot(&memo_io));
    let stored_again = counted_pass(&mut store, &calls);
    runner.tally.absorb(store.tally);

    let mut pool = Runner::new(&counted, &plain, root.join("pool"));
    pool.threads = 2;
    let (cpu0, wall0) = (report::cpu_seconds(), Instant::now());
    let pooled = counted_pass(&mut pool, &calls);
    let cpu_util = ratio(
        report::cpu_seconds() - cpu0,
        2.0 * wall0.elapsed().as_secs_f64(),
    );
    runner.tally.absorb(pool.tally);

    let (missed, initial_unconfirmed) = initial_probe(&plain.initially_violating);

    let total = |best: &[f64]| best.iter().sum::<f64>();
    let overhead = ratio(total(&traced_best), total(&untraced_best)) - 1.0;
    let rounds = passes.len() as u32;
    let profile = ProfileReport::build(&tracer.ring_events());

    // Self-tests: sequential work counts repeat exactly, and another seed
    // changes the mix.
    let mut self_test = true;
    if missed > 0 {
        eprintln!("oracle: {missed} initially violating programs reported clean");
        self_test = false;
    }
    if passes.iter().any(|w| w.exact() != sequential.exact())
        || stored_again.exact() != stored.exact()
    {
        eprintln!("self-test: work counters did not repeat exactly across passes");
        self_test = false;
    }
    let other = setup(args.workload, args.seed.wrapping_add(1), &Wrap(None));
    if mix_fingerprint(&other) == mix_fingerprint(&plain) {
        eprintln!(
            "self-test: seed {} gives the same mix",
            args.seed.wrapping_add(1)
        );
        self_test = false;
    }

    let r = f64::from(rounds);
    let sum = |f: fn(&Work) -> u64| passes.iter().map(f).sum::<u64>() as f64 / r;
    let self_s = |name: &str| {
        profile
            .rows
            .iter()
            .find(|row| row.name == name)
            .map_or(0.0, |row| row.self_ns as f64 / 1e9 / r)
    };
    let verdict_total = profile.total_ns("verdict").unwrap_or(0) as f64 / 1e9 / r;
    let tally = std::mem::take(&mut runner.tally);

    let mut m = Metrics::default();
    m.push(
        "failed_ratio",
        ratio(tally.failed as f64, tally.attempted as f64),
        "ratio",
    );
    m.push("oracle_s", tally.oracle_s, "s");
    m.push("obs.trace_overhead_ratio", overhead, "ratio");
    m.push(
        "obs.unattributed_ratio",
        ratio(self_s("verdict"), verdict_total),
        "ratio",
    );
    m.push("spec.apply_calls", sum(|w| w.apply_calls), "count");
    m.push("decide.classify_s", self_s("decide.classify"), "s");
    m.push("decide.analyses_computed", sum(|w| w.analyses), "count");
    m.push("decide.partitions_tested", sum(|w| w.partitions), "count");
    m.push("decide.instances_visited", sum(|w| w.instances), "count");
    m.push("decide.cache_hits", sum(|w| w.cache_hits), "count");
    m.push(
        "decide.incremental_hits",
        sum(|w| w.incremental_hits),
        "count",
    );
    m.push(
        "decide.analyses_per_verdict",
        ratio(sum(|w| w.analyses), sum(|w| w.classify_verdicts)),
        "count",
    );
    m.push("faults.explore_s", self_s("faults.explore"), "s");
    m.push("faults.states", sum(|w| w.states), "count");
    m.push("faults.events", sum(|w| w.events), "count");
    m.push("faults.memo_hits", sum(|w| w.memo_hits), "count");
    m.push(
        "faults.states_per_s",
        ratio(sum(|w| w.states), self_s("faults.explore")),
        "1/s",
    );
    m.push("mc.check_s", self_s("mc.check"), "s");
    m.push("mc.states", sum(|w| w.mc_states), "count");
    m.push("mc.events", sum(|w| w.mc_events), "count");
    m.push(
        "mc.frontier_peak",
        passes.iter().map(|w| w.mc_frontier_peak).max().unwrap_or(0) as f64,
        "count",
    );
    m.push(
        "mc.dedup_ratio",
        ratio(sum(|w| w.mc_dedup_hits), sum(|w| w.mc_events)),
        "ratio",
    );
    m.push("mc.valency_s", self_s("mc.valency"), "s");
    m.push("valency.check_s", self_s("valency.check"), "s");
    m.push("analyze.lint_s", self_s("analyze.lint"), "s");
    m.push("faults.shrink_s", self_s("faults.shrink"), "s");
    m.push(
        "faults.shrink_ratio",
        ratio(sum(|w| w.shrink_out), sum(|w| w.shrink_in)),
        "ratio",
    );
    m.push("faults.replay_s", self_s("faults.replay"), "s");
    m.push("runtime.replays", sum(|w| w.replays), "count");
    m.push(
        "faults.replay_confirmed_ratio",
        ratio(sum(|w| w.replays_confirmed), sum(|w| w.replays)),
        "ratio",
    );
    m.push(
        "faults.initial_replay_unconfirmed",
        initial_unconfirmed as f64,
        "count",
    );
    // The store cycle: counts and I/O of one cold + warm cycle.
    let secs = |ns: u64| ns as f64 / 1e9;
    m.push("cache.read_calls", cache[0] as f64, "count");
    m.push("cache.read_s", secs(cache[1]), "s");
    m.push("cache.bytes_read", cache[2] as f64, "B");
    m.push("cache.write_calls", cache[3] as f64, "count");
    m.push("cache.write_s", secs(cache[4]), "s");
    m.push("cache.bytes_written", cache[5] as f64, "B");
    m.push("cache.rename_calls", cache[6] as f64, "count");
    m.push("memo.read_calls", memo[0] as f64, "count");
    m.push("memo.read_s", secs(memo[1]), "s");
    m.push("memo.write_calls", memo[3] as f64, "count");
    m.push("memo.write_s", secs(memo[4]), "s");
    m.push("memo.bytes_written", memo[5] as f64, "B");
    m.push("decide.disk_hits", stored.disk_hits as f64, "count");
    m.push(
        "decide.disk_entries_written",
        stored.disk_written as f64,
        "count",
    );
    m.push(
        "faults.resumed_states",
        stored.resumed_states as f64,
        "count",
    );
    m.push(
        "cache.warm_recomputed",
        stored.warm_recomputed as f64,
        "count",
    );
    // The 2-worker pass against the sequential pass over the same items.
    m.push("cpu_util", cpu_util, "ratio");
    let (seq_analyses, seq_states) = (sequential.analyses as f64, sequential.states as f64);
    let (par_analyses, par_states) = (pooled.analyses as f64, pooled.states as f64);
    let useful = |seq: f64, par: f64| if par == 0.0 { 1.0 } else { seq / par };
    m.push(
        "decide.speculative_analyses",
        par_analyses - seq_analyses,
        "count",
    );
    m.push(
        "decide.useful_ratio",
        useful(seq_analyses, par_analyses),
        "ratio",
    );
    m.push("faults.duplicate_states", par_states - seq_states, "count");
    m.push(
        "faults.shard_useful_ratio",
        useful(seq_states, par_states),
        "ratio",
    );
    m.push("pool.not_identical", tally.not_identical as f64, "count");
    let correct = tally.wrong == 0 && self_test;
    Outcome {
        metrics: m,
        correct,
        passes: u64::from(rounds) * 2 + 1,
        tally,
        items: plain,
    }
}

fn provenance(args: &Args, outcome: &Outcome) -> String {
    let (items, tally, passes) = (&outcome.items, &outcome.tally, outcome.passes);
    let zoo = items.classify.iter().filter(|i| i.is_zoo()).count();
    let shipped = items.crash.iter().filter(|i| i.is_shipped()).count();
    let labels: Vec<String> = items
        .classify
        .iter()
        .map(|i| report::json_str(&i.label))
        .chain(items.crash.iter().map(|i| report::json_str(&i.label)))
        .collect();
    let failures: Vec<String> = tally
        .failures
        .iter()
        .map(|(kind, count)| format!("\"{kind}\": {count}"))
        .collect();
    format!(
        "provenance {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {}, \"git_revision\": {}, \"rustc\": {}, \"mix_fingerprint\": \"{:016x}\", \
         \"items_per_pass\": {{\"classify_zoo\": {zoo}, \"classify_random\": {}, \
         \"crash_shipped\": {shipped}, \"crash_random\": {}}}, \
         \"verdicts\": {{\"attempted\": {}, \"failed\": {}, \"classify_zoo\": {}, \
         \"classify_random\": {}, \"crash_shipped\": {}, \"crash_random\": {}, \
         \"clean\": {}, \"violating\": {}, \"not_identical\": {}}}, \"initially_violating\": {}, \
         \"problems\": {{{}}}, \"passes\": {passes}, \"items\": [{}]}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        report::json_str(&report::git_revision()),
        report::json_str(env!("RCNBENCH_RUSTC")),
        mix_fingerprint(items),
        items.classify.len() - zoo,
        items.crash.len() - shipped,
        tally.attempted,
        tally.failed,
        tally.kinds[0],
        tally.kinds[1],
        tally.kinds[2],
        tally.kinds[3],
        tally.clean,
        tally.violating,
        tally.not_identical,
        items.initially_violating.len(),
        failures.join(", "),
        labels.join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rcnbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Stores live inside the working directory and are removed at exit.
    let base = PathBuf::from(".rcnbench-run");
    let root = base.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = if args.trace {
        traced(&args, root.clone())
    } else {
        end_to_end(&args, root.clone())
    };
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(&base);
    let tally = &outcome.tally;
    for note in &tally.notes {
        eprintln!("rcnbench: {note}");
    }
    println!("{}", provenance(&args, &outcome));
    println!(
        "{}",
        outcome
            .metrics
            .result_line(outcome.correct, tally.attempted, tally.failed)
    );
    ExitCode::SUCCESS
}
