//! The closed loop: one caller issues verdicts back to back, each through
//! the crates' public entry points, times it, and hands it to the oracle.

use crate::items::{ClassifyItem, CrashItem, Expect, Origin};
use crate::seams::{CountingIo, IoStats};
use rcn_analyze::{CrashDivergence, ExploreConfig, Registry};
use rcn_decide::brute::{check_discerning_brute, check_recording_brute};
use rcn_decide::{DiskCache, LevelResult, SearchEngine, SearchStats, TypeClassification};
use rcn_faults::{
    replay, shrink_counterexample, Counterexample, CrashExplorer, CrashtestConfig, CrashtestReport,
    ExplorerMemo, ExplorerStats,
};
use rcn_mc::{model_check, valency_check, McConfig, McReport, ValencyConfig};
use rcn_model::{Schedule, System};
use rcn_obs::Tracer;
use rcn_valency::BudgetedGraph;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The items of one pass.
pub struct Items {
    pub classify: Vec<ClassifyItem>,
    pub crash: Vec<CrashItem>,
    /// Random programs kept out of the pass because they violate in their
    /// initial configuration (see `items::crash_items`).
    pub initially_violating: Vec<System>,
}

/// Whether a verdict ran without a store, or wrote or read one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Plain,
    Cold,
    Warm,
}

/// Machine-independent work counts, summed over the verdicts of a pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Work {
    pub classify_verdicts: u64,
    pub analyses: u64,
    pub partitions: u64,
    pub instances: u64,
    pub cache_hits: u64,
    pub incremental_hits: u64,
    pub disk_hits: u64,
    pub disk_written: u64,
    pub states: u64,
    pub events: u64,
    pub memo_hits: u64,
    pub resumed_states: u64,
    pub mc_states: u64,
    pub mc_events: u64,
    pub mc_dedup_hits: u64,
    pub mc_frontier_peak: u64,
    pub shrink_in: u64,
    pub shrink_out: u64,
    pub replays: u64,
    pub replays_confirmed: u64,
    pub warm_recomputed: u64,
    pub apply_calls: u64,
}

impl Work {
    /// The counters that must repeat exactly for one seed.
    pub fn exact(&self) -> [u64; 6] {
        [
            self.analyses,
            self.partitions,
            self.states,
            self.events,
            self.mc_states,
            self.apply_calls,
        ]
    }

    fn add_search(&mut self, stats: &SearchStats) {
        self.classify_verdicts += 1;
        self.analyses += stats.analyses_computed;
        self.partitions += stats.partitions_tested;
        self.instances += stats.instances_visited;
        self.cache_hits += stats.cache_hits;
        self.incremental_hits += stats.incremental_hits;
        self.disk_hits += stats.disk_hits;
        self.disk_written += stats.disk_entries_written;
    }

    fn add_crash(&mut self, out: &CrashOut) {
        let stats = &out.report.stats;
        self.states += stats.states_visited;
        self.events += stats.events_applied;
        self.memo_hits += stats.memo_hits;
        self.resumed_states += stats.resumed_states;
        if let Some(mc) = &out.mc {
            self.mc_states += mc.stats.states_visited;
            self.mc_events += mc.stats.events_applied;
            self.mc_dedup_hits += mc.stats.dedup_hits;
            self.mc_frontier_peak = self.mc_frontier_peak.max(mc.stats.frontier_peak);
        }
        if let (Some(cex), Some(minimal)) = (&out.report.counterexample, &out.minimal) {
            self.shrink_in += cex.schedule.len() as u64;
            self.shrink_out += minimal.schedule.len() as u64;
        }
        if let Some(confirmed) = out.confirmed {
            self.replays += 1;
            self.replays_confirmed += u64::from(confirmed);
        }
    }
}

/// Time and outcome tallies of the timed verdicts.
#[derive(Debug, Default)]
pub struct Tally {
    /// The fastest time seen at each position of the pass. Every verdict
    /// is deterministic work, so interference from other tenants of the
    /// host only ever adds time: the minimum over a run's repetitions is
    /// its steadiest estimate of the verdict's cost.
    pub best: Vec<f64>,
    pos: usize,
    pub timed_s: f64,
    pub complete_passes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// 2-worker verdicts with the reference's answer but another valid
    /// witness or schedule: the bit-identical contract is broken, the
    /// answer holds. Counted here, not as failures.
    pub not_identical: u64,
    pub oracle_s: f64,
    pub clean: u64,
    pub violating: u64,
    /// Verdicts by item kind: zoo and random classifications, shipped and
    /// random crash searches.
    pub kinds: [u64; 4],
    /// Failed verdicts by kind of problem.
    pub failures: BTreeMap<&'static str, u64>,
    pub notes: Vec<String>,
}

impl Tally {
    /// Adds another tally's verdict outcomes (not its timings).
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.not_identical += other.not_identical;
        self.oracle_s += other.oracle_s;
        self.clean += other.clean;
        self.violating += other.violating;
        for (mine, theirs) in self.kinds.iter_mut().zip(other.kinds) {
            *mine += theirs;
        }
        for (kind, count) in other.failures {
            *self.failures.entry(kind).or_default() += count;
        }
        self.notes.extend(other.notes);
    }

    /// Counts a problem by kind; the first few of each kind are kept for
    /// the report. A 2-worker (`pooled`) verdict that is only not
    /// bit-identical is counted in `not_identical`; anything else fails.
    fn note(&mut self, item: &str, problem: &Problem, pooled: bool) {
        let severity = match problem.severity {
            Severity::NotIdentical if pooled => {
                self.not_identical += 1;
                "not identical"
            }
            Severity::Wrong => {
                self.failed += 1;
                self.wrong += 1;
                "WRONG"
            }
            _ => {
                self.failed += 1;
                "failed"
            }
        };
        let seen = self.failures.entry(problem.kind).or_default();
        *seen += 1;
        if *seen <= 3 {
            self.notes.push(format!(
                "{severity} ({}): {item}: {}",
                problem.kind, problem.why
            ));
        }
    }
}

/// Everything one crash-search verdict produced.
pub struct CrashOut {
    pub report: CrashtestReport,
    pub mc: Option<McReport>,
    pub minimal: Option<Counterexample>,
    pub confirmed: Option<bool>,
    /// Shipped items: the checker's valency, whether the checker covered
    /// its budget, and the decider stack's valency (`None` when the
    /// budgeted graph outgrew its limit), rendered alike.
    pub valency: Option<(String, bool, Option<String>)>,
    pub divergence_found: Option<bool>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// One classification through `SearchEngine`, optionally over a disk
/// cache.
fn run_classify(
    tracer: &Tracer,
    item: &ClassifyItem,
    threads: usize,
    cache: Option<DiskCache>,
) -> Result<(TypeClassification, SearchStats), String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut engine = SearchEngine::new(threads);
        if let Some(cache) = cache {
            engine = engine.with_disk_cache(cache);
        }
        let result = {
            let _span = tracer.span("decide.classify");
            engine.classify(&*item.ty, item.cap)
        };
        let stats = engine.stats();
        match result {
            Ok(_) if stats.timed_out => Err("search timed out".to_string()),
            Ok(c) => Ok((c, stats)),
            Err(e) => Err(e.to_string()),
        }
    }))
    .unwrap_or_else(|payload| Err(format!("panicked: {}", panic_message(&*payload))))
}

/// One crash-search verdict: the DFS explorer, then (unless `explore_only`)
/// the BFS checker, shrink and threaded replay of any counterexample, and
/// for shipped protocols both valency derivations and the RCN104 lint.
fn run_crash(
    tracer: &Tracer,
    item: &CrashItem,
    threads: usize,
    memo: Option<ExplorerMemo>,
    explore_only: bool,
) -> Result<CrashOut, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let sys = &item.system;
        let mut explorer = CrashExplorer::new(sys, item.config).with_threads(threads);
        if let Some(memo) = memo {
            explorer = explorer.with_memo(memo);
        }
        let report = {
            let _span = tracer.span("faults.explore");
            explorer.explore()
        };
        let mut out = CrashOut {
            report,
            mc: None,
            minimal: None,
            confirmed: None,
            valency: None,
            divergence_found: None,
        };
        if explore_only {
            return out;
        }
        let config = item.config;
        out.mc = Some({
            let _span = tracer.span("mc.check");
            model_check(
                sys,
                McConfig {
                    max_crashes: config.max_crashes,
                    max_depth: config.max_depth,
                    max_states: config.max_states,
                    fault_model: config.fault_model,
                },
            )
        });
        if let Some(cex) = &out.report.counterexample {
            let minimal = {
                let _span = tracer.span("faults.shrink");
                shrink_counterexample(sys, cex)
            };
            let replayed = {
                let _span = tracer.span("faults.replay");
                replay(sys, &minimal.schedule)
            };
            out.confirmed = Some(replayed.confirmed());
            out.minimal = Some(minimal);
        }
        if item.is_shipped() {
            let vconfig = ValencyConfig::default();
            let checker = {
                let _span = tracer.span("mc.valency");
                valency_check(sys, vconfig)
            };
            let decider = {
                let _span = tracer.span("valency.check");
                BudgetedGraph::explore(sys, vconfig.z, vconfig.clamp, vconfig.max_states)
                    .ok()
                    .map(|graph| graph.initial_valency().to_string())
            };
            out.valency = Some((
                checker.valency.to_string(),
                checker.coverage.is_exhaustive(),
                decider,
            ));
            let mut registry = Registry::new();
            registry.register_program(Box::new(CrashDivergence));
            let lint = {
                let _span = tracer.span("analyze.lint");
                registry.lint_system(sys, &ExploreConfig::default())
            };
            out.divergence_found = Some(lint.diagnostics.iter().any(|d| d.code == "RCN104"));
        }
        out
    }))
    .map_err(|payload| format!("panicked: {}", panic_message(&*payload)))
}

/// Explores each initially violating program and replays its
/// counterexample. Returns how many the explorer found no counterexample
/// for (wrong answers) and how many the threaded replay did not confirm.
pub fn initial_probe(systems: &[System]) -> (u64, u64) {
    let (mut missed, mut unconfirmed) = (0, 0);
    for sys in systems {
        let report = CrashExplorer::new(sys, CrashtestConfig::default()).explore();
        match report.counterexample {
            None => missed += 1,
            Some(cex) => unconfirmed += u64::from(!replay(sys, &cex.schedule).confirmed()),
        }
    }
    (missed, unconfirmed)
}

/// States a warm explorer run visited beyond what the memo served. The
/// root is always expanded to consult the memo, so it never counts.
fn warm_reexplored(stats: &ExplorerStats) -> u64 {
    stats
        .states_visited
        .saturating_sub(stats.resumed_states.max(1))
}

/// The part of a crash verdict every run of the same item must reproduce.
#[derive(Debug, Clone, PartialEq)]
struct CrashKey {
    counterexample: Option<Counterexample>,
    certified: bool,
    minimal: Option<Schedule>,
}

impl CrashKey {
    fn of(out: &CrashOut) -> CrashKey {
        CrashKey {
            counterexample: out.report.counterexample.clone(),
            certified: out.report.is_certified_clean(),
            minimal: out.minimal.as_ref().map(|m| m.schedule.clone()),
        }
    }

    /// Compares a verdict with this reference. A different answer (clean
    /// vs violating, certified or not) is wrong, and so is a counterexample
    /// that does not violate. The same answer with another violating
    /// schedule breaks the bit-identical contract, but it is not wrong.
    fn compare(&self, got: &CrashKey, system: &System) -> Option<Problem> {
        if self.counterexample.is_some() != got.counterexample.is_some()
            || self.certified != got.certified
        {
            return wrong(
                "verdict-differs",
                "verdict differs from the sequential reference",
            );
        }
        let schedule = |key: &CrashKey| key.counterexample.as_ref().map(|c| c.schedule.to_string());
        if self.counterexample != got.counterexample {
            let cex = got.counterexample.as_ref().expect("both verdicts violate");
            let violates = system
                .check_initial_outputs(&system.initial_config())
                .or_else(|| system.run_from_start(&cex.schedule).1)
                .is_some();
            if !violates {
                return wrong(
                    "counterexample-invalid",
                    format!("counterexample `{}` does not violate", cex.schedule),
                );
            }
            return differs(
                "counterexample-differs",
                format!(
                    "counterexample `{}` differs from the sequential `{}`",
                    schedule(got).unwrap_or_default(),
                    schedule(self).unwrap_or_default()
                ),
            );
        }
        // An explore-only verdict has no shrunk schedule.
        if self.minimal.is_some() && got.minimal.is_some() && self.minimal != got.minimal {
            return differs(
                "shrink-differs",
                "shrunk schedule differs from the sequential reference",
            );
        }
        None
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Severity {
    /// Contradicts a pinned value, another engine or the reference's answer.
    Wrong,
    /// Could not be completed, or could not be confirmed.
    Failed,
    /// The reference's answer with another valid witness or schedule.
    NotIdentical,
}

/// A problem the oracle found.
#[derive(Clone)]
struct Problem {
    severity: Severity,
    kind: &'static str,
    why: String,
}

fn problem(severity: Severity, kind: &'static str, why: impl Into<String>) -> Option<Problem> {
    Some(Problem {
        severity,
        kind,
        why: why.into(),
    })
}

fn failed(kind: &'static str, why: impl Into<String>) -> Option<Problem> {
    problem(Severity::Failed, kind, why)
}

fn wrong(kind: &'static str, why: impl Into<String>) -> Option<Problem> {
    problem(Severity::Wrong, kind, why)
}

fn differs(kind: &'static str, why: impl Into<String>) -> Option<Problem> {
    problem(Severity::NotIdentical, kind, why)
}

/// The levels of a classification and whether each is capped.
fn levels(c: &TypeClassification) -> [(usize, bool); 2] {
    [
        (c.discerning.level, c.discerning.capped),
        (c.recording.level, c.recording.capped),
    ]
}

/// A level's witness is present exactly when the level is at least 2, is
/// well formed, and passes the brute-force re-check.
fn level_ok(item: &ClassifyItem, level: &LevelResult, recording: bool) -> bool {
    let ty = &*item.ty;
    match &level.witness {
        None => level.level < 2,
        Some(w) => {
            w.n() == level.level
                && w.validate(ty).is_ok()
                && if recording {
                    check_recording_brute(ty, w)
                } else {
                    check_discerning_brute(ty, w)
                }
        }
    }
}

/// The full check of a reference classification: pinned zoo values and
/// independently re-checked witnesses.
fn check_classification(item: &ClassifyItem, c: &TypeClassification) -> Option<Problem> {
    let (d, r) = (&c.discerning, &c.recording);
    let pinned = match item.expect {
        Expect::Levels {
            discerning,
            recording,
        } => d.level == discerning && r.level == recording && !d.capped && !r.capped,
        Expect::AtCap => d.level == item.cap && r.level == item.cap && d.capped && r.capped,
        Expect::Witnesses => true,
    };
    if !pinned {
        return wrong(
            "pinned-value",
            format!(
                "levels {}/{} contradict the pinned values",
                d.display_level(),
                r.display_level()
            ),
        );
    }
    if !level_ok(item, d, false) || !level_ok(item, r, true) {
        return wrong(
            "witness-invalid",
            "a witness fails validation or the brute-force re-check",
        );
    }
    None
}

/// The full check of a reference crash verdict.
fn check_crash_reference(item: &CrashItem, out: &CrashOut) -> Option<Problem> {
    let mc = out.mc.as_ref().expect("references run the full pipeline");
    if out.report.counterexample.is_some() != mc.counterexample.is_some() {
        return wrong(
            "engines-disagree",
            "the DFS explorer and the BFS checker disagree",
        );
    }
    if item.origin == (Origin::Shipped { correct: true }) {
        if out.report.counterexample.is_some() {
            return wrong(
                "correct-protocol-violates",
                "a correct shipped protocol reported a counterexample",
            );
        }
        if out.divergence_found == Some(true) {
            return wrong(
                "divergence-on-correct",
                "RCN104 reports a crash divergence on a correct protocol",
            );
        }
    }
    if let Some((checker, exhaustive, Some(decider))) = &out.valency {
        if *exhaustive && checker != decider {
            return wrong(
                "valency-disagree",
                format!("valency {checker} (checker) vs {decider} (decider stack)"),
            );
        }
    }
    None
}

/// Per-verdict conditions: a capped, timed-out, panicked or unconfirmed
/// verdict fails.
fn check_crash_completion(out: &CrashOut) -> Option<Problem> {
    if !out.report.stats.exhaustive() {
        return failed(
            "explorer-capped",
            format!("explorer did not cover the budget ({})", out.report.stats),
        );
    }
    if let Some(mc) = &out.mc {
        if !mc.coverage.is_exhaustive() {
            return failed("checker-capped", "checker did not cover the budget");
        }
    }
    if out.confirmed == Some(false) {
        return failed(
            "replay-unconfirmed",
            "threaded replay did not confirm the counterexample",
        );
    }
    None
}

/// Reference verdicts: the plain sequential pipeline's answer per item,
/// fully checked once.
struct Oracle {
    classify: Vec<Option<Result<TypeClassification, Problem>>>,
    crash: Vec<Option<Result<CrashKey, Problem>>>,
}

/// Store directories of one store cycle.
struct Stores {
    dir: PathBuf,
    cache: PathBuf,
    memo: PathBuf,
}

pub struct Runner<'a> {
    /// The items verdicts run on (counting wrappers in traced runs).
    pub items: &'a Items,
    /// The same items unwrapped, for reference verdicts.
    plain: &'a Items,
    pub tracer: Tracer,
    pub cache_io: Option<Arc<IoStats>>,
    pub memo_io: Option<Arc<IoStats>>,
    store_root: PathBuf,
    cycles: u64,
    oracle: Oracle,
    pub tally: Tally,
    pub work: Work,
    /// Worker threads per verdict (1 = the sequential entry points).
    pub threads: usize,
    /// Runs each pass as a store cycle: a cold pass into a fresh directory,
    /// then a warm pass over the same items.
    pub stores: bool,
}

impl<'a> Runner<'a> {
    pub fn new(items: &'a Items, plain: &'a Items, store_root: PathBuf) -> Self {
        Runner {
            items,
            plain,
            tracer: Tracer::disabled(),
            cache_io: None,
            memo_io: None,
            store_root,
            cycles: 0,
            oracle: Oracle {
                classify: items.classify.iter().map(|_| None).collect(),
                crash: items.crash.iter().map(|_| None).collect(),
            },
            tally: Tally::default(),
            work: Work::default(),
            threads: 1,
            stores: false,
        }
    }

    /// Runs one pass (one cold + warm cycle with stores). With a budget
    /// `(seconds, passes)`, stops early once the timed seconds are spent
    /// and that many passes are complete. Returns `false` if it stopped
    /// early.
    pub fn pass(&mut self, budget: Option<(f64, u64)>) -> bool {
        let out_of_time = |tally: &Tally| {
            budget.is_some_and(|(secs, passes)| {
                tally.timed_s >= secs && tally.complete_passes >= passes
            })
        };
        self.tally.pos = 0;
        let complete = self.pass_items(out_of_time);
        self.tally.complete_passes += u64::from(complete);
        complete
    }

    fn pass_items(&mut self, out_of_time: impl Fn(&Tally) -> bool) -> bool {
        let stores = self.stores.then(|| {
            self.cycles += 1;
            let dir = self.store_root.join(format!("cycle-{}", self.cycles));
            Stores {
                cache: dir.join("cache"),
                memo: dir.join("memo"),
                dir,
            }
        });
        let phases: &[Phase] = if stores.is_some() {
            &[Phase::Cold, Phase::Warm]
        } else {
            &[Phase::Plain]
        };
        let mut complete = true;
        'pass: for &phase in phases {
            for i in 0..self.items.classify.len() {
                if out_of_time(&self.tally) {
                    complete = false;
                    break 'pass;
                }
                self.classify_verdict(i, phase, stores.as_ref());
            }
            for i in 0..self.items.crash.len() {
                if out_of_time(&self.tally) {
                    complete = false;
                    break 'pass;
                }
                self.crash_verdict(i, phase, stores.as_ref());
            }
        }
        if let Some(stores) = &stores {
            let _ = std::fs::remove_dir_all(&stores.dir);
        }
        complete
    }

    fn record(&mut self, elapsed: f64) {
        let tally = &mut self.tally;
        tally.timed_s += elapsed;
        if tally.pos == tally.best.len() {
            tally.best.push(elapsed);
        }
        let best = &mut tally.best[tally.pos];
        *best = best.min(elapsed);
        tally.pos += 1;
    }

    fn classify_verdict(&mut self, i: usize, phase: Phase, stores: Option<&Stores>) {
        let item = &self.items.classify[i];
        let threads = self.threads;
        let cache = stores.map(|s| match &self.cache_io {
            Some(io) => DiskCache::with_io(&s.cache, Arc::new(CountingIo::new(io.clone()))),
            None => DiskCache::new(&s.cache),
        });
        let started = Instant::now();
        let result = {
            let _span = self.tracer.span("verdict");
            run_classify(&self.tracer, item, threads, cache)
        };
        self.record(started.elapsed().as_secs_f64());
        if let Ok((_, stats)) = &result {
            self.work.add_search(stats);
            if phase == Phase::Warm {
                self.work.warm_recomputed += stats.analyses_computed;
            }
        }

        let oracle_started = Instant::now();
        let reusable = threads == 1 && phase == Phase::Plain;
        let plain = self.plain;
        let problem = match &result {
            Err(e) => failed("error", e.clone()),
            Ok((c, stats)) => {
                match self.classify_reference(i, reusable.then_some(c)) {
                    Err(p) => Some(p),
                    Ok(r) if levels(r) != levels(c) => wrong(
                        "verdict-differs",
                        format!(
                            "levels {}/{} differ from the sequential reference {}/{}",
                            c.discerning.display_level(),
                            c.recording.display_level(),
                            r.discerning.display_level(),
                            r.recording.display_level()
                        ),
                    ),
                    // Same levels, other (checked) witnesses: not wrong,
                    // but not bit-identical either.
                    Ok(r) if r != c => check_classification(&plain.classify[i], c).or_else(|| {
                        differs(
                            "witness-differs",
                            "witnesses differ from the sequential reference",
                        )
                    }),
                    Ok(_) if phase == Phase::Warm && stats.analyses_computed > 0 => failed(
                        "warm-recompute",
                        format!(
                            "warm pass recomputed {} analyses that are on disk",
                            stats.analyses_computed
                        ),
                    ),
                    Ok(_) => None,
                }
            }
        };
        self.tally.attempted += 1;
        self.tally.kinds[usize::from(!self.items.classify[i].is_zoo())] += 1;
        if let Some(p) = problem {
            let label = self.items.classify[i].label.clone();
            self.tally.note(&label, &p, threads > 1);
        }
        self.tally.oracle_s += oracle_started.elapsed().as_secs_f64();
    }

    /// The checked reference classification of item `i`, computed on
    /// first use (or taken from `verdict` when it came from the plain
    /// sequential pipeline).
    fn classify_reference(
        &mut self,
        i: usize,
        verdict: Option<&TypeClassification>,
    ) -> Result<&TypeClassification, Problem> {
        if self.oracle.classify[i].is_none() {
            let item = &self.plain.classify[i];
            let reference = match verdict {
                Some(c) => Ok(c.clone()),
                None => run_classify(&Tracer::disabled(), item, 1, None).map(|(c, _)| c),
            };
            let checked = reference
                .map_err(|e| Problem {
                    severity: Severity::Failed,
                    kind: "error",
                    why: format!("reference: {e}"),
                })
                .and_then(|c| match check_classification(item, &c) {
                    Some(p) => Err(p),
                    None => Ok(c),
                });
            self.oracle.classify[i] = Some(checked);
        }
        self.oracle.classify[i]
            .as_ref()
            .expect("filled above")
            .as_ref()
            .map_err(Clone::clone)
    }

    fn crash_verdict(&mut self, i: usize, phase: Phase, stores: Option<&Stores>) {
        let item = &self.items.crash[i];
        let threads = self.threads;
        let memo = stores.map(|s| match &self.memo_io {
            Some(io) => ExplorerMemo::with_io(&s.memo, Arc::new(CountingIo::new(io.clone()))),
            None => ExplorerMemo::new(&s.memo),
        });
        let explore_only = stores.is_some();
        let started = Instant::now();
        let result = {
            let _span = self.tracer.span("verdict");
            run_crash(&self.tracer, item, threads, memo, explore_only)
        };
        self.record(started.elapsed().as_secs_f64());
        if let Ok(out) = &result {
            self.work.add_crash(out);
            if phase == Phase::Warm {
                self.work.warm_recomputed += warm_reexplored(&out.report.stats);
            }
        }

        let oracle_started = Instant::now();
        let reusable = threads == 1 && phase == Phase::Plain;
        let plain = self.plain;
        let problem = match &result {
            Err(e) => failed("error", e.clone()),
            Ok(out) => {
                let key = CrashKey::of(out);
                if out.report.counterexample.is_some() {
                    self.tally.violating += 1;
                } else {
                    self.tally.clean += 1;
                }
                match self.crash_reference(i, reusable.then_some(out)) {
                    Err(p) => Some(p),
                    Ok(r) => r
                        .compare(&key, &plain.crash[i].system)
                        .or_else(|| check_crash_completion(out))
                        .or_else(|| {
                            let recomputed = warm_reexplored(&out.report.stats);
                            if phase == Phase::Warm && recomputed > 0 {
                                failed(
                                    "warm-recompute",
                                    format!("warm pass re-explored {recomputed} states on disk"),
                                )
                            } else {
                                None
                            }
                        }),
                }
            }
        };
        self.tally.attempted += 1;
        self.tally.kinds[2 + usize::from(!self.items.crash[i].is_shipped())] += 1;
        if let Some(p) = problem {
            let label = self.items.crash[i].label.clone();
            self.tally.note(&label, &p, threads > 1);
        }
        self.tally.oracle_s += oracle_started.elapsed().as_secs_f64();
    }

    fn crash_reference(
        &mut self,
        i: usize,
        verdict: Option<&CrashOut>,
    ) -> Result<&CrashKey, Problem> {
        if self.oracle.crash[i].is_none() {
            let item = &self.plain.crash[i];
            let computed;
            let reference = match verdict {
                Some(out) => Ok(out),
                None => {
                    computed = run_crash(&Tracer::disabled(), item, 1, None, false);
                    computed.as_ref().map_err(Clone::clone)
                }
            };
            let checked = reference
                .map_err(|e| Problem {
                    severity: Severity::Failed,
                    kind: "error",
                    why: format!("reference: {e}"),
                })
                .and_then(|out| match check_crash_reference(item, out) {
                    Some(p) => Err(p),
                    None => Ok(CrashKey::of(out)),
                });
            self.oracle.crash[i] = Some(checked);
        }
        self.oracle.crash[i]
            .as_ref()
            .expect("filled above")
            .as_ref()
            .map_err(Clone::clone)
    }
}
