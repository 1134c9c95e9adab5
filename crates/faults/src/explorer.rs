//! Systematic crash-schedule exploration.
//!
//! The paper's adversary places crashes at arbitrary points of a schedule;
//! `rcn-runtime`'s `CrashyAdversary` and `run_threaded` only *sample* such
//! placements from a seeded RNG. This module enumerates them: a bounded,
//! memoized search over the abstract executor that considers a crash of
//! every process at every reachable configuration, up to a per-process
//! crash budget (the paper's `E_z`-style budgets bound crashes per process,
//! not globally) and a schedule-length cap.
//!
//! The search is an explicit work-list depth-first traversal (no
//! recursion, so `--depth` in the thousands cannot overflow the stack).
//! Candidate events are tried in a fixed order — steps of `p0..pn`, then
//! crashes of `p0..pn` — so the traversal enumerates schedules in
//! lexicographic order and the first counterexample found is the
//! lexicographically-least violating schedule (among schedules that never
//! revisit a state already on their own path: a memo hit on an in-progress
//! ancestor cuts that cycle). That is the deterministic tie-break every
//! execution mode must reproduce:
//!
//! * **Sequential** (`threads == 1`, the default): one work-list DFS,
//!   bit-identical to the historical recursive explorer.
//! * **Sharded** ([`CrashExplorer::with_threads`]): the frontier is
//!   expanded breadth-first until there are enough lex-ordered,
//!   prefix-free subtree roots to feed the worker pool; each task runs
//!   the same work-list DFS with a task-local memo, publishing its memo
//!   entries into a shared certified-clean map only when the task
//!   completes without finding a violation (an abandoned task's pre-order
//!   entries are *not* certified and must never prune another task).
//!   A task that finds a violation cancels every lex-later task — sound
//!   because the roots are prefix-free and lex-ordered, so any violation
//!   in a later task is lex-greater. The final counterexample is the
//!   lex-least over all found, which equals the sequential one.
//! * **Resumed** ([`CrashExplorer::with_memo`]): certified-clean memo
//!   facts and final verdicts persist through the `CacheIo` machinery;
//!   a repeated run with the same system fingerprint and budget triple
//!   resumes instead of restarting (see [`crate::ExplorerMemo`]).
//!
//! The search is exhaustive within its budget unless the state cap or the
//! wall-clock timeout is hit, which the verdict reports honestly
//! ([`ExplorerStats::state_capped`], [`ExplorerStats::timed_out`]). Once
//! the state cap trips the search short-circuits immediately — walking
//! the remaining frontier could only burn events without restoring
//! exhaustiveness.
//!
//! Memoization is depth-aware: each `(configuration, crash-counts)` state
//! records the largest *remaining* schedule budget it has been explored
//! with, and is re-explored whenever it is reached with more budget left.
//! A plain visited-set would be unsound under the depth cap — a state first
//! reached deep (little budget left) would be skipped when reached again
//! along a shorter prefix, pruning schedules still within `max_depth`.
//! The one exception is a *closed* state, whose whole subtree was explored
//! without any depth cut: no violation is reachable from it at any
//! budget, so it is never re-explored (see `Search::run`).

use crate::diagnose::{diagnose, Divergence};
use crate::memo::{ExplorerMemo, MemoLoad};
use crate::wordhash::WordBuildHasher;
use rcn_model::{
    Action, Configuration, Event, FaultModel, LocalState, ProcessId, Schedule, System, Violation,
};
use rcn_obs::{Counter, HistogramHandle, Tracer};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Budgets for a crash-exploration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashtestConfig {
    /// Maximum crashes injected per process (the budget `K`): each process
    /// may crash at most this many times along any explored schedule. A
    /// system-wide crash charges every process one crash at once; a
    /// mid-operation crash charges its process like an individual crash.
    pub max_crashes: usize,
    /// Maximum schedule length explored (the depth cap `D`).
    pub max_depth: usize,
    /// Maximum number of distinct `(configuration, crash-counts)` states
    /// memoized before the search refuses to grow (a memory safety valve;
    /// hitting it makes a `Clean` verdict non-exhaustive).
    pub max_states: usize,
    /// Which crash events the adversary may place
    /// ([`FaultModel::PER_PROCESS`] — the paper's model — by default).
    /// Part of the verdict's identity: the persistent memo keys on it, so
    /// a memo certified under one model is never consumed under another.
    pub fault_model: FaultModel,
}

impl Default for CrashtestConfig {
    fn default() -> Self {
        CrashtestConfig {
            max_crashes: 2,
            max_depth: 16,
            max_states: 500_000,
            fault_model: FaultModel::PER_PROCESS,
        }
    }
}

/// The explorer's public search-effort counters — the stable seam other
/// crates (the RCN200 cross-checker lint, the CLI, bench records) compare
/// and report. Tracer counters mirror these; the struct is authoritative
/// and available without any tracer attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorerStats {
    /// Distinct `(configuration, crash-counts)` states visited. In sharded
    /// mode each task counts its own visits, so this is an upper bound on
    /// the number of distinct states.
    pub states_visited: u64,
    /// Events applied (edges traversed), counting revisits.
    pub events_applied: u64,
    /// Child states skipped because the memo had already explored them
    /// with at least as much remaining budget.
    pub memo_hits: u64,
    /// Memoized states explored *again* because they were re-reached with
    /// more remaining budget (the depth-aware refinement).
    pub re_explored: u64,
    /// Memo hits served by facts loaded from the persistent memo (a
    /// subset of `memo_hits`), plus — when a stored verdict short-circuits
    /// the whole run — the stored run's `states_visited`. Zero on cold
    /// runs; a warm resume reports how much search the disk saved.
    pub resumed_states: u64,
    /// Worker tasks that panicked (isolated by `catch_unwind`): their
    /// subtrees are unexplored, so any clean verdict is partial.
    pub tasks_panicked: u64,
    /// `true` if some path was cut short by [`CrashtestConfig::max_depth`]
    /// while events were still enabled. Expected for any non-trivial
    /// protocol; the depth cap is part of the stated budget, and the
    /// depth-aware memoization keeps the search exhaustive over schedules
    /// of length ≤ `max_depth` even when this flag is set.
    pub depth_limited: bool,
    /// `true` if [`CrashtestConfig::max_states`] was hit: a clean verdict
    /// then only covers the states actually visited.
    pub state_capped: bool,
    /// `true` if the wall-clock timeout expired before the budget was
    /// covered: the verdict is an honest partial.
    pub timed_out: bool,
}

/// Former name of [`ExplorerStats`], kept as an alias.
pub type ExploreStats = ExplorerStats;

impl ExplorerStats {
    /// `true` if a clean verdict covers *every* schedule within the
    /// configured budget. `depth_limited` does not void exhaustiveness:
    /// the memoization is depth-aware, so every schedule of length ≤
    /// `max_depth` is still covered. Only the state cap, a timeout, or a
    /// panicked worker task — each of which stops the search from growing
    /// — makes a clean verdict partial.
    pub fn exhaustive(&self) -> bool {
        !self.state_capped && !self.timed_out && self.tasks_panicked == 0
    }
}

impl fmt::Display for ExplorerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} events, {} memo hits",
            self.states_visited, self.events_applied, self.memo_hits
        )?;
        if self.resumed_states > 0 {
            write!(f, ", {} resumed", self.resumed_states)?;
        }
        if self.state_capped {
            write!(f, " (state cap hit)")?;
        }
        if self.timed_out {
            write!(f, " (timed out)")?;
        }
        if self.tasks_panicked > 0 {
            write!(f, " ({} tasks panicked)", self.tasks_panicked)?;
        }
        Ok(())
    }
}

/// A schedule on which the system breaks a consensus condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The violating schedule (the lexicographically-least violating
    /// path within the budget; see [`crate::shrink_counterexample`] for
    /// minimization).
    pub schedule: Schedule,
    /// The violation the final event of the schedule triggers.
    pub violation: Violation,
    /// When the violating process itself had already output a different
    /// value (the crash-divergence pattern of Golab's T&S counterexample),
    /// the pair of conflicting outputs.
    pub divergence: Option<Divergence>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}  ⇒  {}", self.schedule, self.violation)?;
        if let Some(d) = &self.divergence {
            write!(f, " ({d})")?;
        }
        Ok(())
    }
}

/// The outcome of a crash exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashtestReport {
    /// Exploration counters (including the honesty flags).
    pub stats: ExplorerStats,
    /// The first counterexample found, or `None` if every explored
    /// schedule is safe.
    pub counterexample: Option<Counterexample>,
}

impl CrashtestReport {
    /// `true` if no violation was found *and* the search covered the whole
    /// budget (no state cap, timeout, or panicked task).
    pub fn is_certified_clean(&self) -> bool {
        self.counterexample.is_none() && self.stats.exhaustive()
    }
}

/// The memo key: a configuration plus the per-process crash counts spent
/// reaching it.
pub(crate) type MemoKey = (Configuration, Vec<usize>);

/// A memo entry: the largest remaining schedule budget the state was
/// explored with, whether the entry came from the persistent memo, and
/// whether the state's whole subtree is closed (see [`Search::run`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemoEntry {
    pub(crate) remaining: usize,
    pub(crate) from_disk: bool,
    /// The subtree below this state finished without a depth cut, so no
    /// violation is reachable from it at any budget. Held in memory only:
    /// the persistent memo stores `remaining` alone.
    pub(crate) closed: bool,
}

impl MemoEntry {
    /// A fresh, not yet closed entry.
    fn open(remaining: usize, from_disk: bool) -> Self {
        MemoEntry {
            remaining,
            from_disk,
            closed: false,
        }
    }

    /// Whether arriving at this state with `remaining` budget left needs
    /// no exploration: a closed subtree is clean at any budget, any other
    /// only up to the budget it was explored with.
    fn covers(&self, remaining: usize) -> bool {
        self.closed || self.remaining >= remaining
    }
}

/// The explorer's memo map, keyed through the word-folding hasher.
type MemoMap = HashMap<MemoKey, MemoEntry, WordBuildHasher>;

/// The bounded, memoized work-list DFS over crash placements.
pub struct CrashExplorer<'s> {
    system: &'s System,
    config: CrashtestConfig,
    tracer: Tracer,
    threads: usize,
    timeout: Option<Duration>,
    memo: Option<ExplorerMemo>,
}

impl<'s> CrashExplorer<'s> {
    /// Creates an explorer for `system` with the given budgets.
    pub fn new(system: &'s System, config: CrashtestConfig) -> Self {
        CrashExplorer {
            system,
            config,
            tracer: Tracer::disabled(),
            threads: 1,
            timeout: None,
            memo: None,
        }
    }

    /// Attaches a tracer: the exploration is bracketed in a
    /// `crashtest.explore` span, the DFS maintains the
    /// `crashtest.events_applied` / `crashtest.memo_hits` /
    /// `crashtest.re_explored` / `crashtest.resumed_states` counters and a
    /// `crashtest.depth` histogram (one observation per newly visited
    /// state), and the final [`ExplorerStats`] are published as
    /// `crashtest.*` counters.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Shards the search across `threads` worker threads. `threads <= 1`
    /// is the sequential search. Verdict and counterexample are
    /// bit-identical at any thread count (the lex-least tie-break);
    /// effort counters may differ because memo sharing is timing-
    /// dependent.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Bounds the exploration by wall-clock time. On expiry the search
    /// stops and the verdict is an honest partial
    /// ([`ExplorerStats::timed_out`]).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a persistent memo: certified verdicts and memo facts are
    /// stored through the `CacheIo` machinery and repeated runs with the
    /// same system fingerprint and budget triple resume instead of
    /// restarting ([`ExplorerStats::resumed_states`]).
    #[must_use]
    pub fn with_memo(mut self, memo: ExplorerMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The attached tracer ([`Tracer::disabled`] unless
    /// [`with_tracer`](Self::with_tracer) was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Runs the exploration: every schedule of length ≤ `max_depth` whose
    /// per-process crash counts stay within `max_crashes`, modulo
    /// memoization of already-seen `(configuration, crash-counts)` states.
    ///
    /// Deterministic: at each configuration the candidate events are tried
    /// in a fixed order (steps of `p0..pn`, then crashes of `p0..pn`), so
    /// the returned counterexample is the lexicographically-least
    /// violating schedule — the same at every thread count and on every
    /// run, warm or cold.
    pub fn explore(&self) -> CrashtestReport {
        // Only a recording tracer keeps span details; skip the formatting
        // otherwise.
        let detail = if self.tracer.recording() {
            format!(
                "crashes={} states={} threads={}",
                self.config.max_crashes, self.config.max_states, self.threads
            )
        } else {
            String::new()
        };
        let span = self.tracer.span_with(
            "crashtest.explore",
            i64::try_from(self.config.max_depth).unwrap_or(i64::MAX),
            &detail,
        );
        let initial = self.system.initial_config();
        // A protocol can violate before any event (conflicting or invalid
        // initial-state outputs).
        if let Some(violation) = self.system.check_initial_outputs(&initial) {
            let report = CrashtestReport {
                stats: ExplorerStats::default(),
                counterexample: Some(self.diagnosed(Schedule::new(), violation)),
            };
            self.publish(&report, &span);
            return report;
        }
        let crash_counts = vec![0usize; self.system.n()];

        // Warm start: a stored verdict for this exact (fingerprint,
        // budget) short-circuits; stored certified-clean facts pre-seed
        // the memo so the search collapses onto the disk's work.
        let mut facts: Vec<(MemoKey, usize)> = Vec::new();
        let mut loaded_from_disk = false;
        if let Some(memo) = &self.memo {
            match memo.load(self.system, &self.config, &self.tracer) {
                MemoLoad::Report(mut report) => {
                    report.counterexample = report
                        .counterexample
                        .map(|cex| self.diagnosed(cex.schedule, cex.violation));
                    self.tracer
                        .counter("crashtest.resumed_states")
                        .add(report.stats.resumed_states);
                    self.publish(&report, &span);
                    return report;
                }
                MemoLoad::Facts(f) => {
                    facts = f;
                    loaded_from_disk = true;
                }
                MemoLoad::Miss => {}
            }
        }

        let deadline = self.timeout.map(|t| Instant::now() + t);
        let (stats, found, certified) = if self.threads <= 1 {
            self.explore_sequential(&initial, &crash_counts, facts, deadline)
        } else {
            self.explore_parallel(&initial, &crash_counts, facts, deadline)
        };
        let report = CrashtestReport {
            stats,
            counterexample: found.map(|(path, v)| self.diagnosed(Schedule::from_events(path), v)),
        };
        if let Some(memo) = &self.memo {
            // A warm run's memo collapsed onto the disk facts; re-storing
            // it would shrink the file. Only cold results are persisted.
            if !loaded_from_disk {
                memo.store(self.system, &self.config, &report, &certified, &self.tracer);
            }
        }
        self.publish(&report, &span);
        report
    }

    /// The sequential work-list search (also the `threads == 1` mode).
    fn explore_sequential(
        &self,
        initial: &Configuration,
        crash_counts: &[usize],
        facts: Vec<(MemoKey, usize)>,
        deadline: Option<Instant>,
    ) -> SearchResult {
        let mut search = Search::new(self.system, self.config, &self.tracer, deadline, None, 0);
        for (key, remaining) in facts {
            search.visited.insert(key, MemoEntry::open(remaining, true));
        }
        search.visited.insert(
            (initial.clone(), crash_counts.to_vec()),
            MemoEntry::open(self.config.max_depth, false),
        );
        search.stats.states_visited = 1;
        search.depths.observe(0);
        let outcome = search.run(initial.clone(), crash_counts.to_vec(), 0);
        match outcome {
            TaskOutcome::Violation(v) => (search.stats, Some((search.path, v)), Vec::new()),
            TaskOutcome::CleanComplete => {
                // Facts feed only the persistent memo.
                let certified = if self.memo.is_some() && search.stats.exhaustive() {
                    search
                        .visited
                        .into_iter()
                        .map(|(k, e)| (k, e.remaining))
                        .collect()
                } else {
                    Vec::new()
                };
                (search.stats, None, certified)
            }
            TaskOutcome::Aborted => (search.stats, None, Vec::new()),
        }
    }

    /// The sharded search: expand the frontier breadth-first into
    /// lex-ordered, prefix-free task roots, then run a work-list DFS per
    /// task across the worker pool.
    fn explore_parallel(
        &self,
        initial: &Configuration,
        crash_counts: &[usize],
        facts: Vec<(MemoKey, usize)>,
        deadline: Option<Instant>,
    ) -> SearchResult {
        let n = self.system.n();
        let shared = SharedCtx {
            certified: RwLock::new(
                facts
                    .into_iter()
                    .map(|(k, r)| (k, MemoEntry::open(r, true)))
                    .collect(),
            ),
            total_states: AtomicU64::new(1),
            capped: AtomicBool::new(false),
            timed_out: AtomicBool::new(false),
            best_task: AtomicUsize::new(usize::MAX),
        };
        let events = self.tracer.counter("crashtest.events_applied");
        let memo_hits = self.tracer.counter("crashtest.memo_hits");
        let resumed = self.tracer.counter("crashtest.resumed_states");
        let depths = self.tracer.histogram("crashtest.depth");

        let mut stats = ExplorerStats {
            states_visited: 1,
            ..ExplorerStats::default()
        };
        depths.observe(0);

        // Phase 1: breadth-first expansion into task roots. Levels are
        // generated in lex order (nodes in order × candidates in order),
        // so the frontier is a lex-sorted, prefix-free set of subtree
        // roots. Violations found here are collected, their subtrees
        // pruned; certified disk facts prune clean subtrees early.
        let target = self.threads * 4;
        let mut frontier = vec![ExpNode {
            config: initial.clone(),
            counts: crash_counts.to_vec(),
            path: Vec::new(),
            prefix: Vec::new(),
        }];
        let mut depth = 0usize;
        let mut violations: Vec<(Vec<Event>, Violation)> = Vec::new();
        'expand: while !frontier.is_empty()
            && frontier.len() < target
            && depth < self.config.max_depth
        {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                stats.timed_out = true;
                frontier.clear();
                break;
            }
            let mut next_level = Vec::with_capacity(frontier.len() * 2);
            for node in &frontier {
                for idx in 0..candidate_limit(n) {
                    let Some(event) = enabled_candidate(
                        self.system,
                        &initial.states,
                        &node.config,
                        &node.counts,
                        idx,
                        &self.config,
                    ) else {
                        continue;
                    };
                    let mut next_config = node.config.clone();
                    let effect = self.system.apply(&mut next_config, event);
                    stats.events_applied += 1;
                    events.incr();
                    let mut path = node.path.clone();
                    path.push(event);
                    if let Some(v) = effect.violation {
                        violations.push((path, v));
                        continue;
                    }
                    let mut next_counts = node.counts.clone();
                    charge_crash(&mut next_counts, event);
                    let remaining = self.config.max_depth - (depth + 1);
                    let key = (next_config, next_counts);
                    // A state already on its own path is an in-progress
                    // ancestor: the sequential search's memo cuts that
                    // cycle, and so must the expansion.
                    if (key.0 == node.config && key.1 == node.counts) || node.prefix.contains(&key)
                    {
                        stats.memo_hits += 1;
                        memo_hits.incr();
                        continue;
                    }
                    if let Some(entry) = shared.certified.read().unwrap().get(&key) {
                        if entry.covers(remaining) {
                            stats.memo_hits += 1;
                            memo_hits.incr();
                            if entry.from_disk {
                                stats.resumed_states += 1;
                                resumed.incr();
                            }
                            continue;
                        }
                    }
                    let total = shared.total_states.fetch_add(1, Ordering::SeqCst);
                    if total >= self.config.max_states as u64 {
                        shared.capped.store(true, Ordering::SeqCst);
                        stats.state_capped = true;
                        frontier = Vec::new();
                        break 'expand;
                    }
                    stats.states_visited += 1;
                    depths.observe(depth as u64 + 1);
                    let mut prefix = node.prefix.clone();
                    prefix.push((node.config.clone(), node.counts.clone()));
                    next_level.push(ExpNode {
                        config: key.0,
                        counts: key.1,
                        path,
                        prefix,
                    });
                }
            }
            frontier = next_level;
            depth += 1;
        }
        if depth >= self.config.max_depth && !frontier.is_empty() {
            // Roots sitting exactly at the depth cap: their tasks would
            // only set the flag and return, so record it here.
            stats.depth_limited = true;
            frontier.clear();
        }

        // A violation found during expansion makes every lex-later task
        // root irrelevant: its subtree can only contain lex-greater
        // violations.
        let mut tasks = frontier;
        if let Some((vpath, _)) = violations.iter().min_by(|a, b| lex_cmp(n, &a.0, &b.0)) {
            let vpath = vpath.clone();
            tasks.retain(|t| lex_cmp(n, &t.path, &vpath) == std::cmp::Ordering::Less);
        }

        // Phase 2: workers claim tasks in lex index order; each task is a
        // panic-isolated sequential work-list DFS.
        let found: Mutex<Vec<(Vec<Event>, Violation)>> = Mutex::new(violations);
        let panicked = AtomicU64::new(0);
        if !tasks.is_empty() {
            let next_task = AtomicUsize::new(0);
            let worker_count = self.threads.min(tasks.len());
            let task_stats: Mutex<Vec<ExplorerStats>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..worker_count {
                    scope.spawn(|| {
                        let mut local = ExplorerStats::default();
                        loop {
                            let i = next_task.fetch_add(1, Ordering::SeqCst);
                            if i >= tasks.len() {
                                break;
                            }
                            // A lex-earlier task already found a
                            // violation: this task's subtree is
                            // irrelevant.
                            if shared.best_task.load(Ordering::SeqCst) < i {
                                continue;
                            }
                            let task = &tasks[i];
                            let run = catch_unwind(AssertUnwindSafe(|| {
                                self.run_task(task, i, &shared, deadline)
                            }));
                            match run {
                                Ok((TaskOutcome::Violation(v), s, path, _)) => {
                                    shared.best_task.fetch_min(i, Ordering::SeqCst);
                                    found.lock().unwrap().push((path, v));
                                    merge_stats(&mut local, s);
                                }
                                Ok((TaskOutcome::CleanComplete, s, _, visited)) => {
                                    // Every entry of a violation-free,
                                    // fully-explored task is a certified
                                    // clean fact, safe to share.
                                    let mut map = shared.certified.write().unwrap();
                                    for (k, e) in visited {
                                        match map.get_mut(&k) {
                                            Some(old) if old.remaining >= e.remaining => {
                                                old.closed |= e.closed;
                                            }
                                            Some(old) => {
                                                let closed = old.closed || e.closed;
                                                *old = MemoEntry { closed, ..e };
                                            }
                                            None => {
                                                map.insert(k, e);
                                            }
                                        }
                                    }
                                    drop(map);
                                    merge_stats(&mut local, s);
                                }
                                Ok((TaskOutcome::Aborted, s, _, _)) => merge_stats(&mut local, s),
                                Err(_) => {
                                    panicked.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                        }
                        task_stats.lock().unwrap().push(local);
                    });
                }
            });
            for s in task_stats.into_inner().unwrap() {
                merge_stats(&mut stats, s);
            }
        }

        stats.state_capped |= shared.capped.load(Ordering::SeqCst);
        stats.timed_out |= shared.timed_out.load(Ordering::SeqCst);
        stats.tasks_panicked += panicked.load(Ordering::SeqCst);

        let found = found.into_inner().unwrap();
        let best = found.into_iter().min_by(|a, b| lex_cmp(n, &a.0, &b.0));
        let certified = if self.memo.is_some() && best.is_none() && stats.exhaustive() {
            shared
                .certified
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|(k, e)| (k, e.remaining))
                .collect()
        } else {
            Vec::new()
        };
        (stats, best, certified)
    }

    /// Runs one sharded task: a work-list DFS from `task`'s root with a
    /// task-local memo, consulting the shared certified-clean map.
    fn run_task(
        &self,
        task: &ExpNode,
        index: usize,
        shared: &SharedCtx,
        deadline: Option<Instant>,
    ) -> (TaskOutcome, ExplorerStats, Vec<Event>, MemoMap) {
        let mut search = Search::new(
            self.system,
            self.config,
            &self.tracer,
            deadline,
            Some(shared),
            index,
        );
        search.path = task.path.clone();
        // The states on the root's path are in-progress ancestors of every
        // state of this task, as they are on the sequential search's stack:
        // seeded as open entries with their own remaining budget, they cut
        // the same cycles. They were counted during expansion, like the
        // root, which is seeded without re-counting it too.
        for (i, key) in task.prefix.iter().enumerate() {
            search
                .visited
                .entry(key.clone())
                .or_insert(MemoEntry::open(self.config.max_depth - i, false));
        }
        search.visited.insert(
            (task.config.clone(), task.counts.clone()),
            MemoEntry::open(self.config.max_depth - task.path.len(), false),
        );
        let outcome = search.run(task.config.clone(), task.counts.clone(), task.path.len());
        // This task explored none of its ancestors: their entries are not
        // its facts to certify.
        for key in &task.prefix {
            search.visited.remove(key);
        }
        (outcome, search.stats, search.path, search.visited)
    }

    /// Publishes the final [`ExplorerStats`] as absolute `crashtest.*`
    /// counters and records the counterexample (if any) as an event inside
    /// the exploration span.
    fn publish(&self, report: &CrashtestReport, span: &rcn_obs::Span) {
        if !self.tracer.enabled() {
            return;
        }
        self.tracer
            .set("crashtest.states_visited", report.stats.states_visited);
        self.tracer.set(
            "crashtest.depth_limited",
            u64::from(report.stats.depth_limited),
        );
        self.tracer.set(
            "crashtest.state_capped",
            u64::from(report.stats.state_capped),
        );
        self.tracer
            .set("crashtest.timed_out", u64::from(report.stats.timed_out));
        self.tracer
            .set("crashtest.tasks_panicked", report.stats.tasks_panicked);
        self.tracer.set("crashtest.threads", self.threads as u64);
        self.tracer.set(
            "crashtest.counterexamples",
            u64::from(report.counterexample.is_some()),
        );
        if self.tracer.recording() {
            if let Some(cex) = &report.counterexample {
                span.event(
                    "crashtest.counterexample",
                    i64::try_from(cex.schedule.len()).unwrap_or(i64::MAX),
                    &cex.violation.to_string(),
                );
            }
        }
    }

    /// Attaches the divergence diagnosis to a found violation.
    fn diagnosed(&self, schedule: Schedule, violation: Violation) -> Counterexample {
        let diagnosis = diagnose(self.system, &schedule);
        Counterexample {
            schedule,
            violation,
            divergence: diagnosis.divergence,
        }
    }
}

/// `(stats, lex-least violation with its path, certified clean facts)` —
/// the internal result of either execution mode. Facts are non-empty only
/// for certified-clean runs with a persistent memo attached (they feed it).
type SearchResult = (
    ExplorerStats,
    Option<(Vec<Event>, Violation)>,
    Vec<(MemoKey, usize)>,
);

/// A frontier node of the breadth-first expansion (a task root).
struct ExpNode {
    config: Configuration,
    counts: Vec<usize>,
    path: Vec<Event>,
    /// The states along `path` before this node: `prefix[i]` is the state
    /// after the first `i` events.
    prefix: Vec<MemoKey>,
}

/// State shared across worker tasks.
struct SharedCtx {
    /// Certified clean facts: entries published by violation-free,
    /// fully-explored tasks (plus disk-loaded facts). Sound to prune on
    /// from any task — unlike pre-order local entries, which are only
    /// certain once their task completes clean.
    certified: RwLock<MemoMap>,
    /// Freshly visited states across all tasks, for the global state cap.
    total_states: AtomicU64,
    capped: AtomicBool,
    timed_out: AtomicBool,
    /// The smallest task index that found a violation; every lex-later
    /// task is skipped or aborted (its violations would be lex-greater).
    best_task: AtomicUsize,
}

/// The size of the candidate index space for `n` processes: steps
/// (`0..n`), per-process crashes (`n..2n`), the system-wide crash (`2n`),
/// and mid-operation crashes (`2n+1..3n+1`). Candidates whose fault family
/// the model disables simply resolve to `None`, so the per-process-only
/// search walks exactly the same sequence of applied events as before the
/// extended families existed.
fn candidate_limit(n: usize) -> usize {
    3 * n + 1
}

/// The candidate event at `idx` (see [`candidate_limit`] for the index
/// layout), or `None` if it is skipped at this configuration: steps of
/// output states, crash families the fault model disables, crashes of
/// budget-exhausted or initial-state processes, system-wide crashes
/// without full budget everywhere, and mid-operation crashes of processes
/// with no operation in flight are all no-ops. `initial` holds every
/// process's initial local state (the initial configuration's `states`),
/// computed once per search.
fn enabled_candidate(
    system: &System,
    initial: &[LocalState],
    config: &Configuration,
    counts: &[usize],
    idx: usize,
    cfg: &CrashtestConfig,
) -> Option<Event> {
    let n = system.n();
    let max_crashes = cfg.max_crashes;
    let model = cfg.fault_model;
    if idx < n {
        let p = ProcessId(idx as u16);
        // A step in an output state is a no-op; skip it.
        if matches!(system.action_of(config, p), Action::Output(_)) {
            return None;
        }
        Some(Event::Step(p))
    } else if idx < 2 * n {
        let p = ProcessId((idx - n) as u16);
        if !model.per_process || counts[p.index()] >= max_crashes {
            return None;
        }
        // A crash of a process already in its initial state is a no-op:
        // the state reset changes nothing, and any re-output it would
        // re-check was already checked when an earlier event recorded the
        // conflicting value.
        if config.states[p.index()] == initial[p.index()] {
            return None;
        }
        Some(Event::Crash(p))
    } else if idx == 2 * n {
        // A system-wide crash charges every process one crash, so it needs
        // budget left everywhere; with every process already in its
        // initial state it is a no-op (same argument as above, applied to
        // all processes at once).
        if !model.system_wide || counts.iter().any(|&c| c >= max_crashes) {
            return None;
        }
        if config.states == initial {
            return None;
        }
        Some(Event::SystemCrash)
    } else {
        let p = ProcessId((idx - 2 * n - 1) as u16);
        if !model.mid_operation || counts[p.index()] >= max_crashes {
            return None;
        }
        // A mid-operation crash needs an operation in flight; without one
        // it degenerates to an ordinary crash (covered by the `c_p`
        // candidate when per-process crashes are enabled).
        if !matches!(system.action_of(config, p), Action::Invoke { .. }) {
            return None;
        }
        Some(Event::CrashDuring(p))
    }
}

/// Charges `event` against the per-process crash budgets: individual and
/// mid-operation crashes charge their process; a system-wide crash charges
/// every process at once. The DFS and the independent BFS checker in
/// `rcn-mc` must account identically or their verdicts drift.
fn charge_crash(counts: &mut [usize], event: Event) {
    match event {
        Event::Crash(p) | Event::CrashDuring(p) => counts[p.index()] += 1,
        Event::SystemCrash => {
            for c in counts.iter_mut() {
                *c += 1;
            }
        }
        Event::Step(_) => {}
    }
}

/// Total order on schedules matching the DFS candidate order: steps of
/// `p0..pn`, then crashes of `p0..pn`, then the system-wide crash, then
/// mid-operation crashes of `p0..pn`, position by position; a proper
/// prefix sorts first. DFS preorder enumerates paths in exactly this
/// order, so "first counterexample of the sequential search" and
/// "lex-least violating schedule" coincide.
fn lex_cmp(n: usize, a: &[Event], b: &[Event]) -> std::cmp::Ordering {
    let rank = |e: &Event| match e {
        Event::Step(p) => p.index(),
        Event::Crash(p) => n + p.index(),
        Event::SystemCrash => 2 * n,
        Event::CrashDuring(p) => 2 * n + 1 + p.index(),
    };
    for (x, y) in a.iter().zip(b.iter()) {
        match rank(x).cmp(&rank(y)) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

fn merge_stats(into: &mut ExplorerStats, from: ExplorerStats) {
    into.states_visited += from.states_visited;
    into.events_applied += from.events_applied;
    into.memo_hits += from.memo_hits;
    into.re_explored += from.re_explored;
    into.resumed_states += from.resumed_states;
    into.tasks_panicked += from.tasks_panicked;
    into.depth_limited |= from.depth_limited;
    into.state_capped |= from.state_capped;
    into.timed_out |= from.timed_out;
}

/// How one task (or the whole sequential search) ended.
enum TaskOutcome {
    /// A violation was found; the path is left in `Search::path`.
    Violation(Violation),
    /// The subtree was fully explored without a violation: every local
    /// memo entry is a certified clean fact.
    CleanComplete,
    /// Cut short by the state cap, the deadline, or a lex-earlier task's
    /// counterexample; local entries are *not* certified.
    Aborted,
}

/// One explicit DFS frame: a `(configuration, crash-counts)` state with the
/// index of the next candidate event to try. The frame owns the path slot
/// its arrival event occupies (`has_event` is false only for the search
/// root). `cut` records whether anything below the frame was cut short by
/// the depth budget, which decides whether the frame closes when it pops.
struct Frame {
    key: MemoKey,
    depth: usize,
    next: usize,
    has_event: bool,
    cut: bool,
}

/// How the memo judged a freshly generated child state.
enum MemoVerdict {
    Explore,
    /// Already covered; `closed` tells whether the covering entry was
    /// closed (a hit on any other entry is a depth cut for the parent).
    Hit {
        closed: bool,
    },
    Capped,
}

/// The mutable half of one work-list DFS (the whole search in sequential
/// mode, one task in sharded mode).
struct Search<'a> {
    system: &'a System,
    budget: CrashtestConfig,
    /// Every process's initial local state, for the no-op crash rules.
    initial_states: Vec<LocalState>,
    /// Memo: for each state already explored *from*, the largest remaining
    /// schedule budget (`max_depth - depth`) it was explored with. Crash
    /// counts are part of the key, and a state reached again with *more*
    /// remaining budget is re-explored — the same configuration with more
    /// budget (crash or depth) left can reach strictly more — unless its
    /// entry is closed.
    visited: MemoMap,
    path: Vec<Event>,
    stats: ExplorerStats,
    /// Live instrument handles (no-ops under a disabled tracer), resolved
    /// once so the hot loop never touches the registry's lock.
    events: Counter,
    memo_hits: Counter,
    re_explored: Counter,
    resumed: Counter,
    depths: HistogramHandle,
    deadline: Option<Instant>,
    shared: Option<&'a SharedCtx>,
    task_index: usize,
}

impl<'a> Search<'a> {
    fn new(
        system: &'a System,
        budget: CrashtestConfig,
        tracer: &Tracer,
        deadline: Option<Instant>,
        shared: Option<&'a SharedCtx>,
        task_index: usize,
    ) -> Self {
        Search {
            system,
            budget,
            initial_states: system.initial_config().states,
            visited: MemoMap::default(),
            path: Vec::new(),
            stats: ExplorerStats::default(),
            events: tracer.counter("crashtest.events_applied"),
            memo_hits: tracer.counter("crashtest.memo_hits"),
            re_explored: tracer.counter("crashtest.re_explored"),
            resumed: tracer.counter("crashtest.resumed_states"),
            depths: tracer.histogram("crashtest.depth"),
            deadline,
            shared,
            task_index,
        }
    }

    /// Explores every enabled event from the root, depth-first via an
    /// explicit frame stack (no recursion: `--depth` in the thousands is
    /// a heap allocation, not a stack overflow). On a violation, the
    /// violating schedule is left in `self.path`.
    ///
    /// Each child is built in one scratch state with `clone_from`, so a
    /// child that is a memo hit costs no allocation. A child that is
    /// explored becomes the new frame's state, and the scratch takes over
    /// the buffers of a popped frame.
    ///
    /// **Closure.** A frame whose whole subtree finished without a depth
    /// cut — no frame at `max_depth`, and no memo hit on an entry that is
    /// not closed (an in-progress ancestor's entry never is) — marks its
    /// entry closed when it pops. By induction in pop order, no violation
    /// is reachable from a closed state at any depth, so a closed entry
    /// covers every later arrival whatever its remaining budget. The
    /// re-exploration that closure saves would only revisit closed states
    /// (everything reachable from a closed state is closed), so verdict,
    /// counterexample and `states_visited` are unchanged.
    fn run(&mut self, config: Configuration, counts: Vec<usize>, depth: usize) -> TaskOutcome {
        let n = self.system.n();
        let mut child: MemoKey = (config.clone(), counts.clone());
        // Buffers of popped frames, reused for the scratch child.
        let mut spare: Vec<MemoKey> = Vec::new();
        let mut stack = vec![Frame {
            key: (config, counts),
            depth,
            next: 0,
            has_event: false,
            cut: false,
        }];
        let mut ticks: u32 = 0;
        while !stack.is_empty() {
            ticks = ticks.wrapping_add(1);
            // Checked on the first iteration (an already-expired deadline
            // aborts before any work) and every 1024th thereafter.
            if ticks & 0x3FF == 1 && self.should_abort() {
                return TaskOutcome::Aborted;
            }
            let top = stack.len() - 1;
            if stack[top].depth >= self.budget.max_depth {
                self.stats.depth_limited = true;
                stack[top].cut = true;
                self.pop_frame(&mut stack, &mut spare);
                continue;
            }
            if stack[top].next >= candidate_limit(n) {
                self.pop_frame(&mut stack, &mut spare);
                continue;
            }
            let idx = stack[top].next;
            stack[top].next += 1;
            let frame = &stack[top];
            let Some(event) = enabled_candidate(
                self.system,
                &self.initial_states,
                &frame.key.0,
                &frame.key.1,
                idx,
                &self.budget,
            ) else {
                continue;
            };
            child.0.clone_from(&frame.key.0);
            child.1.clone_from(&frame.key.1);
            let child_depth = frame.depth + 1;
            let effect = self.system.apply(&mut child.0, event);
            self.stats.events_applied += 1;
            self.events.incr();
            self.path.push(event);
            if let Some(violation) = effect.violation {
                return TaskOutcome::Violation(violation);
            }
            charge_crash(&mut child.1, event);
            // Remaining schedule budget at the child. A state is skipped
            // only if it was already explored with at least this much
            // budget left (or is closed) — skipping on mere membership
            // would prune in-budget schedules when a state first reached
            // deep is reached again along a shorter prefix.
            let remaining = self.budget.max_depth - child_depth;
            match self.memo_check(&child, remaining, child_depth) {
                MemoVerdict::Explore => {
                    let fresh = spare.pop().unwrap_or_else(|| child.clone());
                    stack.push(Frame {
                        key: std::mem::replace(&mut child, fresh),
                        depth: child_depth,
                        next: 0,
                        has_event: true,
                        cut: false,
                    });
                }
                MemoVerdict::Hit { closed } => {
                    self.path.pop();
                    if !closed {
                        stack[top].cut = true;
                    }
                }
                MemoVerdict::Capped => {
                    // Walking the rest of the frontier cannot restore
                    // exhaustiveness; stop burning events immediately.
                    self.stats.state_capped = true;
                    if let Some(shared) = self.shared {
                        shared.capped.store(true, Ordering::SeqCst);
                    }
                    return TaskOutcome::Aborted;
                }
            }
        }
        TaskOutcome::CleanComplete
    }

    /// Pops the top frame: a cut propagates to the parent, an uncut frame
    /// closes its memo entry, and its buffers go back to `spare`.
    fn pop_frame(&mut self, stack: &mut Vec<Frame>, spare: &mut Vec<MemoKey>) {
        let Some(frame) = stack.pop() else {
            return;
        };
        if frame.has_event {
            self.path.pop();
        }
        if frame.cut {
            if let Some(parent) = stack.last_mut() {
                parent.cut = true;
            }
        } else if let Some(entry) = self.visited.get_mut(&frame.key) {
            entry.closed = true;
        }
        spare.push(frame.key);
    }

    /// Looks a child up in the local memo (then the shared certified map,
    /// in sharded mode) and decides whether to explore it.
    fn memo_check(&mut self, key: &MemoKey, remaining: usize, child_depth: usize) -> MemoVerdict {
        let local = self.visited.get(key).copied();
        if let Some(entry) = local {
            if entry.covers(remaining) {
                self.hit(entry);
                return MemoVerdict::Hit {
                    closed: entry.closed,
                };
            }
        }
        if let Some(entry) = self.shared_lookup(key) {
            if entry.covers(remaining) {
                self.hit(entry);
                self.visited.insert(key.clone(), entry);
                return MemoVerdict::Hit {
                    closed: entry.closed,
                };
            }
        }
        let fresh = MemoEntry::open(remaining, false);
        if local.is_some() {
            self.stats.re_explored += 1;
            self.re_explored.incr();
            if let Some(entry) = self.visited.get_mut(key) {
                *entry = fresh;
            }
            return MemoVerdict::Explore;
        }
        // A genuinely fresh state: counts against the global cap.
        let over_cap = match self.shared {
            Some(shared) => {
                let total = shared.total_states.fetch_add(1, Ordering::SeqCst);
                total >= self.budget.max_states as u64
            }
            None => self.stats.states_visited >= self.budget.max_states as u64,
        };
        if over_cap {
            return MemoVerdict::Capped;
        }
        self.stats.states_visited += 1;
        self.depths.observe(child_depth as u64);
        self.visited.insert(key.clone(), fresh);
        MemoVerdict::Explore
    }

    fn hit(&mut self, entry: MemoEntry) {
        self.stats.memo_hits += 1;
        self.memo_hits.incr();
        if entry.from_disk {
            self.stats.resumed_states += 1;
            self.resumed.incr();
        }
    }

    fn shared_lookup(&self, key: &MemoKey) -> Option<MemoEntry> {
        self.shared
            .and_then(|s| s.certified.read().unwrap().get(key).copied())
    }

    fn should_abort(&mut self) -> bool {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.stats.timed_out = true;
                if let Some(shared) = self.shared {
                    shared.timed_out.store(true, Ordering::SeqCst);
                }
                return true;
            }
        }
        if let Some(shared) = self.shared {
            if shared.capped.load(Ordering::SeqCst) || shared.timed_out.load(Ordering::SeqCst) {
                return true;
            }
            if shared.best_task.load(Ordering::SeqCst) < self.task_index {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{HeapLayout, LocalState, ObjectId, Program};
    use rcn_protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
    use rcn_spec::zoo::{FetchAndAdd, Register, StickyBit};
    use rcn_spec::{OpId, Response, ValueId};
    use std::sync::Arc;

    fn explore(system: &System) -> CrashtestReport {
        CrashExplorer::new(system, CrashtestConfig::default()).explore()
    }

    /// A crafted program whose only in-budget violation hides behind a
    /// state the DFS first creates at the depth frontier. `p0` increments a
    /// fetch-and-add counter and outputs the invalid value 99 exactly when
    /// its second step after a reset returns 3 — so the one violating
    /// schedule of length ≤ 5 is `p0 p0 c0 p0 p0` (crash while the counter
    /// holds 2, then two fresh steps). `p1` toggles a register, which gives
    /// the violating post-crash state a second, *longer* route
    /// (`p0 p0 p1 c0 p1`) that depth-first order reaches first — right at
    /// the depth cap, with no budget left to step into the violation.
    struct TrapProgram {
        counter: ObjectId,
        toggle: ObjectId,
    }

    impl Program for TrapProgram {
        fn name(&self) -> String {
            "memo-trap".into()
        }

        fn initial_state(&self, pid: ProcessId, _input: u32) -> LocalState {
            if pid.index() == 0 {
                // [steps since last reset, last response seen]
                LocalState::word2(0, 0)
            } else {
                // [current register value]
                LocalState::word1(0)
            }
        }

        fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
            if pid.index() == 0 {
                if state.word(0) == 2 && state.word(1) == 3 {
                    Action::Output(99)
                } else {
                    Action::Invoke {
                        object: self.counter,
                        op: OpId::new(0), // fetch&add(1)
                    }
                }
            } else {
                Action::Invoke {
                    object: self.toggle,
                    op: OpId::new(1 - state.word(0) as u16), // write(1 - b)
                }
            }
        }

        fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
            if pid.index() == 0 {
                LocalState::word2(state.word(0) + 1, response.index() as u32)
            } else {
                LocalState::word1(1 - state.word(0))
            }
        }
    }

    fn trap_system() -> System {
        let mut layout = HeapLayout::new();
        let counter = layout.add_object("F", Arc::new(FetchAndAdd::new(8)), ValueId::new(0));
        let toggle = layout.add_object("R", Arc::new(Register::new(2)), ValueId::new(0));
        System::new(
            Arc::new(TrapProgram { counter, toggle }),
            Arc::new(layout),
            vec![0, 0],
        )
    }

    /// Bounded DFS with *no* memoization at all: the ground truth the
    /// memoized explorer must agree with on violation existence. Honors
    /// the fault model but applies only the budget rules (no no-op
    /// skipping): a violation reached through a no-op crash is also
    /// reachable without it on a shorter schedule, so existence matches.
    fn oracle_finds_violation(
        sys: &System,
        config: &Configuration,
        crash_counts: &[usize],
        depth: usize,
        cfg: &CrashtestConfig,
    ) -> bool {
        if depth >= cfg.max_depth {
            return false;
        }
        let n = sys.n();
        let candidates = (0..n)
            .map(|i| Event::Step(ProcessId(i as u16)))
            .chain((0..n).map(|i| Event::Crash(ProcessId(i as u16))))
            .chain(std::iter::once(Event::SystemCrash))
            .chain((0..n).map(|i| Event::CrashDuring(ProcessId(i as u16))));
        for event in candidates {
            if !cfg.fault_model.allows(event) {
                continue;
            }
            match event {
                Event::Step(p) => {
                    if matches!(sys.action_of(config, p), Action::Output(_)) {
                        continue;
                    }
                }
                Event::Crash(p) | Event::CrashDuring(p) => {
                    if crash_counts[p.index()] >= cfg.max_crashes {
                        continue;
                    }
                }
                Event::SystemCrash => {
                    if crash_counts.iter().any(|&c| c >= cfg.max_crashes) {
                        continue;
                    }
                }
            }
            let mut next = config.clone();
            if sys.apply(&mut next, event).violation.is_some() {
                return true;
            }
            let mut next_counts = crash_counts.to_vec();
            charge_crash(&mut next_counts, event);
            if oracle_finds_violation(sys, &next, &next_counts, depth + 1, cfg) {
                return true;
            }
        }
        false
    }

    fn oracle(sys: &System, cfg: &CrashtestConfig) -> bool {
        let initial = sys.initial_config();
        if sys.check_initial_outputs(&initial).is_some() {
            return true;
        }
        let counts = vec![0usize; sys.n()];
        oracle_finds_violation(sys, &initial, &counts, 0, cfg)
    }

    /// A register toggle that stops on a flag, racing a counter. `p0`
    /// alternates between reading the flag `D` and flipping `R`, so four
    /// `p0` steps lead straight back to the state they started from — an
    /// ancestor still on the DFS stack — until `D` is set, after which `p0`
    /// decides and its branches terminate. `p1` fetch-and-adds `F` twice,
    /// sets `D` and decides its input, except that two fresh steps after a
    /// reset that read 3 output the invalid 99 (a crash while `F` holds 2
    /// makes the violation reachable).
    struct ToggleProgram {
        toggle: ObjectId,
        flag: ObjectId,
        counter: ObjectId,
    }

    impl Program for ToggleProgram {
        fn name(&self) -> String {
            "toggle".into()
        }

        fn initial_state(&self, _pid: ProcessId, input: u32) -> LocalState {
            // p0: [register value written last, phase, input]
            // p1: [steps since last reset, last response seen, input]
            LocalState::from_words([0, 0, input])
        }

        fn action(&self, pid: ProcessId, state: &LocalState) -> Action {
            let (a, b) = (state.word(0), state.word(1));
            if pid.index() == 0 {
                return match b {
                    0 => Action::Invoke {
                        object: self.flag,
                        op: OpId::new(2), // read
                    },
                    1 => Action::Invoke {
                        object: self.toggle,
                        op: OpId::new(1 - a as u16), // write(1 - a)
                    },
                    _ => Action::Output(state.word(2)),
                };
            }
            match (a, b) {
                (2, 5) => Action::Output(99),
                (0 | 1, _) => Action::Invoke {
                    object: self.counter,
                    op: OpId::new(0), // fetch&add(1)
                },
                (2, _) => Action::Invoke {
                    object: self.flag,
                    op: OpId::new(1), // write(1)
                },
                _ => Action::Output(state.word(2)),
            }
        }

        fn transition(&self, pid: ProcessId, state: &LocalState, response: Response) -> LocalState {
            let (a, b, input) = (state.word(0), state.word(1), state.word(2));
            let next = if pid.index() == 1 {
                [a + 1, response.index() as u32, input]
            } else if b == 1 {
                [1 - a, 0, input]
            } else if response.index() == 1 {
                [a, 2, input] // the flag is set: decide
            } else {
                [a, 1, input]
            };
            LocalState::from_words(next)
        }
    }

    fn toggle_system() -> System {
        let mut layout = HeapLayout::new();
        let toggle = layout.add_object("R", Arc::new(Register::new(2)), ValueId::new(0));
        let flag = layout.add_object("D", Arc::new(Register::new(2)), ValueId::new(0));
        let counter = layout.add_object("F", Arc::new(FetchAndAdd::new(8)), ValueId::new(0));
        System::new(
            Arc::new(ToggleProgram {
                toggle,
                flag,
                counter,
            }),
            Arc::new(layout),
            vec![0, 0],
        )
    }

    /// The first violating schedule of a bounded DFS with *no* memo: the
    /// explorer's event graph (same candidate order, same no-op skip
    /// rules) walked path by path, never stepping onto a state already on
    /// the path (`on_path`). A memo hit on an in-progress ancestor cuts
    /// exactly such a cycle, and any other hit skips only schedules
    /// already covered, so the explorer must report this same schedule.
    fn oracle_counterexample(
        sys: &System,
        initial: &[LocalState],
        config: &Configuration,
        counts: &[usize],
        path: &mut Vec<Event>,
        on_path: &mut Vec<MemoKey>,
        cfg: &CrashtestConfig,
    ) -> bool {
        if path.len() >= cfg.max_depth {
            return false;
        }
        for idx in 0..candidate_limit(sys.n()) {
            let Some(event) = enabled_candidate(sys, initial, config, counts, idx, cfg) else {
                continue;
            };
            let mut next = config.clone();
            path.push(event);
            if sys.apply(&mut next, event).violation.is_some() {
                return true;
            }
            let mut next_counts = counts.to_vec();
            charge_crash(&mut next_counts, event);
            let key = (next, next_counts);
            if !on_path.contains(&key) {
                on_path.push(key.clone());
                if oracle_counterexample(sys, initial, &key.0, &key.1, path, on_path, cfg) {
                    return true;
                }
                on_path.pop();
            }
            path.pop();
        }
        false
    }

    #[test]
    fn closure_keeps_the_counterexample_and_the_visited_states() {
        // Closed subtrees are never re-explored. That must leave the
        // counterexample — the first violating schedule of the cycle-
        // cutting, unmemoized oracle — and `states_visited` exactly as
        // they were without the rule; only `events_applied` may drop.
        // Pinned per fault model × budget: (states_visited, events_applied
        // of the search before closure existed).
        let budgets = [(0, 12), (1, 5), (1, 8), (2, 6), (2, 8)];
        let models = [
            FaultModel::PER_PROCESS,
            FaultModel::SYSTEM,
            FaultModel::MID_OP,
            FaultModel::ALL,
        ];
        #[rustfmt::skip]
        let pins = [
            ("trap", trap_system(), [
                (25, 46), (21, 29), (61, 110), (27, 39), (75, 136),
                (25, 46), (19, 23), (52, 88), (27, 36), (70, 124),
                (25, 46), (33, 55), (96, 297), (58, 116), (176, 646),
                (25, 46), (38, 63), (103, 326), (74, 156), (210, 859),
            ]),
            ("toggle", toggle_system(), [
                (18, 51), (57, 94), (151, 369), (109, 202), (236, 563),
                (18, 51), (55, 87), (112, 321), (111, 219), (206, 559),
                (18, 51), (105, 299), (226, 1059), (284, 998), (284, 969),
                (18, 51), (123, 334), (254, 1173), (393, 1469), (387, 1386),
            ]),
        ];
        for (name, sys, pinned) in &pins {
            let initial = sys.initial_config();
            let mut saved = 0;
            for (i, (fault_model, (max_crashes, max_depth))) in models
                .iter()
                .flat_map(|m| budgets.iter().map(move |b| (*m, *b)))
                .enumerate()
            {
                let cfg = CrashtestConfig {
                    max_crashes,
                    max_depth,
                    fault_model,
                    ..Default::default()
                };
                let ctx = format!("{name} {cfg:?}");
                let report = CrashExplorer::new(sys, cfg).explore();
                let mut path = Vec::new();
                let found = oracle_counterexample(
                    sys,
                    &initial.states,
                    &initial,
                    &vec![0; sys.n()],
                    &mut path,
                    &mut vec![(initial.clone(), vec![0; sys.n()])],
                    &cfg,
                );
                assert_eq!(
                    report.counterexample.map(|c| c.schedule),
                    found.then(|| Schedule::from_events(path)),
                    "{ctx}: counterexample"
                );
                let (states, events_before) = pinned[i];
                assert_eq!(report.stats.states_visited, states, "{ctx}: states");
                assert!(report.stats.events_applied <= events_before, "{ctx}");
                saved += events_before - report.stats.events_applied;
            }
            // The toggle's terminating branches close; the trap's never do
            // (its toggle runs forever), so only its pins are tight.
            if *name == "toggle" {
                assert!(saved > 0, "closure never fired on {name}");
            }
        }
    }

    #[test]
    fn depth_cap_memoization_is_depth_aware() {
        // Regression: a visited-set keyed only on (configuration,
        // crash-counts) skipped states first created at the depth frontier
        // when they were reached again along a shorter prefix, and the trap
        // system was wrongly certified clean at this exact budget.
        let sys = trap_system();
        let cfg = CrashtestConfig {
            max_crashes: 1,
            max_depth: 5,
            ..Default::default()
        };
        let report = CrashExplorer::new(&sys, cfg).explore();
        let cex = report
            .counterexample
            .expect("the depth-5 violation must be found despite the deep-first revisit");
        assert!(!cex.schedule.is_crash_free());
        assert!(cex.schedule.len() <= 5);
        // The found schedule independently replays to the same violation.
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
    }

    #[test]
    fn memoized_search_agrees_with_unmemoized_oracle() {
        // Violation existence must match a memo-free bounded DFS across
        // systems and tight budgets (where unsound pruning would show).
        let systems: Vec<(&str, System)> = vec![
            ("trap", trap_system()),
            ("tas", TasConsensus::system(vec![0, 1])),
            ("tnn-wait-free", TnnWaitFree::system(2, 1, vec![0, 1])),
            ("tnn-recoverable", TnnRecoverable::system(3, 1, vec![0, 1])),
        ];
        for (name, sys) in &systems {
            for fault_model in [
                FaultModel::PER_PROCESS,
                FaultModel::SYSTEM,
                FaultModel::MID_OP,
                FaultModel::ALL,
            ] {
                for (max_crashes, max_depth) in [(1, 4), (1, 5), (1, 6), (2, 6), (1, 8)] {
                    let cfg = CrashtestConfig {
                        max_crashes,
                        max_depth,
                        fault_model,
                        ..Default::default()
                    };
                    let report = CrashExplorer::new(sys, cfg).explore();
                    assert!(
                        report.stats.exhaustive(),
                        "{name} {cfg:?} hit the state cap"
                    );
                    assert_eq!(
                        report.counterexample.is_some(),
                        oracle(sys, &cfg),
                        "memoized explorer disagrees with the oracle on {name} at {cfg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn rediscovers_golabs_tas_counterexample() {
        let sys = TasConsensus::system(vec![0, 1]);
        let report = explore(&sys);
        let cex = report.counterexample.expect("T&S must break under crashes");
        // Independently confirm the found schedule through the executor.
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
        assert!(
            !cex.schedule.is_crash_free(),
            "crash-free T&S runs are safe; the violation needs a crash: {cex}"
        );
    }

    #[test]
    fn rediscovers_tnn_bottom_divergence() {
        let sys = TnnWaitFree::system(2, 1, vec![0, 1]);
        let report = explore(&sys);
        let cex = report
            .counterexample
            .expect("T_{2,1} wait-free must diverge once the object saturates");
        let (_, violation) = sys.run_from_start(&cex.schedule);
        assert_eq!(violation, Some(cex.violation));
    }

    #[test]
    fn certifies_tnn_recoverable_clean() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = explore(&sys);
        assert!(
            report.is_certified_clean(),
            "recoverable T_{{5,2}} must survive every budgeted crash placement: {:?}",
            report.counterexample
        );
        assert!(report.stats.states_visited > 1);
    }

    #[test]
    fn certifies_tournament_clean() {
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0]).unwrap();
        let report = explore(&sys);
        assert!(
            report.is_certified_clean(),
            "tournament consensus must survive every budgeted crash placement: {:?}",
            report.counterexample
        );
    }

    #[test]
    fn closure_cuts_the_tournament_events_but_not_its_states() {
        // `crashtest tournament:sticky --crashes 2 --depth 16 --fault-model
        // mid-op`: the same 993 states as before closed subtrees were
        // skipped (CI pins the CLI run too), in fewer than the 16,361
        // events the search applied without the rule.
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![0, 1]).unwrap();
        let report = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_crashes: 2,
                max_depth: 16,
                fault_model: FaultModel::MID_OP,
                ..Default::default()
            },
        )
        .explore();
        assert!(report.is_certified_clean());
        assert_eq!(report.stats.states_visited, 993);
        assert_eq!(report.stats.events_applied, 15_190);
    }

    #[test]
    fn exploration_is_deterministic() {
        let sys = TasConsensus::system(vec![0, 1]);
        let first = explore(&sys);
        for _ in 0..3 {
            assert_eq!(explore(&sys), first);
        }
    }

    #[test]
    fn zero_crash_budget_finds_nothing_on_crash_safe_protocols() {
        // T&S consensus is correct in the crash-free model; with a zero
        // crash budget the explorer must certify it clean.
        let sys = TasConsensus::system(vec![0, 1]);
        let report = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_crashes: 0,
                ..Default::default()
            },
        )
        .explore();
        assert!(report.is_certified_clean(), "{:?}", report.counterexample);
    }

    #[test]
    fn traced_exploration_is_transparent_and_counts_the_search() {
        let sys = TasConsensus::system(vec![0, 1]);
        let tracer = Tracer::ring(4096);
        let traced = CrashExplorer::new(&sys, CrashtestConfig::default())
            .with_tracer(tracer.clone())
            .explore();
        let plain = explore(&sys);
        assert_eq!(traced, plain, "tracing must not perturb the verdict");

        let snap = tracer.snapshot().expect("enabled tracer");
        assert_eq!(
            snap.counter("crashtest.events_applied"),
            Some(traced.stats.events_applied)
        );
        assert_eq!(
            snap.counter("crashtest.states_visited"),
            Some(traced.stats.states_visited)
        );
        assert_eq!(snap.counter("crashtest.counterexamples"), Some(1));
        // One depth observation per visited state.
        let depth = snap
            .histograms
            .iter()
            .find(|h| h.name == "crashtest.depth")
            .expect("depth histogram");
        assert_eq!(depth.count, traced.stats.states_visited);

        let rows = tracer.ring_events();
        assert!(rows.iter().any(|r| r.name == "crashtest.explore"));
        let cex_event = rows
            .iter()
            .find(|r| r.name == "crashtest.counterexample")
            .expect("counterexample event");
        assert_eq!(
            cex_event.value,
            traced.counterexample.as_ref().unwrap().schedule.len() as i64
        );

        // A clean system is explored exhaustively, so the memo must get
        // exercised (T&S above unwinds at the first counterexample and may
        // never revisit a state).
        let clean_tracer = Tracer::metrics_only();
        let clean = CrashExplorer::new(
            &TnnRecoverable::system(5, 2, vec![0, 1]),
            CrashtestConfig::default(),
        )
        .with_tracer(clean_tracer.clone())
        .explore();
        assert!(clean.is_certified_clean());
        let snap = clean_tracer.snapshot().expect("enabled tracer");
        assert!(
            snap.counter("crashtest.memo_hits").unwrap_or(0) > 0,
            "an exhaustive exploration must hit its memo: {snap:?}"
        );
        assert_eq!(snap.counter("crashtest.counterexamples"), Some(0));
        // The public stats carry the same memo counters the tracer saw.
        assert_eq!(
            snap.counter("crashtest.memo_hits"),
            Some(clean.stats.memo_hits)
        );
        assert_eq!(
            snap.counter("crashtest.re_explored"),
            Some(clean.stats.re_explored)
        );
    }

    #[test]
    fn public_stats_expose_memo_effort_without_a_tracer() {
        // The stable ExplorerStats seam: memo effort is visible on the
        // plain (untraced) report, so cross-checkers can cite both sides'
        // search effort without instrumenting anything.
        let report = explore(&TnnRecoverable::system(5, 2, vec![0, 1]));
        assert!(report.is_certified_clean());
        assert!(report.stats.memo_hits > 0, "{}", report.stats);
        assert!(report.stats.events_applied > report.stats.states_visited);
    }

    #[test]
    fn state_cap_is_reported_honestly() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_states: 10,
                ..Default::default()
            },
        )
        .explore();
        assert!(report.stats.state_capped);
        assert!(!report.is_certified_clean());
    }

    /// A one-process program whose crash-free run is a single acyclic
    /// chain: each step increments a local counter until it outputs at
    /// `len`. Every state along the chain is distinct, so the explorer
    /// must hold `len` frames at once — the regression shape for the old
    /// recursive DFS, which overflowed the thread stack at `--depth` in
    /// the thousands.
    struct ChainProgram {
        counter: ObjectId,
        len: u32,
    }

    impl Program for ChainProgram {
        fn name(&self) -> String {
            format!("chain:{}", self.len)
        }

        fn initial_state(&self, _pid: ProcessId, _input: u32) -> LocalState {
            LocalState::word1(0)
        }

        fn action(&self, _pid: ProcessId, state: &LocalState) -> Action {
            if state.word(0) >= self.len {
                Action::Output(0)
            } else {
                Action::Invoke {
                    object: self.counter,
                    op: OpId::new(0),
                }
            }
        }

        fn transition(
            &self,
            _pid: ProcessId,
            state: &LocalState,
            _response: Response,
        ) -> LocalState {
            LocalState::word1(state.word(0) + 1)
        }
    }

    fn chain_system(len: u32) -> System {
        let mut layout = HeapLayout::new();
        let counter = layout.add_object("F", Arc::new(FetchAndAdd::new(4)), ValueId::new(0));
        System::new(
            Arc::new(ChainProgram { counter, len }),
            Arc::new(layout),
            vec![0],
        )
    }

    #[test]
    fn depth_5000_does_not_overflow_the_stack() {
        // Regression for the recursive DFS: one frame per schedule event
        // meant `--depth 5000` aborted the process. The work-list keeps
        // frames on the heap.
        let sys = chain_system(5000);
        let report = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_crashes: 0,
                max_depth: 5000,
                ..Default::default()
            },
        )
        .explore();
        assert!(report.is_certified_clean(), "{:?}", report.counterexample);
        // The chain has exactly 5001 states: initial plus one per step.
        assert_eq!(report.stats.states_visited, 5001);
        assert_eq!(report.stats.events_applied, 5000);
    }

    #[test]
    fn state_cap_short_circuits_the_search() {
        // Regression: the old DFS kept walking (and applying events) under
        // every remaining frame after the cap tripped, although no new
        // state could be explored. The work-list returns immediately, so
        // the whole run applies at most (max_states + 1) * 2n events —
        // each explored frame tries at most 2n candidates.
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let full = explore(&sys);
        assert!(full.is_certified_clean());
        let cap = 10u64;
        let capped = CrashExplorer::new(
            &sys,
            CrashtestConfig {
                max_states: cap as usize,
                ..Default::default()
            },
        )
        .explore();
        assert!(capped.stats.state_capped);
        let n = sys.n() as u64;
        let bound = (cap + 1) * 2 * n;
        assert!(
            capped.stats.events_applied <= bound,
            "events kept growing after the cap: {} > {bound}",
            capped.stats.events_applied
        );
        assert!(capped.stats.events_applied < full.stats.events_applied);
    }

    #[test]
    fn sharded_search_is_bit_identical_to_sequential() {
        // The acceptance bar of the sharded rewrite: verdict and chosen
        // counterexample (the lex-least violating schedule) are identical
        // at every thread count; only effort counters may differ.
        let systems: Vec<(&str, System, CrashtestConfig)> = vec![
            (
                "trap",
                trap_system(),
                CrashtestConfig {
                    max_crashes: 1,
                    max_depth: 5,
                    ..Default::default()
                },
            ),
            (
                "tas",
                TasConsensus::system(vec![0, 1]),
                CrashtestConfig::default(),
            ),
            (
                "tnn-wait-free",
                TnnWaitFree::system(2, 1, vec![0, 1]),
                CrashtestConfig::default(),
            ),
            (
                "tnn-recoverable",
                TnnRecoverable::system(3, 1, vec![0, 1]),
                CrashtestConfig::default(),
            ),
        ];
        for (name, sys, cfg) in &systems {
            let seq = CrashExplorer::new(sys, *cfg).explore();
            for threads in [2, 4] {
                let par = CrashExplorer::new(sys, *cfg)
                    .with_threads(threads)
                    .explore();
                assert_eq!(
                    par.counterexample, seq.counterexample,
                    "{name} diverges at {threads} threads"
                );
                assert_eq!(
                    par.is_certified_clean(),
                    seq.is_certified_clean(),
                    "{name} certification diverges at {threads} threads"
                );
                assert_eq!(par.stats.exhaustive(), seq.stats.exhaustive());
            }
        }
    }

    #[test]
    fn zero_timeout_reports_an_honest_partial() {
        let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
        let report = CrashExplorer::new(&sys, CrashtestConfig::default())
            .with_timeout(Duration::from_secs(0))
            .explore();
        assert!(report.stats.timed_out);
        assert!(!report.is_certified_clean());
        assert!(report.counterexample.is_none());
    }
}
