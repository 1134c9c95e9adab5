//! End-to-end counterexample confirmation.
//!
//! A counterexample from the explorer is, so far, a claim about the
//! *abstract* executor. This module replays the schedule through two
//! independent implementations of the model and demands they agree:
//!
//! 1. the abstract executor ([`rcn_model::Execution`]), event by event;
//! 2. the threaded runtime ([`rcn_runtime::run_schedule`]): one OS thread
//!    per process over a real `NvHeap`, turn-coordinated to follow the
//!    schedule exactly.
//!
//! A confirmed counterexample produced the same outputs, the same first
//! violation, and (on the threaded side) a trace identical to the schedule
//! — there is nowhere left for a model-vs-implementation gap to hide.

use rcn_model::{Execution, ProcessId, Schedule, System, Violation};
use rcn_obs::Tracer;
use rcn_runtime::run_schedule_traced;
use std::fmt;

/// The two replays of one schedule, side by side.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// First violation per the abstract executor (initial-state outputs
    /// included).
    pub abstract_violation: Option<Violation>,
    /// First violation per the threaded runtime.
    pub threaded_violation: Option<Violation>,
    /// The outputs both sides produced (they are compared, so one copy
    /// suffices when [`outputs_match`](Self::outputs_match) holds).
    pub outputs: Vec<(ProcessId, u32)>,
    /// `true` if both replays produced identical output sequences.
    pub outputs_match: bool,
    /// `true` if the threaded runtime's recorded trace equals the input
    /// schedule event for event.
    pub trace_matches: bool,
}

impl ReplayReport {
    /// `true` if both replays violated identically, with matching outputs
    /// and a faithful threaded trace — the bar a counterexample must clear
    /// to be reported as confirmed.
    pub fn confirmed(&self) -> bool {
        self.abstract_violation.is_some()
            && self.abstract_violation == self.threaded_violation
            && self.outputs_match
            && self.trace_matches
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |v: &Option<Violation>| match v {
            Some(v) => v.to_string(),
            None => "no violation".to_string(),
        };
        write!(
            f,
            "abstract: {}; threaded: {}; outputs {}; trace {}",
            side(&self.abstract_violation),
            side(&self.threaded_violation),
            if self.outputs_match {
                "match"
            } else {
                "DIFFER"
            },
            if self.trace_matches {
                "faithful"
            } else {
                "DIVERGED"
            },
        )
    }
}

/// Replays `schedule` through both executors and compares them.
pub fn replay(system: &System, schedule: &Schedule) -> ReplayReport {
    replay_traced(system, schedule, &Tracer::disabled())
}

/// [`replay`] with observability: brackets both replays in a
/// `crashtest.replay` span, threads the tracer into the runtime's
/// [`run_schedule_traced`] (so the threaded side's `runtime.step` /
/// `runtime.crash` events land in the same trace), and counts confirmed
/// and diverged comparisons in `crashtest.replays_confirmed` /
/// `crashtest.replays_diverged`. With a disabled tracer this is exactly
/// [`replay`].
pub fn replay_traced(system: &System, schedule: &Schedule, tracer: &Tracer) -> ReplayReport {
    let span = tracer.span_with(
        "crashtest.replay",
        i64::try_from(schedule.len()).unwrap_or(i64::MAX),
        "",
    );
    let exec = Execution::record(system, schedule);
    let abstract_violation = system
        .check_initial_outputs(exec.initial())
        .or_else(|| exec.first_violation());
    let abstract_outputs = exec.outputs();

    let threaded = run_schedule_traced(system, schedule, tracer);
    drop(span);
    let report = ReplayReport {
        abstract_violation,
        threaded_violation: threaded.violation,
        outputs_match: abstract_outputs == threaded.outputs,
        trace_matches: threaded.trace == *schedule,
        outputs: abstract_outputs,
    };
    if report.confirmed() {
        tracer.add("crashtest.replays_confirmed", 1);
    } else if !report.outputs_match || !report.trace_matches {
        // A model-vs-implementation gap — always worth surfacing.
        tracer.add("crashtest.replays_diverged", 1);
        if tracer.recording() {
            tracer.event("crashtest.divergence", 0, &report.to_string());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{CrashExplorer, CrashtestConfig};
    use crate::shrink::shrink_counterexample;
    use rcn_protocols::{TasConsensus, TnnWaitFree};

    #[test]
    fn explorer_counterexamples_confirm_end_to_end() {
        for sys in [
            TasConsensus::system(vec![0, 1]),
            TnnWaitFree::system(2, 1, vec![0, 1]),
        ] {
            let report = CrashExplorer::new(&sys, CrashtestConfig::default()).explore();
            let cex = report.counterexample.expect("both protocols break");
            let full = replay(&sys, &cex.schedule);
            assert!(full.confirmed(), "raw schedule: {full}");
            let small = shrink_counterexample(&sys, &cex);
            let shrunk = replay(&sys, &small.schedule);
            assert!(shrunk.confirmed(), "shrunk schedule: {shrunk}");
            assert_eq!(shrunk.abstract_violation, Some(small.violation));
        }
    }

    #[test]
    fn initial_output_counterexamples_confirm_end_to_end() {
        // A program that outputs its input at time zero, with inputs 0 and
        // 1, violates agreement before any event: both engines report the
        // empty schedule, and the threaded replay must confirm it.
        let sys = System::new(
            std::sync::Arc::new(rcn_model::OutputInput),
            std::sync::Arc::new(rcn_model::HeapLayout::new()),
            vec![0, 1],
        );
        let cex = CrashExplorer::new(&sys, CrashtestConfig::default())
            .explore()
            .counterexample
            .expect("conflicting initial outputs violate");
        assert!(cex.schedule.is_empty());
        let report = replay(&sys, &cex.schedule);
        assert!(report.confirmed(), "{report}");
        assert_eq!(report.threaded_violation, Some(cex.violation));
    }

    #[test]
    fn clean_schedules_do_not_confirm() {
        let sys = TasConsensus::system(vec![0, 1]);
        let report = replay(&sys, &"p0 p0 p1 p1 p1".parse().unwrap());
        assert!(!report.confirmed());
        assert!(report.outputs_match);
        assert!(report.trace_matches);
        assert_eq!(report.abstract_violation, None);
        assert_eq!(report.threaded_violation, None);
    }
}
