//! Pinned outputs of the three searches that build every child state in
//! one scratch state and store each state once: `BudgetedGraph` (the
//! decider-side valency), `valency_check` (the `rcn-mc` re-derivation) and
//! the RCN104 crash-divergence search. The figures are those the searches
//! produced while `LocalState` was a plain `Vec<u32>` and both indexes
//! were `std` hash maps holding a second copy of every state: a change of
//! representation or hasher must not move a state id, a valency, a
//! critical state or a divergence schedule.

use rcn::analyze::{crash_divergence, ExploreConfig};
use rcn::mc::{valency_check, McValency, ValencyConfig};
use rcn::model::System;
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree, TournamentConsensus};
use rcn::spec::zoo::{CompareAndSwap, ConsensusObject, StickyBit};
use rcn::valency::{BudgetedGraph, Valency};
use std::sync::Arc;

/// `(name, system, budgeted states, critical state and its schedule,
/// RCN104 divergence as (process, first, second, schedule))`. Every
/// initial configuration here is bivalent.
type Pin = (
    &'static str,
    System,
    usize,
    (usize, &'static str),
    Option<(usize, u32, u32, &'static str)>,
);

fn pins() -> Vec<Pin> {
    let tournament = |ty| TournamentConsensus::try_new(ty, vec![0, 1]).unwrap();
    let tournament_pin = |name, sys| (name, sys, 329, (150, "p0 p0 c1 c1 c1 c1 p1 p1"), None);
    vec![
        (
            "tas",
            TasConsensus::system(vec![0, 1]),
            102,
            (21, "p0 c1 c1 p1"),
            Some((0, 0, 1, "p0 p0 c0 p0 p0 p0 c0 p0 p0 p1 p0")),
        ),
        (
            "tnn-wait-free:2,1",
            TnnWaitFree::system(2, 1, vec![0, 1]),
            29,
            (0, "⟨⟩"),
            Some((0, 1, 0, "c0 p1 p0 c0 p0")),
        ),
        (
            "tnn-recoverable:4,2",
            TnnRecoverable::system(4, 2, vec![0, 1]),
            62,
            (22, "p0 c1 c1 p1"),
            None,
        ),
        tournament_pin("tournament:sticky", tournament(Arc::new(StickyBit::new()))),
        tournament_pin(
            "tournament:cas:3",
            tournament(Arc::new(CompareAndSwap::new(3))),
        ),
        tournament_pin(
            "tournament:consensus",
            tournament(Arc::new(ConsensusObject::new())),
        ),
    ]
}

#[test]
fn budgeted_graph_states_valency_and_critical_state_are_pinned() {
    let v = ValencyConfig::default();
    for (name, sys, states, (critical, schedule), _) in pins() {
        let graph = BudgetedGraph::explore(&sys, v.z, v.clamp, v.max_states).unwrap();
        assert_eq!(graph.len(), states, "{name}: states");
        assert_eq!(graph.initial_valency(), Valency::Bivalent, "{name}");
        assert_eq!(graph.find_critical(), Some(critical), "{name}: critical");
        assert_eq!(graph.path_to(critical).to_string(), schedule, "{name}");
    }
}

#[test]
fn mc_valency_check_states_are_pinned() {
    for (name, sys, states, _, _) in pins() {
        let report = valency_check(&sys, ValencyConfig::default());
        assert_eq!(report.states, states as u64, "{name}: states");
        assert_eq!(report.valency, McValency::Bivalent, "{name}");
        assert!(report.coverage.is_exhaustive(), "{name}");
    }
}

#[test]
fn rcn104_divergence_schedules_are_pinned() {
    for (name, sys, _, _, divergence) in pins() {
        let found = crash_divergence(&sys, &ExploreConfig::default())
            .map(|d| (d.pid.index(), d.first, d.second, d.schedule));
        assert_eq!(
            found.as_ref().map(|(p, a, b, s)| (*p, *a, *b, s.as_str())),
            divergence,
            "{name}"
        );
    }
}
