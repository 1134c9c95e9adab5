//! The *n-recording* condition (DFFR'22, as restated in §2 of the paper)
//! and its decision procedure.
//!
//! A deterministic type `T` is *n-recording* if there exist a value `u`, a
//! partition of the processes into two nonempty teams, and an operation
//! `o_i` per process such that:
//!
//! * `U_0 ∩ U_1 = ∅`, where `U_x` is the set of values resulting from
//!   schedules `σ ∈ S(P)` whose first process is on team `x`, and
//! * if `u ∈ U_x`, then `|T_x̄| = 1` (the *hiding* clause: if team `x` can
//!   leave the object looking untouched, the other team must be a single
//!   process).
//!
//! This paper's **Theorem 13** shows n-recording is *necessary* for solving
//! n-process recoverable wait-free consensus with deterministic types;
//! DFFR'22 (Theorem 8) shows it is *sufficient* for deterministic readable
//! types. Hence for readable deterministic types the *recording number*
//! computed here **is** the recoverable consensus number.

use crate::discerning::LevelResult;
use crate::reach::Analysis;
use crate::search::{op_multisets, partitions, team_masks};
use crate::witness::{Witness, WitnessError};
use rcn_spec::{ObjectType, ValueId};

/// Checks whether a concrete witness establishes that `ty` is
/// `witness.n()`-recording.
///
/// # Errors
///
/// Returns [`WitnessError`] if the witness is malformed for `ty`.
///
/// # Examples
///
/// ```
/// use rcn_decide::{check_recording, Team, Witness};
/// use rcn_spec::{zoo::TestAndSet, OpId, ValueId};
///
/// // Test-and-set is NOT 2-recording with the natural witness: whoever
/// // goes first, the bit ends up set, so U_0 ∩ U_1 ≠ ∅. (Golab: its
/// // recoverable consensus number is 1.)
/// let w = Witness::new(
///     ValueId::new(0),
///     vec![Team::T0, Team::T1],
///     vec![OpId::new(0), OpId::new(0)],
/// );
/// assert_eq!(check_recording(&TestAndSet::new(), &w), Ok(false));
/// ```
pub fn check_recording<T: ObjectType + ?Sized>(
    ty: &T,
    witness: &Witness,
) -> Result<bool, WitnessError> {
    witness.validate(ty)?;
    let analysis = Analysis::new(ty, witness.initial, &witness.ops);
    let (t0, t1) = team_masks(&witness.team_of);
    Ok(recording_holds(&analysis, witness.initial, t0, t1))
}

/// `U_0 ∩ U_1 = ∅` plus the hiding clause, for the teams with member
/// bitmasks `t0`/`t1`. Evaluated one word at a time with the per-first
/// words OR-ed on the fly, so a partition check allocates nothing and
/// stops at the first failing word; the `u ∈ U_x` bits are read from the
/// word holding `u` in the same pass.
pub(crate) fn recording_holds(analysis: &Analysis, u: ValueId, t0: u32, t1: u32) -> bool {
    let (uw, ubit) = (u.index() / 64, 1u64 << (u.index() % 64));
    (0..analysis.value_words()).all(|w| {
        let a = analysis.value_word(t0, w);
        let b = analysis.value_word(t1, w);
        // Hiding clause: if u ∈ U_x then |T_x̄| = 1.
        let hides = |ux: u64, other: u32| w == uw && ux & ubit != 0 && other.count_ones() != 1;
        a & b == 0 && !hides(a, t1) && !hides(b, t0)
    })
}

/// Searches exhaustively for an `n`-recording witness.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn find_recording_witness<T: ObjectType + ?Sized>(ty: &T, n: usize) -> Option<Witness> {
    assert!(n >= 2, "n-recording requires n >= 2");
    for u in 0..ty.num_values() {
        let u = ValueId(u as u16);
        for ops in op_multisets(ty.num_ops(), n) {
            let analysis = Analysis::new(ty, u, &ops);
            for teams in partitions(n) {
                let (t0, t1) = team_masks(&teams);
                if recording_holds(&analysis, u, t0, t1) {
                    return Some(Witness::new(u, teams, ops));
                }
            }
        }
    }
    None
}

/// Returns `true` if `ty` is `n`-recording.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn is_n_recording<T: ObjectType + ?Sized>(ty: &T, n: usize) -> bool {
    find_recording_witness(ty, n).is_some()
}

/// Computes the *recording number* of `ty`: the largest `n ≤ cap` such that
/// `ty` is `n`-recording (1 if not even 2-recording).
///
/// For a deterministic **readable** type this is exactly the recoverable
/// consensus number (Theorem 13 of the paper + DFFR'22 Theorem 8); for
/// other deterministic types it is an upper bound (Theorem 13 alone).
///
/// # Panics
///
/// Panics if `cap < 2`.
///
/// # Examples
///
/// ```
/// use rcn_decide::recording_number;
/// use rcn_spec::zoo::{StickyBit, TestAndSet};
///
/// // Golab: test-and-set cannot solve 2-process recoverable consensus.
/// assert_eq!(recording_number(&TestAndSet::new(), 4).level, 1);
/// // The sticky bit keeps its full power.
/// assert!(recording_number(&StickyBit::new(), 4).capped);
/// ```
pub fn recording_number<T: ObjectType + ?Sized>(ty: &T, cap: usize) -> LevelResult {
    assert!(cap >= 2, "cap must be at least 2");
    let mut best = LevelResult {
        level: 1,
        capped: false,
        witness: None,
    };
    for n in 2..=cap {
        match find_recording_witness(ty, n) {
            Some(w) => {
                best = LevelResult {
                    level: n,
                    capped: n == cap,
                    witness: Some(w),
                };
            }
            None => return best,
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::BitSet;
    use crate::discerning::pairs_disjoint;
    use crate::synthesis::{random_readable_table, rng};
    use proptest::prelude::*;
    use rand::Rng;
    use rcn_spec::zoo::{
        CompareAndSwap, ConsensusObject, Register, StickyBit, TeamCounter, TestAndSet, Tnn,
    };
    use rcn_spec::OpId;

    #[test]
    fn test_and_set_is_not_2_recording() {
        // Golab's separation, via the decider: 2-discerning (consensus
        // number 2) but not 2-recording (recoverable consensus number 1).
        assert!(!is_n_recording(&TestAndSet::new(), 2));
        assert_eq!(recording_number(&TestAndSet::new(), 3).level, 1);
    }

    #[test]
    fn register_is_not_2_recording() {
        assert!(!is_n_recording(&Register::new(2), 2));
    }

    #[test]
    fn sticky_bit_and_consensus_object_keep_full_power() {
        for n in 2..5 {
            assert!(is_n_recording(&StickyBit::new(), n), "sticky n={n}");
            assert!(
                is_n_recording(&ConsensusObject::new(), n),
                "consensus n={n}"
            );
        }
    }

    #[test]
    fn cas_is_recording_at_small_n() {
        // Domain ≥ 3 is essential: with two fresh targets, cas(0,1) vs
        // cas(0,2) records the first team in the value forever.
        assert!(is_n_recording(&CompareAndSwap::new(3), 2));
        assert!(is_n_recording(&CompareAndSwap::new(3), 3));
        // Binary CAS has only two values — no room to record disjointly.
        assert!(!is_n_recording(&CompareAndSwap::new(2), 2));
    }

    #[test]
    fn tnn_recording_number_is_n_minus_1() {
        // For T_{n,n'} the value counter records the first team up to depth
        // n−1 and collapses to s_⊥ at depth n, so the recording number is
        // n−1 regardless of n′. (Because T_{n,n'} is not readable for
        // n′ < n−1, this does NOT contradict its recoverable consensus
        // number being n′ — recording is only sufficient for readable
        // types; see §4 of the paper and EXPERIMENTS.md E3.)
        let t = Tnn::new(4, 2);
        assert!(is_n_recording(&t, 3));
        assert!(!is_n_recording(&t, 4));
        let t = Tnn::new(4, 1);
        assert_eq!(recording_number(&t, 5).level, 3);
    }

    #[test]
    fn team_counter_recording_number_is_n_minus_1() {
        let tc = TeamCounter::new(4);
        assert!(is_n_recording(&tc, 3));
        assert!(!is_n_recording(&tc, 4));
    }

    #[test]
    fn recording_witnesses_replay() {
        for n in 2..5 {
            let w = find_recording_witness(&StickyBit::new(), n).expect("witness");
            assert_eq!(check_recording(&StickyBit::new(), &w), Ok(true), "n={n}");
        }
    }

    /// Checks the word-at-a-time partition checks against the set-union
    /// formulation they replace — union each team's per-first sets, then
    /// intersect — on every partition of `analysis`.
    fn assert_checks_match_set_union(analysis: &Analysis, u: ValueId) -> TestCaseResult {
        let n = analysis.n();
        for teams in partitions(n) {
            let (t0, t1) = team_masks(&teams);
            let m0: Vec<usize> = (0..n).filter(|&i| t0 & (1 << i) != 0).collect();
            let m1: Vec<usize> = (0..n).filter(|&i| t1 & (1 << i) != 0).collect();
            let disjoint = (0..n).all(|j| {
                !analysis
                    .pair_set(&m0, j)
                    .intersects(&analysis.pair_set(&m1, j))
            });
            prop_assert_eq!(pairs_disjoint(analysis, t0, t1), disjoint, "{:?}", teams);
            let (u0, u1) = (analysis.value_set(&m0), analysis.value_set(&m1));
            // Hiding clause: if u ∈ U_x then |T_x̄| = 1.
            let hides = |ux: &BitSet, other: &[usize]| ux.contains(u.index()) && other.len() != 1;
            let recording = !u0.intersects(&u1) && !hides(&u0, &m1) && !hides(&u1, &m0);
            prop_assert_eq!(
                recording_holds(analysis, u, t0, t1),
                recording,
                "{:?}",
                teams
            );
        }
        Ok(())
    }

    proptest! {
        /// Analyses of random readable tables, including tables whose sets
        /// span several words (64, 70 and 130 values).
        #[test]
        fn partition_checks_match_set_union_on_random_tables(
            seed in 0u64..1000,
            size in 0usize..6,
            raw_ops in prop::collection::vec(0usize..4, 2..6),
            raw_u in 0usize..200,
        ) {
            let num_values = [2, 3, 5, 64, 70, 130][size];
            let mutators = 1 + (seed % 3) as usize;
            let ty = random_readable_table(&mut rng(seed), num_values, mutators);
            let ops: Vec<OpId> = raw_ops
                .iter()
                .map(|&o| OpId((o % ty.num_ops()) as u16))
                .collect();
            let u = ValueId((raw_u % num_values) as u16);
            assert_checks_match_set_union(&Analysis::new(&ty, u, &ops), u)?;
        }

        /// Sparse random per-first sets, where disjoint teams and the hiding
        /// clause (`u` planted in a third of the value sets) are common —
        /// analyses of real types rarely separate the teams at all.
        #[test]
        fn partition_checks_match_set_union_on_sparse_sets(
            seed in 0u64..100_000,
            n in 2usize..7,
            size in 0usize..7,
            num_responses in 1usize..4,
        ) {
            let num_values = [1, 2, 5, 63, 64, 65, 130][size];
            let mut r = rng(seed);
            let u = ValueId(r.gen_range(0..num_values) as u16);
            let mut sparse = |capacity: usize, plant: Option<usize>| {
                let mut set = BitSet::new(capacity);
                for _ in 0..r.gen_range(0..3) {
                    set.insert(r.gen_range(0..capacity));
                }
                if let Some(e) = plant.filter(|_| r.gen_bool(1.0 / 3.0)) {
                    set.insert(e);
                }
                set
            };
            let value_sets = (0..n).map(|_| sparse(num_values, Some(u.index()))).collect();
            let pair_sets = (0..n * n)
                .map(|_| sparse(num_responses * num_values, None))
                .collect();
            let analysis = Analysis::from_sets(num_values, num_responses, value_sets, pair_sets);
            assert_checks_match_set_union(&analysis, u)?;
        }
    }

    #[test]
    fn recording_implies_discerning_on_zoo() {
        // Intuition check (not a theorem we rely on): every recording
        // witness found for these types also certifies discerning at the
        // same level via a (possibly different) witness.
        use crate::discerning::is_n_discerning;
        for n in 2..4 {
            for ty in [&TestAndSet::new() as &dyn rcn_spec::ObjectType] {
                if is_n_recording(ty, n) {
                    assert!(is_n_discerning(ty, n));
                }
            }
        }
    }
}
