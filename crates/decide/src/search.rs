//! Shared search scaffolding for the witness searches.
//!
//! Both deciders search the same witness space: an initial value, an op
//! assignment, and a team partition. Two symmetries cut the space:
//!
//! * **process permutation** — process identities don't appear in either
//!   condition (schedules range over all orders), so op assignments are
//!   enumerated as *multisets* (non-decreasing op sequences);
//! * **team relabeling** — both conditions are symmetric in `T_0`/`T_1`, so
//!   partitions are enumerated with `p_0 ∈ T_0`.

use crate::witness::Team;
use rcn_spec::{OpId, ValueId};

/// Iterates all non-decreasing op assignments of length `n` over
/// `0..num_ops` (op multisets).
pub(crate) fn op_multisets(num_ops: usize, n: usize) -> OpMultisets {
    OpMultisets {
        num_ops,
        current: Some(vec![OpId(0); n]),
    }
}

pub(crate) struct OpMultisets {
    num_ops: usize,
    current: Option<Vec<OpId>>,
}

impl Iterator for OpMultisets {
    type Item = Vec<OpId>;

    fn next(&mut self) -> Option<Vec<OpId>> {
        let current = self.current.take()?;
        let mut next = current.clone();
        // Advance like a non-decreasing odometer.
        let n = next.len();
        let mut i = n;
        loop {
            if i == 0 {
                self.current = None;
                return Some(current);
            }
            i -= 1;
            if next[i].index() + 1 < self.num_ops {
                let bumped = OpId(next[i].0 + 1);
                for slot in next.iter_mut().skip(i) {
                    *slot = bumped;
                }
                self.current = Some(next);
                return Some(current);
            }
        }
    }
}

/// Iterates all partitions of `n` processes into two nonempty teams with
/// `p_0 ∈ T_0`. Each item maps process index to team.
pub(crate) fn partitions(n: usize) -> impl Iterator<Item = Vec<Team>> {
    // Bits 0..n-1 of the counter give the team of p_1..p_{n-1}.
    (1u32..(1 << (n - 1))).map(move |bits| {
        let mut teams = Vec::with_capacity(n);
        teams.push(Team::T0);
        for i in 0..n - 1 {
            teams.push(if bits & (1 << i) != 0 {
                Team::T1
            } else {
                Team::T0
            });
        }
        teams
    })
}

/// The member bitmasks `(T_0, T_1)` of a team assignment: bit `i` is set in
/// the mask of `p_i`'s team. The partition checks take teams in this form.
pub(crate) fn team_masks(teams: &[Team]) -> (u32, u32) {
    teams
        .iter()
        .enumerate()
        .fold((0, 0), |(t0, t1), (i, team)| match team {
            Team::T0 => (t0 | 1 << i, t1),
            Team::T1 => (t0, t1 | 1 << i),
        })
}

/// Iterates the `(initial value, op multiset)` *instances* of the witness
/// space — the outer two loops of both deciders, and the unit of work the
/// parallel engine shards across threads (one [`crate::Analysis`] is built
/// per instance; partitions are then cheap word-wise checks).
pub(crate) fn instances(
    num_values: usize,
    num_ops: usize,
    n: usize,
) -> impl Iterator<Item = (ValueId, Vec<OpId>)> {
    (0..num_values)
        .flat_map(move |u| op_multisets(num_ops, n).map(move |ops| (ValueId(u as u16), ops)))
}

/// The number of `(value, op multiset, partition)` triples a search over a
/// type with `num_values` values and `num_ops` ops visits for `n` processes.
///
/// Useful for sizing caps before launching an exhaustive search.
pub fn search_space_size(num_values: usize, num_ops: usize, n: usize) -> u128 {
    let mut multisets: u128 = 1;
    // C(num_ops + n - 1, n)
    for k in 0..n {
        multisets = multisets * (num_ops + k) as u128 / (k + 1) as u128;
    }
    // Two nonempty teams need n ≥ 2; n = 0 and n = 1 have no partitions.
    let partitions = n.checked_sub(1).map_or(0, |m| (1u128 << m) - 1);
    num_values as u128 * multisets * partitions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multisets_are_sorted_and_complete() {
        let all: Vec<Vec<OpId>> = op_multisets(3, 2).collect();
        // C(3+2-1, 2) = 6 multisets.
        assert_eq!(all.len(), 6);
        for m in &all {
            assert!(m.windows(2).all(|w| w[0] <= w[1]), "not sorted: {m:?}");
        }
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn multisets_of_length_one() {
        let all: Vec<Vec<OpId>> = op_multisets(4, 1).collect();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn partitions_have_p0_in_t0_and_nonempty_t1() {
        let all: Vec<Vec<Team>> = partitions(4).collect();
        assert_eq!(all.len(), 7); // 2^3 - 1
        for p in &all {
            assert_eq!(p[0], Team::T0);
            assert!(p.contains(&Team::T1));
        }
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn partitions_of_two() {
        let all: Vec<Vec<Team>> = partitions(2).collect();
        assert_eq!(all, vec![vec![Team::T0, Team::T1]]);
    }

    #[test]
    fn instances_cover_the_outer_product() {
        let all: Vec<_> = instances(2, 3, 2).collect();
        // 2 values × C(3+2-1, 2) = 12 instances.
        assert_eq!(all.len(), 12);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), all.len());
        // Same order as the sequential deciders: value-major, multiset-minor.
        assert_eq!(all[0].0.index(), 0);
        assert_eq!(all[6].0.index(), 1);
    }

    #[test]
    fn space_size_formula() {
        // 2 values, 3 ops, n=2: 2 * C(4,2) * 1 = 12.
        assert_eq!(search_space_size(2, 3, 2), 12);
        // matches the actual iterators:
        let count = 2 * op_multisets(3, 2).count() * partitions(2).count();
        assert_eq!(search_space_size(2, 3, 2), count as u128);
    }

    #[test]
    fn space_size_is_zero_below_two_processes() {
        // No partition of fewer than two processes has two nonempty teams.
        assert_eq!(search_space_size(2, 3, 0), 0);
        assert_eq!(search_space_size(2, 3, 1), 0);
        assert_eq!(partitions(1).count(), 0);
    }

    #[test]
    fn team_masks_split_the_processes() {
        let teams = [Team::T0, Team::T1, Team::T1, Team::T0];
        assert_eq!(team_masks(&teams), (0b1001, 0b0110));
        for teams in partitions(5) {
            let (t0, t1) = team_masks(&teams);
            assert_eq!(t0 & t1, 0);
            assert_eq!(t0 | t1, 0b11111);
            assert_eq!(t0 & 1, 1, "p_0 is on T_0");
        }
    }
}
