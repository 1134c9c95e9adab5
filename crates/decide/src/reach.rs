//! Reachability analysis over `S(P)` schedule applications.
//!
//! The *n-discerning* and *n-recording* conditions quantify over all
//! schedules in `S(P)` (each process applies its assigned operation at most
//! once). Enumerating schedules is factorial; instead we explore the graph
//! whose nodes are `(set of processes that have applied, object value)` —
//! polynomial in `2^n · |values|` — which carries exactly the information
//! the conditions need:
//!
//! * `U_x` (recording): the values of all nodes reachable when the first
//!   applier is on team `x`;
//! * `R_{x,j}` (discerning): the pairs `(response p_j received, any value
//!   reachable after p_j applied)` over the same first-team restriction.
//!
//! The analysis is computed once per `(initial value, op assignment)`; team
//! partitions are then evaluated one 64-bit word at a time, OR-ing the
//! per-first words of each team on the fly and stopping at the first
//! overlap, so a partition check allocates nothing. That is what makes the
//! exhaustive witness search feasible.
//!
//! Three implementations share the same pipeline and must stay bit-identical
//! (the differential suite pins this):
//!
//! * [`Analysis::new`] / [`Analysis::with_threads`] — the kernelized path:
//!   `ObjectType::apply` is hoisted out of the hot loops into per-(process,
//!   value) transition tables, and `(response, value)`-pair accumulation
//!   uses whole-word shifted ORs (the `or_words` kernel behind
//!   [`BitSet::union_shifted_with`]) instead of bit-at-a-time inserts. The
//!   downstream value sets live in one flat arena of `u64` words,
//!   `num_values.div_ceil(64)` words per node, allocated once per analysis;
//!   an all-zero slot means the node is unreachable, which is safe because a
//!   reachable node's downstream set always contains its own value. With
//!   `threads > 1` the mask-order propagation is sharded into popcount waves
//!   (masks of equal popcount are independent; OR-accumulation is
//!   commutative), so the result does not depend on the thread count.
//! * [`Analysis::extend`] — the incremental path: a level-`n+1` instance
//!   whose op multiset extends a level-`n` instance reuses the prefix's
//!   `firsts` labels (the level-`n` node lattice embeds as the masks without
//!   the new process's bit, and its internal propagation is already a fixed
//!   point), so only edges involving the new process are propagated.
//! * [`Analysis::new_scalar`] — the original bit-at-a-time reference,
//!   kept as the differential/benchmark baseline.

use crate::bitset::{or_words, BitSet};
use rcn_spec::{ObjectType, OpId, ValueId};
use serde::{Deserialize, Serialize};

/// Maximum number of processes the analysis supports (masks are `u32`).
pub const MAX_PROCESSES: usize = 20;

/// Reachability analysis of one `(u, ops)` instance.
///
/// # Examples
///
/// ```
/// use rcn_decide::Analysis;
/// use rcn_spec::{zoo::TestAndSet, OpId, ValueId};
///
/// let tas = TestAndSet::new();
/// // Two processes, both assigned test&set, from the clear value.
/// let a = Analysis::new(&tas, ValueId::new(0), &[OpId::new(0), OpId::new(0)]);
/// // Whoever goes first, the value ends up "set": the value sets intersect,
/// // which is exactly why test-and-set is not 2-recording.
/// let u0 = a.value_set(&[0]);
/// let u1 = a.value_set(&[1]);
/// assert!(u0.intersects(&u1));
/// ```
///
/// Analyses serialize (for the persistent analysis cache); a deserialized
/// analysis must pass [`shape_matches`](Self::shape_matches) before the
/// deciders may trust it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Analysis {
    n: usize,
    num_values: usize,
    num_responses: usize,
    /// `firsts[mask * num_values + v]`: bitmask of processes `f` such that
    /// the node `(mask, v)` is reachable via a schedule starting with `p_f`
    /// (0 = unreachable). Persisted so a cached level-`n` analysis can seed
    /// [`extend`](Self::extend) for level `n + 1`.
    firsts: Vec<u32>,
    /// `value_sets[f]`: values reachable over schedules whose first process
    /// is `p_f` (the per-first building block of the `U_x` sets).
    value_sets: Vec<BitSet>,
    /// `pair_sets[f * n + j]`: `(response, value)` pairs of `p_j` over
    /// schedules whose first process is `p_f` and that contain `p_j` (the
    /// per-first building block of the `R_{x,j}` sets).
    pair_sets: Vec<BitSet>,
}

/// Precomputed per-(process, value) transitions of one instance. The hot
/// propagation loops index these instead of calling `ObjectType::apply`
/// `O(2^n · |values| · n)` times — the apply of a computed (non-tabular)
/// type is far more expensive than an array load. Pure data, so the
/// parallel waves need no `Sync` bound on the type itself.
struct Tables {
    n: usize,
    num_values: usize,
    num_responses: usize,
    /// `step[j * num_values + v]` = (response index, next-value index) of
    /// process `j`'s op applied at value `v`.
    step: Vec<(usize, usize)>,
    /// `root[j]` = (response, next) of process `j`'s op applied at the
    /// initial value.
    root: Vec<(usize, usize)>,
}

impl Tables {
    fn new<T: ObjectType + ?Sized>(ty: &T, u: ValueId, ops: &[OpId]) -> Tables {
        let n = ops.len();
        assert!(
            n <= MAX_PROCESSES,
            "analysis supports at most {MAX_PROCESSES} processes"
        );
        let num_values = ty.num_values();
        let num_responses = ty.num_responses();
        assert!(u.index() < num_values, "initial value out of range");
        for op in ops {
            assert!(op.index() < ty.num_ops(), "op out of range");
        }
        // The pair kernel ORs a downstream slot at `response * num_values`
        // unchecked, so a transition out of the type's ranges is refused here.
        let transition = |v: ValueId, op: OpId| {
            let out = ty.apply(v, op);
            let edge = (out.response.index(), out.next.index());
            assert!(
                edge.0 < num_responses && edge.1 < num_values,
                "transition out of range"
            );
            edge
        };
        let mut step = Vec::with_capacity(n * num_values);
        for &op in ops {
            for v in 0..num_values {
                step.push(transition(ValueId(v as u16), op));
            }
        }
        let root = ops.iter().map(|&op| transition(u, op)).collect();
        Tables {
            n,
            num_values,
            num_responses,
            step,
            root,
        }
    }

    fn node(&self, mask: u32, v: usize) -> usize {
        mask as usize * self.num_values + v
    }

    fn num_nodes(&self) -> usize {
        (1usize << self.n) * self.num_values
    }

    /// The processes not in `mask` — the ones that can still apply.
    fn absent(&self, mask: u32) -> Bits {
        Bits(!mask & ((1 << self.n) - 1))
    }
}

/// Iterates the set bits of a process bitmask (lowest first), with one
/// `trailing_zeros` per member rather than one probe per process.
struct Bits(u32);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// Groups the masks `0..2^n` by popcount. Edges of the node graph go from
/// popcount `k` to `k + 1`, so masks within one group are independent — the
/// unit of parallelism for the wave-sharded propagation.
fn masks_by_popcount(n: usize) -> Vec<Vec<u32>> {
    let mut waves = vec![Vec::new(); n + 1];
    for mask in 0u32..(1 << n) {
        waves[mask.count_ones() as usize].push(mask);
    }
    waves
}

/// Sequential `firsts` propagation in increasing mask order (masks only
/// grow along edges, so numeric order is topological).
fn firsts_from_scratch(t: &Tables) -> Vec<u32> {
    let nv = t.num_values;
    let mut firsts = vec![0u32; t.num_nodes()];
    for (f, &(_, next)) in t.root.iter().enumerate() {
        firsts[t.node(1 << f, next)] |= 1 << f;
    }
    for mask in 1u32..(1 << t.n) {
        for v in 0..nv {
            let label = firsts[t.node(mask, v)];
            if label == 0 {
                continue;
            }
            for j in t.absent(mask) {
                let (_, next) = t.step[j * nv + v];
                firsts[t.node(mask | (1 << j), next)] |= label;
            }
        }
    }
    firsts
}

/// `firsts` propagation seeded from a level-`(n-1)` prefix. The prefix's
/// lattice is exactly the masks without bit `n - 1`; its labels are a fixed
/// point of the propagation restricted to those masks, so they are copied
/// wholesale and only edges involving the new process are walked.
fn firsts_extended(t: &Tables, prefix_firsts: &[u32]) -> Vec<u32> {
    let n = t.n;
    let m = n - 1;
    let nv = t.num_values;
    let mut firsts = vec![0u32; t.num_nodes()];
    firsts[..(1usize << m) * nv].copy_from_slice(prefix_firsts);
    let (_, next) = t.root[m];
    firsts[t.node(1 << m, next)] |= 1 << m;
    for mask in 1u32..(1 << n) {
        let lower = mask & (1 << m) == 0;
        for v in 0..nv {
            let label = firsts[t.node(mask, v)];
            if label == 0 {
                continue;
            }
            if lower {
                // Edges inside the prefix lattice are already folded into
                // the copied labels; only the new process's edge is new.
                let (_, next) = t.step[m * nv + v];
                firsts[t.node(mask | (1 << m), next)] |= label;
            } else {
                for j in t.absent(mask) {
                    let (_, next) = t.step[j * nv + v];
                    firsts[t.node(mask | (1 << j), next)] |= label;
                }
            }
        }
    }
    firsts
}

/// Wave-parallel `firsts` propagation: one popcount level at a time, all
/// masks of the level strided across workers, labels OR-ed with atomics.
/// `fetch_or` is commutative, so the final labels equal the sequential
/// ones regardless of scheduling; the scope join is the per-wave barrier.
fn firsts_parallel(t: &Tables, threads: usize) -> Vec<u32> {
    use std::sync::atomic::{AtomicU32, Ordering};
    let nv = t.num_values;
    let firsts: Vec<AtomicU32> = (0..t.num_nodes()).map(|_| AtomicU32::new(0)).collect();
    for (f, &(_, next)) in t.root.iter().enumerate() {
        firsts[t.node(1 << f, next)].fetch_or(1 << f, Ordering::Relaxed);
    }
    let waves = masks_by_popcount(t.n);
    for wave in &waves[1..t.n] {
        std::thread::scope(|s| {
            for w in 0..threads {
                let firsts = &firsts;
                s.spawn(move || {
                    for &mask in wave.iter().skip(w).step_by(threads) {
                        for v in 0..nv {
                            let label = firsts[t.node(mask, v)].load(Ordering::Relaxed);
                            if label == 0 {
                                continue;
                            }
                            for j in t.absent(mask) {
                                let (_, next) = t.step[j * nv + v];
                                firsts[t.node(mask | (1 << j), next)]
                                    .fetch_or(label, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
    }
    firsts.into_iter().map(AtomicU32::into_inner).collect()
}

/// The flat downstream arena: `words` per node (`num_values.div_ceil(64)`),
/// node `id` at `arena[id * words..(id + 1) * words]`, holding the values
/// reachable from the node including its own. An all-zero slot means the
/// node is unreachable — safe because a reachable node's slot always
/// contains its own value, so it is never all-zero.
struct Downstream {
    words: usize,
    arena: Vec<u64>,
}

impl Downstream {
    fn new(t: &Tables) -> Downstream {
        let words = t.num_values.div_ceil(64);
        Downstream {
            words,
            arena: vec![0; t.num_nodes() * words],
        }
    }

    /// The downstream value words of node `id` (all zero if unreachable).
    fn slot(&self, id: usize) -> &[u64] {
        &self.arena[id * self.words..(id + 1) * self.words]
    }
}

/// Writes the downstream value set of node `(mask, v)` into `out` (zeroed
/// by the caller): its own value plus the downstream sets of its children,
/// which the caller has already computed (decreasing mask order, or a
/// completed higher-popcount wave). `children` is the arena from node
/// `first_child` on — every child of `(mask, v)` has a larger mask, so the
/// sequential pass can borrow the node's own slot mutably alongside it.
fn downstream_into(
    t: &Tables,
    children: &[u64],
    first_child: usize,
    mask: u32,
    v: usize,
    out: &mut [u64],
) {
    let nv = t.num_values;
    let words = out.len();
    out[v / 64] |= 1 << (v % 64);
    for j in t.absent(mask) {
        let (_, next) = t.step[j * nv + v];
        let at = (t.node(mask | (1 << j), next) - first_child) * words;
        or_words(out, &children[at..at + words], 0);
    }
}

/// Sequential downstream pass in decreasing mask order (reverse topological).
fn downstream_from(t: &Tables, firsts: &[u32]) -> Downstream {
    let mut ds = Downstream::new(t);
    let words = ds.words;
    for mask in (1u32..(1 << t.n)).rev() {
        for v in 0..t.num_values {
            let id = t.node(mask, v);
            if firsts[id] == 0 {
                continue;
            }
            let (head, children) = ds.arena.split_at_mut((id + 1) * words);
            downstream_into(t, children, id + 1, mask, v, &mut head[id * words..]);
        }
    }
    ds
}

/// Wave-parallel downstream pass, from the highest popcount down. Workers
/// only read completed waves and write their nodes into one private buffer
/// each; each wave's buffers are copied back single-threaded, so every
/// node is written exactly once.
fn downstream_parallel(t: &Tables, firsts: &[u32], threads: usize) -> Downstream {
    let mut ds = Downstream::new(t);
    let words = ds.words;
    let waves = masks_by_popcount(t.n);
    for k in (1..=t.n).rev() {
        let wave = &waves[k];
        let computed: Vec<(Vec<usize>, Vec<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let arena = &ds.arena;
                    s.spawn(move || {
                        let (mut ids, mut out) = (Vec::new(), Vec::new());
                        for &mask in wave.iter().skip(w).step_by(threads) {
                            for v in 0..t.num_values {
                                let id = t.node(mask, v);
                                if firsts[id] == 0 {
                                    continue;
                                }
                                ids.push(id);
                                out.resize(out.len() + words, 0);
                                let at = out.len() - words;
                                downstream_into(t, arena, 0, mask, v, &mut out[at..]);
                            }
                        }
                        (ids, out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("downstream worker panicked"))
                .collect()
        });
        for (ids, out) in computed {
            for (&id, slot) in ids.iter().zip(out.chunks_exact(words)) {
                ds.arena[id * words..(id + 1) * words].copy_from_slice(slot);
            }
        }
    }
    ds
}

/// Accumulates the per-first value/pair sets contributed by `masks`. The
/// pair kernel: a node's downstream value words, shifted by
/// `response * num_values`, are exactly the block of `(response, value)`
/// pairs process `j` contributes — one whole-word OR per (node, j, first)
/// instead of one insert per pair.
fn accumulate_masks<I: Iterator<Item = u32>>(
    t: &Tables,
    firsts: &[u32],
    ds: &Downstream,
    masks: I,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = t.n;
    let nv = t.num_values;
    let mut value_sets = vec![BitSet::new(nv); n];
    let mut pair_sets = vec![BitSet::new(t.num_responses * nv); n * n];
    for mask in masks {
        for v in 0..nv {
            let label = firsts[t.node(mask, v)];
            if label == 0 {
                continue;
            }
            // Values of this node belong to U_f for every first f.
            for f in Bits(label) {
                value_sets[f].insert(v);
            }
            // Pairs contributed by each process j applying here. The child
            // of a reachable node is reachable, so its slot is never empty.
            for j in t.absent(mask) {
                let (resp, next) = t.step[j * nv + v];
                let slot = ds.slot(t.node(mask | (1 << j), next));
                let shift = resp * nv;
                for f in Bits(label) {
                    pair_sets[f * n + j].or_words(slot, shift);
                }
            }
        }
    }
    (value_sets, pair_sets)
}

/// Parallel accumulation: masks strided across workers into private sets,
/// merged by plain unions (commutative, so thread count cannot change the
/// result).
fn accumulate_parallel(
    t: &Tables,
    firsts: &[u32],
    ds: &Downstream,
    threads: usize,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let parts: Vec<(Vec<BitSet>, Vec<BitSet>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                s.spawn(move || {
                    let masks = (1u32..(1 << t.n)).skip(w).step_by(threads);
                    accumulate_masks(t, firsts, ds, masks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("accumulate worker panicked"))
            .collect()
    });
    let mut parts = parts.into_iter();
    let (mut value_sets, mut pair_sets) = parts.next().expect("at least one worker");
    for (vs, ps) in parts {
        for (a, b) in value_sets.iter_mut().zip(&vs) {
            a.union_with(b);
        }
        for (a, b) in pair_sets.iter_mut().zip(&ps) {
            a.union_with(b);
        }
    }
    (value_sets, pair_sets)
}

/// The first application itself: p_f's own pair from the virtual root.
fn accumulate_root(t: &Tables, ds: &Downstream, pair_sets: &mut [BitSet]) {
    for (f, &(resp, next)) in t.root.iter().enumerate() {
        pair_sets[f * t.n + f].or_words(ds.slot(t.node(1 << f, next)), resp * t.num_values);
    }
}

/// Runs the downstream + accumulation phases over precomputed `firsts` and
/// assembles the result.
fn build(t: &Tables, firsts: Vec<u32>, threads: usize) -> Analysis {
    let (ds, (value_sets, mut pair_sets)) = if threads <= 1 {
        let ds = downstream_from(t, &firsts);
        let sets = accumulate_masks(t, &firsts, &ds, 1u32..(1 << t.n));
        (ds, sets)
    } else {
        let ds = downstream_parallel(t, &firsts, threads);
        let sets = accumulate_parallel(t, &firsts, &ds, threads);
        (ds, sets)
    };
    accumulate_root(t, &ds, &mut pair_sets);
    Analysis {
        n: t.n,
        num_values: t.num_values,
        num_responses: t.num_responses,
        firsts,
        value_sets,
        pair_sets,
    }
}

impl Analysis {
    /// Analyzes applying `ops[i]` (for process `p_i`) in every `S(P)` order
    /// starting from value `u`.
    ///
    /// # Panics
    ///
    /// Panics if `ops.len() > MAX_PROCESSES`, or if `u` / any op is out of
    /// range for the type.
    pub fn new<T: ObjectType + ?Sized>(ty: &T, u: ValueId, ops: &[OpId]) -> Analysis {
        Self::with_threads(ty, u, ops, 1)
    }

    /// Like [`new`](Self::new), with the mask-order propagation sharded
    /// across `threads` workers in popcount waves. Bit-identical to the
    /// sequential result at every thread count (pinned by the differential
    /// suite); `threads <= 1` takes the sequential path exactly.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn with_threads<T: ObjectType + ?Sized>(
        ty: &T,
        u: ValueId,
        ops: &[OpId],
        threads: usize,
    ) -> Analysis {
        let t = Tables::new(ty, u, ops);
        // Degenerate lattices (fewer than two processes) have nothing to
        // shard; clamp to the sequential path.
        let threads = if t.n < 2 { 1 } else { threads.max(1) };
        let firsts = if threads > 1 {
            firsts_parallel(&t, threads)
        } else {
            firsts_from_scratch(&t)
        };
        build(&t, firsts, threads)
    }

    /// Analyzes `(u, ops)` by extending `prefix`, the analysis of the same
    /// initial value and the op multiset `ops[..ops.len() - 1]`. Reuses the
    /// prefix's reachability labels, skipping re-propagation inside the
    /// already-solved sub-lattice; bit-identical to a from-scratch
    /// [`new`](Self::new). `threads` shards the remaining passes as in
    /// [`with_threads`](Self::with_threads).
    ///
    /// The caller is responsible for the prefix actually being the analysis
    /// of `(u, ops[..ops.len() - 1])` on `ty` — the engine's analysis store
    /// guarantees this by keying memoized analyses on exactly that pair.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is not exactly one process longer than the prefix or
    /// the type's dimensions disagree with the prefix's; in debug builds,
    /// also if the prefix's seed labels are inconsistent with `(u, ops)`.
    pub fn extend<T: ObjectType + ?Sized>(
        ty: &T,
        u: ValueId,
        prefix: &Analysis,
        ops: &[OpId],
        threads: usize,
    ) -> Analysis {
        let t = Tables::new(ty, u, ops);
        assert_eq!(
            ops.len(),
            prefix.n + 1,
            "extend requires exactly one more process than the prefix"
        );
        assert_eq!(
            prefix.num_values, t.num_values,
            "prefix value count disagrees with the type"
        );
        assert_eq!(
            prefix.num_responses, t.num_responses,
            "prefix response count disagrees with the type"
        );
        debug_assert!(
            t.root[..prefix.n]
                .iter()
                .enumerate()
                .all(|(f, &(_, next))| prefix.firsts[t.node(1 << f, next)] & (1 << f) != 0),
            "prefix analysis is not an analysis of (u, ops[..n-1])"
        );
        let firsts = firsts_extended(&t, &prefix.firsts);
        let threads = if t.n < 2 { 1 } else { threads.max(1) };
        build(&t, firsts, threads)
    }

    /// The original bit-at-a-time implementation, kept verbatim as the
    /// reference the kernelized/parallel/incremental paths are measured and
    /// differentially tested against. Produces a bit-identical [`Analysis`].
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn new_scalar<T: ObjectType + ?Sized>(ty: &T, u: ValueId, ops: &[OpId]) -> Analysis {
        let n = ops.len();
        assert!(
            n <= MAX_PROCESSES,
            "analysis supports at most {MAX_PROCESSES} processes"
        );
        let num_values = ty.num_values();
        let num_responses = ty.num_responses();
        assert!(u.index() < num_values, "initial value out of range");
        for op in ops {
            assert!(op.index() < ty.num_ops(), "op out of range");
        }

        let num_nodes = (1usize << n) * num_values;
        let node = |mask: u32, v: usize| (mask as usize) * num_values + v;

        // firsts[node]: bitmask of processes f such that the node is
        // reachable via a schedule starting with p_f. 0 = unreachable.
        let mut firsts = vec![0u32; num_nodes];
        for (f, &op) in ops.iter().enumerate() {
            let out = ty.apply(u, op);
            firsts[node(1 << f, out.next.index())] |= 1 << f;
        }
        // Propagate in increasing mask order (masks only grow along edges).
        for mask in 1u32..(1 << n) {
            for v in 0..num_values {
                let label = firsts[node(mask, v)];
                if label == 0 {
                    continue;
                }
                for (j, &op) in ops.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        continue;
                    }
                    let out = ty.apply(ValueId(v as u16), op);
                    firsts[node(mask | (1 << j), out.next.index())] |= label;
                }
            }
        }

        // downstream[node]: values reachable from the node (including its
        // own value), computed in decreasing mask order (reverse topological).
        let mut downstream: Vec<Option<BitSet>> = vec![None; num_nodes];
        for mask in (1u32..(1 << n)).rev() {
            for v in 0..num_values {
                let id = node(mask, v);
                if firsts[id] == 0 {
                    continue;
                }
                let mut set = BitSet::new(num_values);
                set.insert(v);
                for (j, &op) in ops.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        continue;
                    }
                    let out = ty.apply(ValueId(v as u16), op);
                    let child = node(mask | (1 << j), out.next.index());
                    if let Some(ds) = &downstream[child] {
                        set.union_with(ds);
                    }
                }
                downstream[id] = Some(set);
            }
        }

        let mut value_sets = vec![BitSet::new(num_values); n];
        let mut pair_sets = vec![BitSet::new(num_responses * num_values); n * n];

        // The first application itself: p_f's own pair from the virtual root.
        for (f, &op) in ops.iter().enumerate() {
            let out = ty.apply(u, op);
            let start = node(1 << f, out.next.index());
            if let Some(ds) = &downstream[start] {
                for v in ds.iter() {
                    pair_sets[f * n + f].insert(out.response.index() * num_values + v);
                }
            }
        }

        for mask in 1u32..(1 << n) {
            for v in 0..num_values {
                let id = node(mask, v);
                let label = firsts[id];
                if label == 0 {
                    continue;
                }
                // Values of this node belong to U_f for every first f.
                for (f, set) in value_sets.iter_mut().enumerate() {
                    if label & (1 << f) != 0 {
                        set.insert(v);
                    }
                }
                // Pairs contributed by each process j applying here.
                for (j, &op) in ops.iter().enumerate() {
                    if mask & (1 << j) != 0 {
                        continue;
                    }
                    let out = ty.apply(ValueId(v as u16), op);
                    let child = node(mask | (1 << j), out.next.index());
                    let Some(ds) = &downstream[child] else {
                        continue;
                    };
                    for f in 0..n {
                        if label & (1 << f) == 0 {
                            continue;
                        }
                        let set = &mut pair_sets[f * n + j];
                        for v2 in ds.iter() {
                            set.insert(out.response.index() * num_values + v2);
                        }
                    }
                }
            }
        }

        Analysis {
            n,
            num_values,
            num_responses,
            firsts,
            value_sets,
            pair_sets,
        }
    }

    /// An analysis holding the given per-first sets and no reachability
    /// labels: input for tests of the partition checks, which read only
    /// the sets. `pair_sets` is indexed `f * n + j`, `n = value_sets.len()`.
    #[cfg(test)]
    pub(crate) fn from_sets(
        num_values: usize,
        num_responses: usize,
        value_sets: Vec<BitSet>,
        pair_sets: Vec<BitSet>,
    ) -> Analysis {
        let n = value_sets.len();
        let analysis = Analysis {
            n,
            num_values,
            num_responses,
            firsts: vec![0; (1 << n) * num_values],
            value_sets,
            pair_sets,
        };
        assert!(analysis.shape_matches(n, num_values, num_responses));
        analysis
    }

    /// Number of processes in the analyzed assignment.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Checks that this analysis has exactly the shape an analysis of an
    /// `n`-process instance of a type with `num_values` values and
    /// `num_responses` responses must have — dimensions, set counts, bitset
    /// well-formedness, and reachability-label sanity (every `firsts` label
    /// is a subset of the `n` process bits, and the empty-mask row is
    /// unreachable). Used to validate analyses loaded from the on-disk
    /// cache before the deciders trust them; always true for analyses built
    /// by [`Analysis::new`].
    pub fn shape_matches(&self, n: usize, num_values: usize, num_responses: usize) -> bool {
        self.n == n
            && (1..=MAX_PROCESSES).contains(&n)
            && self.num_values == num_values
            && self.num_responses == num_responses
            && self.firsts.len() == (1usize << n) * num_values
            && self.firsts.iter().all(|&l| u64::from(l) < (1u64 << n))
            && self.firsts[..num_values].iter().all(|&l| l == 0)
            && self.value_sets.len() == n
            && self
                .value_sets
                .iter()
                .all(|s| s.capacity() == num_values && s.is_well_formed())
            && self.pair_sets.len() == n * n
            && self
                .pair_sets
                .iter()
                .all(|s| s.capacity() == num_responses * num_values && s.is_well_formed())
    }

    /// The `U`-style value set for a team: all values reachable over
    /// nonempty schedules whose first process is a member of `team`.
    pub fn value_set(&self, team: &[usize]) -> BitSet {
        let mut out = BitSet::new(self.num_values);
        for &f in team {
            out.union_with(&self.value_sets[f]);
        }
        out
    }

    /// The `R_{x,j}`-style pair set: `(response, value)` pairs of `p_j` over
    /// schedules containing `p_j` whose first process is in `team`.
    pub fn pair_set(&self, team: &[usize], j: usize) -> BitSet {
        // Capacity is the pair-universe size, not something to infer from an
        // arbitrary stored set (indexing `pair_sets[j]` happened to alias
        // `pair_sets[0 * n + j]`, which has the right capacity only because
        // all rows share it).
        let mut out = BitSet::new(self.num_responses * self.num_values);
        for &f in team {
            out.union_with(&self.pair_sets[f * self.n + j]);
        }
        out
    }

    /// Words per value set (`num_values.div_ceil(64)`).
    pub(crate) fn value_words(&self) -> usize {
        self.num_values.div_ceil(64)
    }

    /// Words per pair set (`(num_responses * num_values).div_ceil(64)`).
    pub(crate) fn pair_words(&self) -> usize {
        (self.num_responses * self.num_values).div_ceil(64)
    }

    /// Word `w` of [`value_set`](Self::value_set) for the team whose
    /// members are the set bits of `team` — one word of the union, built
    /// without allocating, so the partition checks can stop at the first
    /// overlapping word.
    pub(crate) fn value_word(&self, team: u32, w: usize) -> u64 {
        Bits(team).fold(0, |acc, f| acc | self.value_sets[f].words()[w])
    }

    /// Word `w` of [`pair_set`](Self::pair_set)`(team, j)` for the team
    /// bitmask `team`, as [`value_word`](Self::value_word).
    pub(crate) fn pair_word(&self, team: u32, j: usize, w: usize) -> u64 {
        Bits(team).fold(0, |acc, f| acc | self.pair_sets[f * self.n + j].words()[w])
    }

    /// Per-first value set (building block of [`value_set`](Self::value_set)).
    pub fn value_set_of_first(&self, f: usize) -> &BitSet {
        &self.value_sets[f]
    }

    /// Per-first pair set (building block of [`pair_set`](Self::pair_set)).
    pub fn pair_set_of_first(&self, f: usize, j: usize) -> &BitSet {
        &self.pair_sets[f * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_model::{s_p_first_in, ProcessId};
    use rcn_spec::apply_all;
    use rcn_spec::zoo::{Register, TeamCounter, TestAndSet, Tnn};
    use std::collections::HashSet;

    /// Brute-force U_x by enumerating S(P) schedules directly.
    fn brute_value_set<T: ObjectType>(
        ty: &T,
        u: ValueId,
        ops: &[OpId],
        team: &[usize],
    ) -> HashSet<usize> {
        let procs: Vec<ProcessId> = (0..ops.len()).map(|i| ProcessId(i as u16)).collect();
        let first: Vec<ProcessId> = team.iter().map(|&i| ProcessId(i as u16)).collect();
        let mut out = HashSet::new();
        for sched in s_p_first_in(&procs, &first) {
            let seq: Vec<OpId> = sched
                .iter()
                .map(|e| ops[e.process().expect("S(P′) schedules are step-only").index()])
                .collect();
            let (_, v) = apply_all(ty, u, &seq);
            out.insert(v.index());
        }
        out
    }

    /// Brute-force R_{x,j} by enumerating S(P) schedules directly.
    fn brute_pair_set<T: ObjectType>(
        ty: &T,
        u: ValueId,
        ops: &[OpId],
        team: &[usize],
        j: usize,
    ) -> HashSet<(usize, usize)> {
        let procs: Vec<ProcessId> = (0..ops.len()).map(|i| ProcessId(i as u16)).collect();
        let first: Vec<ProcessId> = team.iter().map(|&i| ProcessId(i as u16)).collect();
        let mut out = HashSet::new();
        for sched in s_p_first_in(&procs, &first) {
            if !sched.contains_process(ProcessId(j as u16)) {
                continue;
            }
            let seq: Vec<OpId> = sched
                .iter()
                .map(|e| ops[e.process().expect("S(P′) schedules are step-only").index()])
                .collect();
            let (outs, v) = apply_all(ty, u, &seq);
            let pos = sched
                .iter()
                .position(|e| e.process().map(ProcessId::index) == Some(j))
                .expect("j in schedule");
            out.insert((outs[pos].response.index(), v.index()));
        }
        out
    }

    fn check_against_brute<T: ObjectType>(ty: &T, u: ValueId, ops: &[OpId]) {
        let n = ops.len();
        let a = Analysis::new(ty, u, ops);
        // Check every singleton team (unions are trivially correct).
        for f in 0..n {
            let fast: HashSet<usize> = a.value_set(&[f]).iter().collect();
            let brute = brute_value_set(ty, u, ops, &[f]);
            assert_eq!(fast, brute, "U set mismatch, first={f}");
            for j in 0..n {
                let fast: HashSet<(usize, usize)> = a
                    .pair_set(&[f], j)
                    .iter()
                    .map(|i| (i / ty.num_values(), i % ty.num_values()))
                    .collect();
                let brute = brute_pair_set(ty, u, ops, &[f], j);
                assert_eq!(fast, brute, "R set mismatch, first={f}, j={j}");
            }
        }
    }

    /// All construction paths must agree bit-for-bit with the scalar
    /// reference: kernelized, wave-parallel at several thread counts, and
    /// the incremental extension of the one-shorter prefix.
    fn check_paths_agree<T: ObjectType>(ty: &T, u: ValueId, ops: &[OpId]) {
        let reference = Analysis::new_scalar(ty, u, ops);
        assert_eq!(Analysis::new(ty, u, ops), reference, "kernelized");
        for threads in [2, 3, 5] {
            assert_eq!(
                Analysis::with_threads(ty, u, ops, threads),
                reference,
                "parallel, {threads} threads"
            );
        }
        if ops.len() >= 2 {
            let prefix = Analysis::new(ty, u, &ops[..ops.len() - 1]);
            assert_eq!(
                Analysis::extend(ty, u, &prefix, ops, 1),
                reference,
                "incremental"
            );
            assert_eq!(
                Analysis::extend(ty, u, &prefix, ops, 3),
                reference,
                "incremental, parallel"
            );
        }
    }

    #[test]
    fn matches_brute_force_on_test_and_set() {
        let tas = TestAndSet::new();
        let ops = vec![OpId::new(0); 3];
        check_against_brute(&tas, ValueId::new(0), &ops);
        let mixed = vec![OpId::new(0), OpId::new(1), OpId::new(0)];
        check_against_brute(&tas, ValueId::new(0), &mixed);
    }

    #[test]
    fn matches_brute_force_on_register() {
        let reg = Register::new(2);
        // write(0), write(1), read
        let ops = vec![OpId::new(0), OpId::new(1), OpId::new(2)];
        check_against_brute(&reg, ValueId::new(0), &ops);
        check_against_brute(&reg, ValueId::new(1), &ops);
    }

    #[test]
    fn matches_brute_force_on_tnn() {
        let t = Tnn::new(4, 2);
        let ops = vec![t.op_x(0), t.op_x(1), t.op_r(), t.op_x(1)];
        check_against_brute(&t, t.s(), &ops);
        check_against_brute(&t, t.s_xi(0, 2), &ops);
    }

    #[test]
    fn construction_paths_agree_on_mixed_instances() {
        let tas = TestAndSet::new();
        check_paths_agree(&tas, ValueId::new(0), &[OpId::new(0); 4]);
        check_paths_agree(
            &tas,
            ValueId::new(0),
            &[OpId::new(0), OpId::new(1), OpId::new(0)],
        );

        let reg = Register::new(2);
        check_paths_agree(
            &reg,
            ValueId::new(1),
            &[OpId::new(0), OpId::new(1), OpId::new(2)],
        );

        let t = Tnn::new(4, 2);
        check_paths_agree(&t, t.s(), &[t.op_x(0), t.op_x(1), t.op_r(), t.op_x(1)]);

        let tc = TeamCounter::new(5);
        let inc = OpId::new(0);
        check_paths_agree(&tc, ValueId::new(0), &[inc; 5]);
    }

    #[test]
    fn extend_chains_from_two_processes_up() {
        // Build 2 -> 3 -> 4 by repeated extension and compare each level
        // against from-scratch construction.
        let t = Tnn::new(4, 2);
        let ops = [t.op_x(0), t.op_x(1), t.op_r(), t.op_x(1)];
        let mut prefix = Analysis::new(&t, t.s(), &ops[..2]);
        for m in 3..=ops.len() {
            let extended = Analysis::extend(&t, t.s(), &prefix, &ops[..m], 1);
            assert_eq!(extended, Analysis::new(&t, t.s(), &ops[..m]), "level {m}");
            prefix = extended;
        }
    }

    #[test]
    #[should_panic(expected = "one more process")]
    fn extend_rejects_wrong_arity() {
        let tas = TestAndSet::new();
        let prefix = Analysis::new(&tas, ValueId::new(0), &[OpId::new(0); 2]);
        let _ = Analysis::extend(&tas, ValueId::new(0), &prefix, &[OpId::new(0); 4], 1);
    }

    /// Breaks the `ObjectType` contract: its only op answers with a
    /// response id one past `num_responses`.
    struct ResponseOutOfRange;

    impl ObjectType for ResponseOutOfRange {
        fn name(&self) -> String {
            "response-out-of-range".into()
        }
        fn num_values(&self) -> usize {
            3
        }
        fn num_ops(&self) -> usize {
            1
        }
        fn num_responses(&self) -> usize {
            2
        }
        fn apply(&self, value: ValueId, _op: OpId) -> rcn_spec::Outcome {
            rcn_spec::Outcome::new(rcn_spec::Response(2), value)
        }
    }

    #[test]
    #[should_panic(expected = "transition out of range")]
    fn out_of_range_transition_is_refused() {
        // The pair kernel ORs at `response * num_values` unchecked; an
        // out-of-range response must stop the build, not set stray bits.
        let _ = Analysis::new(&ResponseOutOfRange, ValueId::new(0), &[OpId::new(0); 2]);
    }

    #[test]
    fn shape_matches_validates_firsts() {
        let tas = TestAndSet::new();
        let a = Analysis::new(&tas, ValueId::new(0), &[OpId::new(0); 2]);
        assert!(a.shape_matches(2, 2, 2));

        let mut wrong_len = a.clone();
        wrong_len.firsts.pop();
        assert!(!wrong_len.shape_matches(2, 2, 2));

        let mut stray_bit = a.clone();
        stray_bit.firsts[2] = 1 << 5; // label names a process that doesn't exist
        assert!(!stray_bit.shape_matches(2, 2, 2));

        let mut rooted = a.clone();
        rooted.firsts[0] = 1; // empty mask must stay unreachable
        assert!(!rooted.shape_matches(2, 2, 2));
    }

    #[test]
    fn tnn_value_sets_record_first_team() {
        // With op_0 and op_1 assigned by team, the value after any schedule
        // records the first mover's team (below the s_⊥ collapse).
        let t = Tnn::new(5, 2);
        let ops = vec![t.op_x(0), t.op_x(0), t.op_x(1), t.op_x(1)];
        let a = Analysis::new(&t, t.s(), &ops);
        let u0 = a.value_set(&[0, 1]);
        let u1 = a.value_set(&[2, 3]);
        // Only 4 processes < n = 5: never reaches s_⊥, so the sets are
        // disjoint — T_{5,2} is 4-recording for this witness.
        assert!(!u0.intersects(&u1));
    }

    #[test]
    fn pair_sets_include_first_own_application() {
        let tas = TestAndSet::new();
        let a = Analysis::new(&tas, ValueId::new(0), &[OpId::new(0), OpId::new(0)]);
        // p0 first: p0's own pair has response 0 (it won).
        let r00 = a.pair_set(&[0], 0);
        assert!(!r00.is_empty());
        let pairs: Vec<(usize, usize)> = r00.iter().map(|i| (i / 2, i % 2)).collect();
        assert!(
            pairs.iter().all(|&(r, _)| r == 0),
            "winner sees 0: {pairs:?}"
        );
    }
}
