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
//!
//! The results are word arenas too, one per family: the `U_f` value sets
//! are `n` rows of `num_values.div_ceil(64)` words (row `f`), the `R_{f,j}`
//! pair sets `n²` rows of `(num_responses * num_values).div_ceil(64)` words
//! (row `f * n + j`). An analysis is therefore three heap blocks however
//! large `n` is, and the partition checks read a team's word as the OR of
//! one word per member. Only the cache's wire format still spells each row
//! out as a [`BitSet`], so files are unchanged.

use crate::bitset::{or_words, BitSet};
use rcn_spec::{ObjectType, OpId, ValueId};
use serde::{Deserialize, Serialize, Value};

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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Analysis {
    n: usize,
    num_values: usize,
    num_responses: usize,
    /// `firsts[mask * num_values + v]`: bitmask of processes `f` such that
    /// the node `(mask, v)` is reachable via a schedule starting with `p_f`
    /// (0 = unreachable). Persisted so a cached level-`n` analysis can seed
    /// [`extend`](Self::extend) for level `n + 1`.
    firsts: Vec<u32>,
    /// The value-set arena: row `f` (words `f * value_words()` up to
    /// `(f + 1) * value_words()`) holds the values reachable over schedules
    /// whose first process is `p_f` — the per-first building block of the
    /// `U_x` sets. Bits at or above `num_values` are clear in every row.
    value_sets: Vec<u64>,
    /// The pair-set arena: row `f * n + j` (`pair_words()` words each)
    /// holds the `(response, value)` pairs of `p_j`, as bit
    /// `response * num_values + value`, over schedules whose first process
    /// is `p_f` and that contain `p_j` — the per-first building block of
    /// the `R_{x,j}` sets. Bits at or above `num_responses * num_values`
    /// are clear in every row.
    pair_sets: Vec<u64>,
}

/// The serialized shape of an [`Analysis`]: every per-first set spelled out
/// as a [`BitSet`] row, in the field order cache files have always used
/// (`CACHE_FORMAT_VERSION` 2).
#[derive(Serialize, Deserialize)]
struct AnalysisWire {
    n: usize,
    num_values: usize,
    num_responses: usize,
    firsts: Vec<u32>,
    value_sets: Vec<BitSet>,
    pair_sets: Vec<BitSet>,
}

impl Serialize for Analysis {
    fn to_value(&self) -> Value {
        AnalysisWire {
            n: self.n,
            num_values: self.num_values,
            num_responses: self.num_responses,
            firsts: self.firsts.clone(),
            value_sets: rows_of(&self.value_sets, self.n, self.num_values),
            pair_sets: rows_of(
                &self.pair_sets,
                self.n * self.n,
                self.num_responses * self.num_values,
            ),
        }
        .to_value()
    }
}

impl Deserialize for Analysis {
    /// Fails only where the JSON does not have the wire shape. Rows that
    /// parse but do not fit the declared dimensions still deserialize, into
    /// an analysis that fails [`Analysis::shape_matches`], so the cache
    /// skips that one entry rather than the whole file.
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let wire = AnalysisWire::from_value(value)?;
        let pair_capacity = wire.num_responses.checked_mul(wire.num_values);
        Ok(Analysis {
            value_sets: arena_of(&wire.value_sets, wire.num_values).unwrap_or_default(),
            pair_sets: pair_capacity
                .and_then(|capacity| arena_of(&wire.pair_sets, capacity))
                .unwrap_or_default(),
            n: wire.n,
            num_values: wire.num_values,
            num_responses: wire.num_responses,
            firsts: wire.firsts,
        })
    }
}

/// Concatenates `rows` into one arena, or `None` if some row is not a
/// well-formed set of exactly `capacity` bits (the arena has no room to
/// record a row's own capacity). A `None` becomes an empty arena on the
/// way in, which [`Analysis::shape_matches`] rejects: it requires at least
/// one process, value and response, so every arena has at least one word.
fn arena_of(rows: &[BitSet], capacity: usize) -> Option<Vec<u64>> {
    rows.iter()
        .all(|row| row.capacity() == capacity && row.is_well_formed())
        .then(|| rows.iter().flat_map(|row| row.words()).copied().collect())
}

/// Splits an arena of `count` rows of `capacity` bits back into sets.
fn rows_of(arena: &[u64], count: usize, capacity: usize) -> Vec<BitSet> {
    let words = capacity.div_ceil(64);
    (0..count)
        .map(|r| BitSet::from_words(&arena[r * words..(r + 1) * words], capacity))
        .collect()
}

/// `true` if `arena` is exactly `rows` rows of `capacity` bits with every
/// bit at or above `capacity` clear.
fn arena_is_well_formed(arena: &[u64], rows: usize, capacity: usize) -> bool {
    let words = capacity.div_ceil(64);
    let tail = capacity % 64;
    arena.len() == rows * words
        && (tail == 0
            || arena
                .chunks_exact(words)
                .all(|row| row[words - 1] >> tail == 0))
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
    /// The initial value's index.
    u: usize,
    /// `step[j * num_values + v]` = (response index, next-value index) of
    /// process `j`'s op applied at value `v`.
    step: Vec<(usize, usize)>,
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
        Tables {
            n,
            num_values,
            num_responses,
            u: u.index(),
            step,
        }
    }

    /// (response, next) of process `j`'s op applied at the initial value.
    fn root(&self, j: usize) -> (usize, usize) {
        self.step[j * self.num_values + self.u]
    }

    /// Words per value-set row.
    fn value_words(&self) -> usize {
        self.num_values.div_ceil(64)
    }

    /// Words per pair-set row.
    fn pair_words(&self) -> usize {
        (self.num_responses * self.num_values).div_ceil(64)
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
    for f in 0..t.n {
        firsts[t.node(1 << f, t.root(f).1)] |= 1 << f;
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
    firsts[t.node(1 << m, t.root(m).1)] |= 1 << m;
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
    for f in 0..t.n {
        firsts[t.node(1 << f, t.root(f).1)].fetch_or(1 << f, Ordering::Relaxed);
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

/// The two result arenas (see [`Analysis`]): `value` is `n` rows of
/// `value_words()` words, `pair` is `n²` rows of `pair_words()` words.
type Arenas = (Vec<u64>, Vec<u64>);

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
) -> Arenas {
    let n = t.n;
    let nv = t.num_values;
    let (vw, pw) = (t.value_words(), t.pair_words());
    let mut value_sets = vec![0u64; n * vw];
    let mut pair_sets = vec![0u64; n * n * pw];
    for mask in masks {
        for v in 0..nv {
            let label = firsts[t.node(mask, v)];
            if label == 0 {
                continue;
            }
            // Values of this node belong to U_f for every first f.
            for f in Bits(label) {
                value_sets[f * vw + v / 64] |= 1 << (v % 64);
            }
            // Pairs contributed by each process j applying here. The child
            // of a reachable node is reachable, so its slot is never empty.
            for j in t.absent(mask) {
                let (resp, next) = t.step[j * nv + v];
                let slot = ds.slot(t.node(mask | (1 << j), next));
                let shift = resp * nv;
                for f in Bits(label) {
                    let row = (f * n + j) * pw;
                    or_words(&mut pair_sets[row..row + pw], slot, shift);
                }
            }
        }
    }
    (value_sets, pair_sets)
}

/// Parallel accumulation: masks strided across workers into private
/// arenas, merged by whole-arena ORs (commutative, so thread count cannot
/// change the result).
fn accumulate_parallel(t: &Tables, firsts: &[u32], ds: &Downstream, threads: usize) -> Arenas {
    let parts: Vec<Arenas> = std::thread::scope(|s| {
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
        or_words(&mut value_sets, &vs, 0);
        or_words(&mut pair_sets, &ps, 0);
    }
    (value_sets, pair_sets)
}

/// The first application itself: p_f's own pair from the virtual root.
fn accumulate_root(t: &Tables, ds: &Downstream, pair_sets: &mut [u64]) {
    let pw = t.pair_words();
    for f in 0..t.n {
        let (resp, next) = t.root(f);
        let row = (f * t.n + f) * pw;
        or_words(
            &mut pair_sets[row..row + pw],
            ds.slot(t.node(1 << f, next)),
            resp * t.num_values,
        );
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
            (0..prefix.n).all(|f| prefix.firsts[t.node(1 << f, t.root(f).1)] & (1 << f) != 0),
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
            value_sets: arena_of(&value_sets, num_values).expect("value rows fit"),
            pair_sets: arena_of(&pair_sets, num_responses * num_values).expect("pair rows fit"),
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
            value_sets: arena_of(&value_sets, num_values).expect("value rows fit"),
            pair_sets: arena_of(&pair_sets, num_responses * num_values).expect("pair rows fit"),
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
    /// `num_responses` responses must have — dimensions, arena sizes, no
    /// bit set beyond a row's capacity, and reachability-label sanity
    /// (every `firsts` label is a subset of the `n` process bits, and the
    /// empty-mask row is unreachable). Used to validate analyses loaded
    /// from the on-disk cache before the deciders trust them; always true
    /// for analyses built by [`Analysis::new`].
    pub fn shape_matches(&self, n: usize, num_values: usize, num_responses: usize) -> bool {
        self.n == n
            && (1..=MAX_PROCESSES).contains(&n)
            && self.num_values == num_values
            && self.num_responses == num_responses
            && num_values >= 1
            && num_responses >= 1
            && self.firsts.len() == (1usize << n) * num_values
            && self.firsts.iter().all(|&l| u64::from(l) < (1u64 << n))
            && self.firsts[..num_values].iter().all(|&l| l == 0)
            && arena_is_well_formed(&self.value_sets, n, num_values)
            && arena_is_well_formed(&self.pair_sets, n * n, num_responses * num_values)
    }

    /// Value-set row `f` (the values reachable when `p_f` applies first).
    fn value_row(&self, f: usize) -> &[u64] {
        let w = self.value_words();
        &self.value_sets[f * w..(f + 1) * w]
    }

    /// Pair-set row `(f, j)`.
    fn pair_row(&self, f: usize, j: usize) -> &[u64] {
        let w = self.pair_words();
        let row = f * self.n + j;
        &self.pair_sets[row * w..(row + 1) * w]
    }

    /// The `U`-style value set for a team: all values reachable over
    /// nonempty schedules whose first process is a member of `team`.
    pub fn value_set(&self, team: &[usize]) -> BitSet {
        let mut out = BitSet::new(self.num_values);
        for &f in team {
            out.or_words(self.value_row(f), 0);
        }
        out
    }

    /// The `R_{x,j}`-style pair set: `(response, value)` pairs of `p_j` over
    /// schedules containing `p_j` whose first process is in `team`.
    pub fn pair_set(&self, team: &[usize], j: usize) -> BitSet {
        let mut out = BitSet::new(self.num_responses * self.num_values);
        for &f in team {
            out.or_words(self.pair_row(f, j), 0);
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
    /// members are the set bits of `team` — one word of the union, read
    /// straight from the arena without allocating, so the partition checks
    /// can stop at the first overlapping word.
    pub(crate) fn value_word(&self, team: u32, w: usize) -> u64 {
        let words = self.value_words();
        Bits(team).fold(0, |acc, f| acc | self.value_sets[f * words + w])
    }

    /// Word `w` of [`pair_set`](Self::pair_set)`(team, j)` for the team
    /// bitmask `team`, as [`value_word`](Self::value_word).
    pub(crate) fn pair_word(&self, team: u32, j: usize, w: usize) -> u64 {
        let words = self.pair_words();
        Bits(team).fold(0, |acc, f| {
            acc | self.pair_sets[(f * self.n + j) * words + w]
        })
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

        // The result arenas: one word per value row (2 values) and per pair
        // row (4 pairs).
        let mut stray_value = a.clone();
        stray_value.value_sets[1] |= 1 << 2; // value 2 does not exist
        assert!(!stray_value.shape_matches(2, 2, 2));

        let mut stray_pair = a.clone();
        stray_pair.pair_sets[3] |= 1 << 63; // far above pair capacity 4
        assert!(!stray_pair.shape_matches(2, 2, 2));

        let mut wide_rows = a.clone(); // rows laid out for a 70-value type
        wide_rows.value_sets = a.value_sets.iter().flat_map(|&w| [w, 0]).collect();
        assert!(!wide_rows.shape_matches(2, 2, 2));

        let mut missing_value_row = a.clone();
        missing_value_row.value_sets.pop();
        assert!(!missing_value_row.shape_matches(2, 2, 2));

        let mut missing_pair_row = a.clone();
        missing_pair_row.pair_sets.pop();
        assert!(!missing_pair_row.shape_matches(2, 2, 2));
    }

    /// `serde_json::to_string(&Analysis::new(&TestAndSet::new(), 0, [0, 1, 0]))`
    /// as cache format version 2 writes it: every per-first set is a
    /// `{"words", "capacity"}` row, value rows by first `f`, pair rows by
    /// `f * n + j`.
    const TAS_WIRE: &str = concat!(
        r#"{"n":3,"num_values":2,"num_responses":2,"#,
        r#""firsts":[0,0,0,1,2,0,0,3,0,4,0,5,0,6,0,7],"#,
        r#""value_sets":[{"words":[2],"capacity":2},{"words":[3],"capacity":2},"#,
        r#"{"words":[2],"capacity":2}],"#,
        r#""pair_sets":[{"words":[2],"capacity":4},{"words":[8],"capacity":4},"#,
        r#"{"words":[8],"capacity":4},{"words":[10],"capacity":4},"#,
        r#"{"words":[3],"capacity":4},{"words":[10],"capacity":4},"#,
        r#"{"words":[8],"capacity":4},{"words":[8],"capacity":4},"#,
        r#"{"words":[2],"capacity":4}]}"#,
    );

    fn tas_mixed() -> Analysis {
        let ops = [OpId::new(0), OpId::new(1), OpId::new(0)];
        Analysis::new(&TestAndSet::new(), ValueId::new(0), &ops)
    }

    #[test]
    fn wire_format_is_pinned() {
        let a = tas_mixed();
        assert_eq!(serde_json::to_string(&a).unwrap(), TAS_WIRE);
        let back: Analysis = serde_json::from_str(TAS_WIRE).unwrap();
        assert_eq!(back, a);
        assert!(back.shape_matches(3, 2, 2));

        // Multi-word rows (70 values, 140 pairs) round-trip too.
        let reg = Register::new(70);
        let ops = [OpId::new(3), OpId::new(69), OpId::new(70)];
        let a = Analysis::new(&reg, ValueId::new(5), &ops);
        let text = serde_json::to_string(&a).unwrap();
        assert_eq!(text.matches(r#""capacity":70}"#).count(), 3);
        let back: Analysis = serde_json::from_str(&text).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn damaged_wire_rows_load_but_fail_shape_matches() {
        // Each damage keeps the wire shape, so the entry deserializes (a
        // cache file is not lost over one entry) and is then rejected by
        // `shape_matches` alone.
        let damages = [
            (
                "stray value bit",
                TAS_WIRE.replacen(r#"[2],"capacity":2"#, r#"[6],"capacity":2"#, 1),
            ),
            (
                "stray pair bit",
                TAS_WIRE.replacen(r#"[2],"capacity":4"#, r#"[18],"capacity":4"#, 1),
            ),
            (
                "wrong value capacity",
                TAS_WIRE.replacen(r#""capacity":2}"#, r#""capacity":3}"#, 1),
            ),
            (
                "wrong pair capacity",
                TAS_WIRE.replacen(r#""capacity":4}"#, r#""capacity":5}"#, 1),
            ),
            (
                "extra word",
                TAS_WIRE.replacen(r#"[3],"capacity":2"#, r#"[3,0],"capacity":2"#, 1),
            ),
            (
                "missing value row",
                TAS_WIRE.replacen(r#"{"words":[3],"capacity":2},"#, "", 1),
            ),
            (
                "missing pair row",
                TAS_WIRE.replacen(r#"{"words":[10],"capacity":4},"#, "", 1),
            ),
        ];
        for (what, text) in damages {
            assert_ne!(text, TAS_WIRE, "{what}: damage did not apply");
            let a: Analysis = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(!a.shape_matches(3, 2, 2), "{what} passed shape_matches");
        }
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
