//! Differential tests: the parallel search engine must agree with the
//! sequential deciders on every membership question and every computed
//! level, for the whole readable zoo — and parallel runs must be
//! level-deterministic (witnesses may differ; levels may not).

use rcn::decide::{
    check_discerning, check_recording, discerning_number, is_n_discerning, is_n_recording,
    recording_number, Analysis, PartitionSharding, SearchEngine,
};
use rcn::spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap, TeamCounter,
    TestAndSet, Tnn,
};
use rcn::spec::{ObjectType, OpId, ValueId};

const CAP: usize = 4;

fn zoo() -> Vec<Box<dyn ObjectType + Send + Sync>> {
    vec![
        Box::new(Register::new(2)),
        Box::new(TestAndSet::new()),
        Box::new(FetchAndAdd::new(4)),
        Box::new(Swap::new(2)),
        Box::new(CompareAndSwap::new(3)),
        Box::new(StickyBit::new()),
        Box::new(ConsensusObject::new()),
        Box::new(Tnn::new(4, 2)),
        Box::new(TeamCounter::new(4)),
    ]
}

#[test]
fn engine_membership_matches_sequential_for_whole_zoo() {
    let engine = SearchEngine::new(4);
    for ty in zoo() {
        for n in 2..=CAP {
            assert_eq!(
                engine
                    .find_recording_witness(&*ty, n)
                    .expect("level in range")
                    .is_some(),
                is_n_recording(&*ty, n),
                "{}: is_n_recording({n})",
                ty.name()
            );
            assert_eq!(
                engine
                    .find_discerning_witness(&*ty, n)
                    .expect("level in range")
                    .is_some(),
                is_n_discerning(&*ty, n),
                "{}: is_n_discerning({n})",
                ty.name()
            );
        }
    }
}

#[test]
fn engine_levels_match_sequential_for_whole_zoo() {
    let engine = SearchEngine::new(4);
    for ty in zoo() {
        let seq = recording_number(&*ty, CAP);
        let par = engine.recording_number(&*ty, CAP).expect("cap in range");
        assert_eq!(par.level, seq.level, "{}: recording level", ty.name());
        assert_eq!(par.capped, seq.capped, "{}: recording capped", ty.name());

        let seq = discerning_number(&*ty, CAP);
        let par = engine.discerning_number(&*ty, CAP).expect("cap in range");
        assert_eq!(par.level, seq.level, "{}: discerning level", ty.name());
        assert_eq!(par.capped, seq.capped, "{}: discerning capped", ty.name());
    }
}

#[test]
fn engine_witnesses_are_valid_certificates() {
    // Witnesses from a parallel search may differ from the sequential ones
    // (and between runs); each must still replay through the independent
    // checkers.
    let engine = SearchEngine::new(4);
    for ty in zoo() {
        let rec = engine.recording_number(&*ty, CAP).expect("cap in range");
        if let Some(w) = &rec.witness {
            assert_eq!(
                check_recording(&*ty, w),
                Ok(true),
                "{}: recording witness replays",
                ty.name()
            );
        }
        let dis = engine.discerning_number(&*ty, CAP).expect("cap in range");
        if let Some(w) = &dis.witness {
            assert_eq!(
                check_discerning(&*ty, w),
                Ok(true),
                "{}: discerning witness replays",
                ty.name()
            );
        }
    }
}

#[test]
fn parallel_runs_are_level_deterministic() {
    let ty = Tnn::new(4, 1);
    let reference = SearchEngine::new(4)
        .classify(&ty, CAP)
        .expect("cap in range");
    for round in 0..5 {
        let again = SearchEngine::new(4)
            .classify(&ty, CAP)
            .expect("cap in range");
        assert_eq!(
            again.recording.level, reference.recording.level,
            "round {round}: recording level"
        );
        assert_eq!(
            again.discerning.level, reference.discerning.level,
            "round {round}: discerning level"
        );
        assert_eq!(again.consensus_number, reference.consensus_number);
        assert_eq!(
            again.recoverable_consensus_number,
            reference.recoverable_consensus_number
        );
    }
}

#[test]
fn partition_sharded_search_matches_sequential_for_whole_zoo() {
    // Partition-level sharding changes the task grain (chunks of one
    // instance's partitions instead of whole instances), not the answers:
    // forced-on sharding must agree with the sequential deciders on every
    // level across the zoo, at both thread counts.
    for threads in [1usize, 4] {
        let engine = SearchEngine::new(threads).with_partition_sharding(PartitionSharding::Always);
        for ty in zoo() {
            let seq = recording_number(&*ty, CAP);
            let par = engine.recording_number(&*ty, CAP).expect("cap in range");
            assert_eq!(
                par.level,
                seq.level,
                "{} (threads={threads}): sharded recording level",
                ty.name()
            );
            assert_eq!(par.capped, seq.capped);
            if let Some(w) = &par.witness {
                assert_eq!(check_recording(&*ty, w), Ok(true), "{}", ty.name());
            }

            let seq = discerning_number(&*ty, CAP);
            let par = engine.discerning_number(&*ty, CAP).expect("cap in range");
            assert_eq!(
                par.level,
                seq.level,
                "{} (threads={threads}): sharded discerning level",
                ty.name()
            );
            assert_eq!(par.capped, seq.capped);
            if let Some(w) = &par.witness {
                assert_eq!(check_discerning(&*ty, w), Ok(true), "{}", ty.name());
            }
        }
    }
}

#[test]
fn sequential_sharded_witnesses_are_canonical() {
    // With one worker the sharded task list still visits (instance,
    // partition) pairs in sequential order, so the returned witness must be
    // identical to the unsharded engine's — not merely valid.
    let base = SearchEngine::sequential().with_partition_sharding(PartitionSharding::Never);
    let sharded = SearchEngine::sequential().with_partition_sharding(PartitionSharding::Always);
    for ty in zoo() {
        for n in 2..=CAP {
            assert_eq!(
                sharded.find_recording_witness(&*ty, n).unwrap(),
                base.find_recording_witness(&*ty, n).unwrap(),
                "{}: recording witness at n={n}",
                ty.name()
            );
            assert_eq!(
                sharded.find_discerning_witness(&*ty, n).unwrap(),
                base.find_discerning_witness(&*ty, n).unwrap(),
                "{}: discerning witness at n={n}",
                ty.name()
            );
        }
    }
}

/// All non-decreasing `n`-element op sequences over `num_ops` operations —
/// exactly the sorted multisets the search space enumerates.
fn op_multisets(num_ops: usize, n: usize) -> Vec<Vec<OpId>> {
    fn go(num_ops: usize, n: usize, min: usize, prefix: &mut Vec<OpId>, out: &mut Vec<Vec<OpId>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for op in min..num_ops {
            prefix.push(OpId::new(op as u16));
            go(num_ops, n, op, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    go(num_ops, n, 0, &mut Vec::new(), &mut out);
    out
}

#[test]
fn analysis_construction_paths_are_bit_identical_across_zoo() {
    // The kernelized default, the bit-at-a-time scalar reference, the
    // popcount-wave parallel path, and the incremental extend chain are
    // four implementations of the same function. Sweep every instance of
    // the zoo up to the differential cap and require full structural
    // equality (firsts, value sets, and pair sets all compared by Eq) —
    // not just equal verdicts downstream.
    for ty in zoo() {
        for n in 2..=CAP {
            for ops in op_multisets(ty.num_ops(), n) {
                for u in 0..ty.num_values() {
                    let u = ValueId::new(u as u16);
                    let kernel = Analysis::new(&*ty, u, &ops);
                    let ctx = || format!("{} u={} ops={:?}", ty.name(), u.index(), ops);
                    assert_eq!(kernel, Analysis::new_scalar(&*ty, u, &ops), "{}", ctx());
                    assert_eq!(
                        kernel,
                        Analysis::with_threads(&*ty, u, &ops, 4),
                        "{}",
                        ctx()
                    );
                    // Chain extend from the single-process base. Every
                    // prefix of a sorted multiset is itself a valid
                    // smaller instance.
                    let mut chained = Analysis::new(&*ty, u, &ops[..1]);
                    for m in 2..=n {
                        chained = Analysis::extend(&*ty, u, &chained, &ops[..m], 1);
                    }
                    assert_eq!(kernel, chained, "extend chain: {}", ctx());
                }
            }
        }
    }
}

/// Every construction path against the scalar reference on one instance:
/// kernelized, wave-parallel at 2 and 3 threads, and `extend` from the
/// one-shorter prefix at 1 and 3 threads.
fn assert_paths_agree(ty: &dyn ObjectType, u: ValueId, ops: &[OpId]) {
    let ctx = || format!("{} u={} ops={:?}", ty.name(), u.index(), ops);
    let reference = Analysis::new_scalar(ty, u, ops);
    assert_eq!(Analysis::new(ty, u, ops), reference, "{}", ctx());
    for threads in [2, 3] {
        assert_eq!(
            Analysis::with_threads(ty, u, ops, threads),
            reference,
            "{threads} threads: {}",
            ctx()
        );
    }
    let prefix = Analysis::new(ty, u, &ops[..ops.len() - 1]);
    for threads in [1, 3] {
        assert_eq!(
            Analysis::extend(ty, u, &prefix, ops, threads),
            reference,
            "extend, {threads} threads: {}",
            ctx()
        );
    }
}

#[test]
fn analysis_paths_agree_on_multi_word_types() {
    // More than 64 values: every downstream slot spans 2–3 words, and the
    // pair universe (`responses × values` bits) is ORed at shifts
    // `response × values` that cross word boundaries unaligned.
    let reg = Register::new(70); // 2 words per value set
    let write = OpId::new;
    let read = OpId::new(70);
    let reg_ops = [
        vec![write(0), write(65)],
        vec![write(3), write(64), read],
        vec![write(1), write(63), write(69), read],
        vec![write(69), write(69), read, read],
        vec![write(0), write(64), write(64), write(66), read],
    ];
    for ops in &reg_ops {
        for u in [0u16, 1, 63, 64, 69] {
            assert_paths_agree(&reg, ValueId::new(u), ops);
        }
    }

    let faa = FetchAndAdd::new(130); // 3 words per value set
    for n in 2..=5 {
        for ops in op_multisets(faa.num_ops(), n) {
            for u in [0u16, 1, 63, 64, 127, 128, 129] {
                assert_paths_agree(&faa, ValueId::new(u), &ops);
            }
        }
    }
}

#[test]
fn multi_word_types_classify_alike_on_every_engine() {
    // The word-at-a-time partition checks against the sequential deciders,
    // on sets that span several words.
    let faa = FetchAndAdd::new(130);
    let seq_d = discerning_number(&faa, 3);
    let seq_r = recording_number(&faa, 3);
    for threads in [1usize, 2] {
        let engine = SearchEngine::new(threads);
        let c = engine.classify(&faa, 3).expect("cap in range");
        assert_eq!(c.discerning.level, seq_d.level, "{threads} threads");
        assert_eq!(c.recording.level, seq_r.level, "{threads} threads");
        if let Some(w) = &c.discerning.witness {
            assert_eq!(check_discerning(&faa, w), Ok(true), "{threads} threads");
        }
        if let Some(w) = &c.recording.witness {
            assert_eq!(check_recording(&faa, w), Ok(true), "{threads} threads");
        }
    }
    assert_eq!(seq_d.level, 2, "fetch-and-add has consensus number 2");
}

#[test]
fn incremental_engine_matches_from_scratch_across_zoo() {
    // Seeding level n+1 analyses from memoized level-n prefixes must not
    // change a single verdict. Classify the whole zoo both ways and also
    // check the counters prove which path ran.
    let mut total_incremental = 0;
    for ty in zoo() {
        let seeded = SearchEngine::sequential().with_incremental(true);
        let scratch = SearchEngine::sequential().with_incremental(false);
        let a = seeded.classify(&*ty, CAP).expect("cap in range");
        let b = scratch.classify(&*ty, CAP).expect("cap in range");
        assert_eq!(
            a.recording.level,
            b.recording.level,
            "{}: recording level",
            ty.name()
        );
        assert_eq!(
            a.discerning.level,
            b.discerning.level,
            "{}: discerning level",
            ty.name()
        );
        assert_eq!(a.consensus_number, b.consensus_number, "{}", ty.name());
        assert_eq!(
            a.recoverable_consensus_number,
            b.recoverable_consensus_number,
            "{}",
            ty.name()
        );
        assert_eq!(
            scratch.stats().incremental_hits,
            0,
            "{}: disabled engine must never extend",
            ty.name()
        );
        total_incremental += seeded.stats().incremental_hits;
    }
    assert!(
        total_incremental > 0,
        "incremental seeding never fired across the zoo"
    );
}

#[test]
fn analysis_threads_do_not_change_sequential_witnesses() {
    // Intra-analysis parallelism nests inside the search; with one search
    // worker the visit order is unchanged, so the witnesses must be
    // identical to the baseline engine's — not merely valid.
    let base = SearchEngine::sequential();
    let threaded = SearchEngine::sequential().with_analysis_threads(4);
    for ty in zoo() {
        for n in 2..=CAP {
            assert_eq!(
                threaded.find_recording_witness(&*ty, n).unwrap(),
                base.find_recording_witness(&*ty, n).unwrap(),
                "{}: recording witness at n={n}",
                ty.name()
            );
            assert_eq!(
                threaded.find_discerning_witness(&*ty, n).unwrap(),
                base.find_discerning_witness(&*ty, n).unwrap(),
                "{}: discerning witness at n={n}",
                ty.name()
            );
        }
    }
}

#[test]
fn classify_reports_cache_hits() {
    // `classify` runs both deciders over the same instance space; the
    // second scan must be served (partly) from the shared analysis cache.
    for threads in [1usize, 4] {
        let engine = SearchEngine::new(threads);
        engine
            .classify(&TestAndSet::new(), CAP)
            .expect("cap in range");
        let stats = engine.stats();
        assert!(
            stats.cache_hits > 0,
            "threads={threads}: expected cache hits, got {stats}"
        );
        assert!(stats.analyses_computed > 0);
        assert!(stats.instances_visited >= stats.analyses_computed);
    }
}
