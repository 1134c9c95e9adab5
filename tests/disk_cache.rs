//! Round-trip and corruption tests for the persistent analysis cache:
//! a warm run must reproduce the cold run's classification exactly while
//! computing nothing, and damaged cache files must degrade to a silent
//! full recompute — never a wrong answer, never an error.

use rcn::decide::{DiskCache, PartitionSharding, SearchEngine, TypeClassification};
use rcn::spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap, TeamCounter,
    TestAndSet, Tnn,
};
use rcn::spec::ObjectType;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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

/// A fresh per-test scratch directory (no tempfile crate in the tree).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcn-disk-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Field-by-field classification equality (including witnesses), used to
/// pin the warm run to the cold run bit-for-bit.
fn assert_same_classification(a: &TypeClassification, b: &TypeClassification, ctx: &str) {
    assert_eq!(a.type_name, b.type_name, "{ctx}: type name");
    assert_eq!(a.readable, b.readable, "{ctx}: readable");
    assert_eq!(a.discerning, b.discerning, "{ctx}: discerning result");
    assert_eq!(a.recording, b.recording, "{ctx}: recording result");
    assert_eq!(a.consensus_number, b.consensus_number, "{ctx}: CN");
    assert_eq!(
        a.recoverable_consensus_number, b.recoverable_consensus_number,
        "{ctx}: RCN"
    );
}

#[test]
fn warm_run_reproduces_cold_run_across_the_zoo() {
    let root = scratch("zoo");
    for ty in zoo() {
        // One subdirectory per type: fingerprints are content hashes, so
        // zoo types with identical tables (e.g. the consensus object vs. a
        // sticky bit) would legitimately share entries in a common dir —
        // here we want every type's cold run to be genuinely cold.
        let dir = root.join(ty.name());
        let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let reference = cold.classify(&*ty, CAP).expect("cap in range");
        let cold_stats = cold.stats();
        assert!(
            cold_stats.disk_entries_written > 0,
            "{}: cold run should persist analyses, got {cold_stats}",
            ty.name()
        );
        assert_eq!(cold_stats.disk_hits, 0, "{}: cold run", ty.name());

        let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let again = warm.classify(&*ty, CAP).expect("cap in range");
        assert_same_classification(&reference, &again, &ty.name());
        let warm_stats = warm.stats();
        assert!(
            warm_stats.disk_hits > 0,
            "{}: warm run should hit the disk cache, got {warm_stats}",
            ty.name()
        );
        assert_eq!(
            warm_stats.analyses_computed,
            0,
            "{}: warm run should recompute nothing, got {warm_stats}",
            ty.name()
        );
        assert_eq!(
            warm_stats.disk_entries_written,
            0,
            "{}: warm run should rewrite nothing, got {warm_stats}",
            ty.name()
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The `(level, initial value, op multiset)` key of every analysis
/// persisted in `dir`, read straight from the cache files.
fn persisted_keys(dir: &Path) -> BTreeSet<(u64, u16, Vec<u16>)> {
    #[derive(serde::Deserialize)]
    struct Entry {
        initial: u16,
        ops: Vec<u16>,
    }
    #[derive(serde::Deserialize)]
    struct File {
        level: u64,
        entries: Vec<Entry>,
    }
    let mut keys = BTreeSet::new();
    for entry in std::fs::read_dir(dir).expect("cache dir exists") {
        let text = std::fs::read_to_string(entry.expect("dir entry").path()).expect("cache file");
        let file: File = serde_json::from_str(&text).expect("cache file parses");
        for e in file.entries {
            assert!(
                keys.insert((file.level, e.initial, e.ops)),
                "duplicate entry"
            );
        }
    }
    keys
}

#[test]
fn warm_cache_agrees_under_threads_and_partition_sharding() {
    // The cache stores analyses, not search results: a warm parallel,
    // partition-sharded engine must land on the cold sequential answers.
    let dir = scratch("sharded");
    let ty = Tnn::new(4, 2);
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(&ty, 5).expect("cap in range");
    let stored = persisted_keys(&dir);
    assert_eq!(stored.len() as u64, cold.stats().disk_entries_written);

    // A sequential warm engine retraces the cold search exactly, so it
    // finds every analysis on disk and computes nothing.
    let sequential = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let again = sequential.classify(&ty, 5).expect("cap in range");
    assert_same_classification(&reference, &again, "sequential warm");
    assert_eq!(sequential.stats().analyses_computed, 0);
    assert_eq!(persisted_keys(&dir), stored);

    // Parallel workers may speculate past the first witness into instances
    // the sequential search never reached; those analyses are computed and
    // persisted as new entries. How many depends on thread timing. The
    // contract is exact all the same: no analysis present on disk is ever
    // recomputed — every computation adds a key the disk did not hold.
    let warm = SearchEngine::new(4)
        .with_partition_sharding(PartitionSharding::Always)
        .with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(&ty, 5).expect("cap in range");
    assert_eq!(again.discerning.level, reference.discerning.level);
    assert_eq!(again.recording.level, reference.recording.level);
    assert_eq!(again.consensus_number, reference.consensus_number);
    assert_eq!(
        again.recoverable_consensus_number,
        reference.recoverable_consensus_number
    );
    assert!(warm.stats().disk_hits > 0, "stats: {}", warm.stats());
    let after = persisted_keys(&dir);
    assert!(stored.is_subset(&after), "warm run lost entries");
    assert_eq!(
        (after.len() - stored.len()) as u64,
        warm.stats().analyses_computed,
        "an analysis already on disk was recomputed: {}",
        warm.stats()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Damages every cache file in `dir` with `f`, returning how many files
/// were touched.
fn damage_all(dir: &std::path::Path, f: impl Fn(&str) -> String) -> usize {
    let mut touched = 0;
    for entry in std::fs::read_dir(dir).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("cache file is text");
        std::fs::write(&path, f(&text)).expect("rewrite cache file");
        touched += 1;
    }
    touched
}

type Damage = Box<dyn Fn(&str) -> String>;

#[test]
fn damaged_cache_files_fall_back_to_full_recompute() {
    let ty = TestAndSet::new();
    let damages: Vec<(&str, Damage)> = vec![
        ("garbage", Box::new(|_: &str| "not json at all {{{".into())),
        ("truncated", Box::new(|t: &str| t[..t.len() / 2].into())),
        ("empty", Box::new(|_: &str| String::new())),
        (
            "version-mismatch",
            Box::new(|t: &str| t.replacen("\"version\":", "\"version\": 999, \"v\":", 1)),
        ),
    ];
    for (tag, damage) in damages {
        let dir = scratch(tag);
        let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let reference = cold.classify(&ty, CAP).expect("cap in range");
        assert!(
            damage_all(&dir, damage) > 0,
            "{tag}: no cache files written"
        );

        let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let again = warm.classify(&ty, CAP).expect("cap in range");
        assert_same_classification(&reference, &again, tag);
        let stats = warm.stats();
        assert_eq!(stats.disk_hits, 0, "{tag}: damaged entries must not hit");
        assert!(
            stats.analyses_computed > 0,
            "{tag}: must recompute, got {stats}"
        );
        // The recompute repairs the cache: a third run is warm again.
        let repaired = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let third = repaired.classify(&ty, CAP).expect("cap in range");
        assert_same_classification(&reference, &third, tag);
        assert!(
            repaired.stats().disk_hits > 0,
            "{tag}: repair run should be warm, got {}",
            repaired.stats()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Rewrites each cache file into the version-1 format: version stamp 1 and
/// no `firsts` field (v1 analyses persisted only the value/pair sets).
fn downgrade_to_v1(text: &str) -> String {
    let mut out = text.replacen("\"version\":2", "\"version\":1", 1);
    while let Some(i) = out.find("\"firsts\":[") {
        let after = i + "\"firsts\":[".len();
        let end = after + out[after..].find(']').expect("firsts array closes");
        // Also eat the comma separating `firsts` from the next field, so
        // the result is exactly the old shape (valid JSON, no firsts).
        let end = if out[end + 1..].starts_with(',') {
            end + 1
        } else {
            end
        };
        out.replace_range(i..=end, "");
    }
    out
}

#[test]
fn version_one_cache_files_fall_back_to_recompute() {
    // Regression for the v1 → v2 wire change (Analysis now persists its
    // `firsts` labels): a genuine old-format file — correct path, correct
    // fingerprint, old version stamp, no `firsts` — must degrade to a
    // silent full recompute, and the recompute must repair the cache.
    let ty = TeamCounter::new(4);
    let dir = scratch("v1-format");
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(&ty, CAP).expect("cap in range");
    let touched = damage_all(&dir, downgrade_to_v1);
    assert!(touched > 0, "no cache files written");

    let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(&ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &again, "v1-format");
    let stats = warm.stats();
    assert_eq!(stats.disk_hits, 0, "stale-version entries must not hit");
    assert!(stats.analyses_computed > 0, "must recompute, got {stats}");

    let repaired = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let third = repaired.classify(&ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &third, "v1-format repair");
    assert!(
        repaired.stats().disk_hits > 0,
        "repair run should be warm, got {}",
        repaired.stats()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shape_mismatched_entries_are_skipped_individually() {
    // Damage one entry per file (an extra element makes its `firsts`
    // length disagree with the instance's level) while its neighbours stay
    // valid: the warm run must skip exactly the damaged entries —
    // recomputing them — and still serve the rest from disk.
    let ty = TeamCounter::new(4);
    let dir = scratch("entry-shape");
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(&ty, CAP).expect("cap in range");
    let touched = damage_all(&dir, |t| t.replacen("\"firsts\":[", "\"firsts\":[0,", 1));
    assert!(touched > 0, "no cache files written");

    let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(&ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &again, "entry-shape");
    let stats = warm.stats();
    assert!(
        stats.disk_hits > 0,
        "undamaged entries must still hit, got {stats}"
    );
    assert!(
        stats.analyses_computed > 0,
        "damaged entries must recompute, got {stats}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One serialized per-first set, as cache files spell it.
#[derive(serde::Serialize, serde::Deserialize)]
struct Row {
    words: Vec<u64>,
    capacity: usize,
}

/// Rewrites the first row of the `field` array (`value_sets` or
/// `pair_sets`) in `text`, which lies in the file's first entry, with
/// `edit`; `None` deletes the row.
fn edit_first_row(text: &str, field: &str, edit: &dyn Fn(Row) -> Option<Row>) -> String {
    let open = format!("\"{field}\":[");
    let start = text.find(&open).expect("field present") + open.len();
    let end = start + text[start..].find('}').expect("row closes") + 1;
    let row: Row = serde_json::from_str(&text[start..end]).expect("row parses");
    let (replacement, end) = match edit(row) {
        Some(row) => (serde_json::to_string(&row).expect("row serializes"), end),
        // A deleted row takes its separating comma with it.
        None => (
            String::new(),
            end + usize::from(text[end..].starts_with(',')),
        ),
    };
    format!("{}{replacement}{}", &text[..start], &text[end..])
}

type RowDamage = Box<dyn Fn(Row) -> Option<Row>>;

#[test]
fn row_damaged_entries_are_skipped_individually() {
    // One damaged row in the first entry of each file: a bit at the row's
    // capacity, a capacity that disagrees with the type, or a missing row.
    // The file still parses, so only that entry is skipped and recomputed;
    // every other entry is still served from disk.
    let stray_bit = |mut row: Row| {
        assert_ne!(row.capacity % 64, 0, "needs a partial last word");
        *row.words.last_mut().expect("nonempty row") |= 1 << (row.capacity % 64);
        Some(row)
    };
    let damages: Vec<(&str, &str, RowDamage)> = vec![
        ("value-stray-bit", "value_sets", Box::new(stray_bit)),
        ("pair-stray-bit", "pair_sets", Box::new(stray_bit)),
        (
            "value-capacity",
            "value_sets",
            Box::new(|row: Row| {
                Some(Row {
                    capacity: row.capacity + 1,
                    ..row
                })
            }),
        ),
        (
            "pair-capacity",
            "pair_sets",
            Box::new(|row: Row| {
                Some(Row {
                    capacity: row.capacity - 1,
                    ..row
                })
            }),
        ),
        ("value-row-missing", "value_sets", Box::new(|_| None)),
        ("pair-row-missing", "pair_sets", Box::new(|_| None)),
    ];
    let ty = TeamCounter::new(4);
    for (tag, field, damage) in damages {
        let dir = scratch(&format!("row-{tag}"));
        let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let reference = cold.classify(&ty, CAP).expect("cap in range");
        let touched = damage_all(&dir, |t| edit_first_row(t, field, &*damage));
        assert!(touched > 0, "{tag}: no cache files written");

        let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let again = warm.classify(&ty, CAP).expect("cap in range");
        assert_same_classification(&reference, &again, tag);
        // The warm run retraces the cold one, so any undamaged entry it
        // failed to load would be recomputed too.
        let stats = warm.stats();
        assert_eq!(
            stats.analyses_computed, touched as u64,
            "{tag}: exactly the damaged entries recompute, got {stats}"
        );
        assert!(stats.disk_hits > 0, "{tag}: no disk hits, got {stats}");
        // The recompute repairs the files: a third run computes nothing.
        let repaired = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        repaired.classify(&ty, CAP).expect("cap in range");
        assert_eq!(repaired.stats().analyses_computed, 0, "{tag}: not repaired");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into();
            (name, std::fs::read(&path).expect("cache file"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn cold_runs_write_byte_identical_files() {
    // The same search persists the same analyses; the files must not
    // depend on the memo's hash order, which differs between stores.
    let ty = TeamCounter::new(4);
    let (a, b) = (scratch("bytes-a"), scratch("bytes-b"));
    for dir in [&a, &b] {
        let engine = SearchEngine::sequential().with_disk_cache(DiskCache::new(dir));
        engine.classify(&ty, CAP + 1).expect("cap in range");
    }
    let (fa, fb) = (files(&a), files(&b));
    assert_eq!(fa.len(), 4, "one file per level 2..=5");
    for ((name_a, bytes_a), (name_b, bytes_b)) in fa.iter().zip(&fb) {
        assert_eq!(name_a, name_b);
        assert!(bytes_a == bytes_b, "{name_a} differs between cold runs");
    }
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn cache_from_a_different_type_is_ignored() {
    // Cache keys are content hashes of the transition table: warming the
    // cache on one type must not leak analyses into another type that
    // happens to share dimensions.
    let dir = scratch("cross-type");
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    cold.classify(&TestAndSet::new(), CAP)
        .expect("cap in range");

    let other = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    other
        .classify(&StickyBit::new(), CAP)
        .expect("cap in range");
    let stats = other.stats();
    assert_eq!(stats.disk_hits, 0, "cross-type run must miss: {stats}");
    assert!(stats.analyses_computed > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_cache_dir_means_no_disk_traffic() {
    let engine = SearchEngine::sequential();
    engine
        .classify(&TestAndSet::new(), CAP)
        .expect("cap in range");
    let stats = engine.stats();
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(stats.disk_entries_written, 0);
}
