//! Seam adapters: count work at the crates' public extension points
//! without touching crate sources. Both are installed only in traced runs.

use crate::items::DynType;
use rcn_decide::{CacheIo, SystemIo};
use rcn_spec::{ObjectType, OpId, Outcome, Response, ValueId};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An [`ObjectType`] that counts `apply` calls and otherwise delegates
/// every method, so deciders and executors behave exactly as on the
/// wrapped type.
pub struct CountingType {
    inner: DynType,
    calls: Arc<AtomicU64>,
}

impl CountingType {
    pub fn new(inner: DynType, calls: Arc<AtomicU64>) -> CountingType {
        CountingType { inner, calls }
    }
}

impl ObjectType for CountingType {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_values(&self) -> usize {
        self.inner.num_values()
    }
    fn num_ops(&self) -> usize {
        self.inner.num_ops()
    }
    fn num_responses(&self) -> usize {
        self.inner.num_responses()
    }
    fn apply(&self, value: ValueId, op: OpId) -> Outcome {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(value, op)
    }
    fn value_name(&self, value: ValueId) -> String {
        self.inner.value_name(value)
    }
    fn op_name(&self, op: OpId) -> String {
        self.inner.op_name(op)
    }
    fn response_name(&self, response: Response) -> String {
        self.inner.response_name(response)
    }
    fn is_read_op(&self, op: OpId) -> bool {
        self.inner.is_read_op(op)
    }
    fn read_op(&self) -> Option<OpId> {
        self.inner.read_op()
    }
    fn is_readable(&self) -> bool {
        self.inner.is_readable()
    }
    fn values(&self) -> Box<dyn Iterator<Item = ValueId>> {
        self.inner.values()
    }
    fn ops(&self) -> Box<dyn Iterator<Item = OpId>> {
        self.inner.ops()
    }
}

/// Calls, bytes and busy time of one store's filesystem traffic.
#[derive(Debug, Default)]
pub struct IoStats {
    pub read_calls: AtomicU64,
    pub read_ns: AtomicU64,
    pub bytes_read: AtomicU64,
    pub write_calls: AtomicU64,
    pub write_ns: AtomicU64,
    pub bytes_written: AtomicU64,
    pub rename_calls: AtomicU64,
}

impl IoStats {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

fn add(counter: &AtomicU64, delta: u64) {
    counter.fetch_add(delta, Ordering::Relaxed);
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`CacheIo`] over the real filesystem that counts and times every
/// read, write and rename (for `DiskCache::with_io` and
/// `ExplorerMemo::with_io`).
#[derive(Debug)]
pub struct CountingIo {
    stats: Arc<IoStats>,
}

impl CountingIo {
    pub fn new(stats: Arc<IoStats>) -> CountingIo {
        CountingIo { stats }
    }
}

impl CacheIo for CountingIo {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let started = Instant::now();
        let result = SystemIo.read_to_string(path);
        add(&self.stats.read_ns, elapsed_ns(started));
        add(&self.stats.read_calls, 1);
        if let Ok(text) = &result {
            add(&self.stats.bytes_read, text.len() as u64);
        }
        result
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let result = SystemIo.write(path, data);
        add(&self.stats.write_ns, elapsed_ns(started));
        add(&self.stats.write_calls, 1);
        if result.is_ok() {
            add(&self.stats.bytes_written, data.len() as u64);
        }
        result
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        add(&self.stats.rename_calls, 1);
        SystemIo.rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        SystemIo.create_dir_all(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        SystemIo.remove_file(path)
    }
}
