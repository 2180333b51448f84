//! The DFS namespace: files, blocks, writes, and their cost.
//!
//! There is no read path. A map task's non-local input read is priced by
//! the slot scheduler's locality penalty (time) and charged by the engine
//! to [`TrafficClass::DfsRead`] (bytes); the namespace only supplies the
//! split host lists both of them work from.

use crate::placement::BlockPlacement;
use crate::split::{even_ranges, InputSplit};
use crate::DEFAULT_BLOCK_SIZE;
use pic_simnet::hostprof::{self, Stage};
use pic_simnet::topology::{ClusterSpec, NodeId};
use pic_simnet::trace::{Payload, Tracer};
use pic_simnet::traffic::{TrafficClass, TrafficLedger};
use pic_simnet::transfer;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Errors from namespace operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// The path does not exist.
    NotFound(String),
    /// The path already exists (writes never overwrite implicitly).
    AlreadyExists(String),
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "dfs: path not found: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "dfs: path already exists: {p}"),
        }
    }
}

impl std::error::Error for DfsError {}

/// Metadata for one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMeta {
    /// Logical size in bytes.
    pub size: u64,
    /// Per-block replica locations, in block order.
    pub blocks: Vec<Vec<NodeId>>,
}

/// The replica placement every DFS uses (seed 0).
const PLACEMENT: BlockPlacement = BlockPlacement::new(0);

/// The simulated file system. The engine owns the one instance; every
/// call comes from the thread driving it.
#[derive(Debug)]
pub struct Dfs {
    spec: Arc<ClusterSpec>,
    ledger: Arc<TrafficLedger>,
    files: Mutex<HashMap<String, FileMeta>>,
    tracer: Tracer,
}

impl Dfs {
    /// A DFS over `spec` with [`DEFAULT_BLOCK_SIZE`] blocks, accounting
    /// into `ledger`. Every write emits a `dfs` `write` instant on
    /// `tracer`.
    pub fn new(spec: Arc<ClusterSpec>, ledger: Arc<TrafficLedger>, tracer: Tracer) -> Self {
        Dfs {
            spec,
            ledger,
            files: Mutex::default(),
            tracer,
        }
    }

    /// The namespace. Every update inserts, removes or swaps one entry and
    /// leaves it valid, so a poisoned lock is recovered: a panic in one
    /// call must not wedge every later one.
    fn files(&self) -> MutexGuard<'_, HashMap<String, FileMeta>> {
        self.files.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cluster this DFS runs on.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The shared traffic ledger.
    pub fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    /// Create `path` with `bytes` of content written from `writer`,
    /// charged to traffic class `class` (use [`TrafficClass::DfsWrite`] for
    /// job output, [`TrafficClass::ModelUpdate`] for model writes —
    /// distinguishing them is how Table II gets its two rows). The write
    /// starts at simulated time `t0`, the caller's clock: the charge is
    /// windowed from there. Returns the simulated seconds the write
    /// pipeline takes.
    pub fn create(
        &self,
        path: &str,
        bytes: u64,
        writer: NodeId,
        class: TrafficClass,
        t0: f64,
    ) -> Result<f64, DfsError> {
        let _hp = hostprof::scope_bytes(Stage::DfsSerialization, bytes);
        if self.files().contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        let n_blocks = bytes.div_ceil(DEFAULT_BLOCK_SIZE).max(1);
        let mut blocks = Vec::with_capacity(n_blocks as usize);
        for b in 0..n_blocks {
            blocks.push(PLACEMENT.place(&self.spec, path, b, writer));
        }
        // Traffic: every byte is written replication× (1 local + the rest
        // over the network, HDFS pipeline). The ledger class receives the
        // *full* replicated volume, matching how Hadoop counters report
        // "bytes written".
        let copies = self.spec.replication.min(self.spec.nodes) as u64;
        let (secs, _net) = transfer::dfs_write(&self.spec, bytes);
        self.ledger.add_over(class, bytes * copies, t0, t0 + secs);
        self.tracer.instant_at(
            "write",
            "dfs",
            t0,
            vec![
                ("path".to_string(), Payload::Str(path.to_string())),
                ("bytes".to_string(), Payload::U64(bytes)),
                ("replicated_bytes".to_string(), Payload::U64(bytes * copies)),
                ("class".to_string(), Payload::Str(class.label().to_string())),
            ],
        );
        self.files().insert(
            path.to_string(),
            FileMeta {
                size: bytes,
                blocks,
            },
        );
        Ok(secs)
    }

    /// Replace `path` (delete + create, starting at `t0`). Model files are
    /// overwritten every iteration, so this is the common write path for
    /// drivers.
    pub fn overwrite(
        &self,
        path: &str,
        bytes: u64,
        writer: NodeId,
        class: TrafficClass,
        t0: f64,
    ) -> f64 {
        self.files().remove(path);
        self.create(path, bytes, writer, class, t0)
            .expect("create after remove cannot collide")
    }

    /// Logical size of `path`.
    pub fn len(&self, path: &str) -> Result<u64, DfsError> {
        self.files()
            .get(path)
            .map(|m| m.size)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files().contains_key(path)
    }

    /// Compute `n` input splits for `path`, each annotated with the hosts
    /// of the block its midpoint falls in.
    pub fn splits(&self, path: &str, n: usize) -> Result<Vec<InputSplit>, DfsError> {
        let files = self.files();
        let meta = files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        let ranges = even_ranges(meta.size, n);
        Ok(ranges
            .into_iter()
            .map(|(offset, len)| {
                let mid = offset + len / 2;
                let block = (mid / DEFAULT_BLOCK_SIZE) as usize;
                let hosts = meta
                    .blocks
                    .get(block.min(meta.blocks.len().saturating_sub(1)))
                    .cloned()
                    .unwrap_or_default();
                InputSplit { offset, len, hosts }
            })
            .collect())
    }

    /// React to `node` crashing at simulated time `at_s`: every block
    /// replica it held is re-replicated onto the lowest-numbered live
    /// node not already holding the block (HDFS re-replication). The
    /// copied bytes are charged to [`TrafficClass::Recovery`] over a
    /// pipeline window starting at `at_s`; like the real thing this runs
    /// in the background, so no simulated time is returned for the
    /// caller to block on. Returns the bytes re-replicated. `dead` lists
    /// every node dead at `at_s` (including `node`) so replacements are
    /// not placed on other casualties.
    pub fn rereplicate_after_crash(&self, node: NodeId, at_s: f64, dead: &[NodeId]) -> u64 {
        let mut moved = 0u64;
        let mut files = self.files();
        for meta in files.values_mut() {
            let mut remaining = meta.size;
            for replicas in &mut meta.blocks {
                let blk = remaining.min(DEFAULT_BLOCK_SIZE);
                remaining -= blk;
                let Some(pos) = replicas.iter().position(|&r| r == node) else {
                    continue;
                };
                let replacement =
                    (0..self.spec.nodes).find(|n| !dead.contains(n) && !replicas.contains(n));
                match replacement {
                    Some(n) => replicas[pos] = n,
                    None => {
                        replicas.swap_remove(pos);
                        continue; // no live node to copy to: replica lost
                    }
                }
                moved += blk;
            }
        }
        drop(files);
        if moved > 0 {
            let secs = transfer::dfs_write(&self.spec, moved).0;
            self.ledger
                .add_over(TrafficClass::Recovery, moved, at_s, at_s + secs);
        }
        // Stamped at the crash time, not the emission clock: the engine
        // assembles jobs with the clock parked at the job start, and this
        // fires while a later phase span is open.
        self.tracer.instant_at(
            "re-replicate",
            "dfs",
            at_s,
            vec![
                ("node".to_string(), Payload::U64(node as u64)),
                ("bytes".to_string(), Payload::U64(moved)),
                ("at_s".to_string(), Payload::F64(at_s)),
            ],
        );
        moved
    }

    /// Full metadata for `path` (used by tests and reports).
    pub fn stat(&self, path: &str) -> Result<FileMeta, DfsError> {
        self.files()
            .get(path)
            .cloned()
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(spec: ClusterSpec) -> (Dfs, Arc<TrafficLedger>) {
        let ledger = Arc::new(TrafficLedger::new());
        let dfs = Dfs::new(Arc::new(spec), Arc::clone(&ledger), Tracer::disabled());
        (dfs, ledger)
    }

    #[test]
    fn create_roundtrip() {
        let (dfs, _l) = mk(ClusterSpec::small());
        let secs = dfs
            .create("/in/points", 1_000_000, 0, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        assert!(secs > 0.0);
        assert!(dfs.exists("/in/points"));
        assert_eq!(dfs.len("/in/points").unwrap(), 1_000_000);
    }

    #[test]
    fn duplicate_create_rejected() {
        let (dfs, _l) = mk(ClusterSpec::small());
        dfs.create("/f", 10, 0, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        assert_eq!(
            dfs.create("/f", 10, 0, TrafficClass::DfsWrite, 0.0),
            Err(DfsError::AlreadyExists("/f".into()))
        );
    }

    #[test]
    fn write_charges_replicated_bytes() {
        let (dfs, l) = mk(ClusterSpec::small()); // replication 3
        dfs.create("/f", 1000, 0, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        assert_eq!(l.get(TrafficClass::DfsWrite), 3000);
    }

    #[test]
    fn write_instant_lands_at_the_callers_start_time() {
        let tracer = Tracer::standalone();
        let ledger = Arc::new(TrafficLedger::traced(tracer.clone()));
        let dfs = Dfs::new(Arc::new(ClusterSpec::small()), ledger, tracer.clone());
        dfs.create("/f", 1000, 0, TrafficClass::DfsWrite, 3.0)
            .unwrap();
        let tr = tracer.trace();
        let at = |cat: &str| tr.instants.iter().find(|i| i.cat == cat).unwrap().t;
        assert_eq!(at("dfs"), 3.0, "the write instant");
        assert_eq!(at("traffic"), 3.0, "its charge");
    }

    #[test]
    fn model_write_charges_model_class() {
        let (dfs, l) = mk(ClusterSpec::small());
        dfs.create("/model", 500, 2, TrafficClass::ModelUpdate, 0.0)
            .unwrap();
        assert_eq!(l.get(TrafficClass::ModelUpdate), 1500);
        assert_eq!(l.get(TrafficClass::DfsWrite), 0);
    }

    #[test]
    fn overwrite_replaces() {
        let (dfs, _l) = mk(ClusterSpec::small());
        dfs.create("/m", 100, 0, TrafficClass::ModelUpdate, 0.0)
            .unwrap();
        dfs.overwrite("/m", 250, 1, TrafficClass::ModelUpdate, 0.0);
        assert_eq!(dfs.len("/m").unwrap(), 250);
    }

    #[test]
    fn multi_block_files_place_every_block() {
        let (dfs, _l) = mk(ClusterSpec::medium());
        let bytes = 9 * DEFAULT_BLOCK_SIZE + 1;
        dfs.create("/big", bytes, 0, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        let meta = dfs.stat("/big").unwrap();
        assert_eq!(meta.blocks.len(), 10);
        for b in &meta.blocks {
            assert_eq!(b.len(), 3);
        }
    }

    #[test]
    fn splits_cover_file_and_carry_hosts() {
        let (dfs, _l) = mk(ClusterSpec::medium());
        dfs.create("/in", 1_000_000, 5, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        let splits = dfs.splits("/in", 8).unwrap();
        assert_eq!(splits.len(), 8);
        let total: u64 = splits.iter().map(|s| s.len).sum();
        assert_eq!(total, 1_000_000);
        for s in &splits {
            assert!(!s.hosts.is_empty());
        }
    }

    #[test]
    fn empty_file_still_has_one_block() {
        let (dfs, _l) = mk(ClusterSpec::small());
        dfs.create("/empty", 0, 0, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        let meta = dfs.stat("/empty").unwrap();
        assert_eq!(meta.blocks.len(), 1);
    }

    #[test]
    fn rereplication_restores_copies_and_charges_recovery() {
        let (dfs, l) = mk(ClusterSpec::small()); // replication 3
        dfs.create("/f", 1000, 0, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        let before = dfs.stat("/f").unwrap();
        let victim = before.blocks[0][0];
        let moved = dfs.rereplicate_after_crash(victim, 5.0, &[victim]);
        assert_eq!(moved, 1000, "the lost replica is copied in full");
        assert_eq!(l.get(TrafficClass::Recovery), 1000);
        let after = dfs.stat("/f").unwrap();
        assert_eq!(after.blocks[0].len(), 3, "replication restored");
        assert!(!after.blocks[0].contains(&victim));
    }

    #[test]
    fn rereplication_skips_nodes_without_replicas() {
        let (dfs, l) = mk(ClusterSpec::small());
        dfs.create("/f", 1000, 0, TrafficClass::DfsWrite, 0.0)
            .unwrap();
        let holders = dfs.stat("/f").unwrap().blocks[0].clone();
        let outsider = (0..6).find(|n| !holders.contains(n)).unwrap();
        assert_eq!(dfs.rereplicate_after_crash(outsider, 1.0, &[outsider]), 0);
        assert_eq!(l.get(TrafficClass::Recovery), 0);
    }
}
