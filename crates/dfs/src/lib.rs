//! # pic-dfs — simulated replicated distributed file system
//!
//! Stand-in for HDFS in the PIC reproduction. The paper's second bottleneck
//! is *model updates*: "the model is stored in the cluster file system with
//! replicas (for fault tolerance), hence the performance impact of frequent
//! model updates is significant" (§II). To charge that cost faithfully we
//! model exactly the parts of HDFS that matter to it:
//!
//! * a flat namespace of files made of fixed-size **blocks**;
//! * **replica placement** following the HDFS default policy (first replica
//!   on the writer's node, second on a different node in the same rack,
//!   third in a different rack), deterministic per path;
//! * byte-exact **write accounting** into a shared
//!   [`pic_simnet::TrafficLedger`] (writes cost `replication ×` bytes of
//!   which `replication − 1` cross the network);
//! * **input splits** with replica host lists, which the MapReduce engine
//!   feeds to the slot scheduler for locality-aware placement. Reads have
//!   no path here: the scheduler prices a non-local read's time and the
//!   engine charges its bytes.
//!
//! File *contents* are not stored — application data lives in typed memory
//! inside the engine. The DFS tracks sizes and placement, which is all the
//! time/traffic models need.

#![warn(missing_docs)]

pub mod namespace;
pub mod placement;
pub mod split;

pub use namespace::{Dfs, DfsError, FileMeta};
pub use placement::BlockPlacement;
pub use split::InputSplit;

/// Default HDFS block size of the Hadoop 0.20 era: 64 MiB.
pub const DEFAULT_BLOCK_SIZE: u64 = 64 * 1024 * 1024;
