//! # pic-mapreduce — a typed MapReduce engine over a simulated cluster
//!
//! This crate is the Hadoop stand-in the PIC reproduction runs on. It is a
//! *real* MapReduce engine in the algorithmic sense — user `Mapper`s,
//! `Combiner`s, partitioners and `Reducer`s run for real over real data
//! on a rayon thread pool, producing exactly the intermediate key/value
//! pairs and outputs a Hadoop job would — while *placement and timing* are
//! simulated: task durations (analytic per-record costs, [`Timing`]) are
//! replayed onto the cluster's map/reduce slots by the
//! [`pic_simnet::SlotScheduler`], and shuffle / DFS traffic is charged to
//! the byte-exact [`pic_simnet::TrafficLedger`] through the bandwidth
//! models in [`pic_simnet::transfer`].
//!
//! What is faithful to Hadoop 0.20 (the paper's version):
//!
//! * map → combine → partition (hash) → sort → reduce dataflow;
//! * data locality: splits carry replica hosts, the scheduler prefers
//!   node-local, then rack-local placement, and remote tasks pay a network
//!   fetch;
//! * combiners shrink shuffle volume before it is charged; a mapper may
//!   fold its own output first ([`Mapper::map_combined`], Hadoop's
//!   `Mapper.run`) without moving the pre-combiner output counts;
//! * the shuffle overlaps the map phase (the paper grants the baseline
//!   this optimization, §II);
//! * speculative-free, slot-based wave execution with per-task startup
//!   overhead;
//! * re-execution on surviving nodes of the task attempts an injected
//!   node crash (`pic_simnet::chaos::FaultPlan`) kills.
//!
//! What is deliberately *not* modelled: JVM details and disk spill
//! merge-sort passes. The paper's argument is about traffic volume and
//! iteration counts; those are exact here.
//!
//! ## Example: word count
//!
//! ```
//! use pic_mapreduce::traits::{FnMapper, FnReducer};
//! use pic_mapreduce::{Dataset, Engine, JobConfig, MapContext, ReduceContext, Timing};
//! use pic_simnet::ClusterSpec;
//!
//! let engine = Engine::new(ClusterSpec::small());
//! let words: Vec<String> = "a b a c b a".split(' ').map(String::from).collect();
//! let data = Dataset::create(&engine, "/in/words", words, 3);
//!
//! let mapper = FnMapper::new(|w: &String, ctx: &mut MapContext<String, u64>| {
//!     ctx.emit(w.clone(), 1);
//! });
//! let reducer = FnReducer::new(
//!     |w: &String, counts: &[u64], ctx: &mut ReduceContext<(String, u64)>| {
//!         ctx.emit((w.clone(), counts.iter().sum()));
//!     },
//! );
//!
//! let cfg = JobConfig::new("wordcount")
//!     .reducers(2)
//!     .timing(Timing::default_analytic());
//! let result = engine.run(&cfg, &data, &mapper, &reducer);
//!
//! let mut out = result.output;
//! out.sort();
//! assert_eq!(out, vec![("a".into(), 3), ("b".into(), 2), ("c".into(), 1)]);
//! assert!(result.stats.total_time_s > 0.0); // simulated cluster time
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod engine;
pub mod job;
pub mod kv;
pub mod stats;
pub mod traits;

pub use dataset::{Dataset, Split};
pub use engine::Engine;
pub use job::{JobConfig, Timing};
pub use kv::ByteSize;
pub use stats::{JobResult, JobStats};
pub use traits::{bucket_of, Combiner, MapContext, Mapper, ReduceContext, Reducer};
