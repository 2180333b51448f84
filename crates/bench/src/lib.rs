//! # pic-bench — experiment harness
//!
//! Shared runners used by both the criterion benches and the `pic`
//! binary, whose `repro` command regenerates every table and figure of
//! the paper:
//!
//! ```text
//! cargo run --release -p pic-bench --bin pic -- repro --exp all
//! cargo run --release -p pic-bench --bin pic -- repro --exp fig9 --scale 0.1
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod experiments;
pub mod host_trend;
pub mod json;
pub mod table;
