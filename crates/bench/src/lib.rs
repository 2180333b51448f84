//! # pic-bench — experiment harness
//!
//! The experiment runners behind the `pic` binary, whose `repro`
//! command regenerates every table and figure of the paper:
//!
//! ```text
//! cargo run --release -p pic-bench --bin pic -- repro --exp all
//! cargo run --release -p pic-bench --bin pic -- repro --exp fig9 --scale 0.1
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod diff;
pub mod experiments;
pub mod json;
pub mod table;
