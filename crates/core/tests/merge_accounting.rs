//! Regression tests for PIC merge-gather traffic accounting.
//!
//! The best-effort loop collects one sub-model per partition and charges
//! the gather to [`TrafficClass::Merge`]. An earlier implementation
//! charged `parts * (total_bytes / parts)` — a truncating mean that lost
//! up to `parts - 1` bytes per round whenever sub-model sizes were
//! uneven. These tests pin the exact byte sum.

use pic_core::prelude::*;
use pic_mapreduce::{ByteSize, Dataset, Engine};
use pic_simnet::traffic::TrafficClass;
use pic_simnet::ClusterSpec;

/// An app whose sub-models deliberately differ in size: partition `p`
/// solves to a `Vec<f64>` of length 2 for the last partition and 1 for
/// the rest, so with 3 partitions the gathered sizes are 12 + 12 + 20 =
/// 44 bytes — not divisible by 3.
struct UnevenModelApp;

impl IterativeApp for UnevenModelApp {
    type Record = f64;
    type Model = Vec<f64>;

    fn name(&self) -> &str {
        "uneven-model"
    }

    fn iterate(
        &self,
        _engine: &Engine,
        _data: &Dataset<f64>,
        model: &Vec<f64>,
        _scope: &IterScope,
    ) -> Vec<f64> {
        model.clone()
    }

    fn converged(&self, _prev: &Vec<f64>, _next: &Vec<f64>) -> bool {
        true
    }

    fn max_iterations(&self) -> usize {
        3
    }
}

impl PicApp for UnevenModelApp {
    fn partition_data(&self, data: &Dataset<f64>, parts: usize) -> Vec<Vec<f64>> {
        partition::chunked(data.iter_records().copied(), parts)
    }

    fn split_model(&self, model: &Vec<f64>, parts: usize) -> Vec<Vec<f64>> {
        vec![model.clone(); parts]
    }

    fn merge(&self, subs: &[Vec<f64>], _prev: &Vec<f64>) -> Vec<f64> {
        subs.concat()
    }

    fn max_be_iterations(&self) -> usize {
        1
    }

    fn solve_local(
        &self,
        part: usize,
        _records: &[f64],
        _model: &Vec<f64>,
        _cap: usize,
    ) -> (Vec<f64>, usize) {
        let len = if part == 2 { 2 } else { 1 };
        (vec![part as f64; len], 1)
    }
}

#[test]
fn merge_gather_charges_exact_byte_sum() {
    let e = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&e, "/acct/uneven", vec![1.0f64; 30], 6);
    let before = e.traffic();
    let r = run_pic(
        &e,
        &UnevenModelApp,
        &data,
        vec![0.0],
        &PicOptions {
            partitions: 3,
            ..Default::default()
        },
    );
    assert_eq!(r.be_iterations, 1);
    let delta = e.traffic().delta_since(&before);

    // Exact sub-model sizes for partitions 0, 1, 2: Vec<f64> encodes as
    // 4-byte length prefix + 8 bytes per element.
    let expected: u64 = [1usize, 1, 2]
        .iter()
        .map(|len| vec![0.0f64; *len].byte_size())
        .sum();
    assert_eq!(expected, 44, "test premise: sizes are 12 + 12 + 20");
    assert_ne!(expected % 3, 0, "test premise: sum must not divide evenly");
    assert_eq!(
        delta.get(TrafficClass::Merge),
        expected,
        "merge gather must charge the exact byte sum, not a truncated mean"
    );
}

#[test]
fn equal_sized_sub_models_unchanged() {
    // With equal sub-model sizes the exact-sum charge coincides with the
    // historical `parts * mean` charge; pin that equivalence.
    struct EqualApp;
    impl IterativeApp for EqualApp {
        type Record = f64;
        type Model = Vec<f64>;
        fn name(&self) -> &str {
            "equal-model"
        }
        fn iterate(
            &self,
            _engine: &Engine,
            _data: &Dataset<f64>,
            model: &Vec<f64>,
            _scope: &IterScope,
        ) -> Vec<f64> {
            model.clone()
        }
        fn converged(&self, _prev: &Vec<f64>, _next: &Vec<f64>) -> bool {
            true
        }
        fn max_iterations(&self) -> usize {
            3
        }
    }

    impl PicApp for EqualApp {
        fn partition_data(&self, data: &Dataset<f64>, parts: usize) -> Vec<Vec<f64>> {
            partition::chunked(data.iter_records().copied(), parts)
        }
        fn split_model(&self, model: &Vec<f64>, parts: usize) -> Vec<Vec<f64>> {
            vec![model.clone(); parts]
        }
        fn merge(&self, subs: &[Vec<f64>], _prev: &Vec<f64>) -> Vec<f64> {
            subs[0].clone()
        }
        fn max_be_iterations(&self) -> usize {
            1
        }
        fn solve_local(
            &self,
            part: usize,
            _records: &[f64],
            _model: &Vec<f64>,
            _cap: usize,
        ) -> (Vec<f64>, usize) {
            (vec![part as f64; 2], 1)
        }
    }

    let e = Engine::new(ClusterSpec::small());
    let data = Dataset::create(&e, "/acct/equal", vec![1.0f64; 30], 6);
    let before = e.traffic();
    let _ = run_pic(
        &e,
        &EqualApp,
        &data,
        vec![0.0],
        &PicOptions {
            partitions: 4,
            ..Default::default()
        },
    );
    let delta = e.traffic().delta_since(&before);
    let each = vec![0.0f64; 2].byte_size(); // 20 bytes
    assert_eq!(delta.get(TrafficClass::Merge), 4 * each);
}
