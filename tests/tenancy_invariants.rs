//! Multi-tenant stream invariants (DESIGN.md §13), at the integration
//! level: the full profile-derivation → arrival-generation → cluster-
//! scheduler pipeline.
//!
//! * Determinism: the same seed must produce a byte-identical
//!   `TenancyReport` JSON no matter how wide the rayon pool running the
//!   profile derivation is.
//! * Exactness: every tenant's converged model must be bit-identical to
//!   its solo run — contention re-times iterations, it never re-computes
//!   them.
//! * Sanity: per-job rows must be monotone (arrive ≤ admit ≤ finish) with
//!   non-negative queueing delay.

use pic_bench::experiments::tenancy::{self, DriverMix, STREAM_JOBS};
use pic_bench::experiments::ExperimentCtx;

const _: () = assert!(
    STREAM_JOBS >= 16,
    "the acceptance stream is at least 16 jobs"
);

fn small_ctx() -> ExperimentCtx {
    ExperimentCtx { scale: 0.01 }
}

/// ≥16-job mixed IC/PIC stream at the 1k-node preset: byte-identical
/// report JSON across pool widths, and the packing comparison built from
/// profiles whose repeat solo runs reproduced their models exactly.
#[test]
fn mixed_stream_is_pool_width_independent_and_models_exact() {
    let ctx = small_ctx();
    let run = || {
        let set = tenancy::profiles(&ctx).expect("profiles");
        let report = tenancy::stream(DriverMix::Mixed, &set);
        (tenancy::models_exact(&set), report.to_json(0))
    };

    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool");
    let (exact_1, json_1) = serial_pool.install(run);
    let (exact_n, json_n) = run(); // default-width pool

    assert!(exact_1, "every solo rerun must reproduce its model exactly");
    assert!(exact_n, "every solo rerun must reproduce its model exactly");
    assert_eq!(
        json_1, json_n,
        "TenancyReport JSON must not depend on rayon pool width"
    );
}

/// Row-level sanity on the default stream: 16 rows, monotone times,
/// non-negative queueing, grants within requests.
#[test]
fn stream_rows_are_monotone_and_within_grants() {
    let ctx = small_ctx();
    let set = tenancy::profiles(&ctx).expect("profiles");
    let report = tenancy::stream(DriverMix::Mixed, &set);

    assert_eq!(report.rows.len(), STREAM_JOBS);
    for r in &report.rows {
        assert!(
            r.arrival_s <= r.admitted_s && r.admitted_s <= r.finish_s,
            "job {}: times must be monotone (arrive {} admit {} finish {})",
            r.id,
            r.arrival_s,
            r.admitted_s,
            r.finish_s
        );
        assert!(r.queue_delay_s >= 0.0, "job {}: negative queueing", r.id);
        assert!(r.tt_quality_s >= 0.0, "job {}: negative tt-quality", r.id);
        assert!(r.contention_s >= 0.0, "job {}: negative contention", r.id);
        assert!(
            r.granted_nodes >= 1 && r.granted_nodes <= r.requested_nodes,
            "job {}: grant {} outside 1..={}",
            r.id,
            r.granted_nodes,
            r.requested_nodes
        );
        assert!(report.makespan_s >= r.finish_s, "makespan covers every job");
    }
}
