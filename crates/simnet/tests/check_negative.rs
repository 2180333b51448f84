//! Negative-path coverage for `pic_simnet::trace::check`: each structural
//! invariant is violated on purpose with a hand-corrupted trace and the
//! resulting diagnostic string is pinned. The positive paths are covered
//! by the driver integration suites; these tests exist so a refactor of
//! the checkers cannot silently turn them into no-ops.

use pic_simnet::trace::{check, Tracer};
use pic_simnet::{TrafficClass, TrafficLedger, TrafficSnapshot};

/// One line of `errs` must contain every fragment, in any position.
fn assert_violation(errs: &[String], fragments: &[&str]) {
    assert!(
        errs.iter().any(|e| fragments.iter().all(|f| e.contains(f))),
        "no violation line contains all of {fragments:?}; got: {errs:#?}"
    );
}

#[test]
fn well_formed_trace_passes_every_check() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "job", 0.0);
    tracer.span_at_in("map-slot-0", "t1", "task", 1.0, 4.0, vec![]);
    tracer.span_at_in("map-slot-0", "t2", "task", 4.0, 6.0, vec![]);
    tracer.instant_at("launch", "sched", 2.0, vec![]);
    tracer.end_at(root, 10.0);
    let trace = tracer.trace();
    assert!(check::validate(&trace, &TrafficSnapshot::default()).is_ok());
}

#[test]
fn span_ending_before_it_starts_is_reported() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "job", 0.0);
    tracer.end_at(root, 10.0);
    let mut trace = tracer.trace();
    trace.spans[0].t1 = -1.0;
    let errs = check::spans_nest(&trace).unwrap_err();
    assert_violation(&errs, &["span ends before it starts: job:root"]);
}

#[test]
fn child_escaping_parent_window_is_reported() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "job", 0.0);
    // Recorded while `root` is on the stack, so it becomes a child —
    // but its window runs past the parent's end.
    tracer.span_at("late", "phase", 8.0, 12.0, vec![]);
    tracer.end_at(root, 10.0);
    let errs = check::spans_nest(&tracer.trace()).unwrap_err();
    assert_violation(
        &errs,
        &[
            "span escapes parent: child phase:late",
            "not inside parent job:root",
        ],
    );
}

#[test]
fn instant_escaping_parent_window_is_reported() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "job", 0.0);
    tracer.instant_at("tick", "sched", 11.0, vec![]);
    tracer.end_at(root, 10.0);
    let errs = check::spans_nest(&tracer.trace()).unwrap_err();
    assert_violation(
        &errs,
        &[
            "instant escapes parent: sched:tick at 11.000000",
            "job:root",
        ],
    );
}

#[test]
fn overlapping_tasks_on_one_slot_lane_are_reported() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "job", 0.0);
    tracer.span_at_in("map-slot-0", "t1", "task", 1.0, 4.0, vec![]);
    tracer.span_at_in("map-slot-0", "t2", "task", 3.0, 6.0, vec![]);
    // A different lane may overlap freely.
    tracer.span_at_in("map-slot-1", "t3", "task", 1.0, 6.0, vec![]);
    tracer.end_at(root, 10.0);
    let errs = check::no_overlap_per_slot(&tracer.trace()).unwrap_err();
    assert_eq!(errs.len(), 1, "{errs:#?}");
    assert_violation(
        &errs,
        &[
            "slot lane map-slot-0 runs two tasks at once:",
            "task:t1",
            "overlaps task:t2",
        ],
    );
}

#[test]
fn byte_attribution_mismatch_is_reported_per_class() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "job", 0.0);
    let traced = TrafficLedger::traced(tracer.clone());
    traced.add_over(TrafficClass::Merge, 100, 1.0, 1.0);
    tracer.end_at(root, 10.0);
    let trace = tracer.trace();

    // The ledger the trace is checked against disagrees in two classes:
    // merge was recorded as 37 (trace says 100) and dfs-read as 50
    // (trace has no such instant at all).
    let wrong = TrafficLedger::new();
    wrong.add_over(TrafficClass::Merge, 37, 0.0, 0.0);
    wrong.add_over(TrafficClass::DfsRead, 50, 0.0, 0.0);
    let errs = check::bytes_attributed(&trace, &wrong.snapshot()).unwrap_err();
    assert_eq!(errs.len(), 2, "{errs:#?}");
    assert_violation(
        &errs,
        &["class merge: trace attributes 100 bytes, ledger recorded 37"],
    );
    assert_violation(
        &errs,
        &["class dfs-read: trace attributes 0 bytes, ledger recorded 50"],
    );

    // The matching ledger reconciles exactly.
    assert!(check::bytes_attributed(&trace, &traced.snapshot()).is_ok());
}

#[test]
fn topoff_starting_before_last_be_iteration_is_reported() {
    let tracer = Tracer::standalone();
    let be = tracer.begin_at("be-1", "be-iteration", 0.0);
    tracer.end_at(be, 10.0);
    let topoff = tracer.begin_at("topoff-1", "topoff", 5.0);
    tracer.end_at(topoff, 7.0);
    let errs = check::span_order(&tracer.trace(), "be-iteration", "topoff").unwrap_err();
    assert_violation(
        &errs,
        &[
            "topoff span starts at 5.000000",
            "before the last be-iteration span ends at 10.000000",
        ],
    );
}

#[test]
fn orphan_quality_sample_is_reported() {
    let tracer = Tracer::standalone();
    // No span on the stack: the sample has no enclosing iteration.
    tracer.instant_at("sample", "quality", 1.0, vec![]);
    let errs = check::quality_samples(&tracer.trace()).unwrap_err();
    assert_violation(&errs, &["quality sample at 1.000000 has no enclosing span"]);
}

#[test]
fn quality_sample_under_non_iteration_span_is_reported() {
    let tracer = Tracer::standalone();
    let merge = tracer.begin_at("merge", "merge", 0.0);
    tracer.instant_at("sample", "quality", 1.0, vec![]);
    tracer.end_at(merge, 2.0);
    let errs = check::quality_samples(&tracer.trace()).unwrap_err();
    assert_violation(
        &errs,
        &[
            "quality sample at 1.000000 parents to a non-iteration span",
            "merge:merge",
        ],
    );
}

#[test]
fn quality_sample_outside_its_iteration_window_is_reported() {
    let tracer = Tracer::standalone();
    let it = tracer.begin_at("ic-1", "ic", 0.0);
    tracer.instant_at("sample", "quality", 7.0, vec![]);
    tracer.end_at(it, 5.0);
    let errs = check::quality_samples(&tracer.trace()).unwrap_err();
    assert_violation(
        &errs,
        &[
            "quality sample at 7.000000 outside its iteration span",
            "ic:ic-1",
        ],
    );
}

#[test]
fn non_monotone_quality_samples_are_reported() {
    let tracer = Tracer::standalone();
    let be = tracer.begin_at("be-1", "be-iteration", 0.0);
    tracer.instant_at("sample", "quality", 3.0, vec![]);
    tracer.instant_at("sample", "quality", 3.0, vec![]);
    tracer.end_at(be, 5.0);
    let errs = check::quality_samples(&tracer.trace()).unwrap_err();
    assert_violation(
        &errs,
        &["quality samples not strictly monotone: 3.000000 after 3.000000"],
    );
}

#[test]
fn validate_aggregates_violations_from_every_checker() {
    let tracer = Tracer::standalone();
    let root = tracer.begin_at("root", "job", 0.0);
    tracer.span_at("late", "phase", 8.0, 12.0, vec![]);
    tracer.span_at_in("red-slot-2", "r1", "task", 1.0, 4.0, vec![]);
    tracer.span_at_in("red-slot-2", "r2", "task", 2.0, 5.0, vec![]);
    tracer.end_at(root, 10.0);
    let ledger = TrafficLedger::new();
    ledger.add_over(TrafficClass::ModelUpdate, 9, 0.0, 0.0);
    let errs = check::validate(&tracer.trace(), &ledger.snapshot()).unwrap_err();
    assert_violation(&errs, &["span escapes parent"]);
    assert_violation(&errs, &["slot lane red-slot-2 runs two tasks at once"]);
    assert_violation(&errs, &["class model-update"]);
}
