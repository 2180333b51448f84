//! The host-performance trend file behind `BENCH_host.csv`.
//!
//! [`measure`] runs a fixed profiling workload (the k-means comparison at
//! a small scale) `reps` times with the DESIGN.md §14 host profiler
//! enabled and reduces the per-stage registry snapshots to one row per
//! stage: call count, bytes, **median** total seconds across repetitions,
//! and the stage's share of the summed medians. Medians plus shares are
//! what make the file a useful trend across machines: absolute
//! nanoseconds differ per host, but *where the time goes* is stable.
//!
//! [`check`] is the CI gate: call counts and bytes are deterministic
//! functions of the workload and compare exactly (on any pool width —
//! splits, partitions, and event counts do not depend on thread count),
//! while time shares compare within a generous noise band
//! ([`SHARE_BAND`] absolute by default).

use crate::experiments::{report as perf, ExperimentCtx};
use crate::table::{csv_doc, csv_parse};
use pic_simnet::hostprof;
use pic_simnet::report::fmt_f64;

/// Header of `BENCH_host.csv`.
pub const CSV_HEADER: &str = "stage,calls,bytes,median_total_s,share";

/// Default absolute tolerance on a stage's share of total host time.
/// Generous on purpose: the gate exists to catch order-of-magnitude
/// cliffs (a stage doubling its share), not scheduler jitter.
pub const SHARE_BAND: f64 = 0.25;

/// One `BENCH_host.csv` row.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage label (snake_case, from `hostprof::Stage::label`).
    pub stage: String,
    /// Invocations per single repetition (identical across reps).
    pub calls: u64,
    /// Bytes attributed per single repetition.
    pub bytes: u64,
    /// Median across repetitions of the stage's summed host seconds.
    pub median_total_s: f64,
    /// This stage's fraction of the summed medians, in `[0, 1]`.
    pub share: f64,
}

fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(n - 1) / 2],
    }
}

/// Run the trend workload `reps` times with profiling enabled and reduce
/// to per-stage rows. Flips the global profiler; the caller must ensure
/// no concurrent engine work is running (binaries are fine, parallel
/// test harnesses need a lock).
pub fn measure(scale: f64, reps: usize) -> Result<Vec<StageRow>, String> {
    if reps == 0 {
        return Err("reps must be positive".into());
    }
    let ctx = ExperimentCtx { scale };
    let mut profiles = Vec::with_capacity(reps);
    for _ in 0..reps {
        hostprof::reset();
        hostprof::enable();
        let run = perf::collect(&ctx, &["kmeans"]);
        hostprof::disable();
        run?;
        profiles.push(hostprof::snapshot());
    }

    let first = &profiles[0];
    let mut rows = Vec::with_capacity(first.stages.len());
    for s in &first.stages {
        let mut totals = Vec::with_capacity(reps);
        for p in &profiles {
            let Some(ps) = p.get(s.stage) else {
                return Err(format!(
                    "stage '{}' recorded in one repetition but not another — \
                     the trend workload is expected to be deterministic",
                    s.stage.label()
                ));
            };
            if ps.calls != s.calls || ps.bytes != s.bytes {
                return Err(format!(
                    "stage '{}' calls/bytes vary across repetitions \
                     ({}/{} vs {}/{}) — workload is not deterministic",
                    s.stage.label(),
                    s.calls,
                    s.bytes,
                    ps.calls,
                    ps.bytes
                ));
            }
            totals.push(ps.total_s);
        }
        totals.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        rows.push(StageRow {
            stage: s.stage.label().to_string(),
            calls: s.calls,
            bytes: s.bytes,
            median_total_s: median(&totals),
            share: 0.0,
        });
    }
    let sum: f64 = rows.iter().map(|r| r.median_total_s).sum();
    if sum > 0.0 {
        for r in &mut rows {
            r.share = r.median_total_s / sum;
        }
    }
    Ok(rows)
}

/// Serialize rows as the committed CSV document.
pub fn to_csv(rows: &[StageRow]) -> String {
    let records = rows.iter().map(|r| {
        [
            r.stage.clone(),
            r.calls.to_string(),
            r.bytes.to_string(),
            fmt_f64(r.median_total_s),
            fmt_f64(r.share),
        ]
    });
    csv_doc(CSV_HEADER, records)
}

/// Parse a `BENCH_host.csv` document back into rows.
pub fn from_csv(doc: &str) -> Result<Vec<StageRow>, String> {
    let records = csv_parse(doc)?;
    let mut it = records.into_iter();
    match it.next() {
        Some(h) if h.join(",") == CSV_HEADER => {}
        other => {
            return Err(format!(
                "bad header: expected '{CSV_HEADER}', got {other:?}"
            ))
        }
    }
    let mut rows = Vec::new();
    for rec in it {
        if rec.len() != 5 {
            return Err(format!("bad row (want 5 fields): {rec:?}"));
        }
        rows.push(StageRow {
            stage: rec[0].clone(),
            calls: rec[1].parse().map_err(|_| format!("bad calls: {rec:?}"))?,
            bytes: rec[2].parse().map_err(|_| format!("bad bytes: {rec:?}"))?,
            median_total_s: rec[3]
                .parse()
                .map_err(|_| format!("bad median_total_s: {rec:?}"))?,
            share: rec[4].parse().map_err(|_| format!("bad share: {rec:?}"))?,
        });
    }
    Ok(rows)
}

/// Gate a fresh measurement against the committed baseline. Returns one
/// message per violation (empty = pass): stage sets must match, calls
/// and bytes exactly, shares within ±`share_band` absolute.
pub fn check(baseline: &[StageRow], fresh: &[StageRow], share_band: f64) -> Vec<String> {
    let mut errs = Vec::new();
    for b in baseline {
        let Some(f) = fresh.iter().find(|f| f.stage == b.stage) else {
            errs.push(format!("stage '{}' in baseline but not fresh run", b.stage));
            continue;
        };
        if f.calls != b.calls {
            errs.push(format!(
                "stage '{}': calls {} != baseline {}",
                b.stage, f.calls, b.calls
            ));
        }
        if f.bytes != b.bytes {
            errs.push(format!(
                "stage '{}': bytes {} != baseline {}",
                b.stage, f.bytes, b.bytes
            ));
        }
        let drift = (f.share - b.share).abs();
        if drift > share_band {
            errs.push(format!(
                "stage '{}': share {:.3} drifted {:.3} from baseline {:.3} (band {:.3})",
                b.stage, f.share, drift, b.share, share_band
            ));
        }
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.stage == f.stage) {
            errs.push(format!("stage '{}' in fresh run but not baseline", f.stage));
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(stage: &str, calls: u64, bytes: u64, t: f64, share: f64) -> StageRow {
        StageRow {
            stage: stage.to_string(),
            calls,
            bytes,
            median_total_s: t,
            share,
        }
    }

    #[test]
    fn csv_round_trips() {
        let rows = vec![
            row("map", 12, 4096, 0.25, 0.5),
            row("reduce", 3, 0, 0.25, 0.5),
        ];
        let doc = to_csv(&rows);
        assert!(doc.starts_with(CSV_HEADER));
        assert_eq!(from_csv(&doc).unwrap(), rows);
        assert!(from_csv("nope\n").is_err());
    }

    #[test]
    fn gate_flags_calls_bytes_and_share_cliffs() {
        let base = vec![
            row("map", 12, 4096, 0.6, 0.6),
            row("reduce", 3, 0, 0.4, 0.4),
        ];
        assert!(check(&base, &base, SHARE_BAND).is_empty());

        // Jitter inside the band passes.
        let jitter = vec![
            row("map", 12, 4096, 0.7, 0.64),
            row("reduce", 3, 0, 0.4, 0.36),
        ];
        assert!(check(&base, &jitter, SHARE_BAND).is_empty());

        // A share cliff, a call-count change, and a byte change all fail.
        let cliff = vec![
            row("map", 13, 4097, 0.1, 0.1),
            row("reduce", 3, 0, 0.9, 0.9),
        ];
        let errs = check(&base, &cliff, SHARE_BAND);
        assert_eq!(errs.len(), 4, "{errs:?}");

        // Stage-set drift fails in both directions (shares kept inside
        // the band so the set mismatch is the only violation).
        let missing = vec![row("map", 12, 4096, 1.0, 0.6)];
        assert_eq!(check(&base, &missing, SHARE_BAND).len(), 1);
        assert_eq!(check(&missing, &base, SHARE_BAND).len(), 1);
    }
}
