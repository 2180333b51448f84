//! The metric tables: what `BENCHMARK.json` at the root of the repo declares,
//! by name, unit and direction. A run with `--trace 0` reports exactly
//! [`END_TO_END`]; a run with `--trace 1` reports exactly [`PER_LAYER`].
//!
//! A per-layer metric whose name ends in `_s` and that no workload sets is
//! the self time of the spans of that name, per repetition (per set-up for
//! spans of the set-up); one that a workload does not exercise reads 0.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// A count or a simulated figure: a function of the workload's inputs
    /// alone, so two runs of one seed must report the very same value.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        exact: false,
    }
}

const fn exact(metric: Metric) -> Metric {
    Metric {
        exact: true,
        ..metric
    }
}

pub const END_TO_END: [Metric; 5] = [
    lower("wall_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("setup_s", "s"),
    higher("sim_rate_x", "sim-s/host-s"),
];

pub const PER_LAYER: [Metric; 90] = [
    // Set-up spans: they explain `setup_s`.
    lower("apps.datagen_s", "s"),
    lower("apps.reference_solve_s", "s"),
    lower("mapreduce.dataset_create_s", "s"),
    lower("mapreduce.warmup_job_s", "s"),
    lower("bench.json.baseline_parse_s", "s"),
    lower("bench.tenancy.profiles_s", "s"),
    // The IC and PIC drivers (kmeans_fig2).
    lower("core.run_ic_s", "s"),
    lower("core.run_pic_s", "s"),
    lower("core.snapshot_s", "s"),
    lower("core.ic_ms_per_iteration", "ms"),
    exact(lower("core.ic_iterations", "count")),
    exact(lower("core.pic_be_iterations", "count")),
    exact(lower("core.pic_topoff_iterations", "count")),
    exact(lower("core.pic_local_iterations", "count")),
    exact(lower("core.sim_ic_total_s", "sim-s")),
    exact(lower("core.sim_pic_total_s", "sim-s")),
    exact(higher("core.sim_speedup_x", "x")),
    // The program's own stage registry, summed over the pool's threads.
    lower("hostprof.map_s", "s"),
    lower("hostprof.combine_s", "s"),
    lower("hostprof.partition_s", "s"),
    lower("hostprof.sort_merge_group_s", "s"),
    lower("hostprof.reduce_s", "s"),
    lower("hostprof.shuffle_materialization_s", "s"),
    lower("hostprof.dfs_serialization_s", "s"),
    lower("hostprof.dfs_deserialization_s", "s"),
    lower("hostprof.event_queue_ops_s", "s"),
    lower("hostprof.schedule_s", "s"),
    lower("hostprof.ic_iterate_s", "s"),
    lower("hostprof.pic_solve_s", "s"),
    lower("hostprof.pic_merge_s", "s"),
    exact(lower("hostprof.map_calls", "count")),
    exact(lower("hostprof.map_bytes", "bytes")),
    exact(lower("hostprof.schedule_calls", "count")),
    exact(lower("hostprof.event_queue_ops_calls", "count")),
    // The engine, job by job (shuffle_wide).
    lower("mapreduce.jobs", "count"),
    lower("mapreduce.job_ms_p50", "ms"),
    lower("mapreduce.job_ms_tail", "ms"),
    higher("mapreduce.job_tail_pct", "%"),
    lower("mapreduce.host_map_s", "s"),
    lower("mapreduce.host_partition_s", "s"),
    lower("mapreduce.host_reduce_s", "s"),
    lower("mapreduce.other_s", "s"),
    lower("mapreduce.reset_s", "s"),
    higher("mapreduce.pairs_per_s", "1/s"),
    exact(lower("mapreduce.shuffle_records", "count")),
    exact(lower("mapreduce.map_output_bytes", "bytes")),
    // What the program's own tracer costs and records.
    lower("mapreduce.untraced_job_ms_p50", "ms"),
    lower("simnet.trace.record_overhead_x", "x"),
    exact(lower("simnet.trace.spans", "count")),
    exact(lower("simnet.trace.instants", "count")),
    // Scheduler and event-core micro-probes (every workload).
    lower("simnet.scheduler.schedule_us_per_task", "us"),
    lower("simnet.scheduler.schedule_tenancy_us_per_task", "us"),
    lower("simnet.event.hold_ns_per_op", "ns"),
    lower("simnet.event.heap_hold_ns_per_op", "ns"),
    // The multi-tenant stream (tenancy_stream).
    lower("simnet.tenancy.run_stream_s", "s"),
    lower("simnet.tenancy.report_s", "s"),
    lower("simnet.tenancy.us_per_iteration", "us"),
    higher("simnet.tenancy.jobs_per_s", "1/s"),
    exact(lower("simnet.tenancy.iterations", "count")),
    exact(lower("simnet.tenancy.preemptions", "count")),
    exact(lower("simnet.tenancy.queue_p99_sim_s", "sim-s")),
    exact(lower("simnet.tenancy.makespan_sim_s", "sim-s")),
    // The report suite, stage by stage (suite_regress).
    lower("bench.report.collect_s", "s"),
    lower("bench.report.collect_kmeans_s", "s"),
    lower("bench.report.collect_pagerank_s", "s"),
    lower("bench.report.collect_neuralnet_s", "s"),
    lower("bench.report.collect_linsolve_s", "s"),
    lower("bench.report.collect_smoothing_s", "s"),
    lower("bench.chaos.campaign_s", "s"),
    exact(lower("bench.chaos.cells", "count")),
    lower("bench.tenancy.section_s", "s"),
    lower("simnet.trace.validate_s", "s"),
    lower("bench.report.bench_json_s", "s"),
    lower("bench.report.bench_json_bytes", "bytes"),
    lower("bench.report.csv_emit_s", "s"),
    lower("bench.json.parse_s", "s"),
    higher("bench.json.parse_mb_per_s", "MB/s"),
    lower("bench.json.diff_s", "s"),
    lower("bench.diff.diff_docs_s", "s"),
    // Probes of the derivations `bench_json` performs internally.
    lower("simnet.report.perf_report_s", "s"),
    lower("simnet.timeline.utilization_s", "s"),
    lower("simnet.whatif.sensitivity_s", "s"),
    lower("simnet.monitor.replay_s", "s"),
    lower("simnet.trace.chrome_export_s", "s"),
    // The harness itself.
    lower("harness.reps", "count"),
    lower("harness.rep_wall_s", "s"),
    lower("harness.rep_cpu_s", "s"),
    lower("harness.setup_wall_s", "s"),
    lower("harness.unattributed_s", "s"),
    lower("harness.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use pic_bench::json::{self, Json};

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
        items
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect()
    }

    fn table(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    /// The harness reports exactly what `BENCHMARK.json` declares.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(declared(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), table(&PER_LAYER));
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
        for (w, spec) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(w.get("why").and_then(Json::as_str), Some(spec.why));
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} is declared twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
