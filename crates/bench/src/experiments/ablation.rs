//! Ablations of PIC's design choices (DESIGN.md §5). Not figures from the
//! paper, but the knobs its §III discusses qualitatively, measured.

use super::common::{compare, cost};
use super::ExperimentCtx;
use crate::table::{fmt_bytes, fmt_secs, fmt_x, Table};
use pic_apps::kmeans::{
    gaussian_mixture, init_random_centroids, Centroids, KMeansApp, MergeStrategy,
};
use pic_apps::pagerank::{block_local_graph, PageRankApp, PartitionMode};
use pic_simnet::ClusterSpec;

/// Partition-count sweep (paper §III.B: "more sub-problems of smaller
/// size can increase the number of best-effort iterations").
pub fn partition_count(ctx: &ExperimentCtx) -> String {
    let n = ctx.n(50_000, 2_000);
    let k = 100;
    let spec = ClusterSpec::small();
    let pts = gaussian_mixture(n, k, 3, 1000.0, 8.0, 61);
    let init = Centroids::new(init_random_centroids(k, 3, 1000.0, 13));

    let mut t = Table::new([
        "partitions",
        "speedup",
        "BE iterations",
        "top-off iterations",
        "PIC time",
    ]);
    for parts in [2usize, 6, 12, 24, 48] {
        let app = KMeansApp::new(k, 3, 1.0);
        let cmp = compare(
            &spec,
            &app,
            pts.clone(),
            init.clone(),
            24,
            parts,
            cost::kmeans(),
        );
        t.row([
            parts.to_string(),
            fmt_x(cmp.speedup()),
            cmp.pic.be_iterations.to_string(),
            cmp.pic.topoff_iterations.to_string(),
            fmt_secs(cmp.pic.total_time_s),
        ]);
    }
    format!(
        "Ablation — K-means sub-problem count ({n} points, small cluster)\n\n{}\n\
         expectation: a sweet spot near the cluster's slot count; very few \
         partitions under-parallelize the best-effort phase, very many weaken \
         sub-models and add best-effort iterations.\n",
        t.render()
    )
}

/// Partitioner choice for PageRank (random vs id-blocks vs BFS growth —
/// the paper's METIS discussion, §VI.B).
pub fn partitioner_choice(ctx: &ExperimentCtx) -> String {
    let n = ctx.n(20_000, 1_000);
    let parts = 8;
    let spec = ClusterSpec::small();
    let graph = block_local_graph(n, parts, 2, 8, 0.9, 67);

    let mut t = Table::new([
        "partitioner",
        "edges cut",
        "rank error vs 10-it ref",
        "speedup",
    ]);
    for (name, mode) in [
        ("random", PartitionMode::Random),
        ("block", PartitionMode::Block),
        ("bfs", PartitionMode::Bfs),
    ] {
        let app = PageRankApp::new(graph.clone(), parts, mode, 3);
        let reference = app.solve_reference(10);
        let cut = format!("{:.1}%", 100.0 * app.cut_fraction());
        let cmp = compare(
            &spec,
            &app,
            graph.records(),
            app.initial_model(),
            24,
            parts,
            cost::pagerank(),
        );
        let err: f64 = cmp
            .pic
            .final_model
            .ranks
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / reference.len() as f64;
        t.row([
            name.to_string(),
            cut,
            format!("{err:.4}"),
            fmt_x(cmp.speedup()),
        ]);
    }
    format!(
        "Ablation — PageRank partitioner ({n}-page block-local web graph, \
         {parts} partitions)\n\n{}\n\
         expectation: locality-aware partitioning (block/BFS ≈ METIS) cuts far \
         fewer edges, making sub-problems more independent and the merged model \
         closer to the reference.\n",
        t.render()
    )
}

/// One IC K-means iteration over `n` points run twice: with the
/// combiner the paper grants the baseline, then without.
fn combiner_jobs(n: usize) -> (pic_mapreduce::JobStats, pic_mapreduce::JobStats) {
    let k = 100;
    let engine = pic_mapreduce::Engine::new(ClusterSpec::small());
    let pts = gaussian_mixture(n, k, 3, 1000.0, 8.0, 71);
    let model = Centroids::new(init_random_centroids(k, 3, 1000.0, 17));
    let data = pic_mapreduce::Dataset::create(&engine, "/abl/comb", pts, 24);

    use pic_apps::kmeans::{AssignMapper, AverageReducer, SumCombiner};
    let mapper = AssignMapper::new(&model);
    let cfg = pic_mapreduce::JobConfig::new("with")
        .timing(cost::kmeans().timing)
        .reducers(6);
    let with = engine.run_with_combiner(&cfg, &data, &mapper, &SumCombiner, &AverageReducer);
    let without = engine.run(
        &pic_mapreduce::JobConfig::new("without")
            .timing(cost::kmeans().timing)
            .reducers(6),
        &data,
        &mapper,
        &AverageReducer,
    );
    (with.stats, without.stats)
}

/// Combiner on/off for the IC K-means baseline: how much of the paper's
/// gap survives the optimization it grants the baseline.
pub fn combiner_effect(ctx: &ExperimentCtx) -> String {
    let n = ctx.n(50_000, 2_000);
    let (with, without) = combiner_jobs(n);

    let mut t = Table::new([
        "baseline variant",
        "shuffle records",
        "network shuffle bytes",
        "job time",
    ]);
    t.row([
        "with combiner".to_string(),
        with.shuffle_records.to_string(),
        fmt_bytes(with.shuffle_bytes),
        fmt_secs(with.total_time_s),
    ]);
    t.row([
        "without combiner".to_string(),
        without.shuffle_records.to_string(),
        fmt_bytes(without.shuffle_bytes),
        fmt_secs(without.total_time_s),
    ]);
    format!(
        "Ablation — combiner effect on one IC K-means iteration ({n} points)\n\n{}\n\
         note: both variants spill the same raw map output ({}) to local disk — \
         the combiner shrinks only what crosses the network, which is why PIC's \
         savings are additive to it (paper §II grants the baseline combiners).\n",
        t.render(),
        fmt_bytes(with.map_output_bytes),
    )
}

/// Merge strategy: plain vs count-weighted centroid averaging.
pub fn merge_strategy(ctx: &ExperimentCtx) -> String {
    let n = ctx.n(50_000, 2_000);
    let k = 100;
    let spec = ClusterSpec::small();
    let pts = gaussian_mixture(n, k, 3, 1000.0, 8.0, 73);
    let init = Centroids::new(init_random_centroids(k, 3, 1000.0, 19));

    let mut t = Table::new(["merge", "BE iterations", "top-off iterations", "final SSE"]);
    for (name, strategy) in [
        ("average", MergeStrategy::Average),
        ("weighted", MergeStrategy::WeightedAverage),
    ] {
        let app = KMeansApp::new(k, 3, 1.0).with_merge(strategy);
        let cmp = compare(
            &spec,
            &app,
            pts.clone(),
            init.clone(),
            24,
            24,
            cost::kmeans(),
        );
        let sse = pic_apps::kmeans::sse(&pts, &cmp.pic.final_model);
        t.row([
            name.to_string(),
            cmp.pic.be_iterations.to_string(),
            cmp.pic.topoff_iterations.to_string(),
            format!("{sse:.3e}"),
        ]);
    }
    format!(
        "Ablation — K-means merge strategy ({n} points, 24 partitions)\n\n{}\n\
         expectation: count-weighted averaging recovers the exact global Lloyd \
         update when partition assignments agree, typically trimming an \
         iteration or two; the paper's case study uses the plain average.\n",
        t.render()
    )
}

/// Local-iteration cap: ∞ (run to local convergence) vs tight caps.
pub fn local_cap(ctx: &ExperimentCtx) -> String {
    let n = ctx.n(50_000, 2_000);
    let k = 100;
    let spec = ClusterSpec::small();
    let pts = gaussian_mixture(n, k, 3, 1000.0, 8.0, 79);
    let init = Centroids::new(init_random_centroids(k, 3, 1000.0, 23));

    let mut t = Table::new([
        "local cap",
        "BE iterations",
        "top-off iterations",
        "PIC time",
    ]);
    for cap in [1usize, 3, 10, 50] {
        let app = KMeansApp::new(k, 3, 1.0);
        let ic_engine = pic_mapreduce::Engine::new(spec.clone());
        let data = pic_mapreduce::Dataset::create(&ic_engine, "/abl/lc", pts.clone(), 24);
        ic_engine.reset();
        let r = pic_core::driver::run_pic(
            &ic_engine,
            &app,
            &data,
            init.clone(),
            &pic_core::driver::PicOptions {
                partitions: 24,
                timing: cost::kmeans().timing,
                local_secs_per_record: Some(cost::kmeans().local_secs),
                local_cap: Some(cap),
            },
        );
        t.row([
            cap.to_string(),
            r.be_iterations.to_string(),
            r.topoff_iterations.to_string(),
            fmt_secs(r.total_time_s),
        ]);
    }
    format!(
        "Ablation — local-iteration cap ({n} points, 24 partitions)\n\n{}\n\
         expectation: cap=1 degenerates toward per-iteration synchronization \
         (more best-effort rounds); running to local convergence concentrates \
         work in the cheap local phase.\n",
        t.render()
    )
}

/// Smart initialization vs PIC's best-effort phase. The paper argues that
/// "determining a good initial model, in general, can be as difficult as
/// finding the solution in the first place" and offers the best-effort
/// phase as the cheap alternative; k-means++ is the classic smart
/// initializer, so race them.
pub fn initializer_vs_pic(ctx: &ExperimentCtx) -> String {
    use pic_apps::kmeans::init_kmeanspp;
    let n = ctx.n(50_000, 2_000);
    let k = 100;
    let spec = ClusterSpec::small();
    let pts = gaussian_mixture(n, k, 3, 1000.0, 8.0, 83);
    let rand_init = Centroids::new(init_random_centroids(k, 3, 1000.0, 29));
    let app = KMeansApp::new(k, 3, 1.0);

    // Random init, IC and PIC.
    let cmp = compare(
        &spec,
        &app,
        pts.clone(),
        rand_init.clone(),
        24,
        24,
        cost::kmeans(),
    );

    // k-means++ init + IC. The initializer itself costs cluster time: the
    // scalable k-means|| formulation needs ~5 full passes over the data,
    // charged at the framework rate.
    let engine = pic_mapreduce::Engine::new(spec.clone());
    let data = pic_mapreduce::Dataset::create(&engine, "/abl/pp", pts.clone(), 24);
    engine.reset();
    let pp_init = Centroids::new(init_kmeanspp(&pts, k, 31));
    let passes = 5.0;
    let pic_mapreduce::Timing::PerRecord { map_secs, .. } = cost::kmeans().timing;
    engine.advance(passes * n as f64 * map_secs / spec.map_slots as f64);
    let pp_ic = pic_core::driver::run_ic(
        &engine,
        &app,
        &data,
        pp_init,
        &pic_core::driver::IcOptions {
            timing: cost::kmeans().timing,
            charge_startup: false, // init pass already started the chain
            ..Default::default()
        },
    );
    let pp_total = engine.now();

    let mut t = Table::new([
        "strategy",
        "iterations to converge",
        "total time",
        "final SSE",
    ]);
    t.row([
        "random init + IC".to_string(),
        cmp.ic.iterations.to_string(),
        fmt_secs(cmp.ic.total_time_s),
        format!("{:.3e}", pic_apps::kmeans::sse(&pts, &cmp.ic.final_model)),
    ]);
    t.row([
        "kmeans++ init + IC".to_string(),
        pp_ic.iterations.to_string(),
        fmt_secs(pp_total),
        format!("{:.3e}", pic_apps::kmeans::sse(&pts, &pp_ic.final_model)),
    ]);
    t.row([
        "random init + PIC".to_string(),
        format!(
            "{} BE + {} top-off",
            cmp.pic.be_iterations, cmp.pic.topoff_iterations
        ),
        fmt_secs(cmp.pic.total_time_s),
        format!("{:.3e}", pic_apps::kmeans::sse(&pts, &cmp.pic.final_model)),
    ]);
    format!(
        "Ablation — smart initializer vs PIC's best-effort phase ({n} points, \
         k={k})\n\n{}\n\
         expectation: kmeans++ trims IC iterations but pays initialization \
         passes; PIC's best-effort phase plays the same initializing role \
         while also skipping framework overhead per refinement step.\n",
        t.render()
    )
}

/// Strips vs 2-D grid tiles for the image smoother: tile shape controls
/// how much frozen halo every sub-problem carries.
pub fn tile_layout(ctx: &ExperimentCtx) -> String {
    use pic_apps::smoothing::{noisy_image, SmoothingApp};
    use pic_core::app::PicApp;
    use pic_mapreduce::ByteSize;
    let side = (256.0 * ctx.scale.sqrt()).max(64.0) as usize;
    let parts = 16;
    let f = noisy_image(side, side, 0.08, 3);
    let spec = ClusterSpec::medium();

    let mut t = Table::new([
        "layout",
        "sub-model bytes (halo incl.)",
        "BE iterations",
        "top-off iterations",
        "PIC time",
    ]);
    for (name, cols) in [("strips", 1usize), ("4x4 grid", 4)] {
        let app = SmoothingApp::new_grid(side, side, parts, cols, 1e-6);
        let sub_bytes: u64 = app
            .split_model(&f, parts)
            .iter()
            .map(|m| m.byte_size())
            .sum();
        let cmp = compare(
            &spec,
            &app,
            f.rows(),
            f.clone(),
            parts,
            parts,
            cost::smoothing(side),
        );
        t.row([
            name.to_string(),
            fmt_bytes(sub_bytes),
            cmp.pic.be_iterations.to_string(),
            cmp.pic.topoff_iterations.to_string(),
            fmt_secs(cmp.pic.total_time_s),
        ]);
    }
    format!(
        "Ablation — smoothing tile layout ({side}x{side} image, {parts} tiles)\n\n{}\n\
         expectation: square tiles carry less total halo than strips, but cut \
         both axes, so boundary information crosses more frozen seams per \
         round; both layouts converge to the same unique image.\n",
        t.render()
    )
}

/// All ablations, concatenated.
pub fn run(ctx: &ExperimentCtx) -> String {
    [
        partition_count(ctx),
        partitioner_choice(ctx),
        combiner_effect(ctx),
        merge_strategy(ctx),
        local_cap(ctx),
        initializer_vs_pic(ctx),
        tile_layout(ctx),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combiner_shrinks_network_not_spill() {
        let n = 5_000;
        let (with, without) = combiner_jobs(n);
        // Without the combiner every point ships as its own record; with
        // it (folded in the mapper or not) the spill still counts one raw
        // record per point and the network sees far fewer.
        assert_eq!(without.shuffle_records, n as u64);
        assert_eq!(without.map_output_records, n as u64);
        assert_eq!(with.map_output_records, n as u64);
        assert_eq!(with.map_output_bytes, without.map_output_bytes);
        assert_eq!(without.shuffle_bytes, without.map_output_bytes);
        assert!(with.shuffle_bytes < without.shuffle_bytes);
        assert!(with.shuffle_records < without.shuffle_records);
    }

    /// Every ablation DESIGN.md §5 lists runs, and reports, under
    /// `cargo test`.
    #[test]
    fn run_reports_all_seven_ablations() {
        let out = run(&ExperimentCtx { scale: 0.02 });
        for heading in [
            "K-means sub-problem count",
            "PageRank partitioner",
            "combiner effect on one IC K-means iteration",
            "K-means merge strategy",
            "local-iteration cap",
            "smart initializer vs PIC's best-effort phase",
            "smoothing tile layout",
        ] {
            let heading = format!("Ablation — {heading} (");
            assert_eq!(out.matches(&heading).count(), 1, "{heading}\n{out}");
        }
    }

    #[test]
    fn local_cap_one_needs_more_be_rounds() {
        let n = 5_000;
        let k = 20;
        let pts = gaussian_mixture(n, k, 3, 1000.0, 8.0, 79);
        let init = Centroids::new(init_random_centroids(k, 3, 1000.0, 23));
        let app = KMeansApp::new(k, 3, 1.0);
        let mut rounds = Vec::new();
        for cap in [1usize, 50] {
            let engine = pic_mapreduce::Engine::new(ClusterSpec::small());
            let data = pic_mapreduce::Dataset::create(&engine, "/abl/t", pts.clone(), 12);
            engine.reset();
            let r = pic_core::driver::run_pic(
                &engine,
                &app,
                &data,
                init.clone(),
                &pic_core::driver::PicOptions {
                    partitions: 12,
                    timing: cost::kmeans().timing,
                    local_secs_per_record: Some(cost::kmeans().local_secs),
                    local_cap: Some(cap),
                },
            );
            rounds.push(r.be_iterations);
        }
        assert!(
            rounds[0] >= rounds[1],
            "cap=1 should need at least as many BE rounds: {rounds:?}"
        );
    }
}
