//! Ablations of PIC's design choices (DESIGN.md §5). Not figures from the
//! paper, but the knobs its §III discusses qualitatively, measured.

use super::common::{compare, cost};
use super::ExperimentCtx;
use crate::table::{fmt_secs, fmt_x, Table};
use pic_apps::kmeans::{gaussian_mixture, init_random_centroids, Centroids, KMeansApp};
use pic_apps::pagerank::{block_local_graph, PageRankApp, PartitionMode};
use pic_simnet::{traffic::human_bytes, ClusterSpec};

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

/// One partitioner's row of the PageRank ablation.
struct PartitionerRow {
    name: &'static str,
    /// Fraction of the graph's edges that cross partitions.
    cut: f64,
    /// Mean absolute rank error of PIC's model against a 10-iteration
    /// reference solve.
    rank_error: f64,
    speedup: f64,
}

/// Partitions of the PageRank partitioner ablation.
const PAGERANK_PARTS: usize = 8;

/// Partitioner choice for PageRank (random vs id-blocks vs BFS growth —
/// the paper's METIS discussion, §VI.B): the page count and one row per
/// partitioner.
fn partitioner_sweep(ctx: &ExperimentCtx) -> (usize, [PartitionerRow; 3]) {
    let n = ctx.n(20_000, 1_000);
    let parts = PAGERANK_PARTS;
    let spec = ClusterSpec::small();
    let graph = block_local_graph(n, parts, 2, 8, 0.9, 67);
    let rows = [
        ("random", PartitionMode::Random),
        ("block", PartitionMode::Block),
        ("bfs", PartitionMode::Bfs),
    ]
    .map(|(name, mode)| {
        let app = PageRankApp::new(graph.clone(), parts, mode, 3);
        let reference = app.solve_reference(10);
        let cmp = compare(
            &spec,
            &app,
            graph.records(),
            app.initial_model(),
            24,
            parts,
            cost::pagerank(),
        );
        let rank_error = cmp
            .pic
            .final_model
            .ranks
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / reference.len() as f64;
        PartitionerRow {
            name,
            cut: app.cut_fraction(),
            rank_error,
            speedup: cmp.speedup(),
        }
    });
    (n, rows)
}

/// Renders the rows of `partitioner_sweep`.
pub fn partitioner_choice(ctx: &ExperimentCtx) -> String {
    let (n, rows) = partitioner_sweep(ctx);
    let mut t = Table::new([
        "partitioner",
        "edges cut",
        "rank error vs 10-it ref",
        "speedup",
    ]);
    for r in rows {
        t.row([
            r.name.to_string(),
            format!("{:.1}%", 100.0 * r.cut),
            format!("{:.4}", r.rank_error),
            fmt_x(r.speedup),
        ]);
    }
    format!(
        "Ablation — PageRank partitioner ({n}-page block-local web graph, \
         {PAGERANK_PARTS} partitions)\n\n{}\n\
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
        human_bytes(with.shuffle_bytes),
        fmt_secs(with.total_time_s),
    ]);
    t.row([
        "without combiner".to_string(),
        without.shuffle_records.to_string(),
        human_bytes(without.shuffle_bytes),
        fmt_secs(without.total_time_s),
    ]);
    format!(
        "Ablation — combiner effect on one IC K-means iteration ({n} points)\n\n{}\n\
         note: both variants spill the same raw map output ({}) to local disk — \
         the combiner shrinks only what crosses the network, which is why PIC's \
         savings are additive to it (paper §II grants the baseline combiners).\n",
        t.render(),
        human_bytes(with.map_output_bytes),
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
    let map_secs = cost::kmeans().timing.map_secs;
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

/// One layout's row of the tile-layout ablation.
struct TileRow {
    name: &'static str,
    /// Bytes of all sub-models together, frozen halo included.
    sub_bytes: u64,
    be_iterations: usize,
    topoff_iterations: usize,
    pic_time_s: f64,
}

/// Tiles of the smoothing tile-layout ablation.
const TILES: usize = 16;

/// Strips vs 2-D grid tiles for the image smoother: tile shape controls
/// how much frozen halo every sub-problem carries. Returns the image side
/// and one row per layout.
fn tile_sweep(ctx: &ExperimentCtx) -> (usize, [TileRow; 2]) {
    let parts = TILES;
    use pic_apps::smoothing::{noisy_image, SmoothingApp};
    use pic_core::app::PicApp;
    use pic_mapreduce::ByteSize;
    let side = (256.0 * ctx.scale.sqrt()).max(64.0) as usize;
    let f = noisy_image(side, side, 0.08, 3);
    let spec = ClusterSpec::medium();
    let rows = [("strips", 1usize), ("4x4 grid", 4)].map(|(name, cols)| {
        let app = SmoothingApp::new_grid(side, side, parts, cols, 1e-6);
        let sub_bytes = app
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
        TileRow {
            name,
            sub_bytes,
            be_iterations: cmp.pic.be_iterations,
            topoff_iterations: cmp.pic.topoff_iterations,
            pic_time_s: cmp.pic.total_time_s,
        }
    });
    (side, rows)
}

/// Renders the rows of `tile_sweep`.
pub fn tile_layout(ctx: &ExperimentCtx) -> String {
    let (side, rows) = tile_sweep(ctx);
    let mut t = Table::new([
        "layout",
        "sub-model bytes (halo incl.)",
        "BE iterations",
        "top-off iterations",
        "PIC time",
    ]);
    for r in rows {
        t.row([
            r.name.to_string(),
            human_bytes(r.sub_bytes),
            r.be_iterations.to_string(),
            r.topoff_iterations.to_string(),
            fmt_secs(r.pic_time_s),
        ]);
    }
    format!(
        "Ablation — smoothing tile layout ({side}x{side} image, {TILES} tiles)\n\n{}\n\
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
    fn run_reports_all_five_ablations() {
        let out = run(&ExperimentCtx { scale: 0.02 });
        for heading in [
            "K-means sub-problem count",
            "PageRank partitioner",
            "combiner effect on one IC K-means iteration",
            "smart initializer vs PIC's best-effort phase",
            "smoothing tile layout",
        ] {
            let heading = format!("Ablation — {heading} (");
            assert_eq!(out.matches(&heading).count(), 1, "{heading}\n{out}");
        }
    }

    /// At 1 000 pages: edges cut 8.8 % (block) < 47.6 % (BFS) < 88.1 %
    /// (random), rank error 0.2036 < 0.3990 < 0.4665.
    #[test]
    fn locality_aware_partitioners_cut_fewer_edges_and_land_closer() {
        let (_, [random, block, bfs]) = partitioner_sweep(&ExperimentCtx { scale: 0.02 });
        assert!(block.cut < bfs.cut && bfs.cut < random.cut);
        assert!(block.rank_error < bfs.rank_error && bfs.rank_error < random.rank_error);
    }

    /// At 64×64: the 4×4 grid carries 38.59 KB of sub-models against the
    /// strips' 47.31 KB, and needs 20 best-effort rounds to their 16.
    #[test]
    fn grid_tiles_carry_less_halo_but_need_more_rounds() {
        let (_, [strips, grid]) = tile_sweep(&ExperimentCtx { scale: 0.02 });
        assert!(grid.sub_bytes < strips.sub_bytes);
        assert!(grid.be_iterations >= strips.be_iterations);
    }
}
