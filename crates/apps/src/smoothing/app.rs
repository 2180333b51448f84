//! The image-smoothing [`IterativeApp`] / [`PicApp`] implementation.

use super::image::{Image, PixelRow};
use pic_core::prelude::*;
use pic_mapreduce::{Dataset, Engine, MapContext, Mapper};

/// Stencil mapper: processes one row `y` of the *input* image `f` and
/// emits the updated row of `u` computed from `u`'s rows `y−1..=y+1`
/// (replicate boundary).
struct StencilMapper<'a> {
    u: &'a Image,
    lambda: f64,
    mu: f64,
}

impl Mapper for StencilMapper<'_> {
    type In = PixelRow;
    type K = u32;
    type V = Vec<f64>;

    fn map(&self, row: &PixelRow, ctx: &mut MapContext<u32, Vec<f64>>) {
        let y = row.y as usize;
        let up = self.u.row(y.saturating_sub(1));
        let mid = self.u.row(y);
        let down = self.u.row((y + 1).min(self.u.h - 1));
        ctx.emit(
            row.y,
            stencil_row(up, mid, down, &row.pix, self.lambda, self.mu),
        );
    }
}

/// One damped-Jacobi screened-Poisson update of a row:
/// `u' = u + λ·Δu + μ·(f − u)` with replicate boundary in x.
fn stencil_row(up: &[f64], mid: &[f64], down: &[f64], f: &[f64], lambda: f64, mu: f64) -> Vec<f64> {
    let w = mid.len();
    (0..w)
        .map(|x| {
            let left = mid[x.saturating_sub(1)];
            let right = mid[(x + 1).min(w - 1)];
            let lap = up[x] + down[x] + left + right - 4.0 * mid[x];
            mid[x] + lambda * lap + mu * (f[x] - mid[x])
        })
        .collect()
}

/// Screened-Poisson image smoothing; the model is the image estimate `u`.
pub struct SmoothingApp {
    /// Image width.
    pub w: usize,
    /// Image height.
    pub h: usize,
    /// Diffusion coefficient λ (stability needs `4λ + μ ≤ 1`).
    pub lambda: f64,
    /// Data-fidelity coefficient μ (> 0 makes the fixed point unique).
    pub mu: f64,
    /// Convergence threshold on the largest pixel change.
    pub threshold: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Reference (fully converged) image for the error metric.
    pub reference: Option<Image>,
    /// Observed (noisy) input image `f`; enables the sweep-residual
    /// quality probe and the error fallback when no reference is set.
    pub observed: Option<Image>,
    parts: usize,
    /// Tile columns; 1 = horizontal strips (the default), >1 = a 2-D
    /// tile grid, which shrinks each sub-problem's halo perimeter.
    cols: usize,
}

/// Split `len` into `n` near-equal contiguous ranges; range `i`.
fn even_range(len: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    let base = len / n;
    let rem = len % n;
    let start = i * base + i.min(rem);
    start..start + base + usize::from(i < rem)
}

impl SmoothingApp {
    /// A smoother for `w × h` images in `parts` horizontal strips.
    pub fn new(w: usize, h: usize, parts: usize, threshold: f64) -> Self {
        Self::new_grid(w, h, parts, 1, threshold)
    }

    /// A smoother with a 2-D tile grid: `parts` tiles in `cols` columns
    /// (`parts % cols == 0`). Grid tiles halve the halo perimeter per
    /// pixel relative to strips once tiles are roughly square — the
    /// natural refinement of the paper's rack-sized sub-problems.
    ///
    /// # Panics
    /// Panics on a geometry that cannot tile the image.
    pub fn new_grid(w: usize, h: usize, parts: usize, cols: usize, threshold: f64) -> Self {
        assert!(
            cols > 0 && parts > 0 && parts.is_multiple_of(cols),
            "parts must be a cols multiple"
        );
        let rows = parts / cols;
        assert!(rows <= h && cols <= w, "more tiles than pixels");
        let app = SmoothingApp {
            w,
            h,
            lambda: 0.2,
            mu: 0.1,
            threshold,
            max_iterations: 400,
            reference: None,
            observed: None,
            parts,
            cols,
        };
        assert!(4.0 * app.lambda + app.mu <= 1.0, "unstable stencil");
        app
    }

    /// Attach the converged reference image.
    pub fn with_reference(mut self, reference: Image) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Attach the observed input image `f`, enabling the sweep-residual
    /// quality indices (and the error metric when no reference is set).
    pub fn with_observed(mut self, observed: Image) -> Self {
        self.observed = Some(observed);
        self
    }

    /// The pixel rectangle owned by tile `p`: `(x range, y range)`.
    pub fn tile_rect(&self, p: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        assert!(p < self.parts, "tile out of range");
        let grid_rows = self.parts / self.cols;
        let pr = p / self.cols;
        let pc = p % self.cols;
        (
            even_range(self.w, self.cols, pc),
            even_range(self.h, grid_rows, pr),
        )
    }

    /// Tile `p`'s rectangle expanded by its halo (clamped at image
    /// borders): the sub-model geometry.
    pub fn halo_rect(&self, p: usize) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let (xr, yr) = self.tile_rect(p);
        (
            xr.start.saturating_sub(1)..(xr.end + 1).min(self.w),
            yr.start.saturating_sub(1)..(yr.end + 1).min(self.h),
        )
    }

    /// One full sequential sweep (used by tests and the reference solver).
    pub fn sequential_sweep(&self, u: &Image, f: &Image) -> Image {
        let mut out = Image::filled(self.w, self.h, 0.0);
        for y in 0..self.h {
            let up = u.row(y.saturating_sub(1));
            let mid = u.row(y);
            let down = u.row((y + 1).min(self.h - 1));
            let new = stencil_row(up, mid, down, f.row(y), self.lambda, self.mu);
            out.pix[y * self.w..(y + 1) * self.w].copy_from_slice(&new);
        }
        out
    }

    /// Solve sequentially to tight convergence — the golden image.
    pub fn solve_reference(&self, f: &Image, cap: usize) -> Image {
        let mut u = f.clone();
        for _ in 0..cap {
            let next = self.sequential_sweep(&u, f);
            let done = next.max_diff(&u) < self.threshold;
            u = next;
            if done {
                break;
            }
        }
        u
    }
}

impl IterativeApp for SmoothingApp {
    type Record = PixelRow;
    type Model = Image;

    fn name(&self) -> &str {
        "smoothing"
    }

    fn iterate(
        &self,
        engine: &Engine,
        data: &Dataset<PixelRow>,
        model: &Image,
        scope: &IterScope,
    ) -> Image {
        // Map-only stencil sweep; the (large) model write is charged by
        // the driver after this returns.
        let res = engine.run_map_only(
            &scope.job("stencil"),
            data,
            &StencilMapper {
                u: model,
                lambda: self.lambda,
                mu: self.mu,
            },
        );
        let mut next = model.clone();
        for (y, row) in res.output {
            let y = y as usize;
            next.pix[y * self.w..(y + 1) * self.w].copy_from_slice(&row);
        }
        next
    }

    fn converged(&self, prev: &Image, next: &Image) -> bool {
        next.max_diff(prev) < self.threshold
    }

    fn error(&self, model: &Image) -> Option<f64> {
        if let Some(r) = &self.reference {
            return Some(model.rms_diff(r));
        }
        // Reference-free fallback: the RMS change of one damped-Jacobi
        // sweep, zero exactly at the screened-Poisson fixed point.
        self.observed
            .as_ref()
            .map(|f| self.sequential_sweep(model, f).rms_diff(model))
    }

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    fn model_fanout(&self) -> pic_core::app::ModelFanout {
        // Each stencil mapper needs only its rows ± one halo row.
        pic_core::app::ModelFanout::Partitioned
    }
}

impl QualityProbe for SmoothingApp {
    /// Per-pixel delta of one sweep — max and RMS of `|u' − u|` — the
    /// distance from the fixed point, computable without a reference.
    fn quality(&self, model: &Image) -> QualitySample {
        let mut indices = Vec::new();
        if let Some(f) = &self.observed {
            let next = self.sequential_sweep(model, f);
            indices.push(("pixel_delta_max", next.max_diff(model)));
            indices.push(("pixel_delta_rms", next.rms_diff(model)));
        }
        QualitySample {
            objective: self.error(model),
            indices,
        }
    }
}

impl PicApp for SmoothingApp {
    fn partition_data(&self, data: &Dataset<PixelRow>, parts: usize) -> Vec<Vec<PixelRow>> {
        assert_eq!(
            parts, self.parts,
            "PicOptions.partitions must match the app"
        );
        // Each tile gets the segments of `f` it owns; full rows for
        // strips, row slices for grid tiles.
        let mut out: Vec<Vec<PixelRow>> = (0..parts).map(|_| Vec::new()).collect();
        for row in data.iter_records() {
            debug_assert_eq!(row.x0, 0, "input rows are full-width");
            for (p, tile) in out.iter_mut().enumerate() {
                let (xr, yr) = self.tile_rect(p);
                if yr.contains(&(row.y as usize)) {
                    tile.push(PixelRow {
                        y: row.y,
                        x0: xr.start as u32,
                        pix: row.pix[xr].to_vec(),
                    });
                }
            }
        }
        out
    }

    fn split_model(&self, model: &Image, parts: usize) -> Vec<Image> {
        assert_eq!(parts, self.parts, "partition count mismatch");
        // Each tile plus one frozen halo pixel on every interior side.
        (0..parts)
            .map(|p| {
                let (xh, yh) = self.halo_rect(p);
                let mut pix = Vec::with_capacity(xh.len() * yh.len());
                for y in yh.clone() {
                    pix.extend_from_slice(&model.pix[y * self.w + xh.start..y * self.w + xh.end]);
                }
                Image {
                    w: xh.len(),
                    h: yh.len(),
                    pix,
                }
            })
            .collect()
    }

    fn merge(&self, subs: &[Image], _prev: &Image) -> Image {
        // Stitch the owned rectangles (skip the halos).
        let mut out = Image::filled(self.w, self.h, 0.0);
        for (p, sub) in subs.iter().enumerate() {
            let (xr, yr) = self.tile_rect(p);
            let (xh, yh) = self.halo_rect(p);
            for y in yr.clone() {
                let ly = y - yh.start;
                let src = ly * sub.w + (xr.start - xh.start);
                out.pix[y * self.w + xr.start..y * self.w + xr.end]
                    .copy_from_slice(&sub.pix[src..src + xr.len()]);
            }
        }
        out
    }

    fn solve_local(
        &self,
        part: usize,
        records: &[PixelRow],
        model: &Image,
        cap: usize,
    ) -> (Image, usize) {
        let (xr, _) = self.tile_rect(part);
        let (xh, yh) = self.halo_rect(part);
        let mut u = model.clone();
        debug_assert_eq!((u.w, u.h), (xh.len(), yh.len()));
        // Whether each side of the sub-image is a frozen halo (interior
        // cut) or the true image border (replicate boundary).
        let x_off = xr.start - xh.start;
        for it in 1..=cap {
            let mut max_change = 0.0f64;
            let mut updates: Vec<(usize, Vec<f64>)> = Vec::with_capacity(records.len());
            for rec in records {
                let ly = rec.y as usize - yh.start;
                debug_assert_eq!(rec.x0 as usize, xr.start);
                debug_assert_eq!(rec.pix.len(), xr.len());
                let mut new = Vec::with_capacity(xr.len());
                for (k, &fv) in rec.pix.iter().enumerate() {
                    let lx = x_off + k;
                    let mid = u.get(lx, ly);
                    let up = u.get(lx, ly.saturating_sub(1));
                    let down = u.get(lx, (ly + 1).min(u.h - 1));
                    let left = u.get(lx.saturating_sub(1), ly);
                    let right = u.get((lx + 1).min(u.w - 1), ly);
                    let lap = up + down + left + right - 4.0 * mid;
                    let v = mid + self.lambda * lap + self.mu * (fv - mid);
                    max_change = max_change.max((v - mid).abs());
                    new.push(v);
                }
                updates.push((ly, new));
            }
            for (ly, new) in updates {
                u.pix[ly * u.w + x_off..ly * u.w + x_off + new.len()].copy_from_slice(&new);
            }
            if max_change < self.threshold {
                return (u, it);
            }
        }
        (u, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoothing::image::noisy_image;
    use pic_simnet::ClusterSpec;

    fn setup(w: usize, h: usize, parts: usize) -> (SmoothingApp, Image) {
        let f = noisy_image(w, h, 0.08, 13);
        (SmoothingApp::new(w, h, parts, 1e-5), f)
    }

    #[test]
    fn mr_iteration_equals_sequential_sweep() {
        let (app, f) = setup(24, 18, 3);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/sm/eq", f.rows(), 6);
        let scope = IterScope::cluster(6, pic_mapreduce::Timing::default_analytic(), 4);
        let via_mr = app.iterate(&engine, &data, &f, &scope);
        let via_seq = app.sequential_sweep(&f, &f);
        assert!(via_mr.max_diff(&via_seq) < 1e-12);
    }

    #[test]
    fn smoothing_reduces_roughness() {
        let (app, f) = setup(32, 32, 4);
        let smooth = app.solve_reference(&f, 500);
        let roughness = |img: &Image| -> f64 {
            let mut acc = 0.0;
            for y in 0..img.h {
                for x in 1..img.w {
                    acc += (img.get(x, y) - img.get(x - 1, y)).powi(2);
                }
            }
            acc
        };
        assert!(roughness(&smooth) < roughness(&f) * 0.8);
    }

    #[test]
    fn ic_converges_to_reference() {
        let (app, f) = setup(20, 16, 4);
        let reference = app.solve_reference(&f, 1000);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/sm/ic", f.rows(), 6);
        let app = app.with_reference(reference.clone());
        let r = run_ic(&engine, &app, &data, f.clone(), &IcOptions::default());
        assert!(r.converged);
        assert!(r.final_model.rms_diff(&reference) < 1e-3);
    }

    #[test]
    fn pic_converges_to_the_same_image() {
        let (app, f) = setup(24, 24, 4);
        let reference = app.solve_reference(&f, 1000);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/sm/pic", f.rows(), 6);
        let app = app.with_reference(reference.clone());
        let r = run_pic(
            &engine,
            &app,
            &data,
            f.clone(),
            &PicOptions {
                partitions: 4,
                ..Default::default()
            },
        );
        assert!(r.topoff_converged);
        assert!(
            r.final_model.rms_diff(&reference) < 1e-3,
            "rms {}",
            r.final_model.rms_diff(&reference)
        );
    }

    #[test]
    fn split_model_carries_halos() {
        let (app, f) = setup(10, 12, 3); // strips of 4 rows
        let subs = app.split_model(&f, 3);
        assert_eq!(subs[0].h, 5, "top strip: 4 rows + bottom halo");
        assert_eq!(subs[1].h, 6, "middle strip: 4 rows + both halos");
        assert_eq!(subs[2].h, 5, "bottom strip: 4 rows + top halo");
        // Halo contents come from the neighbour strip.
        assert_eq!(subs[1].row(0), f.row(3));
        assert_eq!(subs[1].row(5), f.row(8));
    }

    #[test]
    fn merge_stitches_strips_exactly() {
        let (app, f) = setup(8, 9, 3);
        let subs = app.split_model(&f, 3);
        let merged = app.merge(&subs, &f);
        assert!(merged.max_diff(&f) < 1e-15, "split+merge must be identity");
    }

    #[test]
    fn local_solve_freezes_halos() {
        let (app, f) = setup(12, 12, 3);
        let engine = Engine::new(ClusterSpec::small());
        let data = Dataset::create(&engine, "/sm/halo", f.rows(), 4);
        let parts = app.partition_data(&data, 3);
        let subs = app.split_model(&f, 3);
        let (solved, iters) = app.solve_local(1, &parts[1], &subs[1], 50);
        assert!(iters >= 1);
        assert_eq!(solved.row(0), subs[1].row(0), "top halo frozen");
        assert_eq!(
            solved.row(solved.h - 1),
            subs[1].row(subs[1].h - 1),
            "bottom halo frozen"
        );
        assert_ne!(solved.row(2), subs[1].row(2), "owned rows updated");
    }

    #[test]
    fn model_is_the_large_object() {
        // The smoothing model (the image) dwarfs the other apps' models —
        // the property the paper's model-update bottleneck needs.
        use pic_mapreduce::ByteSize;
        let (_, f) = setup(64, 64, 4);
        assert!(f.byte_size() > 30_000);
    }
}

#[cfg(test)]
mod grid_tests {
    use super::*;
    use crate::smoothing::image::noisy_image;
    use pic_mapreduce::Dataset;
    use pic_mapreduce::Engine;
    use pic_simnet::ClusterSpec;

    #[test]
    fn grid_tiles_cover_the_image_disjointly() {
        let app = SmoothingApp::new_grid(20, 12, 6, 3, 1e-5);
        let mut covered = vec![false; 20 * 12];
        for p in 0..6 {
            let (xr, yr) = app.tile_rect(p);
            for y in yr {
                for x in xr.clone() {
                    assert!(!covered[y * 20 + x], "pixel ({x},{y}) covered twice");
                    covered[y * 20 + x] = true;
                }
            }
        }
        assert!(
            covered.into_iter().all(|c| c),
            "every pixel owned by a tile"
        );
    }

    #[test]
    fn grid_split_then_merge_is_identity() {
        let app = SmoothingApp::new_grid(18, 18, 9, 3, 1e-5);
        let f = noisy_image(18, 18, 0.05, 3);
        let subs = app.split_model(&f, 9);
        let merged = app.merge(&subs, &f);
        assert!(merged.max_diff(&f) < 1e-15);
    }

    #[test]
    fn grid_halos_shrink_sub_model_bytes_vs_strips() {
        use pic_mapreduce::ByteSize;
        // 64×64 image, 16 partitions: strips carry full-width halos; a
        // 4×4 grid carries per-tile perimeters — less total halo area.
        let f = noisy_image(64, 64, 0.05, 5);
        let strips = SmoothingApp::new(64, 64, 16, 1e-5);
        let grid = SmoothingApp::new_grid(64, 64, 16, 4, 1e-5);
        let strip_bytes: u64 = strips
            .split_model(&f, 16)
            .iter()
            .map(|m| m.byte_size())
            .sum();
        let grid_bytes: u64 = grid.split_model(&f, 16).iter().map(|m| m.byte_size()).sum();
        assert!(
            grid_bytes < strip_bytes,
            "grid {grid_bytes} should carry less halo than strips {strip_bytes}"
        );
    }

    #[test]
    fn grid_pic_converges_to_the_same_image_as_strips() {
        let f = noisy_image(24, 24, 0.08, 7);
        let reference = SmoothingApp::new(24, 24, 4, 1e-6).solve_reference(&f, 2000);
        for app in [
            SmoothingApp::new(24, 24, 4, 1e-6),
            SmoothingApp::new_grid(24, 24, 4, 2, 1e-6),
        ] {
            let engine = Engine::new(ClusterSpec::small());
            let data = Dataset::create(&engine, "/sm/grid", f.rows(), 8);
            let r = run_pic(
                &engine,
                &app,
                &data,
                f.clone(),
                &PicOptions {
                    partitions: 4,
                    ..Default::default()
                },
            );
            assert!(r.topoff_converged);
            assert!(
                r.final_model.rms_diff(&reference) < 1e-4,
                "layout-independent fixed point (rms {})",
                r.final_model.rms_diff(&reference)
            );
        }
    }

    #[test]
    #[should_panic(expected = "cols multiple")]
    fn ragged_grid_rejected() {
        SmoothingApp::new_grid(16, 16, 7, 3, 1e-5);
    }
}
