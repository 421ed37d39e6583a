//! Verlet neighbour list with cell-list construction.
//!
//! The list stores all non-excluded pairs within `cutoff + skin` and is
//! rebuilt only when some particle has moved more than `skin / 2` since the
//! last build — the standard Verlet-buffer scheme used by Gromacs. For
//! periodic boxes large enough to hold a 3×3×3 cell grid the build is O(N)
//! via binning; otherwise it falls back to the exact O(N²) double loop
//! (always correct, and faster for the small coarse-grained systems).
//!
//! The cell path bins particles with a counting sort into contiguous
//! per-cell slabs (`sorted_pos` / `order`), so the candidate sweep streams
//! dense position arrays instead of chasing linked-list pointers. Distance
//! filtering over a slab runs four candidates at a time on AVX2
//! ([`filter_slab_avx2`]), with a scalar fallback that performs the same
//! arithmetic; accepted candidates are then exclusion-checked and emitted.
//!
//! Above [`NeighborList::set_parallel_threshold`] particles the cell-list
//! pair emission is striped over threads ([`crate::stripes`]): the build
//! cuts the flattened cell index range into one stripe per hardware thread
//! and concatenates the per-stripe pair vectors *in stripe order*, so the
//! resulting pair list is byte-identical to the serial build whatever the
//! stripe count. (The per-step displacement check stays serial: it costs
//! less than starting a thread until far beyond 10⁴ particles.)

use crate::pbc::SimBox;
use crate::stripes;
use crate::topology::Topology;
use crate::vec3::{v3, Vec3};

/// Particle count above which the list build is striped over threads.
pub const DEFAULT_PARALLEL_BUILD_THRESHOLD: usize = 2000;

/// Pair list with automatic rebuild tracking.
#[derive(Debug, Clone)]
pub struct NeighborList {
    cutoff: f64,
    skin: f64,
    pairs: Vec<(u32, u32)>,
    ref_positions: Vec<Vec3>,
    n_builds: u64,
    n_updates: u64,
    /// Minimum particle count before builds go parallel.
    par_threshold: usize,
}

impl NeighborList {
    /// `cutoff` is the interaction cutoff; `skin` the Verlet buffer width.
    pub fn new(cutoff: f64, skin: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive, got {cutoff}");
        assert!(skin >= 0.0, "skin must be non-negative, got {skin}");
        NeighborList {
            cutoff,
            skin,
            pairs: Vec::new(),
            ref_positions: Vec::new(),
            n_builds: 0,
            n_updates: 0,
            par_threshold: DEFAULT_PARALLEL_BUILD_THRESHOLD,
        }
    }

    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// Particle count above which the build is striped over threads. `usize::MAX` disables threading entirely; `0` forces it
    /// (useful in tests).
    pub fn set_parallel_threshold(&mut self, threshold: usize) -> &mut Self {
        self.par_threshold = threshold;
        self
    }

    /// The pair list from the last build. Pairs are `(i, j)` with `i < j`.
    /// Distances are guaranteed ≤ `cutoff + skin` *at build time*; callers
    /// must still apply the true cutoff when evaluating interactions.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// How many times the list has been (re)built.
    pub fn n_builds(&self) -> u64 {
        self.n_builds
    }

    /// How many times `update` has been called.
    pub fn n_updates(&self) -> u64 {
        self.n_updates
    }

    /// Rebuild the list if any particle moved more than `skin/2` since the
    /// last build (or if it was never built). Returns `true` on rebuild.
    pub fn update(&mut self, positions: &[Vec3], bx: &SimBox, top: &Topology) -> bool {
        self.n_updates += 1;
        if !self.needs_rebuild(positions, bx) {
            return false;
        }
        self.build(positions, bx, top);
        true
    }

    /// Force an unconditional rebuild.
    pub fn build(&mut self, positions: &[Vec3], bx: &SimBox, top: &Topology) {
        assert_eq!(
            positions.len(),
            top.n_particles(),
            "positions/topology length mismatch"
        );
        let r_list = self.cutoff + self.skin;
        if let Some(l) = bx.lengths() {
            assert!(
                r_list <= bx.max_cutoff() + 1e-12,
                "cutoff + skin ({r_list}) exceeds half the shortest box edge \
                 ({}); minimum image would be violated",
                bx.max_cutoff()
            );
            let n_cells = [
                (l.x / r_list).floor() as usize,
                (l.y / r_list).floor() as usize,
                (l.z / r_list).floor() as usize,
            ];
            if n_cells.iter().all(|&c| c >= 3) {
                let n_stripes = if positions.len() >= self.par_threshold {
                    stripes::available()
                } else {
                    1
                };
                self.build_celllist(positions, bx, top, n_cells, n_stripes);
            } else {
                self.build_allpairs(positions, bx, top);
            }
        } else {
            self.build_allpairs(positions, bx, top);
        }
        self.ref_positions.clear();
        self.ref_positions.extend_from_slice(positions);
        self.n_builds += 1;
    }

    /// Has any particle drifted more than `skin/2` from its position at the
    /// last build? Exits on the first offending particle.
    fn needs_rebuild(&self, positions: &[Vec3], bx: &SimBox) -> bool {
        if self.ref_positions.len() != positions.len() {
            return true;
        }
        if self.skin == 0.0 {
            return true;
        }
        let half_skin2 = (0.5 * self.skin) * (0.5 * self.skin);
        positions
            .iter()
            .zip(&self.ref_positions)
            .any(|(&p, &q)| bx.dist2(p, q) > half_skin2)
    }

    fn build_allpairs(&mut self, positions: &[Vec3], bx: &SimBox, top: &Topology) {
        self.pairs.clear();
        let r2 = (self.cutoff + self.skin).powi(2);
        let n = positions.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if bx.dist2(positions[i], positions[j]) <= r2 && !top.is_excluded(i, j) {
                    self.pairs.push((i as u32, j as u32));
                }
            }
        }
    }

    fn build_celllist(
        &mut self,
        positions: &[Vec3],
        bx: &SimBox,
        top: &Topology,
        n_cells: [usize; 3],
        n_stripes: usize,
    ) {
        self.pairs.clear();
        let l = bx.lengths().expect("cell list requires a periodic box");
        let inv_l = v3(1.0 / l.x, 1.0 / l.y, 1.0 / l.z);
        let r2 = (self.cutoff + self.skin).powi(2);
        let [nx, ny, nz] = n_cells;
        let total_cells = nx * ny * nz;

        // Counting sort into contiguous per-cell slabs: after the passes
        // below, cell `c` owns `order[count[c]..count[c+1]]` (original
        // particle indices) and the matching `sorted_pos` range. Serial
        // O(N) — the candidate sweep below dominates the build.
        let n = positions.len();
        let cell_of = |p: Vec3| -> usize {
            let w = bx.wrap(p);
            let cx = ((w.x * inv_l.x * nx as f64) as usize).min(nx - 1);
            let cy = ((w.y * inv_l.y * ny as f64) as usize).min(ny - 1);
            let cz = ((w.z * inv_l.z * nz as f64) as usize).min(nz - 1);
            (cz * ny + cy) * nx + cx
        };
        let mut count = vec![0u32; total_cells + 1];
        let mut cell_idx = vec![0u32; n];
        for (i, &p) in positions.iter().enumerate() {
            let c = cell_of(p);
            cell_idx[i] = c as u32;
            count[c + 1] += 1;
        }
        for c in 0..total_cells {
            count[c + 1] += count[c];
        }
        let mut cursor = count.clone();
        let mut order = vec![0u32; n];
        let mut sorted_pos = vec![Vec3::ZERO; n];
        for (i, &c) in cell_idx.iter().enumerate() {
            let dst = cursor[c as usize] as usize;
            order[dst] = i as u32;
            sorted_pos[dst] = positions[i];
            cursor[c as usize] += 1;
        }

        // Half stencil: self cell + 13 unique neighbours.
        let stencil: [(i64, i64, i64); 14] = [
            (0, 0, 0),
            (1, 0, 0),
            (-1, 1, 0),
            (0, 1, 0),
            (1, 1, 0),
            (-1, -1, 1),
            (0, -1, 1),
            (1, -1, 1),
            (-1, 0, 1),
            (0, 0, 1),
            (1, 0, 1),
            (-1, 1, 1),
            (0, 1, 1),
            (1, 1, 1),
        ];

        let wrap_idx =
            |i: i64, n: usize| -> usize { (((i % n as i64) + n as i64) % n as i64) as usize };

        // Emit every pair whose first member is binned in flattened cell
        // `c0`. Shared verbatim by the serial and the striped parallel
        // paths so they produce identical lists.
        let count = &count;
        let order = &order;
        let sorted_pos = &sorted_pos;
        let ctx = &SweepCtx { l, inv_l, r2, top };
        let emit_cell = |c0: usize, out: &mut Vec<(u32, u32)>| {
            let (s0, e0) = (count[c0] as usize, count[c0 + 1] as usize);
            if s0 == e0 {
                return;
            }
            let cx = c0 % nx;
            let cy = (c0 / nx) % ny;
            let cz = c0 / (nx * ny);
            for &(dx, dy, dz) in &stencil {
                let c1 = (wrap_idx(cz as i64 + dz, nz) * ny + wrap_idx(cy as i64 + dy, ny)) * nx
                    + wrap_idx(cx as i64 + dx, nx);
                if c0 == c1 {
                    // Self cell: each particle against the ones after it.
                    for a in s0..e0 {
                        filter_slab(
                            sorted_pos[a],
                            order[a],
                            &sorted_pos[a + 1..e0],
                            &order[a + 1..e0],
                            ctx,
                            out,
                        );
                    }
                } else {
                    let (s1, e1) = (count[c1] as usize, count[c1 + 1] as usize);
                    if s1 == e1 {
                        continue;
                    }
                    for a in s0..e0 {
                        filter_slab(
                            sorted_pos[a],
                            order[a],
                            &sorted_pos[s1..e1],
                            &order[s1..e1],
                            ctx,
                            out,
                        );
                    }
                }
            }
        };

        if n_stripes > 1 {
            // Stripe the cell range; appending the stripes' outputs in
            // stripe order keeps the list identical to the serial sweep.
            let cells_per = total_cells.div_ceil(n_stripes).max(1);
            let mut per_stripe: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_stripes];
            stripes::for_each(per_stripe.iter_mut().enumerate(), |(s, out)| {
                let lo = (s * cells_per).min(total_cells);
                let hi = ((s + 1) * cells_per).min(total_cells);
                for c0 in lo..hi {
                    emit_cell(c0, out);
                }
            });
            for mut chunk in per_stripe {
                self.pairs.append(&mut chunk);
            }
        } else {
            let mut out = std::mem::take(&mut self.pairs);
            for c0 in 0..total_cells {
                emit_cell(c0, &mut out);
            }
            self.pairs = out;
        }
    }
}

/// Geometry and exclusion context shared by the sweep's candidate filters.
struct SweepCtx<'a> {
    l: Vec3,
    inv_l: Vec3,
    r2: f64,
    top: &'a Topology,
}

/// Exclusion-check an accepted candidate and emit it as an ordered pair.
#[inline(always)]
fn push_pair(ia: u32, jb: u32, top: &Topology, out: &mut Vec<(u32, u32)>) {
    if !top.is_excluded(ia as usize, jb as usize) {
        let (lo, hi) = if ia < jb { (ia, jb) } else { (jb, ia) };
        out.push((lo, hi));
    }
}

/// Distance-test particle `ia` at `pa` against one contiguous cell slab and
/// emit accepted pairs. Minimum image uses the multiply form
/// `d − L·round(d/L)` with a precomputed `1/L`; for any candidate within
/// `cutoff + skin` (≤ a third of the box edge on the cell path) this is
/// bitwise identical to the division form, so the pair set matches the
/// O(N²) reference build exactly.
fn filter_slab_scalar(
    pa: Vec3,
    ia: u32,
    slab_pos: &[Vec3],
    slab_order: &[u32],
    ctx: &SweepCtx<'_>,
    out: &mut Vec<(u32, u32)>,
) {
    for (k, &pb) in slab_pos.iter().enumerate() {
        let d = pa - pb;
        let x = d.x - ctx.l.x * (d.x * ctx.inv_l.x).round();
        let y = d.y - ctx.l.y * (d.y * ctx.inv_l.y).round();
        let z = d.z - ctx.l.z * (d.z * ctx.inv_l.z).round();
        if x * x + y * y + z * z <= ctx.r2 {
            push_pair(ia, slab_order[k], ctx.top, out);
        }
    }
}

/// Four slab candidates per iteration on AVX2. The sweep is pure
/// filtering — the expensive part is the minimum-image distance, which
/// vectorizes cleanly; survivors (a few percent of candidates) drop to a
/// scalar movemask loop for the exclusion check and push. Lane arithmetic
/// matches [`filter_slab_scalar`] operation for operation, so the emitted
/// pair set is identical.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn filter_slab_avx2(
    pa: Vec3,
    ia: u32,
    slab_pos: &[Vec3],
    slab_order: &[u32],
    ctx: &SweepCtx<'_>,
    out: &mut Vec<(u32, u32)>,
) {
    use core::arch::x86_64::*;

    let round =
        |v: __m256d| _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v);
    let (pax, pay, paz) = (
        _mm256_set1_pd(pa.x),
        _mm256_set1_pd(pa.y),
        _mm256_set1_pd(pa.z),
    );
    let (lx, ly, lz) = (
        _mm256_set1_pd(ctx.l.x),
        _mm256_set1_pd(ctx.l.y),
        _mm256_set1_pd(ctx.l.z),
    );
    let (inv_lx, inv_ly, inv_lz) = (
        _mm256_set1_pd(ctx.inv_l.x),
        _mm256_set1_pd(ctx.inv_l.y),
        _mm256_set1_pd(ctx.inv_l.z),
    );
    let r2v = _mm256_set1_pd(ctx.r2);

    let mut blocks = slab_pos.chunks_exact(4);
    let mut base = 0usize;
    for block in &mut blocks {
        let (b0, b1, b2, b3) = (block[0], block[1], block[2], block[3]);
        let mut dx = _mm256_sub_pd(pax, _mm256_set_pd(b3.x, b2.x, b1.x, b0.x));
        let mut dy = _mm256_sub_pd(pay, _mm256_set_pd(b3.y, b2.y, b1.y, b0.y));
        let mut dz = _mm256_sub_pd(paz, _mm256_set_pd(b3.z, b2.z, b1.z, b0.z));
        dx = _mm256_sub_pd(dx, _mm256_mul_pd(lx, round(_mm256_mul_pd(dx, inv_lx))));
        dy = _mm256_sub_pd(dy, _mm256_mul_pd(ly, round(_mm256_mul_pd(dy, inv_ly))));
        dz = _mm256_sub_pd(dz, _mm256_mul_pd(lz, round(_mm256_mul_pd(dz, inv_lz))));
        let r2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
            _mm256_mul_pd(dz, dz),
        );
        let mut bits = _mm256_movemask_pd(_mm256_cmp_pd::<{ _CMP_LE_OQ }>(r2, r2v)) as u32;
        while bits != 0 {
            let lane = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            push_pair(ia, slab_order[base + lane], ctx.top, out);
        }
        base += 4;
    }
    filter_slab_scalar(pa, ia, blocks.remainder(), &slab_order[base..], ctx, out);
}

/// Filter one cell slab with the widest kernel the host supports. Kernel
/// selection is per-host but stable within a run, and both kernels accept
/// the exact same candidates, so the pair list does not depend on it.
#[inline]
fn filter_slab(
    pa: Vec3,
    ia: u32,
    slab_pos: &[Vec3],
    slab_order: &[u32],
    ctx: &SweepCtx<'_>,
    out: &mut Vec<(u32, u32)>,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { filter_slab_avx2(pa, ia, slab_pos, slab_order, ctx, out) };
            return;
        }
    }
    filter_slab_scalar(pa, ia, slab_pos, slab_order, ctx, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::topology::{LjParams, Particle};
    use crate::vec3::v3;

    fn free_top(n: usize) -> Topology {
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        top
    }

    fn random_positions(n: usize, l: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = rng_from_seed(seed);
        (0..n)
            .map(|_| v3(rng.next_f64() * l, rng.next_f64() * l, rng.next_f64() * l))
            .collect()
    }

    fn sorted(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        v.sort_unstable();
        v
    }

    fn brute_force(positions: &[Vec3], bx: &SimBox, r_list: f64) -> Vec<(u32, u32)> {
        let r2 = r_list * r_list;
        let mut reference = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if bx.dist2(positions[i], positions[j]) <= r2 {
                    reference.push((i as u32, j as u32));
                }
            }
        }
        reference
    }

    #[test]
    fn celllist_matches_allpairs_periodic() {
        let n = 400;
        let l = 12.0;
        let bx = SimBox::cubic(l);
        let top = free_top(n);
        let pos = random_positions(n, l, 42);

        let mut nl_cell = NeighborList::new(2.0, 0.4);
        nl_cell.build(&pos, &bx, &top);
        assert_eq!(
            sorted(nl_cell.pairs().to_vec()),
            sorted(brute_force(&pos, &bx, 2.4))
        );
    }

    #[test]
    fn striped_build_is_identical_to_serial() {
        let n = 400;
        let l = 12.0;
        let bx = SimBox::cubic(l);
        let top = free_top(n);
        let pos = random_positions(n, l, 9);

        let mut serial = NeighborList::new(2.0, 0.4);
        serial.set_parallel_threshold(usize::MAX);
        serial.build(&pos, &bx, &top);

        // Not just the same set: the same order, whatever the stripe
        // count (5 cells a side at this box; 7 stripes leave some empty).
        for n_stripes in [1, 2, 3, 7] {
            let mut striped = NeighborList::new(2.0, 0.4);
            striped.build_celllist(&pos, &bx, &top, [5, 5, 5], n_stripes);
            assert_eq!(serial.pairs(), striped.pairs(), "{n_stripes} stripes");
        }

        // And through the public gate, at this machine's stripe count.
        let mut threaded = NeighborList::new(2.0, 0.4);
        threaded.set_parallel_threshold(0);
        threaded.build(&pos, &bx, &top);
        assert_eq!(serial.pairs(), threaded.pairs());
    }

    #[test]
    fn degenerate_three_cell_grid_with_boundary_particles() {
        // Exactly 3 cells per dimension (L = 6, cutoff + skin = 2) — the
        // smallest grid the cell path accepts, where the ±1 stencil wraps
        // onto every cell along each axis. Particles sit exactly on cell
        // boundaries (0, 2, 4, 6 ≡ 0) and just off them, which exercises
        // wrap-aliasing in the binning and the stencil.
        let l = 6.0;
        let bx = SimBox::cubic(l);
        let boundary = [0.0, 2.0, 4.0, 6.0, 1.9999999999, 2.0000000001];
        let mut pos = Vec::new();
        for &x in &boundary {
            for &y in &boundary {
                pos.push(v3(x, y, 0.0));
                pos.push(v3(x, y, 4.0));
            }
        }
        // A few interior particles so non-boundary interactions exist too.
        pos.extend_from_slice(&[v3(1.0, 1.0, 1.0), v3(5.0, 5.0, 5.0), v3(3.0, 0.5, 2.0)]);
        let top = free_top(pos.len());
        let reference = sorted(brute_force(&pos, &bx, 2.0));

        for threshold in [usize::MAX, 0] {
            let mut nl = NeighborList::new(1.7, 0.3);
            nl.set_parallel_threshold(threshold);
            nl.build(&pos, &bx, &top);
            // Duplicate-free and identical to brute force in both the
            // serial and the parallel build.
            let got = sorted(nl.pairs().to_vec());
            let mut dedup = got.clone();
            dedup.dedup();
            assert_eq!(got.len(), dedup.len(), "duplicate pairs emitted");
            assert_eq!(got, reference, "threshold {threshold}");
        }
    }

    #[test]
    fn non_cubic_celllist_matches_brute_force() {
        // Distinct edge lengths exercise the per-axis l / 1/l in both the
        // binning and the slab filters (5 × 3 × 4 cells at r_list = 2.4).
        let bx = SimBox::ortho(14.0, 9.0, 11.0);
        let n = 500;
        let mut rng = rng_from_seed(31);
        let pos: Vec<Vec3> = (0..n)
            .map(|_| {
                v3(
                    rng.next_f64() * 14.0,
                    rng.next_f64() * 9.0,
                    rng.next_f64() * 11.0,
                )
            })
            .collect();
        let top = free_top(n);
        let mut nl = NeighborList::new(2.0, 0.4);
        nl.build(&pos, &bx, &top);
        assert_eq!(
            sorted(nl.pairs().to_vec()),
            sorted(brute_force(&pos, &bx, 2.4))
        );
    }

    #[test]
    fn celllist_filters_exclusions() {
        // The open-box exclusion test only hits the all-pairs fallback;
        // this one forces the cell path (12³ box, 5 cells per dimension).
        let n = 200;
        let l = 12.0;
        let bx = SimBox::cubic(l);
        let pos = random_positions(n, l, 13);
        let mut top = free_top(n);
        for i in (0..n - 1).step_by(5) {
            top.add_exclusion(i, i + 1);
        }
        let mut nl = NeighborList::new(2.0, 0.4);
        nl.build(&pos, &bx, &top);
        let reference: Vec<(u32, u32)> = brute_force(&pos, &bx, 2.4)
            .into_iter()
            .filter(|&(i, j)| !top.is_excluded(i as usize, j as usize))
            .collect();
        assert_eq!(sorted(nl.pairs().to_vec()), sorted(reference));
    }

    #[test]
    fn threaded_list_rebuilds_only_on_motion() {
        let n = 256;
        let l = 10.0;
        let bx = SimBox::cubic(l);
        let top = free_top(n);
        let mut pos = random_positions(n, l, 21);

        let mut nl = NeighborList::new(2.0, 1.0);
        nl.set_parallel_threshold(0); // striped builds
        assert!(nl.update(&pos, &bx, &top));
        assert!(!nl.update(&pos, &bx, &top), "no motion → no rebuild");
        pos[n - 1].x += 0.6; // beyond skin/2
        assert!(nl.update(&pos, &bx, &top), "mover must trigger rebuild");
    }

    #[test]
    fn open_box_allpairs() {
        let top = free_top(3);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0), v3(10.0, 0.0, 0.0)];
        let mut nl = NeighborList::new(2.0, 0.0);
        nl.build(&pos, &SimBox::Open, &top);
        assert_eq!(nl.pairs(), &[(0, 1)]);
    }

    #[test]
    fn exclusions_are_filtered() {
        let mut top = free_top(3);
        top.add_exclusion(0, 1);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0), v3(1.5, 0.0, 0.0)];
        let mut nl = NeighborList::new(2.0, 0.0);
        nl.build(&pos, &SimBox::Open, &top);
        assert_eq!(sorted(nl.pairs().to_vec()), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn no_rebuild_for_small_moves() {
        let top = free_top(2);
        let mut pos = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let mut nl = NeighborList::new(2.0, 1.0);
        assert!(nl.update(&pos, &SimBox::Open, &top));
        // Move less than skin/2 = 0.5 → no rebuild.
        pos[1].x += 0.3;
        assert!(!nl.update(&pos, &SimBox::Open, &top));
        // Move beyond skin/2 → rebuild.
        pos[1].x += 0.4;
        assert!(nl.update(&pos, &SimBox::Open, &top));
        assert_eq!(nl.n_builds(), 2);
        assert_eq!(nl.n_updates(), 3);
    }

    #[test]
    fn zero_skin_always_rebuilds() {
        let top = free_top(2);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let mut nl = NeighborList::new(2.0, 0.0);
        assert!(nl.update(&pos, &SimBox::Open, &top));
        assert!(nl.update(&pos, &SimBox::Open, &top));
    }

    #[test]
    fn buffered_list_covers_moves_within_skin() {
        // Particles just outside cutoff but within cutoff+skin must be
        // listed so they are found after drifting inward without a rebuild.
        let top = free_top(2);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(2.2, 0.0, 0.0)];
        let mut nl = NeighborList::new(2.0, 0.5);
        nl.build(&pos, &SimBox::Open, &top);
        assert_eq!(nl.pairs(), &[(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "minimum image")]
    fn rejects_cutoff_larger_than_half_box() {
        let top = free_top(2);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let mut nl = NeighborList::new(3.0, 0.5);
        nl.build(&pos, &SimBox::cubic(6.0), &top);
    }

    #[test]
    fn small_periodic_box_falls_back_to_allpairs() {
        // Box too small for a 3x3x3 grid at this cutoff: must still agree
        // with brute force.
        let n = 60;
        let l = 5.0;
        let bx = SimBox::cubic(l);
        let top = free_top(n);
        let pos = random_positions(n, l, 7);
        let mut nl = NeighborList::new(2.0, 0.3);
        nl.build(&pos, &bx, &top);
        assert_eq!(
            sorted(nl.pairs().to_vec()),
            sorted(brute_force(&pos, &bx, 2.3))
        );
    }
}
