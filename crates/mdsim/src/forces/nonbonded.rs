//! Non-bonded interactions: Lennard-Jones plus reaction-field Coulomb.
//!
//! This is the villin setup from §3.1 of the paper: *"long-range
//! electrostatics were treated with a reaction field, using a continuum
//! dielectric constant of 78"*. Both terms share one Verlet neighbour list
//! and one pair loop — the hot kernel of the engine.
//!
//! # Kernel data layout
//!
//! The inner loop never touches the [`Topology`]. At neighbour-list build
//! time every pair is materialized as a [`PackedPair`] — indices plus the
//! fully resolved interaction constants `(qq, c6, c12, e_shift)` — using an
//! interned pair-type table, so Lennard-Jones combining and the cutoff
//! shift are computed once per *build*, not once per pair per step. The
//! pair loop then is pure streaming arithmetic over a flat array.
//!
//! On x86-64 hosts with AVX2 the streaming loop runs four pairs per
//! iteration (the "SIMD kernel" tier of Fig. 6), with out-of-cutoff lanes
//! masked; the trailing entries and non-x86 hosts use a scalar loop with
//! the same IEEE operation sequence. The box-shape match and the
//! minimum-image reciprocals are hoisted out of the loop, so the kernel
//! performs one division per pair (`1/r²`) instead of four.
//!
//! The threaded path (the "threads" tier of Fig. 6, selected by
//! [`NonbondedForce::set_threading`]) cuts the packed list into one
//! stripe per hardware thread ([`crate::stripes`]), accumulates into
//! per-stripe force buffers *owned by the term* and reused across steps —
//! no per-step allocation — and reduces them with a deterministic striped
//! sum, so repeated evaluations are bitwise reproducible.
//!
//! The original per-pair topology-lookup kernel is retained as
//! [`NonbondedForce::set_reference_kernel`]: it is the validation baseline
//! for the agreement tests and the "before" side of the pair-loop
//! benchmark (`copernicus-bench --bin pairloop`).

use crate::forces::{ForceTerm, KernelConfig, KernelStats};
use crate::neighbor::NeighborList;
use crate::pbc::SimBox;
use crate::stripes;
use crate::topology::{LjParams, Topology};
use crate::vec3::{v3, Vec3};
use std::sync::Arc;
use std::time::Instant;

/// Pair count below which the serial kernel beats the fork/join. Each
/// threaded step starts and joins its stripes' threads twice (evaluate,
/// reduce), ≈ 0.15 ms measured; at ≈ 10 ns a pair the serial loop needs
/// tens of thousands of pairs before half of it is worth that (measured
/// break-even on two hardware threads: ≈ 5·10⁴ pairs).
pub const DEFAULT_PAIR_PARALLEL_THRESHOLD: usize = 65_536;

/// Largest interned type count for which the dense pair-type table is
/// materialized; above this, pair constants are combined on the fly at
/// pack time (still once per build).
const MAX_TABLE_TYPES: usize = 128;

/// One neighbour-list entry with all interaction constants resolved:
/// product of charges `qq`, LJ `c6 = 4εσ⁶` and `c12 = 4εσ¹²`, and the
/// potential-shift constant `e_shift = V_lj(r_c)` (zero when shifting is
/// disabled). 48 bytes, iterated linearly by the hot loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PackedPair {
    pub i: u32,
    pub j: u32,
    pub qq: f64,
    pub c6: f64,
    pub c12: f64,
    pub e_shift: f64,
}

/// Per-pair-type constants resolved at construction.
#[derive(Debug, Clone, Copy, Default)]
struct PairTypeParams {
    c6: f64,
    c12: f64,
    e_shift: f64,
}

fn pair_type_params(a: LjParams, b: LjParams, cutoff: f64) -> PairTypeParams {
    let (c6, c12) = a.combine(b).c6_c12();
    let inv_rc6 = 1.0 / cutoff.powi(6);
    PairTypeParams {
        c6,
        c12,
        e_shift: c12 * inv_rc6 * inv_rc6 - c6 * inv_rc6,
    }
}

/// Cutoff and reaction-field constants threaded through the pair kernels.
#[derive(Clone, Copy)]
struct PairConsts {
    rc2: f64,
    krf: f64,
    crf: f64,
}

/// Minimum-image context hoisted out of the pair loop. The box-shape
/// match and the per-axis reciprocals are resolved once per evaluation,
/// so the hot loop multiplies by `1/L` instead of dividing by `L`.
#[derive(Clone, Copy)]
enum Mic {
    Open,
    Ortho { l: Vec3, inv_l: Vec3 },
}

impl Mic {
    fn new(bx: &SimBox) -> Mic {
        match bx.lengths() {
            None => Mic::Open,
            Some(l) => Mic::Ortho {
                l,
                inv_l: v3(1.0 / l.x, 1.0 / l.y, 1.0 / l.z),
            },
        }
    }

    /// Minimum-image displacement `a - b`. For every in-cutoff pair this
    /// matches [`SimBox::displacement`] bit for bit: the rounded image
    /// count is the same integer, and the final `d - l·k` arithmetic is
    /// identical. The two roundings can disagree only when a pair sits
    /// within rounding error of half the box edge — beyond the cutoff,
    /// where the pair contributes nothing either way.
    #[inline(always)]
    fn displacement(self, a: Vec3, b: Vec3) -> Vec3 {
        let d = a - b;
        match self {
            Mic::Open => d,
            Mic::Ortho { l, inv_l } => v3(
                d.x - l.x * (d.x * inv_l.x).round(),
                d.y - l.y * (d.y * inv_l.y).round(),
                d.z - l.z * (d.z * inv_l.z).round(),
            ),
        }
    }
}

/// The per-pair kernel over packed constants. Force arithmetic is
/// identical for both instantiations; `ENERGY = false` only drops the
/// energy terms, so force-only evaluation is bitwise identical to the
/// full one.
#[inline(always)]
fn packed_pair_eval<const ENERGY: bool>(
    p: &PackedPair,
    dr: Vec3,
    r2: f64,
    krf: f64,
    crf: f64,
) -> (f64, Vec3) {
    let inv_r2 = 1.0 / r2;
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let inv_r12 = inv_r6 * inv_r6;
    let mut f_over_r2 = (12.0 * p.c12 * inv_r12 - 6.0 * p.c6 * inv_r6) * inv_r2;
    let mut e = 0.0;
    if ENERGY {
        e = p.c12 * inv_r12 - p.c6 * inv_r6 - p.e_shift;
    }
    if p.qq != 0.0 {
        // Reaction-field Coulomb: V = qq (1/r + krf r² - crf);
        // F·r̂ = qq (1/r² - 2 krf r). 1/r as √r² · (1/r²) — a multiply
        // instead of a second division.
        let inv_r = r2.sqrt() * inv_r2;
        if ENERGY {
            e += p.qq * (inv_r + krf * r2 - crf);
        }
        f_over_r2 += p.qq * (inv_r2 * inv_r - 2.0 * krf);
    }
    (e, dr * f_over_r2)
}

/// Scalar streaming loop over a span of packed entries (the portable
/// path, and the remainder handler for the SIMD path).
fn eval_packed_span_scalar<const ENERGY: bool>(
    packed: &[PackedPair],
    positions: &[Vec3],
    mic: Mic,
    k: PairConsts,
    forces: &mut [Vec3],
) -> f64 {
    let mut energy = 0.0;
    for p in packed {
        let (i, j) = (p.i as usize, p.j as usize);
        let dr = mic.displacement(positions[i], positions[j]);
        let r2 = dr.norm2();
        if r2 > k.rc2 || r2 == 0.0 {
            continue;
        }
        let (e, f) = packed_pair_eval::<ENERGY>(p, dr, r2, k.krf, k.crf);
        if ENERGY {
            energy += e;
        }
        forces[i] += f;
        forces[j] -= f;
    }
    energy
}

/// Four packed entries per iteration on AVX2 — the "SIMD kernel" tier of
/// the paper's Fig. 6 hierarchy. Each lane runs the same IEEE operation
/// sequence as [`packed_pair_eval`], so per-pair results match the scalar
/// path to the last few ulps; out-of-cutoff lanes are masked to zero.
/// Charged and neutral pairs share the lanes (a neutral lane adds exactly
/// zero Coulomb force), and the trailing `len % 4` entries fall back to
/// the scalar loop.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn eval_packed_span_avx2<const ENERGY: bool>(
    packed: &[PackedPair],
    positions: &[Vec3],
    l: Vec3,
    inv_l: Vec3,
    k: PairConsts,
    forces: &mut [Vec3],
) -> f64 {
    use core::arch::x86_64::*;

    // Round-to-nearest ties differ from `f64::round` (even vs away from
    // zero) only at exactly half the box edge — beyond the cutoff, masked.
    let round =
        |v: __m256d| _mm256_round_pd::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v);
    let (lx, ly, lz) = (
        _mm256_set1_pd(l.x),
        _mm256_set1_pd(l.y),
        _mm256_set1_pd(l.z),
    );
    let (inv_lx, inv_ly, inv_lz) = (
        _mm256_set1_pd(inv_l.x),
        _mm256_set1_pd(inv_l.y),
        _mm256_set1_pd(inv_l.z),
    );
    let rc2 = _mm256_set1_pd(k.rc2);
    let one = _mm256_set1_pd(1.0);
    let two_krf = _mm256_set1_pd(2.0 * k.krf);
    let krf = _mm256_set1_pd(k.krf);
    let crf = _mm256_set1_pd(k.crf);

    let mut e_acc = _mm256_setzero_pd();
    let mut blocks = packed.chunks_exact(4);
    for block in &mut blocks {
        let (p0, p1, p2, p3) = (&block[0], &block[1], &block[2], &block[3]);
        let idx = [
            (p0.i as usize, p0.j as usize),
            (p1.i as usize, p1.j as usize),
            (p2.i as usize, p2.j as usize),
            (p3.i as usize, p3.j as usize),
        ];
        let (a0, b0) = (positions[idx[0].0], positions[idx[0].1]);
        let (a1, b1) = (positions[idx[1].0], positions[idx[1].1]);
        let (a2, b2) = (positions[idx[2].0], positions[idx[2].1]);
        let (a3, b3) = (positions[idx[3].0], positions[idx[3].1]);

        // Minimum image per axis: d -= L * round(d / L), lane k = pair k.
        let mut dx = _mm256_set_pd(a3.x - b3.x, a2.x - b2.x, a1.x - b1.x, a0.x - b0.x);
        let mut dy = _mm256_set_pd(a3.y - b3.y, a2.y - b2.y, a1.y - b1.y, a0.y - b0.y);
        let mut dz = _mm256_set_pd(a3.z - b3.z, a2.z - b2.z, a1.z - b1.z, a0.z - b0.z);
        dx = _mm256_sub_pd(dx, _mm256_mul_pd(lx, round(_mm256_mul_pd(dx, inv_lx))));
        dy = _mm256_sub_pd(dy, _mm256_mul_pd(ly, round(_mm256_mul_pd(dy, inv_ly))));
        dz = _mm256_sub_pd(dz, _mm256_mul_pd(lz, round(_mm256_mul_pd(dz, inv_lz))));

        let r2 = _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
            _mm256_mul_pd(dz, dz),
        );

        // In-range lanes: 0 < r² ≤ rc²; the blend guards masked lanes
        // against dividing by zero at exact overlap.
        let mask = _mm256_and_pd(
            _mm256_cmp_pd::<{ _CMP_LE_OQ }>(r2, rc2),
            _mm256_cmp_pd::<{ _CMP_GT_OQ }>(r2, _mm256_setzero_pd()),
        );
        let r2s = _mm256_blendv_pd(one, r2, mask);

        let inv_r2 = _mm256_div_pd(one, r2s);
        let inv_r6 = _mm256_mul_pd(_mm256_mul_pd(inv_r2, inv_r2), inv_r2);
        let inv_r12 = _mm256_mul_pd(inv_r6, inv_r6);

        let qq = _mm256_set_pd(p3.qq, p2.qq, p1.qq, p0.qq);
        let c6r6 = _mm256_mul_pd(_mm256_set_pd(p3.c6, p2.c6, p1.c6, p0.c6), inv_r6);
        let c12r12 = _mm256_mul_pd(_mm256_set_pd(p3.c12, p2.c12, p1.c12, p0.c12), inv_r12);

        // f/r² = (12 c12/r¹² − 6 c6/r⁶)/r² + qq (1/r³ − 2 krf)
        let inv_r = _mm256_mul_pd(_mm256_sqrt_pd(r2s), inv_r2);
        let lj = _mm256_mul_pd(
            _mm256_sub_pd(
                _mm256_mul_pd(_mm256_set1_pd(12.0), c12r12),
                _mm256_mul_pd(_mm256_set1_pd(6.0), c6r6),
            ),
            inv_r2,
        );
        let coul = _mm256_mul_pd(qq, _mm256_sub_pd(_mm256_mul_pd(inv_r2, inv_r), two_krf));
        let f_over_r2 = _mm256_and_pd(_mm256_add_pd(lj, coul), mask);

        if ENERGY {
            let e_shift = _mm256_set_pd(p3.e_shift, p2.e_shift, p1.e_shift, p0.e_shift);
            let e_lj = _mm256_sub_pd(_mm256_sub_pd(c12r12, c6r6), e_shift);
            let e_rf = _mm256_sub_pd(_mm256_add_pd(inv_r, _mm256_mul_pd(krf, r2s)), crf);
            let e = _mm256_add_pd(e_lj, _mm256_mul_pd(qq, e_rf));
            e_acc = _mm256_add_pd(e_acc, _mm256_and_pd(e, mask));
        }

        // Newton scatter, in pair order.
        let mut s = [0.0f64; 4];
        let mut xs = [0.0f64; 4];
        let mut ys = [0.0f64; 4];
        let mut zs = [0.0f64; 4];
        _mm256_storeu_pd(s.as_mut_ptr(), f_over_r2);
        _mm256_storeu_pd(xs.as_mut_ptr(), dx);
        _mm256_storeu_pd(ys.as_mut_ptr(), dy);
        _mm256_storeu_pd(zs.as_mut_ptr(), dz);
        for (lane, &(i, j)) in idx.iter().enumerate() {
            let f = v3(xs[lane] * s[lane], ys[lane] * s[lane], zs[lane] * s[lane]);
            forces[i] += f;
            forces[j] -= f;
        }
    }

    let mut energy = 0.0;
    if ENERGY {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), e_acc);
        energy = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }
    energy
        + eval_packed_span_scalar::<ENERGY>(
            blocks.remainder(),
            positions,
            Mic::Ortho { l, inv_l },
            k,
            forces,
        )
}

/// Stream a span of packed entries through the widest kernel the host
/// supports: AVX2 four-wide for periodic boxes on x86-64, scalar
/// otherwise. Kernel selection is per-host but stable within a run, so
/// repeated evaluations stay bitwise reproducible.
fn eval_packed_span<const ENERGY: bool>(
    packed: &[PackedPair],
    positions: &[Vec3],
    mic: Mic,
    k: PairConsts,
    forces: &mut [Vec3],
) -> f64 {
    #[cfg(target_arch = "x86_64")]
    {
        if let Mic::Ortho { l, inv_l } = mic {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                return unsafe {
                    eval_packed_span_avx2::<ENERGY>(packed, positions, l, inv_l, k, forces)
                };
            }
        }
    }
    eval_packed_span_scalar::<ENERGY>(packed, positions, mic, k, forces)
}

/// Pair interactions below `cutoff`: shifted LJ and reaction-field Coulomb.
pub struct NonbondedForce {
    top: Arc<Topology>,
    list: NeighborList,
    cutoff: f64,
    /// Reaction-field dielectric constant (paper: 78).
    eps_rf: f64,
    krf: f64,
    crf: f64,
    /// Per-pair LJ potential shift so V_lj(r_c) = 0 (baked into the packed
    /// entries at pack time).
    shift_lj: bool,
    parallel: bool,
    /// Minimum pair count before the threaded path is used.
    parallel_threshold: usize,
    /// Run the pre-packing per-pair topology-lookup kernel instead
    /// (validation / benchmarking baseline).
    use_reference: bool,
    /// When set, neighbour-list refresh time accumulates in `neighbor_ns`.
    time_neighbor: bool,
    neighbor_ns: u64,

    // --- packed-kernel state, resolved once per neighbour-list build ---
    /// Interned particle type per particle.
    type_of: Vec<u32>,
    /// Interned `(lj, charge)` per type.
    type_params: Vec<(LjParams, f64)>,
    /// Dense `n_types²` pair-constant table (empty above MAX_TABLE_TYPES).
    pair_table: Vec<PairTypeParams>,
    /// The packed pair list the hot loop streams over.
    packed: Vec<PackedPair>,
    /// Set when packed entries are stale for a reason other than a list
    /// rebuild (shift toggled, kernel switched).
    packed_dirty: bool,

    // --- persistent per-thread reduction scratch (reused across steps) ---
    scratch_f: Vec<Vec<Vec3>>,
    scratch_e: Vec<f64>,

    /// Cumulative pairs streamed by the kernel (telemetry: pairs/sec).
    pairs_evaluated: u64,
}

impl NonbondedForce {
    /// Create the term. `skin` is the Verlet buffer (0.3–0.5 σ is typical).
    pub fn new(top: Arc<Topology>, cutoff: f64, skin: f64, eps_rf: f64) -> Self {
        assert!(eps_rf >= 1.0, "dielectric must be >= 1, got {eps_rf}");
        // Reaction-field constants (Tironi et al.): with an infinite or
        // large dielectric, krf -> 1/(2 rc^3).
        let krf = (eps_rf - 1.0) / ((2.0 * eps_rf + 1.0) * cutoff.powi(3));
        let crf = 1.0 / cutoff + krf * cutoff * cutoff;

        // Intern particle types: distinct (LJ, charge) combinations.
        let mut type_params: Vec<(LjParams, f64)> = Vec::new();
        let type_of: Vec<u32> = top
            .particles
            .iter()
            .map(|p| {
                match type_params
                    .iter()
                    .position(|&(lj, q)| lj == p.lj && q == p.charge)
                {
                    Some(k) => k as u32,
                    None => {
                        type_params.push((p.lj, p.charge));
                        (type_params.len() - 1) as u32
                    }
                }
            })
            .collect();
        let n_types = type_params.len();
        let pair_table = if n_types <= MAX_TABLE_TYPES {
            let mut table = Vec::with_capacity(n_types * n_types);
            for a in 0..n_types {
                for b in 0..n_types {
                    table.push(pair_type_params(type_params[a].0, type_params[b].0, cutoff));
                }
            }
            table
        } else {
            Vec::new()
        };

        NonbondedForce {
            top,
            list: NeighborList::new(cutoff, skin),
            cutoff,
            eps_rf,
            krf,
            crf,
            shift_lj: true,
            parallel: true,
            parallel_threshold: DEFAULT_PAIR_PARALLEL_THRESHOLD,
            use_reference: false,
            time_neighbor: false,
            neighbor_ns: 0,
            type_of,
            type_params,
            pair_table,
            packed: Vec::new(),
            packed_dirty: true,
            scratch_f: Vec::new(),
            scratch_e: Vec::new(),
            pairs_evaluated: 0,
        }
    }

    /// Enable/disable the threaded pair loop.
    pub fn set_threading(&mut self, on: bool) -> &mut Self {
        self.parallel = on;
        self
    }

    /// Pair count above which the threaded path is used (when threading is
    /// enabled at all). Exposed as a tuning knob through
    /// [`KernelConfig`](crate::forces::KernelConfig).
    pub fn set_parallel_threshold(&mut self, threshold: usize) -> &mut Self {
        self.parallel_threshold = threshold;
        self
    }

    pub fn parallel_threshold(&self) -> usize {
        self.parallel_threshold
    }

    /// Disable the LJ potential shift (for free-energy bookkeeping where
    /// absolute energies matter).
    pub fn set_lj_shift(&mut self, on: bool) -> &mut Self {
        if self.shift_lj != on {
            self.shift_lj = on;
            self.packed_dirty = true;
        }
        self
    }

    /// Switch to the pre-packing per-pair topology-lookup kernel. Only
    /// useful as a validation baseline and as the "before" side of the
    /// pair-loop benchmark; it is strictly slower.
    pub fn set_reference_kernel(&mut self, on: bool) -> &mut Self {
        if self.use_reference != on {
            self.use_reference = on;
            self.packed_dirty = true;
        }
        self
    }

    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    pub fn eps_rf(&self) -> f64 {
        self.eps_rf
    }

    /// Neighbour-list statistics (builds, updates) for instrumentation.
    pub fn list_stats(&self) -> (u64, u64) {
        (self.list.n_builds(), self.list.n_updates())
    }

    /// Pairs in the current packed list.
    pub fn n_pairs(&self) -> usize {
        self.list.pairs().len()
    }

    /// Distinct interned particle types.
    pub fn n_types(&self) -> usize {
        self.type_params.len()
    }

    /// Heap bytes held by the packed pair list.
    pub fn packed_bytes(&self) -> u64 {
        (self.packed.capacity() * std::mem::size_of::<PackedPair>()) as u64
    }

    /// Refresh the neighbour list and, on a rebuild (or a stale-pack
    /// flag), re-materialize the packed entries. The single `update` call
    /// site keeps the timed and untimed paths identical.
    fn prepare(&mut self, positions: &[Vec3], bx: &SimBox) {
        let t0 = self.time_neighbor.then(Instant::now);
        let rebuilt = self.list.update(positions, bx, &self.top);
        if (rebuilt || self.packed_dirty) && !self.use_reference {
            self.repack();
            self.packed_dirty = false;
        }
        if let Some(t0) = t0 {
            self.neighbor_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Resolve interaction constants for one `(i, j)` pair from the
    /// interned tables.
    #[inline]
    fn pack_pair(
        i: u32,
        j: u32,
        type_of: &[u32],
        type_params: &[(LjParams, f64)],
        pair_table: &[PairTypeParams],
        cutoff: f64,
        shift_lj: bool,
    ) -> PackedPair {
        let (ti, tj) = (type_of[i as usize] as usize, type_of[j as usize] as usize);
        let n_types = type_params.len();
        let ptp = if pair_table.is_empty() {
            pair_type_params(type_params[ti].0, type_params[tj].0, cutoff)
        } else {
            pair_table[ti * n_types + tj]
        };
        PackedPair {
            i,
            j,
            qq: type_params[ti].1 * type_params[tj].1,
            c6: ptp.c6,
            c12: ptp.c12,
            e_shift: if shift_lj { ptp.e_shift } else { 0.0 },
        }
    }

    /// Materialize packed entries for every pair in the neighbour list.
    /// Striped over threads above the pair threshold; in-place chunked
    /// writes keep the result order (and therefore the force summation
    /// order) identical to the serial pack.
    fn repack(&mut self) {
        let pairs = self.list.pairs();
        self.packed.clear();
        self.packed.resize(pairs.len(), PackedPair::default());
        let (type_of, type_params, pair_table) =
            (&self.type_of, &self.type_params, &self.pair_table);
        let (cutoff, shift_lj) = (self.cutoff, self.shift_lj);
        if self.parallel && pairs.len() >= self.parallel_threshold {
            let chunk = pairs.len().div_ceil(stripes::available()).max(1);
            stripes::for_each(
                self.packed.chunks_mut(chunk).zip(pairs.chunks(chunk)),
                |(dst, src)| {
                    for (d, &(i, j)) in dst.iter_mut().zip(src) {
                        *d = Self::pack_pair(
                            i,
                            j,
                            type_of,
                            type_params,
                            pair_table,
                            cutoff,
                            shift_lj,
                        );
                    }
                },
            );
        } else {
            for (d, &(i, j)) in self.packed.iter_mut().zip(pairs) {
                *d = Self::pack_pair(i, j, type_of, type_params, pair_table, cutoff, shift_lj);
            }
        }
    }

    /// Energy and force for one pair at squared distance `r2`, given the
    /// minimum-image displacement `dr = ri - rj`. Returns (energy, force
    /// on i). This is the reference-kernel path: per-pair topology lookups
    /// and on-the-fly combining, kept for validation and benchmarking.
    #[inline]
    fn pair_interaction(&self, i: usize, j: usize, dr: Vec3, r2: f64) -> (f64, Vec3) {
        let pi = &self.top.particles[i];
        let pj = &self.top.particles[j];
        let lj = pi.lj.combine(pj.lj);
        let qq = pi.charge * pj.charge;

        let inv_r2 = 1.0 / r2;
        let sr2 = lj.sigma * lj.sigma * inv_r2;
        let sr6 = sr2 * sr2 * sr2;
        let sr12 = sr6 * sr6;

        // LJ: V = 4ε(sr12 - sr6); F·r̂ = 24ε(2 sr12 - sr6)/r.
        let mut e = 4.0 * lj.epsilon * (sr12 - sr6);
        if self.shift_lj {
            let src2 = (lj.sigma / self.cutoff).powi(2);
            let src6 = src2 * src2 * src2;
            e -= 4.0 * lj.epsilon * (src6 * src6 - src6);
        }
        let f_over_r_lj = 24.0 * lj.epsilon * (2.0 * sr12 - sr6) * inv_r2;

        // Reaction-field Coulomb: V = qq (1/r + krf r² - crf);
        // F·r̂ = qq (1/r² - 2 krf r).
        let mut f_over_r_c = 0.0;
        if qq != 0.0 {
            let r = r2.sqrt();
            e += qq * (1.0 / r + self.krf * r2 - self.crf);
            f_over_r_c = qq * (1.0 / (r2 * r) - 2.0 * self.krf);
        }

        (e, dr * (f_over_r_lj + f_over_r_c))
    }

    fn compute_reference(&self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> f64 {
        let rc2 = self.cutoff * self.cutoff;
        let mut energy = 0.0;
        for &(i, j) in self.list.pairs() {
            let (i, j) = (i as usize, j as usize);
            let dr = bx.displacement(positions[i], positions[j]);
            let r2 = dr.norm2();
            if r2 > rc2 || r2 == 0.0 {
                continue;
            }
            let (e, f) = self.pair_interaction(i, j, dr, r2);
            energy += e;
            forces[i] += f;
            forces[j] -= f;
        }
        energy
    }

    fn pair_consts(&self) -> PairConsts {
        PairConsts {
            rc2: self.cutoff * self.cutoff,
            krf: self.krf,
            crf: self.crf,
        }
    }

    fn compute_serial<const ENERGY: bool>(
        &self,
        positions: &[Vec3],
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> f64 {
        eval_packed_span::<ENERGY>(
            &self.packed,
            positions,
            Mic::new(bx),
            self.pair_consts(),
            forces,
        )
    }

    /// Size the per-stripe scratch to the stripe and particle counts.
    /// Buffers persist across steps; stripes re-zero only the buffers they
    /// actually use, immediately before writing into them (cache-warm).
    fn ensure_scratch(&mut self, n: usize, n_stripes: usize) {
        if self.scratch_f.len() != n_stripes {
            self.scratch_f.resize_with(n_stripes, Vec::new);
            self.scratch_e.resize(n_stripes, 0.0);
        }
        for buf in &mut self.scratch_f {
            if buf.len() != n {
                buf.clear();
                buf.resize(n, Vec3::ZERO);
            }
        }
    }

    /// The packed pair loop over `n_stripes` stripes. One stripe folds the
    /// pairs in the serial order; more regroup the per-particle sums, so
    /// forces agree with the serial kernel to rounding, not bitwise.
    fn compute_striped<const ENERGY: bool>(
        &mut self,
        positions: &[Vec3],
        bx: &SimBox,
        forces: &mut [Vec3],
        n_stripes: usize,
    ) -> f64 {
        let n = positions.len();
        self.ensure_scratch(n, n_stripes);
        let k = self.pair_consts();
        let mic = Mic::new(bx);
        let packed = &self.packed;
        let chunk = packed.len().div_ceil(n_stripes).max(1);
        // Chunk geometry is independent of `ENERGY`, so force-only and
        // full evaluation accumulate in exactly the same order.
        let n_used = packed.len().div_ceil(chunk);

        stripes::for_each(
            self.scratch_f
                .iter_mut()
                .zip(self.scratch_e.iter_mut())
                .zip(packed.chunks(chunk)),
            |((buf, e_out), chunk_pairs)| {
                buf.fill(Vec3::ZERO);
                *e_out = eval_packed_span::<ENERGY>(chunk_pairs, positions, mic, k, buf);
            },
        );

        // Flat striped reduction: each stripe owns a disjoint index range
        // of the output and folds the used buffers over it in fixed
        // order — deterministic, contention-free, allocation-free.
        let used = &self.scratch_f[..n_used];
        let stripe = n.div_ceil(n_stripes).max(1);
        stripes::for_each(forces.chunks_mut(stripe).enumerate(), |(s, out)| {
            let base = s * stripe;
            for buf in used {
                for (k, o) in out.iter_mut().enumerate() {
                    *o += buf[base + k];
                }
            }
        });

        if ENERGY {
            self.scratch_e[..n_used].iter().sum()
        } else {
            0.0
        }
    }

    /// Shared dispatch for full and force-only evaluation.
    fn run_kernel<const ENERGY: bool>(
        &mut self,
        positions: &[Vec3],
        bx: &SimBox,
        forces: &mut [Vec3],
    ) -> f64 {
        self.prepare(positions, bx);
        if self.use_reference {
            self.pairs_evaluated += self.list.pairs().len() as u64;
            return self.compute_reference(positions, bx, forces);
        }
        self.pairs_evaluated += self.packed.len() as u64;
        if self.parallel && self.packed.len() >= self.parallel_threshold {
            self.compute_striped::<ENERGY>(positions, bx, forces, stripes::available())
        } else {
            self.compute_serial::<ENERGY>(positions, bx, forces)
        }
    }
}

impl ForceTerm for NonbondedForce {
    fn name(&self) -> &'static str {
        "nonbonded"
    }

    fn compute(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) -> f64 {
        self.run_kernel::<true>(positions, bx, forces)
    }

    fn compute_force_only(&mut self, positions: &[Vec3], bx: &SimBox, forces: &mut [Vec3]) {
        self.run_kernel::<false>(positions, bx, forces);
    }

    fn configure_kernel(&mut self, cfg: &KernelConfig) {
        self.set_threading(cfg.threaded);
        self.set_parallel_threshold(cfg.parallel_threshold);
        self.set_reference_kernel(cfg.use_reference);
    }

    fn kernel_stats(&self) -> Option<KernelStats> {
        Some(KernelStats {
            pairs_evaluated: self.pairs_evaluated,
            packed_bytes: self.packed_bytes(),
        })
    }

    fn set_neighbor_timing(&mut self, on: bool) {
        self.time_neighbor = on;
    }

    fn take_neighbor_ns(&mut self) -> u64 {
        std::mem::take(&mut self.neighbor_ns)
    }

    fn neighbor_stats(&self) -> Option<(u64, u64)> {
        Some(self.list_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::max_force_error;
    use crate::rng::rng_from_seed;
    use crate::topology::{LjParams, Particle};
    use crate::vec3::v3;

    fn lj_top(n: usize, charge: f64) -> Arc<Topology> {
        let mut top = Topology::new();
        for k in 0..n {
            // Alternate charges so the system is neutral.
            let q = if k % 2 == 0 { charge } else { -charge };
            top.add_particle(Particle::new(1.0, q, LjParams::new(1.0, 1.0)));
        }
        Arc::new(top)
    }

    /// Charged LJ particles on a jittered cubic lattice. The lattice keeps
    /// every pair well off the repulsive wall, so forces stay O(10²–10⁶)
    /// and an absolute 1e-8 agreement tolerance is meaningful; uniformly
    /// random positions would produce near-contact pairs whose ~1e10
    /// forces turn machine-epsilon rounding into >1e-8 absolute noise.
    fn random_charged_system(n: usize, l: f64, seed: u64) -> (Arc<Topology>, SimBox, Vec<Vec3>) {
        let top = lj_top(n, 0.2);
        let bx = SimBox::cubic(l);
        let mut rng = rng_from_seed(seed);
        let per_side = (n as f64).cbrt().ceil() as usize;
        let spacing = l / per_side as f64;
        let jitter = 0.25 * spacing;
        let pos: Vec<Vec3> = (0..n)
            .map(|k| {
                let (ix, iy, iz) = (
                    k % per_side,
                    (k / per_side) % per_side,
                    k / (per_side * per_side),
                );
                v3(
                    (ix as f64 + 0.5) * spacing + jitter * (2.0 * rng.next_f64() - 1.0),
                    (iy as f64 + 0.5) * spacing + jitter * (2.0 * rng.next_f64() - 1.0),
                    (iz as f64 + 0.5) * spacing + jitter * (2.0 * rng.next_f64() - 1.0),
                )
            })
            .collect();
        (top, bx, pos)
    }

    #[test]
    fn lj_minimum_at_two_to_one_sixth_sigma() {
        let top = lj_top(2, 0.0);
        let mut nb = NonbondedForce::new(top, 3.0, 0.0, 78.0);
        nb.set_lj_shift(false);
        let r_min = 2.0_f64.powf(1.0 / 6.0);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(r_min, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = nb.compute(&pos, &SimBox::Open, &mut f);
        assert!(
            (e + 1.0).abs() < 1e-10,
            "E at minimum should be -ε, got {e}"
        );
        assert!(f[0].norm() < 1e-9, "force at minimum should vanish");
    }

    #[test]
    fn forces_are_newtonian() {
        let top = lj_top(2, 0.5);
        let mut nb = NonbondedForce::new(top, 3.0, 0.0, 78.0);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.3, 0.4, -0.2)];
        let mut f = vec![Vec3::ZERO; 2];
        nb.compute(&pos, &SimBox::Open, &mut f);
        assert!((f[0] + f[1]).norm() < 1e-12);
    }

    #[test]
    fn analytic_forces_match_finite_difference() {
        let top = lj_top(8, 0.3);
        let mut nb = NonbondedForce::new(top, 2.5, 0.0, 78.0);
        nb.set_threading(false);
        let mut rng = rng_from_seed(11);
        // Spread particles loosely so no pair is deep in the repulsive wall
        // (finite differences blow up there).
        let pos: Vec<Vec3> = (0..8)
            .map(|k| {
                v3(
                    (k % 2) as f64 * 1.2 + 0.1 * rng.next_f64(),
                    ((k / 2) % 2) as f64 * 1.2 + 0.1 * rng.next_f64(),
                    (k / 4) as f64 * 1.2 + 0.1 * rng.next_f64(),
                )
            })
            .collect();
        let err = max_force_error(&mut nb, &pos, &SimBox::Open, 1e-6);
        assert!(err < 1e-4, "force error vs finite difference: {err}");
    }

    #[test]
    fn shifted_potential_is_zero_at_cutoff() {
        let top = lj_top(2, 0.0);
        let mut nb = NonbondedForce::new(top, 2.5, 0.0, 78.0);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(2.4999999, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = nb.compute(&pos, &SimBox::Open, &mut f);
        assert!(e.abs() < 1e-6, "shifted LJ at cutoff should be ~0, got {e}");
    }

    #[test]
    fn rf_coulomb_energy_is_zero_at_cutoff() {
        // With LJ epsilon 0 the only term is RF coulomb, which is
        // constructed to vanish at the cutoff.
        let mut top = Topology::new();
        top.add_particle(Particle::new(1.0, 1.0, LjParams::new(1.0, 0.0)));
        top.add_particle(Particle::new(1.0, -1.0, LjParams::new(1.0, 0.0)));
        let mut nb = NonbondedForce::new(Arc::new(top), 2.0, 0.0, 78.0);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.9999999, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = nb.compute(&pos, &SimBox::Open, &mut f);
        assert!(e.abs() < 1e-5, "RF energy at cutoff should be ~0, got {e}");
    }

    #[test]
    fn striped_kernel_agrees_with_serial() {
        let n = 256;
        let (top, bx, pos) = random_charged_system(n, 8.0, 3);

        let mut nb_ser = NonbondedForce::new(top.clone(), 2.0, 0.3, 78.0);
        nb_ser.set_threading(false);
        let mut f_ser = vec![Vec3::ZERO; n];
        let e_ser = nb_ser.compute(&pos, &bx, &mut f_ser);

        for n_stripes in [1, 2, 3] {
            let striped = |nb: &mut NonbondedForce| {
                let mut f = vec![Vec3::ZERO; n];
                nb.prepare(&pos, &bx);
                let e = nb.compute_striped::<true>(&pos, &bx, &mut f, n_stripes);
                (e, f)
            };
            let mut nb = NonbondedForce::new(top.clone(), 2.0, 0.3, 78.0);
            let (e, f) = striped(&mut nb);
            // The repack is elementwise: the same list however it was cut.
            assert_eq!(nb.packed, nb_ser.packed);
            if n_stripes == 1 {
                // One stripe folds the pairs in the serial order.
                assert_eq!((e, &f), (e_ser, &f_ser));
            }
            // More stripes regroup each particle's sum: equal to rounding.
            assert!(
                (e_ser - e).abs() < 1e-8 * e_ser.abs().max(1.0),
                "{n_stripes} stripes: serial {e_ser} vs striped {e}"
            );
            for (a, b) in f_ser.iter().zip(&f) {
                assert!((*a - *b).norm() < 1e-8, "{n_stripes} stripes");
            }
            // Stripe boundaries are fixed by the count alone, so a second
            // evaluation (reused scratch) is bitwise the first.
            assert_eq!(striped(&mut nb), (e, f), "{n_stripes} stripes");
        }
    }

    #[test]
    fn packed_kernels_match_reference() {
        // The cross-kernel agreement gate: packed serial and packed
        // parallel must reproduce the original per-pair lookup kernel to
        // 1e-8 on a 256-particle charged LJ / reaction-field system.
        let n = 256;
        let (top, bx, pos) = random_charged_system(n, 8.0, 17);

        let mut nb_ref = NonbondedForce::new(top.clone(), 2.0, 0.3, 78.0);
        nb_ref.set_reference_kernel(true);
        let mut nb_ser = NonbondedForce::new(top.clone(), 2.0, 0.3, 78.0);
        nb_ser.set_threading(false);
        let mut nb_par = NonbondedForce::new(top, 2.0, 0.3, 78.0);
        nb_par.set_threading(true);
        nb_par.set_parallel_threshold(1);

        let mut f_ref = vec![Vec3::ZERO; n];
        let mut f_ser = vec![Vec3::ZERO; n];
        let mut f_par = vec![Vec3::ZERO; n];
        let e_ref = nb_ref.compute(&pos, &bx, &mut f_ref);
        let e_ser = nb_ser.compute(&pos, &bx, &mut f_ser);
        let e_par = nb_par.compute(&pos, &bx, &mut f_par);

        let scale = e_ref.abs().max(1.0);
        assert!(
            (e_ser - e_ref).abs() < 1e-8 * scale,
            "packed serial energy {e_ser} vs reference {e_ref}"
        );
        assert!(
            (e_par - e_ref).abs() < 1e-8 * scale,
            "packed parallel energy {e_par} vs reference {e_ref}"
        );
        for k in 0..n {
            assert!(
                (f_ser[k] - f_ref[k]).norm() < 1e-8,
                "serial force {k} diverges from reference"
            );
            assert!(
                (f_par[k] - f_ref[k]).norm() < 1e-8,
                "parallel force {k} diverges from reference"
            );
        }
    }

    #[test]
    fn simd_dispatch_matches_scalar_span() {
        // Whatever kernel `eval_packed_span` picks for this host must
        // agree with the portable scalar loop on the same packed list.
        let n = 256;
        let (top, bx, pos) = random_charged_system(n, 8.0, 41);
        let mut nb = NonbondedForce::new(top, 2.0, 0.3, 78.0);
        nb.set_threading(false);
        let mut f_dispatched = vec![Vec3::ZERO; n];
        let e_dispatched = nb.compute(&pos, &bx, &mut f_dispatched);

        let mut f_scalar = vec![Vec3::ZERO; n];
        let e_scalar = eval_packed_span_scalar::<true>(
            &nb.packed,
            &pos,
            Mic::new(&bx),
            nb.pair_consts(),
            &mut f_scalar,
        );

        assert!(
            (e_dispatched - e_scalar).abs() < 1e-8 * e_scalar.abs().max(1.0),
            "dispatched energy {e_dispatched} vs scalar {e_scalar}"
        );
        for k in 0..n {
            assert!(
                (f_dispatched[k] - f_scalar[k]).norm() < 1e-8,
                "dispatched force {k} diverges from scalar span"
            );
        }
    }

    #[test]
    fn mic_displacement_matches_simbox() {
        // The hoisted multiply-by-reciprocal minimum image must agree
        // with SimBox::displacement for in-box separations.
        let bx = SimBox::cubic(7.3);
        let mic = Mic::new(&bx);
        let mut rng = rng_from_seed(13);
        for _ in 0..1000 {
            let a = v3(
                7.3 * rng.next_f64(),
                7.3 * rng.next_f64(),
                7.3 * rng.next_f64(),
            );
            let b = v3(
                7.3 * rng.next_f64(),
                7.3 * rng.next_f64(),
                7.3 * rng.next_f64(),
            );
            let d_mic = mic.displacement(a, b);
            let d_box = bx.displacement(a, b);
            assert!((d_mic - d_box).norm() < 1e-12, "{d_mic:?} vs {d_box:?}");
        }
    }

    #[test]
    fn force_only_forces_are_bitwise_identical() {
        // The engine's fast path relies on force-only evaluation being
        // *bitwise* equal to full evaluation, in both kernels.
        let n = 256;
        let (top, bx, pos) = random_charged_system(n, 8.0, 29);

        for threaded in [false, true] {
            let mut nb_full = NonbondedForce::new(top.clone(), 2.0, 0.3, 78.0);
            let mut nb_fast = NonbondedForce::new(top.clone(), 2.0, 0.3, 78.0);
            for nb in [&mut nb_full, &mut nb_fast] {
                nb.set_threading(threaded);
                nb.set_parallel_threshold(1);
            }
            let mut f_full = vec![Vec3::ZERO; n];
            let mut f_fast = vec![Vec3::ZERO; n];
            nb_full.compute(&pos, &bx, &mut f_full);
            nb_fast.compute_force_only(&pos, &bx, &mut f_fast);
            for k in 0..n {
                assert_eq!(
                    f_full[k], f_fast[k],
                    "force-only force {k} not bitwise identical (threaded: {threaded})"
                );
            }
        }
    }

    #[test]
    fn lj_shift_toggle_repacks() {
        // Toggling the shift after construction must invalidate the
        // packed constants, not just future builds.
        let top = lj_top(2, 0.0);
        let mut nb = NonbondedForce::new(top, 2.5, 1.0, 78.0);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.5, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e_shifted = nb.compute(&pos, &SimBox::Open, &mut f);
        nb.set_lj_shift(false);
        // Positions unchanged → no neighbour rebuild; only the dirty flag
        // forces the repack.
        let e_raw = nb.compute(&pos, &SimBox::Open, &mut f);
        let lj = LjParams::new(1.0, 1.0);
        let expected_shift = {
            let p = pair_type_params(lj, lj, 2.5);
            p.e_shift
        };
        assert!(
            ((e_raw - e_shifted) - expected_shift).abs() < 1e-12,
            "unshifted − shifted = {}, expected {expected_shift}",
            e_raw - e_shifted
        );
    }

    #[test]
    fn kernel_stats_count_streamed_pairs() {
        let n = 64;
        let (top, bx, pos) = random_charged_system(n, 6.0, 5);
        let mut nb = NonbondedForce::new(top, 2.0, 0.3, 78.0);
        nb.set_threading(false);
        let mut f = vec![Vec3::ZERO; n];
        nb.compute(&pos, &bx, &mut f);
        let stats = nb.kernel_stats().unwrap();
        assert_eq!(stats.pairs_evaluated, nb.n_pairs() as u64);
        assert!(stats.packed_bytes >= (nb.n_pairs() * std::mem::size_of::<PackedPair>()) as u64);
        nb.compute(&pos, &bx, &mut f);
        assert_eq!(
            nb.kernel_stats().unwrap().pairs_evaluated,
            2 * nb.n_pairs() as u64
        );
    }

    #[test]
    fn excluded_pairs_do_not_interact() {
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        top.add_exclusion(0, 1);
        let mut nb = NonbondedForce::new(Arc::new(top), 3.0, 0.0, 78.0);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(0.5, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = nb.compute(&pos, &SimBox::Open, &mut f);
        assert_eq!(e, 0.0);
        assert_eq!(f[0], Vec3::ZERO);
    }

    #[test]
    fn types_are_interned() {
        // 256 particles but only two distinct (LJ, charge) combinations.
        let top = lj_top(256, 0.2);
        let nb = NonbondedForce::new(top, 2.0, 0.3, 78.0);
        assert_eq!(nb.n_types(), 2);
    }
}
