//! Non-bonded pair-loop micro-benchmark: the "SIMD kernel / threads" tier
//! of the paper's Fig. 6 hierarchy, measured.
//!
//! Runs the charged LJ / reaction-field fluid at roughly villin scale
//! (≈1k and ≈10k particles) through three kernel variants — the pre-packing
//! reference kernel (per-pair topology lookups), the packed serial kernel,
//! and the packed threaded kernel — and reports steps/sec and pairs/sec for
//! each. Before timing anything it cross-checks the kernels against each
//! other on one configuration and exits non-zero on divergence, so CI can
//! use it as a correctness smoke test.
//!
//! Results land in machine-readable form at the repo root as
//! `BENCH_nonbonded.json` (the perf trajectory future PRs are held to).
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin pairloop [-- --quick]
//! ```

use copernicus_bench::{list_to_value, Scale};
use mdsim::forces::{ForceTerm, NonbondedForce};
use mdsim::model::{lj_fluid, LjFluidSpec};
use mdsim::pbc::SimBox;
use mdsim::rng::rng_from_seed;
use mdsim::topology::{LjParams, Particle, Topology};
use mdsim::vec3::{v3, Vec3};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One (system size × kernel variant) measurement.
#[derive(Debug, Clone)]
struct KernelResult {
    n_particles: usize,
    /// "reference" (pre-packing, per-pair lookups) or "packed".
    kernel: &'static str,
    threaded: bool,
    n_pairs: usize,
    steps_per_sec: f64,
    pairs_per_sec: f64,
    packed_bytes: u64,
    /// Steps/sec relative to the reference serial kernel at this size.
    speedup_vs_reference: f64,
}

impl KernelResult {
    fn to_value(&self) -> Value {
        json!({
            "n_particles": self.n_particles,
            "kernel": self.kernel,
            "threaded": self.threaded,
            "n_pairs": self.n_pairs,
            "steps_per_sec": self.steps_per_sec,
            "pairs_per_sec": self.pairs_per_sec,
            "packed_bytes": self.packed_bytes,
            "speedup_vs_reference": self.speedup_vs_reference,
        })
    }
}

/// Cross-kernel agreement on a single configuration (gate for CI).
#[derive(Debug, Clone)]
struct Agreement {
    n_particles: usize,
    max_force_dev_packed_serial: f64,
    max_force_dev_packed_parallel: f64,
    energy_rel_dev_packed_serial: f64,
    energy_rel_dev_packed_parallel: f64,
    tolerance: f64,
    ok: bool,
}

impl Agreement {
    fn to_value(&self) -> Value {
        json!({
            "n_particles": self.n_particles,
            "max_force_dev_packed_serial": self.max_force_dev_packed_serial,
            "max_force_dev_packed_parallel": self.max_force_dev_packed_parallel,
            "energy_rel_dev_packed_serial": self.energy_rel_dev_packed_serial,
            "energy_rel_dev_packed_parallel": self.energy_rel_dev_packed_parallel,
            "tolerance": self.tolerance,
            "ok": self.ok,
        })
    }
}

fn spec_for(n: usize, threaded: bool, use_reference: bool) -> LjFluidSpec {
    LjFluidSpec {
        n_particles: n,
        density: 0.8,
        temperature: 1.0,
        cutoff: 2.5,
        skin: 0.3,
        charge: 0.2,
        threaded,
        // Always engage the threaded path when threading is requested, so
        // "threaded" means what it says even at small sizes.
        parallel_threshold: if threaded { 1 } else { usize::MAX },
        use_reference,
        ..LjFluidSpec::default()
    }
}

/// Measure one variant: steps/sec over `steps` timed steps (after
/// `warmup` untimed ones) plus pairs/sec from the kernel counters. The
/// timed section uses the force-only fast path (`run_fast`) — the stepping
/// mode a production sampling run would use — so the numbers include the
/// energy-skipping win on top of the kernel itself.
fn measure(n: usize, threaded: bool, use_reference: bool, warmup: u64, steps: u64) -> KernelResult {
    let mut sim = lj_fluid(spec_for(n, threaded, use_reference), 42);
    sim.run(warmup);
    let pairs_before = sim.kernel_stats().pairs_evaluated;
    let t0 = Instant::now();
    sim.run_fast(steps);
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let stats = sim.kernel_stats();
    KernelResult {
        n_particles: n,
        kernel: if use_reference { "reference" } else { "packed" },
        threaded,
        n_pairs: (stats.pairs_evaluated.saturating_sub(pairs_before) / steps.max(1)) as usize,
        steps_per_sec: steps as f64 / secs,
        pairs_per_sec: stats.pairs_evaluated.saturating_sub(pairs_before) as f64 / secs,
        packed_bytes: stats.packed_bytes,
        speedup_vs_reference: 1.0, // filled in by the caller
    }
}

/// Single-point cross-kernel check: reference vs packed serial vs packed
/// parallel on one jittered-lattice charged configuration. (A lattice
/// rather than uniform random placement: random points include near-contact
/// pairs whose enormous forces turn machine-epsilon rounding into absolute
/// deviations above any sane tolerance.)
fn check_agreement(n: usize) -> Agreement {
    let l = (n as f64 / 0.8).cbrt();
    let mut top = Topology::new();
    for k in 0..n {
        let q = if k % 2 == 0 { 0.2 } else { -0.2 };
        top.add_particle(Particle::new(1.0, q, LjParams::new(1.0, 1.0)));
    }
    let top = Arc::new(top);
    let bx = SimBox::cubic(l);
    let mut rng = rng_from_seed(7);
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

    let eval = |use_reference: bool, threaded: bool| -> (f64, Vec<Vec3>) {
        let mut nb = NonbondedForce::new(top.clone(), 2.5, 0.3, 78.0);
        nb.set_reference_kernel(use_reference);
        nb.set_threading(threaded);
        nb.set_parallel_threshold(1);
        let mut f = vec![Vec3::ZERO; n];
        let e = nb.compute(&pos, &bx, &mut f);
        (e, f)
    };

    let (e_ref, f_ref) = eval(true, false);
    let (e_ser, f_ser) = eval(false, false);
    let (e_par, f_par) = eval(false, true);

    let max_dev = |f: &[Vec3]| -> f64 {
        f.iter()
            .zip(&f_ref)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0, f64::max)
    };
    let e_scale = e_ref.abs().max(1.0);
    let tolerance = 1e-8;
    let a = Agreement {
        n_particles: n,
        max_force_dev_packed_serial: max_dev(&f_ser),
        max_force_dev_packed_parallel: max_dev(&f_par),
        energy_rel_dev_packed_serial: (e_ser - e_ref).abs() / e_scale,
        energy_rel_dev_packed_parallel: (e_par - e_ref).abs() / e_scale,
        tolerance,
        ok: false,
    };
    Agreement {
        ok: a.max_force_dev_packed_serial < tolerance
            && a.max_force_dev_packed_parallel < tolerance
            && a.energy_rel_dev_packed_serial < tolerance
            && a.energy_rel_dev_packed_parallel < tolerance,
        ..a
    }
}

/// The benchmark artifact lives at the repo root, next to ROADMAP.md.
fn output_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_nonbonded.json")
}

fn main() {
    let scale = Scale::from_env();
    let quick = scale == Scale::Quick;
    // Quick: seconds, for CI smoke. Default: the villin-scale sizes the
    // acceptance numbers quote.
    let (sizes, warmup, steps): (&[usize], u64, u64) = if quick {
        (&[256], 10, 40)
    } else {
        (&[1_000, 10_000], 20, 200)
    };

    println!("== non-bonded pair loop ({} scale) ==\n", scale.label());

    let agreement = check_agreement(if quick { 256 } else { 1_000 });
    println!(
        "cross-kernel agreement @ n={}: packed-serial dev {:.2e}, packed-parallel dev {:.2e} (tol {:.0e}) → {}",
        agreement.n_particles,
        agreement.max_force_dev_packed_serial,
        agreement.max_force_dev_packed_parallel,
        agreement.tolerance,
        if agreement.ok { "OK" } else { "DIVERGED" }
    );

    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let mut results = Vec::new();
    for &n in sizes {
        let reference = measure(n, false, true, warmup, steps);
        let base = reference.steps_per_sec;
        let rel = |r: KernelResult| KernelResult {
            speedup_vs_reference: r.steps_per_sec / base,
            ..r
        };
        let mut rows = vec![rel(reference), rel(measure(n, false, false, warmup, steps))];
        // On one core a "threaded" row times fork/join overhead, not
        // threads: it is neither measured nor written.
        if threads >= 2 {
            rows.push(rel(measure(n, true, false, warmup, steps)));
        }

        println!("\nn = {n} ({} pairs):", rows[1].n_pairs);
        for r in &rows {
            println!(
                "  {:<18} {:>10.1} steps/s  {:>12.3e} pairs/s  ({:.2}x)",
                format!(
                    "{}{}",
                    r.kernel,
                    if r.threaded { "+threads" } else { " serial" }
                ),
                r.steps_per_sec,
                r.pairs_per_sec,
                r.speedup_vs_reference
            );
        }
        results.extend(rows);
    }

    let report = json!({
        "benchmark": "nonbonded_pairloop",
        "scale": scale.label(),
        "threads": threads,
        "results": list_to_value(&results, KernelResult::to_value),
        "agreement": agreement.to_value(),
    });
    let path = output_path();
    std::fs::write(&path, format!("{report:#}\n")).expect("cannot write BENCH_nonbonded.json");
    println!("\nwrote {}", path.display());

    if !agreement.ok {
        eprintln!("error: kernel variants diverged beyond tolerance");
        std::process::exit(1);
    }
}
