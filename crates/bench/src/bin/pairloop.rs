//! Non-bonded pair-loop micro-benchmark: the "SIMD kernel / threads" tier
//! of the paper's Fig. 6 hierarchy, measured.
//!
//! Runs the charged LJ / reaction-field fluid at roughly villin scale
//! (≈1k and ≈10k particles) through the packed kernel, serial and
//! threaded, and reports steps/sec and pairs/sec for each: the median
//! of `REPEATS` timed runs, with the slowest and fastest beside it.
//! Before timing
//! anything it cross-checks the threaded kernel against the serial one on
//! one configuration and exits non-zero on divergence, so CI can use it as
//! a correctness smoke test. (Agreement with the per-pair reference kernel
//! is the `packed_kernels_match_reference` unit test.)
//!
//! Beside the fluid it times the 35-bead HP35 Gō model's Langevin step
//! (`run_fast` ns/step), and apart from the step the two parts that
//! dominate it: `fill_normals` of the step's 105 noise deviates and one
//! Gō-term evaluation along a recorded stretch of the same run.
//!
//! Results land in machine-readable form at the repo root as
//! `BENCH_nonbonded.json` (the perf trajectory future PRs are held to).
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin pairloop [-- --quick]
//! ```

use copernicus_bench::{list_to_value, provenance, Scale};
use mdsim::forces::{ForceTerm, NonbondedForce};
use mdsim::model::{lj_fluid, LjFluidSpec, VillinModel};
use mdsim::pbc::SimBox;
use mdsim::rng::{fill_normals, rng_from_seed};
use mdsim::topology::{LjParams, Particle, Topology};
use mdsim::vec3::{v3, Vec3};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Timed runs per row; the row reports their median, min and max.
const REPEATS: usize = 5;

/// One (system size × serial or threaded) measurement.
#[derive(Debug, Clone)]
struct KernelResult {
    n_particles: usize,
    threaded: bool,
    n_pairs: usize,
    /// Steps/sec of each timed run, ascending.
    steps_per_sec: Vec<f64>,
    packed_bytes: u64,
}

impl KernelResult {
    fn median_steps_per_sec(&self) -> f64 {
        self.steps_per_sec[self.steps_per_sec.len() / 2]
    }

    fn to_value(&self) -> Value {
        let pairs = |steps_per_sec: f64| steps_per_sec * self.n_pairs as f64;
        let (min, max) = (self.steps_per_sec[0], self.steps_per_sec[REPEATS - 1]);
        json!({
            "n_particles": self.n_particles,
            "threaded": self.threaded,
            "n_pairs": self.n_pairs,
            "repeats": REPEATS,
            "steps_per_sec": self.median_steps_per_sec(),
            "steps_per_sec_min": min,
            "steps_per_sec_max": max,
            "pairs_per_sec": pairs(self.median_steps_per_sec()),
            "pairs_per_sec_min": pairs(min),
            "pairs_per_sec_max": pairs(max),
            "packed_bytes": self.packed_bytes,
        })
    }
}

/// Threaded-vs-serial agreement on a single configuration (gate for CI).
#[derive(Debug, Clone)]
struct Agreement {
    n_particles: usize,
    max_force_dev_packed_parallel: f64,
    energy_rel_dev_packed_parallel: f64,
    tolerance: f64,
    ok: bool,
}

impl Agreement {
    fn to_value(&self) -> Value {
        json!({
            "n_particles": self.n_particles,
            "max_force_dev_packed_parallel": self.max_force_dev_packed_parallel,
            "energy_rel_dev_packed_parallel": self.energy_rel_dev_packed_parallel,
            "tolerance": self.tolerance,
            "ok": self.ok,
        })
    }
}

/// The pair threshold that forces the threaded path (1) or the serial
/// one (`usize::MAX`), so "threaded" means what it says at every size.
fn threshold(threaded: bool) -> usize {
    if threaded {
        1
    } else {
        usize::MAX
    }
}

fn spec_for(n: usize, threaded: bool) -> LjFluidSpec {
    LjFluidSpec {
        n_particles: n,
        density: 0.8,
        temperature: 1.0,
        cutoff: 2.5,
        skin: 0.3,
        charge: 0.2,
        parallel_threshold: threshold(threaded),
        ..LjFluidSpec::default()
    }
}

/// Measure one variant: `REPEATS` runs of `steps` timed steps each
/// (after `warmup` untimed ones), with the pairs per step from the
/// kernel counters. The timed sections use the force-only fast path
/// (`run_fast`) — the stepping mode a production sampling run would use —
/// so the numbers include the energy-skipping win on top of the kernel.
fn measure(n: usize, threaded: bool, warmup: u64, steps: u64) -> KernelResult {
    let mut sim = lj_fluid(spec_for(n, threaded), 42);
    sim.run(warmup);
    let pairs_before = sim.kernel_stats().pairs_evaluated;
    let mut steps_per_sec: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            sim.run_fast(steps);
            steps as f64 / t0.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    steps_per_sec.sort_by(f64::total_cmp);
    let stats = sim.kernel_stats();
    let timed_steps = steps.max(1) * REPEATS as u64;
    KernelResult {
        n_particles: n,
        threaded,
        n_pairs: (stats.pairs_evaluated.saturating_sub(pairs_before) / timed_steps) as usize,
        steps_per_sec,
        packed_bytes: stats.packed_bytes,
    }
}

/// Single-point cross-kernel check: packed parallel vs packed serial on
/// one jittered-lattice charged configuration. (A lattice
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

    let eval = |threaded: bool| -> (f64, Vec<Vec3>) {
        let mut nb = NonbondedForce::new(top.clone(), 2.5, 0.3, 78.0);
        nb.set_parallel_threshold(threshold(threaded));
        let mut f = vec![Vec3::ZERO; n];
        let e = nb.compute(&pos, &bx, &mut f);
        (e, f)
    };

    let (e_ser, f_ser) = eval(false);
    let (e_par, f_par) = eval(true);

    let max_force_dev = f_par
        .iter()
        .zip(&f_ser)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0, f64::max);
    let energy_rel_dev = (e_par - e_ser).abs() / e_ser.abs().max(1.0);
    let tolerance = 1e-8;
    Agreement {
        n_particles: n,
        max_force_dev_packed_parallel: max_force_dev,
        energy_rel_dev_packed_parallel: energy_rel_dev,
        tolerance,
        ok: max_force_dev < tolerance && energy_rel_dev < tolerance,
    }
}

/// Put `REPEATS` timings into `row` as `key` (the median), `key_min`
/// and `key_max`.
fn put_spread(row: &mut Value, key: &str, mut xs: Vec<f64>) {
    xs.sort_by(f64::total_cmp);
    row[key] = json!(xs[xs.len() / 2]);
    row[format!("{key}_min").as_str()] = json!(xs[0]);
    row[format!("{key}_max").as_str()] = json!(xs[xs.len() - 1]);
}

/// The HP35 Langevin step at the model's default temperature, after
/// `warmup` steps from an unfolded start, and its two largest parts.
fn measure_hp35(warmup: u64, steps: u64) -> Value {
    let model = VillinModel::hp35();
    let mut sim = model.simulation(model.unfolded_start(11), model.params.temperature, 42);
    sim.run_fast(warmup);
    let step_ns = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            sim.run_fast(steps);
            t0.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();

    let mut rng = rng_from_seed(7);
    let mut noise = vec![0.0; 3 * model.n_beads()];
    let fill_ns = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..steps {
                fill_normals(&mut rng, &mut noise);
            }
            t0.elapsed().as_nanos() as f64 / steps as f64
        })
        .collect();

    // A fresh term per repeat over 1 000 consecutive frames, so its pair
    // list (if it keeps one) is rebuilt as often as in the run; few
    // enough frames to stay in cache, as one walker's positions do.
    let frames = sim.run_recording(1_000, 1);
    let mut forces = vec![Vec3::ZERO; model.n_beads()];
    let mut pairs = 0;
    let go_ns = (0..REPEATS)
        .map(|_| {
            let mut go = model.go_force();
            let t0 = Instant::now();
            for pos in frames.frames() {
                go.compute_force_only(pos, &SimBox::Open, &mut forces);
            }
            pairs = go.kernel_stats().map_or(0, |k| k.pairs_evaluated);
            t0.elapsed().as_nanos() as f64 / frames.len() as f64
        })
        .collect();

    let mut row = json!({
        "n_beads": model.n_beads(),
        "repeats": REPEATS,
        "steps": steps,
        "go_pairs_per_eval": pairs as f64 / frames.len() as f64,
    });
    put_spread(&mut row, "run_fast_ns_per_step", step_ns);
    put_spread(&mut row, "fill_normals_ns", fill_ns);
    put_spread(&mut row, "go_ns", go_ns);
    row
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
        "threaded vs serial agreement @ n={}: max force dev {:.2e}, energy rel dev {:.2e} (tol {:.0e}) → {}",
        agreement.n_particles,
        agreement.max_force_dev_packed_parallel,
        agreement.energy_rel_dev_packed_parallel,
        agreement.tolerance,
        if agreement.ok { "OK" } else { "DIVERGED" }
    );

    // Timed before the fluid rows: after them, the same row has read up
    // to 1.4x slower on a 2-vCPU box.
    let (hp35_warmup, hp35_steps) = if quick { (200, 1_000) } else { (5_000, 20_000) };
    let hp35 = measure_hp35(hp35_warmup, hp35_steps);
    let ns = |key: &str| hp35[key].as_f64().unwrap_or(f64::NAN);
    println!(
        "HP35 Langevin step: {:.0} ns/step (min {:.0}, max {:.0}); fill_normals {:.0} ns, Gō term {:.0} ns ({:.0} pairs)",
        ns("run_fast_ns_per_step"),
        ns("run_fast_ns_per_step_min"),
        ns("run_fast_ns_per_step_max"),
        ns("fill_normals_ns"),
        ns("go_ns"),
        ns("go_pairs_per_eval"),
    );

    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let mut results = Vec::new();
    for &n in sizes {
        let mut rows = vec![measure(n, false, warmup, steps)];
        // On one core a "threaded" row times fork/join overhead, not
        // threads: it is neither measured nor written.
        if threads >= 2 {
            rows.push(measure(n, true, warmup, steps));
        }

        println!("\nn = {n} ({} pairs):", rows[0].n_pairs);
        let serial = rows[0].median_steps_per_sec();
        for r in &rows {
            let median = r.median_steps_per_sec();
            println!(
                "  {:<8} {:>10.1} steps/s (min {:.1}, max {:.1})  {:>12.3e} pairs/s  ({:.2}x serial)",
                if r.threaded { "threaded" } else { "serial" },
                median,
                r.steps_per_sec[0],
                r.steps_per_sec[REPEATS - 1],
                median * r.n_pairs as f64,
                median / serial
            );
        }
        results.extend(rows);
    }

    let report = json!({
        "benchmark": "nonbonded_pairloop",
        "scale": scale.label(),
        "threads": threads,
        "results": list_to_value(&results, KernelResult::to_value),
        "hp35": hp35,
        "agreement": agreement.to_value(),
        "provenance": provenance(),
    });
    let path = output_path();
    std::fs::write(&path, format!("{report:#}\n")).expect("cannot write BENCH_nonbonded.json");
    println!("\nwrote {}", path.display());

    if !agreement.ok {
        eprintln!("error: threaded and serial kernels diverged beyond tolerance");
        std::process::exit(1);
    }
}
