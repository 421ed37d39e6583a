//! Fig. 5 — time evolution of the ensemble-average Cα RMSD from native
//! with standard-deviation error bars.
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin fig5_ensemble_rmsd [-- --quick|--paper-scale]
//! ```

use copernicus_bench::{adaptive_run, save_json, Scale};
use serde_json::json;

struct Fig5Series {
    times_ns: Vec<f64>,
    mean_rmsd: Vec<f64>,
    std_dev: Vec<f64>,
    n_samples: Vec<usize>,
}

fn main() {
    let scale = Scale::from_env();
    let data = adaptive_run(scale);

    // Aggregate per-frame-index across the trajectory ensemble (the
    // series are pre-computed per trajectory in the cached run).
    let max_len = data
        .rmsd_series
        .iter()
        .map(|s| s.rmsd.len())
        .max()
        .unwrap_or(0);
    let longest = data
        .rmsd_series
        .iter()
        .max_by_key(|s| s.rmsd.len())
        .expect("non-empty run");

    let mut out = Fig5Series {
        times_ns: Vec::new(),
        mean_rmsd: Vec::new(),
        std_dev: Vec::new(),
        n_samples: Vec::new(),
    };
    for k in 0..max_len {
        let vals: Vec<f64> = data
            .rmsd_series
            .iter()
            .filter_map(|s| s.rmsd.get(k).copied())
            .collect();
        let n = vals.len();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        out.times_ns.push(longest.times_ns[k]);
        out.mean_rmsd.push(mean);
        out.std_dev.push(var.sqrt());
        out.n_samples.push(n);
    }

    println!("== Fig. 5: ensemble-average RMSD from native vs time ==");
    println!("(paper: average declines from the unfolded plateau as the ensemble folds)\n");
    println!(
        "{:>12} {:>10} {:>8} {:>6}",
        "time (ns)", "⟨RMSD⟩(Å)", "σ(Å)", "n"
    );
    let stride = (max_len / 25).max(1);
    for k in (0..max_len).step_by(stride) {
        println!(
            "{:>12.1} {:>10.2} {:>8.2} {:>6}",
            out.times_ns[k], out.mean_rmsd[k], out.std_dev[k], out.n_samples[k]
        );
    }

    let first = out.mean_rmsd.first().copied().unwrap_or(f64::NAN);
    let last = out.mean_rmsd.last().copied().unwrap_or(f64::NAN);
    println!("\nensemble mean: {first:.2} Å at t=0 → {last:.2} Å at the end");
    assert!(
        first > last,
        "the ensemble should move toward native on average"
    );
    let series = json!({
        "times_ns": out.times_ns,
        "mean_rmsd": out.mean_rmsd,
        "std_dev": out.std_dev,
        "n_samples": out.n_samples,
    });
    let path = save_json("fig5_ensemble_rmsd.json", &series);
    eprintln!("[bench] series written to {}", path.display());
}
