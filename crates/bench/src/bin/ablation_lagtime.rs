//! Ablation (§3.2) — lag-time sensitivity: *"a sensitivity analysis
//! showed that the system became Markovian for lag times of 20 ns or
//! greater"*, which fixed the paper's 25-ns lag.
//!
//! Re-counts transitions from the run's final state decomposition at a
//! range of lag times, rebuilds the reversible MLE transition matrix at
//! each, and prints the implied-timescale curves; where they flatten,
//! the model is Markovian.
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin ablation_lagtime [-- --quick|--paper-scale]
//! ```

use copernicus_bench::{adaptive_run, list_to_value, save_json, Scale};
use msm::{implied_timescale, largest_connected_set, CountMatrix, TransitionMatrix};
use serde_json::json;

struct LagPoint {
    lag_ns: f64,
    implied_timescales_ns: Vec<f64>,
    n_active: usize,
}

fn main() {
    let scale = Scale::from_env();
    let data = adaptive_run(scale);
    let n_states = data.center_rmsd_to_native.len();
    let frame_ns = data.frame_ns;

    println!("== ablation: implied timescales vs lag time ==");
    println!("(paper: Markovian for lags ≥ 20 ns; 25-ns lag used for Fig. 4)\n");
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12}",
        "lag (ns)", "states", "t1 (ns)", "t2 (ns)", "t3 (ns)"
    );

    let mut points = Vec::new();
    for lag_frames in [1usize, 2, 5, 10, 15, 20, 30] {
        let usable = data.dtrajs.iter().any(|d| d.len() > lag_frames);
        if !usable {
            continue;
        }
        let counts = CountMatrix::from_dtrajs(&data.dtrajs, n_states, lag_frames);
        let active = largest_connected_set(&counts);
        if active.len() < 3 {
            continue;
        }
        let restricted = counts.restrict(&active);
        let (t, pi) = TransitionMatrix::reversible_mle(&restricted, 1e-4);
        let lag_ns = lag_frames as f64 * frame_ns;
        let its: Vec<f64> = t
            .eigenvalues_reversible(4, &pi)
            .into_iter()
            .skip(1)
            .filter_map(|l| implied_timescale(l, lag_ns))
            .collect();
        println!(
            "{:>10.1} {:>10} {:>12.0} {:>12.0} {:>12.0}",
            lag_ns,
            active.len(),
            its.first().copied().unwrap_or(f64::NAN),
            its.get(1).copied().unwrap_or(f64::NAN),
            its.get(2).copied().unwrap_or(f64::NAN),
        );
        points.push(LagPoint {
            lag_ns,
            implied_timescales_ns: its,
            n_active: active.len(),
        });
    }

    if points.len() >= 2 {
        let first = points.first().unwrap().implied_timescales_ns[0];
        let last = points.last().unwrap().implied_timescales_ns[0];
        println!(
            "\nslowest implied timescale: {first:.0} ns at the shortest lag → {last:.0} ns at the longest"
        );
        println!("the flattening of this curve with lag is the Markovianity test the paper ran");
    }
    let rows = list_to_value(&points, |p| {
        json!({
            "lag_ns": p.lag_ns,
            "implied_timescales_ns": p.implied_timescales_ns,
            "n_active": p.n_active,
        })
    });
    let path = save_json("ablation_lagtime.json", &rows);
    eprintln!("[bench] results written to {}", path.display());
}
