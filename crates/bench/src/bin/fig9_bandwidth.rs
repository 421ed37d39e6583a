//! Fig. 9 — average ensemble-level bandwidth vs total core count, one
//! line per cores-per-simulation.
//!
//! More concurrent workers finish segments more often, so ensemble
//! traffic rises with core count — but stays in the 0.001–1 MB/s range
//! even at 10⁵ cores, which is the point of the hierarchical design: the
//! top level needs practically no interconnect.
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin fig9_bandwidth
//! ```

use clustersim::{log_core_grid, scaling_sweep, PerfModel, ProjectSpec};
use copernicus_bench::{list_to_value, save_json};

fn main() {
    let project = ProjectSpec::villin_first_folded();
    let perf = PerfModel::villin();
    println!("== Fig. 9: ensemble-level bandwidth vs total cores ==\n");

    let k_values = [12usize, 24, 48, 96];
    let grid = log_core_grid(12, 200_000, 4);
    let points = scaling_sweep(&project, &perf, &grid, &k_values);

    for &k in &k_values {
        println!("-- {k} cores per simulation --");
        println!("{:>10} {:>14}", "cores", "MB/s");
        for p in points.iter().filter(|p| p.cores_per_sim == k) {
            println!("{:>10} {:>14.4}", p.total_cores, p.ensemble_bandwidth_mb_per_s);
        }
        println!();
    }

    let max_bw = points
        .iter()
        .map(|p| p.ensemble_bandwidth_mb_per_s)
        .fold(0.0, f64::max);
    println!("== checks ==");
    println!("peak average bandwidth across the sweep: {max_bw:.3} MB/s");
    assert!(
        max_bw < 10.0,
        "ensemble traffic must stay tiny; the hierarchy is the point"
    );
    // Bandwidth grows with cores within each line (until the command
    // limit flattens it).
    for &k in &k_values {
        let line: Vec<f64> = points
            .iter()
            .filter(|p| p.cores_per_sim == k)
            .map(|p| p.ensemble_bandwidth_mb_per_s)
            .collect();
        assert!(
            line.last().unwrap() >= line.first().unwrap(),
            "bandwidth should rise along the k={k} line"
        );
    }
    println!("paper: 0.001-1 MB/s over the same range — shape reproduced");
    let rows = list_to_value(&points, |p| p.to_value());
    let path = save_json("fig9_bandwidth.json", &rows);
    eprintln!("[bench] series written to {}", path.display());
}
