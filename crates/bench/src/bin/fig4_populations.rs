//! Fig. 4 — time evolution of cluster populations in the microstate MSM:
//! `p(t+τ) = p(t) T(τ)` from the nine-unfolded-states start, with the
//! folded state emerging over time (paper: 66 % folded at 2,000 ns,
//! t½ ≈ 500–600 ns vs ≈700 ns experimental).
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin fig4_populations [-- --quick|--paper-scale]
//! ```

use copernicus_bench::{adaptive_run, print_series, save_json, Scale};
use msm::first_crossing;

fn main() {
    let scale = Scale::from_env();
    let data = adaptive_run(scale);
    let pops = &data.populations;

    println!("== Fig. 4: microstate-MSM population evolution ==\n");

    // The individual cluster traces (the figure's thin lines): show the
    // five most populated final states.
    let mut final_order: Vec<usize> = (0..pops.states.len()).collect();
    final_order.sort_by(|&a, &b| {
        pops.states[b]
            .last()
            .partial_cmp(&pops.states[a].last())
            .unwrap()
    });
    println!("five most-populated final states (fraction at selected times):");
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "state", "RMSD(Å)", "t=0", "25%", "50%", "end"
    );
    let n_t = pops.times_ns.len();
    for &s in final_order.iter().take(5) {
        let series = &pops.states[s];
        println!(
            "{:>8} {:>10.2} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            s,
            pops.state_rmsd_to_native[s],
            series[0],
            series[n_t / 4],
            series[n_t / 2],
            series[n_t - 1]
        );
    }

    // The emerging folded state (the figure's thick black line).
    println!("\nfolded fraction vs time (folded = center within 3.5 Å of native):");
    let stride = (n_t / 20).max(1);
    let ts: Vec<f64> = pops.times_ns.iter().step_by(stride).copied().collect();
    let fs: Vec<f64> = pops.folded_fraction.iter().step_by(stride).copied().collect();
    print_series(("time (ns)", "folded"), &ts, &fs);

    let final_folded = *pops.folded_fraction.last().unwrap_or(&0.0);
    let t_half = first_crossing(&pops.times_ns, &pops.folded_fraction, 0.5 * final_folded);
    println!(
        "\nfolded fraction at {:.0} ns: {:.0}% (paper: 66% at 2,000 ns)",
        pops.times_ns.last().unwrap_or(&0.0),
        100.0 * final_folded
    );
    println!(
        "t½ = {} (paper: 500-600 ns; experiment ≈700 ns)",
        t_half
            .map(|t| format!("{t:.0} ns"))
            .unwrap_or_else(|| "n/a".into())
    );
    let path = save_json("fig4_populations_series.json", &pops.to_value());
    eprintln!("[bench] series written to {}", path.display());
}
