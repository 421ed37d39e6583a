//! Fig. 6 — multi-level parallelism: the bandwidth and latency at each
//! tier of the hierarchy (SIMD kernels → threads → MPI ranks → workers →
//! SSL overlay), with the average and peak figures the paper annotates.
//!
//! The thread tier is *measured* (serial vs thread-striped non-bonded
//! kernel on an LJ fluid); the rank and ensemble tiers come from the
//! calibrated models the performance figures use; the overlay tier
//! prints the sizes of the frames the shipped codec sends.
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin fig6_levels
//! ```

use clustersim::{simulate_controller, MachineSpec, PerfModel, ProjectSpec};
use copernicus_core::codec::{encode_peer, encode_to_server};
use copernicus_core::messages::{PeerMsg, ToServer};
use copernicus_core::wire::HEADER_LEN;
use copernicus_core::WorkerId;
use mdsim::{lj_fluid, LjFluidSpec};
use std::time::Instant;

fn main() {
    println!("== Fig. 6: the parallelism hierarchy ==\n");

    // --- Thread tier: measured speed of the non-bonded kernel ----------
    let measure = |threaded: bool| -> f64 {
        let mut sim = lj_fluid(
            LjFluidSpec {
                // Large enough that a step outweighs the two thread
                // fork/joins it costs; the threshold forces the path the
                // row is labelled with.
                n_particles: 8_000,
                threaded,
                parallel_threshold: if threaded { 1 } else { usize::MAX },
                ..LjFluidSpec::default()
            },
            1,
        );
        sim.run(20); // warm up, build neighbour lists
        let t0 = Instant::now();
        sim.run(60);
        60.0 / t0.elapsed().as_secs_f64()
    };
    let serial = measure(false);
    let threaded = measure(true);
    let n_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("SIMD/thread tier (8,000-atom LJ fluid, shared memory):");
    println!("  serial kernel:   {serial:>8.0} steps/s");
    println!(
        "  striped kernel:  {threaded:>8.0} steps/s on {n_threads} thread(s) ({:.2}x)",
        threaded / serial
    );
    println!("  latency: <100 ns (paper), bandwidth ~25 GB/s peak\n");

    // --- Rank (MPI) tier: the calibrated strong-scaling model ----------
    let perf = PerfModel::villin();
    println!("rank (MPI/Infiniband) tier — villin 9,864 atoms:");
    println!("  {:>6} {:>12} {:>12}", "cores", "ns/day", "efficiency");
    for k in [1usize, 12, 24, 48, 96] {
        println!(
            "  {:>6} {:>12.0} {:>12.2}",
            k,
            perf.speed_ns_per_day(k),
            perf.efficiency(k)
        );
    }
    println!("  per-simulation traffic: 0.5-2.9 GB/s for 24-96 cores (paper), latency 1-10 µs\n");

    // --- Worker/ensemble tier -------------------------------------------
    let project = ProjectSpec::villin_first_folded();
    let outcome = simulate_controller(&project, &MachineSpec::new(5_000, 24), &perf);
    println!("ensemble (worker ↔ server) tier:");
    println!(
        "  {} commands over {:.0} h → average {:.3} MB/s trajectory traffic",
        outcome.commands_completed,
        outcome.wallclock_hours,
        outcome.ensemble_bandwidth_mb_per_s()
    );
    println!("  paper: average 0.04 MB/s, peak 100 MB/s, latency ~10 ms\n");

    // --- Overlay (SSL) tier: heartbeat frames as the codec encodes them
    let frame = |payload: Vec<u8>| HEADER_LEN + payload.len();
    let heartbeat = frame(encode_to_server(&ToServer::Heartbeat {
        worker: WorkerId(0),
    }));
    let workers: Vec<WorkerId> = (0..8).map(WorkerId).collect();
    let singles: usize = workers
        .iter()
        .map(|&worker| frame(encode_peer(&PeerMsg::Heartbeat { worker })))
        .sum();
    let coalesced = frame(encode_peer(&PeerMsg::Heartbeats { workers }));
    println!("overlay (authenticated TCP) tier — frame sizes from the shipped codec:");
    println!("  worker heartbeat frame: {heartbeat} B (paper: less than 200 B)");
    println!(
        "  24 workers at the paper's 120 s interval: {:.1} B/s",
        (24 * heartbeat) as f64 / 120.0
    );
    println!(
        "  delegate forwarding 8 workers' heartbeats to the owner: \
         {coalesced} B coalesced vs {singles} B as 8 frames"
    );
    println!("  paper: >100 ms latency between continents");
}
