//! Discrete-event simulation of the Copernicus controller's scheduling
//! activity — the method §4 of the paper uses to produce Figs. 7–9.
//!
//! A pool of workers (each a `cores_per_sim`-core parallel simulation)
//! pulls 50-ns trajectory-extension commands from the project queue. A
//! generation consists of one extension of each trajectory; when every
//! output of a generation has arrived at the project server, the MSM
//! controller clusters (costing controller time, overlapped with worker
//! execution of nothing — the queue is empty during clustering, matching
//! the generation-barrier protocol of §3) and spawns the next generation.
//! Output transfers traverse a worker→server link and are accounted for
//! the ensemble-bandwidth figure.

use crate::events::EventQueue;
use crate::perfmodel::PerfModel;

/// Worker→server output link: the paper's QDR Infiniband, 10 µs one-way
/// latency (s) and 2.7 GB/s (bytes/s).
const OUTPUT_LINK_LATENCY: f64 = 10e-6;
const OUTPUT_LINK_BANDWIDTH: f64 = 2.7e9;

/// The adaptive-sampling project being scheduled (paper defaults).
#[derive(Debug, Clone, Copy)]
pub struct ProjectSpec {
    /// Trajectory-extension commands per generation (paper: 225).
    pub commands_per_generation: usize,
    /// Generations until the stop criterion. 3 ≈ first folded
    /// conformation; blind native-state prediction costs ≈2.5× more.
    pub generations: usize,
    /// Nanoseconds simulated per command (paper: 50).
    pub segment_ns: f64,
    /// Output payload per command (compressed trajectory), bytes.
    pub output_bytes_per_command: u64,
    /// Controller-side clustering + adaptive-sampling time per
    /// generation, hours.
    pub clustering_hours: f64,
}

impl ProjectSpec {
    /// The villin run of §3: 225 commands/generation, 50-ns segments,
    /// stop at first folded conformation (3 generations).
    pub fn villin_first_folded() -> Self {
        ProjectSpec {
            commands_per_generation: 225,
            generations: 3,
            segment_ns: 50.0,
            output_bytes_per_command: 7_000_000,
            clustering_hours: 0.1,
        }
    }

    /// The blind-prediction stop criterion (≈8 generations, 80–90 h on
    /// the paper's hardware).
    pub fn villin_blind_prediction() -> Self {
        ProjectSpec {
            generations: 8,
            ..Self::villin_first_folded()
        }
    }

    /// Total simulated nanoseconds in the project.
    pub fn total_work_ns(&self) -> f64 {
        self.generations as f64 * self.commands_per_generation as f64 * self.segment_ns
    }
}

/// The compute resource: a homogeneous pool partitioned into workers.
#[derive(Debug, Clone, Copy)]
pub struct MachineSpec {
    pub total_cores: usize,
    /// Cores assigned to each individual simulation (the Fig. 7/8 line
    /// parameter).
    pub cores_per_sim: usize,
}

impl MachineSpec {
    pub fn new(total_cores: usize, cores_per_sim: usize) -> Self {
        assert!(cores_per_sim >= 1 && total_cores >= cores_per_sim);
        MachineSpec {
            total_cores,
            cores_per_sim,
        }
    }

    /// Number of concurrent simulations the pool can host.
    pub fn n_workers(&self) -> usize {
        self.total_cores / self.cores_per_sim
    }
}

/// Result of one controller simulation.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub wallclock_hours: f64,
    /// Core-hours actually spent executing commands.
    pub busy_core_hours: f64,
    /// Core-hours of the full allocation over the run.
    pub total_core_hours: f64,
    pub commands_completed: usize,
    pub output_bytes: u64,
    /// Completion time (hours) of each generation barrier.
    pub generation_done_hours: Vec<f64>,
}

impl RunOutcome {
    /// The paper's scaling efficiency: `t_res(1) / (N · t_res(N))`.
    pub fn efficiency(&self, tres1_hours: f64, total_cores: usize) -> f64 {
        tres1_hours / (total_cores as f64 * self.wallclock_hours)
    }

    /// Average ensemble-level bandwidth in MB/s (Fig. 9).
    pub fn ensemble_bandwidth_mb_per_s(&self) -> f64 {
        self.output_bytes as f64 / (self.wallclock_hours * 3600.0) / 1e6
    }

    /// Fraction of allocated core-hours spent computing.
    pub fn utilization(&self) -> f64 {
        self.busy_core_hours / self.total_core_hours
    }
}

/// Sequential reference: every command run back-to-back on one core
/// (`t_res(1)` in the paper, 1.1·10⁵ hours for villin-first-folded).
pub fn reference_tres1_hours(project: &ProjectSpec, perf: &PerfModel) -> f64 {
    perf.hours_for(project.total_work_ns(), 1)
}

#[derive(Debug)]
enum Event {
    /// A worker finishes executing a command.
    CommandExecuted { worker: usize, generation: usize },
    /// A command's output lands on the project server.
    OutputArrived { generation: usize },
    /// The controller finishes clustering generation `g`.
    ClusteringDone { generation: usize },
}

/// Simulate the controller's activity for the given project and machine.
pub fn simulate_controller(
    project: &ProjectSpec,
    machine: &MachineSpec,
    perf: &PerfModel,
) -> RunOutcome {
    let n_workers = machine.n_workers();
    assert!(n_workers >= 1, "machine cannot host a single worker");
    let exec_hours = perf.hours_for(project.segment_ns, machine.cores_per_sim);
    let transfer_hours = (OUTPUT_LINK_LATENCY
        + project.output_bytes_per_command as f64 / OUTPUT_LINK_BANDWIDTH)
        / 3600.0;

    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut pending: usize = project.commands_per_generation; // commands waiting for a worker
    let mut idle_workers: Vec<usize> = (0..n_workers).collect();
    let mut generation: usize = 0; // generation currently being sampled
    let mut outputs_received = 0usize;
    let mut commands_completed = 0usize;
    let mut busy_core_hours = 0.0;
    let mut output_bytes = 0u64;
    let mut generation_done_hours = Vec::new();
    let mut clock = 0.0;

    // Kick off: assign as many gen-0 commands as workers allow.
    let dispatch = |queue: &mut EventQueue<Event>,
                    pending: &mut usize,
                    idle: &mut Vec<usize>,
                    generation: usize,
                    now: f64| {
        while *pending > 0 && !idle.is_empty() {
            let worker = idle.pop().expect("non-empty");
            *pending -= 1;
            queue.push(
                now + exec_hours,
                Event::CommandExecuted { worker, generation },
            );
        }
    };
    dispatch(&mut queue, &mut pending, &mut idle_workers, generation, 0.0);

    while let Some((time, event)) = queue.pop() {
        clock = time;
        match event {
            Event::CommandExecuted {
                worker,
                generation: g,
            } => {
                commands_completed += 1;
                busy_core_hours += exec_hours * machine.cores_per_sim as f64;
                output_bytes += project.output_bytes_per_command;
                // Output travels to the project server while the worker
                // immediately picks up new work (transfers overlap
                // compute, §4: "data transfers occur in parallel with
                // project processing").
                queue.push(
                    time + transfer_hours,
                    Event::OutputArrived { generation: g },
                );
                idle_workers.push(worker);
                dispatch(&mut queue, &mut pending, &mut idle_workers, g, time);
            }
            Event::OutputArrived { generation: g } => {
                outputs_received += 1;
                if outputs_received == project.commands_per_generation {
                    // Generation barrier: cluster, then spawn the next.
                    queue.push(
                        time + project.clustering_hours,
                        Event::ClusteringDone { generation: g },
                    );
                }
            }
            Event::ClusteringDone { generation: g } => {
                generation_done_hours.push(time);
                if g + 1 < project.generations {
                    generation = g + 1;
                    outputs_received = 0;
                    pending = project.commands_per_generation;
                    dispatch(
                        &mut queue,
                        &mut pending,
                        &mut idle_workers,
                        generation,
                        time,
                    );
                }
            }
        }
    }

    RunOutcome {
        wallclock_hours: clock,
        busy_core_hours,
        total_core_hours: clock * machine.total_cores as f64,
        commands_completed,
        output_bytes,
        generation_done_hours,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_project() -> ProjectSpec {
        ProjectSpec {
            commands_per_generation: 10,
            generations: 2,
            segment_ns: 50.0,
            output_bytes_per_command: 1_000_000,
            clustering_hours: 0.0,
        }
    }

    #[test]
    fn serial_machine_matches_reference() {
        let project = fast_project();
        let perf = PerfModel::villin();
        let machine = MachineSpec::new(1, 1);
        let outcome = simulate_controller(&project, &machine, &perf);
        let tres1 = reference_tres1_hours(&project, &perf);
        // One worker executes all commands back-to-back; only the final
        // transfer can extend past the last execution.
        assert!(
            (outcome.wallclock_hours - tres1).abs() / tres1 < 1e-6,
            "{} vs {tres1}",
            outcome.wallclock_hours
        );
        assert_eq!(outcome.commands_completed, 20);
        assert!(outcome.efficiency(tres1, 1) > 0.999);
    }

    #[test]
    fn perfect_parallelism_when_workers_match_commands() {
        let project = fast_project();
        let perf = PerfModel::villin();
        // 10 single-core workers for 10 commands/generation.
        let machine = MachineSpec::new(10, 1);
        let outcome = simulate_controller(&project, &machine, &perf);
        let per_cmd = perf.hours_for(50.0, 1);
        // Two generations, each one command deep.
        assert!(
            (outcome.wallclock_hours - 2.0 * per_cmd) / per_cmd < 0.01,
            "wallclock {}",
            outcome.wallclock_hours
        );
        let tres1 = reference_tres1_hours(&project, &perf);
        assert!(outcome.efficiency(tres1, 10) > 0.99);
    }

    #[test]
    fn excess_workers_do_not_help() {
        let project = fast_project();
        let perf = PerfModel::villin();
        let just_enough = simulate_controller(&project, &MachineSpec::new(10, 1), &perf);
        let double = simulate_controller(&project, &MachineSpec::new(20, 1), &perf);
        assert!(
            (just_enough.wallclock_hours - double.wallclock_hours).abs() < 1e-9,
            "extra workers changed the makespan"
        );
        // But they halve the efficiency.
        let tres1 = reference_tres1_hours(&project, &perf);
        let e10 = just_enough.efficiency(tres1, 10);
        let e20 = double.efficiency(tres1, 20);
        assert!((e10 / e20 - 2.0).abs() < 0.01);
    }

    #[test]
    fn generation_barrier_is_respected() {
        let project = fast_project();
        let perf = PerfModel::villin();
        let machine = MachineSpec::new(4, 1); // 4 workers, 10 commands/gen
        let outcome = simulate_controller(&project, &machine, &perf);
        assert_eq!(outcome.generation_done_hours.len(), 2);
        // Second generation cannot start before the first completes.
        let per_cmd = perf.hours_for(50.0, 1);
        let gen0 = outcome.generation_done_hours[0];
        // ceil(10/4) = 3 rounds of execution.
        assert!(gen0 >= 3.0 * per_cmd - 1e-9, "gen 0 done at {gen0}");
    }

    #[test]
    fn parallel_sims_cut_time_at_efficiency_cost() {
        let project = ProjectSpec::villin_first_folded();
        let perf = PerfModel::villin();
        let tres1 = reference_tres1_hours(&project, &perf);
        let k1 = simulate_controller(&project, &MachineSpec::new(225, 1), &perf);
        let k24 = simulate_controller(&project, &MachineSpec::new(225 * 24, 24), &perf);
        assert!(k24.wallclock_hours < k1.wallclock_hours / 15.0);
        assert!(k24.efficiency(tres1, 225 * 24) < k1.efficiency(tres1, 225));
    }

    #[test]
    fn paper_anchor_20k_cores_96_per_sim() {
        // Fig. 7/8: with 20,000 cores and 96-core simulations, the villin
        // project reaches ≈53 % efficiency and just over 10 h.
        let project = ProjectSpec::villin_first_folded();
        let perf = PerfModel::villin();
        let machine = MachineSpec::new(20_000, 96);
        let outcome = simulate_controller(&project, &machine, &perf);
        let tres1 = reference_tres1_hours(&project, &perf);
        let eff = outcome.efficiency(tres1, 20_000);
        assert!(
            (0.42..=0.62).contains(&eff),
            "efficiency at 20k cores: {eff:.3} (paper: 0.53)"
        );
        assert!(
            (9.0..=14.0).contains(&outcome.wallclock_hours),
            "time-to-solution: {:.1} h (paper: just over 10 h)",
            outcome.wallclock_hours
        );
    }

    #[test]
    fn bandwidth_accounting() {
        let project = fast_project();
        let perf = PerfModel::villin();
        let outcome = simulate_controller(&project, &MachineSpec::new(10, 1), &perf);
        assert_eq!(outcome.output_bytes, 20_000_000);
        assert!(outcome.ensemble_bandwidth_mb_per_s() > 0.0);
    }

    #[test]
    fn utilization_bounds() {
        let project = fast_project();
        let perf = PerfModel::villin();
        let outcome = simulate_controller(&project, &MachineSpec::new(7, 1), &perf);
        let u = outcome.utilization();
        assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {u}");
    }

    #[test]
    fn blind_prediction_costs_more_generations() {
        let first = ProjectSpec::villin_first_folded();
        let blind = ProjectSpec::villin_blind_prediction();
        assert!(blind.total_work_ns() > 2.0 * first.total_work_ns());
    }
}
