//! Seeded property sweeps of the event queue, the performance model and
//! the controller DES.

use clustersim::{
    reference_tres1_hours, simulate_controller, EventQueue, MachineSpec, PerfModel, ProjectSpec,
};
use copernicus_testkit::{sweep, Gen, CASES};

#[test]
fn event_queue_pops_in_nondecreasing_time_order() {
    sweep("event_queue_pops_in_nondecreasing_time_order", CASES, |g| {
        let times = g.vec(0..200, |g| g.f64_in(0.0..1e6));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, times.len());
    });
}

#[test]
fn equal_times_preserve_insertion_order() {
    sweep("equal_times_preserve_insertion_order", CASES, |g| {
        let n = g.usize_in(1..100);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(1.0, i);
        }
        let mut expected = 0;
        while let Some((_, i)) = q.pop() {
            assert_eq!(i, expected);
            expected += 1;
        }
    });
}

fn arb_project(g: &mut Gen) -> ProjectSpec {
    ProjectSpec {
        commands_per_generation: g.usize_in(1..40),
        generations: g.usize_in(1..5),
        segment_ns: g.f64_in(10.0..100.0),
        output_bytes_per_command: 1_000_000,
        clustering_hours: 0.05,
    }
}

#[test]
fn efficiency_is_in_unit_interval() {
    sweep("efficiency_is_in_unit_interval", CASES, |g| {
        let (project, cores) = (arb_project(g), g.usize_in(1..2000));
        let perf = PerfModel::villin();
        let machine = MachineSpec::new(cores, 1);
        let outcome = simulate_controller(&project, &machine, &perf);
        let tres1 = reference_tres1_hours(&project, &perf);
        let eff = outcome.efficiency(tres1, cores);
        assert!(eff > 0.0 && eff <= 1.0 + 1e-9, "efficiency {eff}");
        assert!(outcome.utilization() > 0.0 && outcome.utilization() <= 1.0 + 1e-9);
    });
}

#[test]
fn more_cores_never_slow_the_project() {
    sweep("more_cores_never_slow_the_project", CASES, |g| {
        let (project, cores) = (arb_project(g), g.usize_in(1..500));
        let perf = PerfModel::villin();
        let a = simulate_controller(&project, &MachineSpec::new(cores, 1), &perf);
        let b = simulate_controller(&project, &MachineSpec::new(cores * 2, 1), &perf);
        assert!(b.wallclock_hours <= a.wallclock_hours + 1e-9);
    });
}

#[test]
fn all_commands_complete_exactly_once() {
    sweep("all_commands_complete_exactly_once", CASES, |g| {
        let (project, cores) = (arb_project(g), g.usize_in(1..300));
        let perf = PerfModel::villin();
        let outcome = simulate_controller(&project, &MachineSpec::new(cores, 1), &perf);
        assert_eq!(
            outcome.commands_completed,
            project.commands_per_generation * project.generations
        );
        assert_eq!(
            outcome.output_bytes,
            (project.commands_per_generation * project.generations) as u64 * 1_000_000
        );
        assert_eq!(outcome.generation_done_hours.len(), project.generations);
        // Generation completions are ordered in time.
        for w in outcome.generation_done_hours.windows(2) {
            assert!(w[1] >= w[0]);
        }
    });
}

#[test]
fn busy_time_is_machine_independent() {
    sweep("busy_time_is_machine_independent", CASES, |g| {
        let (project, cores) = (arb_project(g), g.usize_in(1..200));
        // The work is fixed; only its distribution over time changes.
        let perf = PerfModel::villin();
        let a = simulate_controller(&project, &MachineSpec::new(cores, 1), &perf);
        let b = simulate_controller(&project, &MachineSpec::new(1, 1), &perf);
        assert!((a.busy_core_hours - b.busy_core_hours).abs() < 1e-6 * b.busy_core_hours.max(1.0));
    });
}

#[test]
fn perfmodel_speed_is_monotone_in_cores_below_saturation() {
    sweep("perfmodel_speed_is_monotone", CASES, |g| {
        let n = g.usize_in(1..96);
        // Within the calibrated range the model must not predict negative
        // returns from adding cores.
        let perf = PerfModel::villin();
        assert!(perf.speed_ns_per_day(n + 1) > perf.speed_ns_per_day(n));
    });
}

#[test]
fn bigger_sims_always_cost_efficiency_per_core() {
    sweep("bigger_sims_always_cost_efficiency_per_core", CASES, |g| {
        let k = g.usize_in(2..128);
        let perf = PerfModel::villin();
        assert!(perf.efficiency(k) < perf.efficiency(1));
        assert!(perf.efficiency(k) > 0.0);
    });
}
