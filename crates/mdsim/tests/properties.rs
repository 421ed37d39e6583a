//! Seeded property sweeps of the MD substrate's core invariants.

use copernicus_testkit::{sweep, Gen, CASES};
use mdsim::pbc::SimBox;
use mdsim::rng::rng_from_seed;
use mdsim::state::State;
use mdsim::topology::{LjParams, Particle, Topology};
use mdsim::vec3::{v3, Vec3};
use mdsim::NeighborList;

fn arb_vec3(g: &mut Gen) -> Vec3 {
    let mut small = || g.f64_in(-50.0..50.0);
    v3(small(), small(), small())
}

#[test]
fn vec_addition_is_commutative_and_associative() {
    sweep("vec_addition_is_commutative_and_associative", CASES, |g| {
        let a = arb_vec3(g);
        let b = arb_vec3(g);
        let c = arb_vec3(g);
        assert!(((a + b) - (b + a)).norm() < 1e-12);
        assert!(((a + (b + c)) - ((a + b) + c)).norm() < 1e-9);
    });
}

#[test]
fn cross_product_is_orthogonal() {
    sweep("cross_product_is_orthogonal", CASES, |g| {
        let a = arb_vec3(g);
        let b = arb_vec3(g);
        let x = a.cross(b);
        assert!(x.dot(a).abs() < 1e-6 * (1.0 + a.norm2()) * (1.0 + b.norm2()));
        assert!(x.dot(b).abs() < 1e-6 * (1.0 + a.norm2()) * (1.0 + b.norm2()));
    });
}

#[test]
fn scalar_triple_product_is_cyclic() {
    sweep("scalar_triple_product_is_cyclic", CASES, |g| {
        let a = arb_vec3(g);
        let b = arb_vec3(g);
        let c = arb_vec3(g);
        let s1 = a.dot(b.cross(c));
        let s2 = b.dot(c.cross(a));
        let s3 = c.dot(a.cross(b));
        let scale = 1.0 + s1.abs();
        assert!((s1 - s2).abs() < 1e-7 * scale);
        assert!((s1 - s3).abs() < 1e-7 * scale);
    });
}

#[test]
fn pbc_wrap_is_idempotent_and_in_cell() {
    sweep("pbc_wrap_is_idempotent_and_in_cell", CASES, |g| {
        let p = arb_vec3(g);
        let l = g.f64_in(1.0..30.0);
        let bx = SimBox::cubic(l);
        let w = bx.wrap(p);
        assert!(w.x >= 0.0 && w.x < l + 1e-9);
        assert!(w.y >= 0.0 && w.y < l + 1e-9);
        assert!(w.z >= 0.0 && w.z < l + 1e-9);
        assert!((bx.wrap(w) - w).norm() < 1e-9);
    });
}

#[test]
fn pbc_displacement_is_antisymmetric_and_minimal() {
    sweep(
        "pbc_displacement_is_antisymmetric_and_minimal",
        CASES,
        |g| {
            let a = arb_vec3(g);
            let b = arb_vec3(g);
            let l = g.f64_in(1.0..30.0);
            let bx = SimBox::cubic(l);
            let dab = bx.displacement(a, b);
            let dba = bx.displacement(b, a);
            assert!((dab + dba).norm() < 1e-9);
            // Each component within half the box.
            assert!(dab.x.abs() <= 0.5 * l + 1e-9);
            assert!(dab.y.abs() <= 0.5 * l + 1e-9);
            assert!(dab.z.abs() <= 0.5 * l + 1e-9);
            // Distance unchanged by wrapping either argument.
            assert!((bx.dist(a, b) - bx.dist(bx.wrap(a), bx.wrap(b))).abs() < 1e-9);
        },
    );
}

#[test]
fn pbc_distance_never_exceeds_euclidean() {
    sweep("pbc_distance_never_exceeds_euclidean", CASES, |g| {
        let a = arb_vec3(g);
        let b = arb_vec3(g);
        let l = g.f64_in(1.0..30.0);
        let bx = SimBox::cubic(l);
        assert!(bx.dist(a, b) <= (a - b).norm() + 1e-9);
    });
}

#[test]
fn neighbor_list_matches_brute_force() {
    sweep("neighbor_list_matches_brute_force", CASES, |g| {
        let seed = g.u64_in(0..500);
        let n = g.usize_in(20..120);
        let l = g.f64_in(6.0..14.0);
        let mut rng = rng_from_seed(seed);
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        let pos: Vec<Vec3> = (0..n)
            .map(|_| v3(rng.next_f64() * l, rng.next_f64() * l, rng.next_f64() * l))
            .collect();
        let bx = SimBox::cubic(l);
        let cutoff = 2.0;
        let skin = 0.4;
        if !(cutoff + skin <= bx.max_cutoff()) {
            return;
        }

        let mut nl = NeighborList::new(cutoff, skin);
        nl.build(&pos, &bx, &top);
        let mut got: Vec<(u32, u32)> = nl.pairs().to_vec();
        got.sort_unstable();

        let r2 = (cutoff + skin) * (cutoff + skin);
        let mut expected = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if bx.dist2(pos[i], pos[j]) <= r2 {
                    expected.push((i as u32, j as u32));
                }
            }
        }
        assert_eq!(got, expected);
    });
}

#[test]
fn maxwell_boltzmann_removes_momentum() {
    sweep("maxwell_boltzmann_removes_momentum", CASES, |g| {
        let seed = g.u64_in(0..200);
        let n = g.usize_in(4..60);
        let t = g.f64_in(0.1..5.0);
        let mut top = Topology::new();
        for k in 0..n {
            top.add_particle(Particle::neutral(
                1.0 + (k % 3) as f64,
                LjParams::new(1.0, 1.0),
            ));
        }
        let mut state = State::new(vec![Vec3::ZERO; n], &top, SimBox::Open);
        let dof = top.dof(3);
        let mut rng = rng_from_seed(seed);
        state.init_velocities(t, dof, &mut rng);
        assert!(state.momentum().norm() < 1e-9);
        assert!((state.temperature(dof) - t).abs() < 1e-9);
    });
}

#[test]
fn bonded_forces_have_no_net_force_or_nan() {
    sweep("bonded_forces_have_no_net_force_or_nan", CASES, |g| {
        let seed = g.u64_in(0..300);
        use mdsim::forces::{BondedForce, ForceTerm};
        use mdsim::rng::sample_normal;
        let mut rng = rng_from_seed(seed);
        let n = 6;
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        for i in 0..n - 1 {
            top.add_bond(i, i + 1, 1.0, 50.0);
        }
        for i in 0..n - 2 {
            top.add_angle(i, i + 1, i + 2, 1.8, 10.0);
        }
        for i in 0..n - 3 {
            top.add_dihedral(i, i + 1, i + 2, i + 3, 0.3, 1.5, 2);
        }
        let pos: Vec<Vec3> = (0..n)
            .map(|i| {
                v3(
                    i as f64 * 0.9 + 0.2 * sample_normal(&mut rng),
                    (i % 2) as f64 + 0.2 * sample_normal(&mut rng),
                    0.2 * sample_normal(&mut rng),
                )
            })
            .collect();
        let mut bf = BondedForce::from_topology(&top);
        let mut forces = vec![Vec3::ZERO; n];
        let e = bf.compute(&pos, &SimBox::Open, &mut forces);
        assert!(e.is_finite());
        let net: Vec3 = forces.iter().copied().sum();
        assert!(net.norm() < 1e-7, "net bonded force {net:?}");
        assert!(forces.iter().all(|f| f.is_finite()));
    });
}

#[test]
fn checkpoint_json_roundtrip_is_bitwise() {
    sweep("checkpoint_json_roundtrip_is_bitwise", CASES, |g| {
        let seed = g.u64_in(0..100);
        use mdsim::model::villin::VillinModel;
        let model = VillinModel::hp35();
        let mut sim = model.simulation(model.unfolded_start(seed), 0.5, seed);
        sim.run(50);
        let cp = sim.checkpoint(seed);
        let json = cp.to_json();
        let back = mdsim::Checkpoint::from_json(&json).unwrap();
        assert_eq!(&back.state.positions, &cp.state.positions);
        assert_eq!(&back.state.velocities, &cp.state.velocities);
        assert_eq!(back.step, cp.step);
    });
}

/// 2 000 MD steps a case: 16 cases, as the property always ran.
#[test]
fn nve_energy_is_conserved_for_random_oscillator_networks() {
    sweep(
        "nve_energy_is_conserved_for_random_oscillator_networks",
        16,
        |g| {
            let seed = g.u64_in(0..50);
            use mdsim::forces::{BondedForce, ForceField};
            use mdsim::rng::sample_normal;
            use mdsim::{Simulation, VelocityVerlet};
            let mut rng = rng_from_seed(seed);
            let n = 5;
            let mut top = Topology::new();
            for _ in 0..n {
                top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
            }
            for i in 0..n - 1 {
                top.add_bond(i, i + 1, 1.0, 20.0);
            }
            let pos: Vec<Vec3> = (0..n)
                .map(|i| {
                    v3(
                        i as f64 * 1.05,
                        0.1 * sample_normal(&mut rng),
                        0.1 * sample_normal(&mut rng),
                    )
                })
                .collect();
            let mut state = State::new(pos, &top, SimBox::Open);
            let dof = top.dof(3);
            state.init_velocities(0.3, dof, &mut rng);
            let ff = ForceField::new().with(Box::new(BondedForce::from_topology(&top)));
            let mut sim = Simulation::new(state, ff, Box::new(VelocityVerlet::nve()), 0.005, dof);
            let e0 = sim.total_energy();
            sim.run(2_000);
            let drift = (sim.total_energy() - e0).abs() / e0.abs().max(1.0);
            assert!(drift < 1e-3, "relative energy drift {drift}");
        },
    );
}
