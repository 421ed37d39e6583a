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
        if cutoff + skin > bx.max_cutoff() {
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

/// Bit patterns the block codec must carry unchanged.
const SPECIAL_BITS: [u64; 12] = [
    0x7ff8_0000_0000_0000, // quiet NaN
    0xfff8_0000_0000_0000, // negative quiet NaN
    0x7ff0_0000_0000_0001, // signalling NaN, payload 1
    0x7ffd_ead0_beef_0042, // NaN with a payload
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0000, // +0.0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x0000_0000_0000_0001, // smallest subnormal
    0x800f_ffff_ffff_ffff, // largest negative subnormal
    0x0010_0000_0000_0000, // smallest normal
    0x7fef_ffff_ffff_ffff, // f64::MAX
];

fn arb_bits(g: &mut Gen) -> f64 {
    f64::from_bits(match g.u64_in(0..3) {
        0 => SPECIAL_BITS[g.usize_in(0..SPECIAL_BITS.len())],
        1 => g.u64(),
        _ => g.f64_in(-1e3..1e3).to_bits(),
    })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn f64_blocks_roundtrip_every_bit_pattern() {
    use mdsim::jsonv;
    sweep("f64_blocks_roundtrip_every_bit_pattern", CASES, |g| {
        let xs = g.vec(0..40, arb_bits);
        let block = jsonv::f64_block_to_value(&xs);
        assert_eq!(
            bits(&jsonv::f64_block_from_value(&block).unwrap()),
            bits(&xs)
        );
        // And through JSON text, where a block is copied, not spelled.
        let text = serde_json::to_string(&block).unwrap();
        assert_eq!(text.len(), 2 + (8 * xs.len()).div_ceil(3) * 4);
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            bits(&jsonv::f64_block_from_value(&parsed).unwrap()),
            bits(&xs)
        );

        let frame: Vec<Vec3> = xs.chunks_exact(3).map(|c| v3(c[0], c[1], c[2])).collect();
        let back = jsonv::frame_from_value(&jsonv::frame_to_value(&frame)).unwrap();
        let flat =
            |f: &[Vec3]| -> Vec<u64> { f.iter().flat_map(|p| bits(&[p.x, p.y, p.z])).collect() };
        assert_eq!(flat(&back), flat(&frame));
    });
}

#[test]
fn malformed_blocks_are_errors_not_panics() {
    use mdsim::jsonv;
    use mdsim::trajectory::Trajectory;
    use serde_json::{json, Value};
    sweep("malformed_blocks_are_errors_not_panics", CASES, |g| {
        let xs = g.vec(1..40, arb_bits);
        let good = jsonv::f64_block_to_value(&xs);
        let text = good.as_str().unwrap().to_string();
        let block = |t: &[u8]| Value::String(String::from_utf8(t.to_vec()).unwrap());
        let rejected = |v: &Value| {
            assert!(jsonv::f64_block_from_value(v).is_err(), "{v}");
            assert!(jsonv::frame_from_value(v).is_err(), "{v}");
        };

        // A byte outside the alphabet, anywhere.
        let outside = b"!\"#$%&'()*,-.:;<>?@[\\]^_`{|}~ \t\n\x00\x7f";
        let mut bytes = text.clone().into_bytes();
        let i = g.usize_in(0..bytes.len());
        bytes[i] = outside[g.usize_in(0..outside.len())];
        rejected(&block(&bytes));
        // Padding anywhere but the last quad.
        let mut bytes = text.clone().into_bytes();
        let i = g.usize_in(0..bytes.len() - 4);
        bytes[i] = b'=';
        rejected(&block(&bytes));
        // A length that is not whole quads.
        let mut bytes = text.clone().into_bytes();
        match g.u64_in(0..2) {
            0 => bytes.truncate(bytes.len() - g.usize_in(1..4)),
            _ => bytes.extend_from_slice(&b"AAA"[..g.usize_in(1..4)]),
        }
        rejected(&block(&bytes));
        // Bad padding: three pad characters, or spare bits set.
        let mut bytes = text.clone().into_bytes();
        let n = bytes.len();
        bytes[n - 3..].copy_from_slice(b"===");
        rejected(&block(&bytes));
        let pad = text.bytes().rev().take_while(|&c| c == b'=').count();
        if pad > 0 {
            let mut bytes = text.clone().into_bytes();
            bytes[n - pad - 1] = b'B'; // sextet 1: a spare bit set
            rejected(&block(&bytes));
        }
        // Whole quads, but not whole floats: drop the last quad.
        rejected(&block(&text.as_bytes()[..n - 4]));
        // Whole floats, but not whole beads.
        if !xs.len().is_multiple_of(3) {
            assert!(jsonv::frame_from_value(&good).is_err());
        }
        // Not a string at all.
        for v in [
            json!(null),
            json!(1.5),
            json!([1.0, 2.0, 3.0]),
            json!({"x": 1}),
        ] {
            rejected(&v);
        }
        // A trajectory whose times and frames disagree in count.
        let frames: Vec<Vec<Vec3>> = (0..xs.len() + 1).map(|_| vec![Vec3::ZERO]).collect();
        let traj = json!({
            "times": jsonv::f64_block_to_value(&vec![0.0; xs.len()]),
            "frames": jsonv::frames_to_value(&frames),
        });
        assert!(Trajectory::from_value(&traj).is_err());
    });
}
