//! Seeded property sweeps of the MSM toolkit's invariants.

use copernicus_testkit::{sweep, CASES};
use mdsim::rng::{rng_from_seed, sample_normal};
use mdsim::vec3::{v3, Vec3};
use msm::{
    k_centers, largest_connected_set, rmsd, rmsd_raw, strongly_connected_components, superpose,
    CountMatrix, TransitionMatrix,
};

fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = rng_from_seed(seed);
    (0..n)
        .map(|_| {
            v3(
                3.0 * sample_normal(&mut rng),
                3.0 * sample_normal(&mut rng),
                3.0 * sample_normal(&mut rng),
            )
        })
        .collect()
}

fn rotate(points: &[Vec3], yaw: f64, pitch: f64) -> Vec<Vec3> {
    let (sy, cy) = yaw.sin_cos();
    let (sp, cp) = pitch.sin_cos();
    points
        .iter()
        .map(|p| {
            // Rz(yaw) then Ry(pitch).
            let q = v3(cy * p.x - sy * p.y, sy * p.x + cy * p.y, p.z);
            v3(cp * q.x + sp * q.z, q.y, -sp * q.x + cp * q.z)
        })
        .collect()
}

#[test]
fn rmsd_is_rigid_motion_invariant() {
    sweep("rmsd_is_rigid_motion_invariant", CASES, |g| {
        let seed = g.u64_in(0..300);
        let n = g.usize_in(4..40);
        let yaw = g.f64_in(-3.1..3.1);
        let pitch = g.f64_in(-1.5..1.5);
        let tx = g.f64_in(-20.0..20.0);
        let ty = g.f64_in(-20.0..20.0);
        let a = random_points(n, seed);
        let mut b = rotate(&a, yaw, pitch);
        for p in b.iter_mut() {
            *p += v3(tx, ty, 2.0);
        }
        assert!(rmsd(&a, &b) < 1e-6, "congruent sets must have ~0 RMSD");
    });
}

#[test]
fn rmsd_is_symmetric_and_bounded() {
    sweep("rmsd_is_symmetric_and_bounded", CASES, |g| {
        let seed = g.u64_in(0..300);
        let n = g.usize_in(4..30);
        let a = random_points(n, seed);
        let b = random_points(n, seed + 1000);
        let dab = rmsd(&a, &b);
        let dba = rmsd(&b, &a);
        assert!((dab - dba).abs() < 1e-8);
        assert!(dab >= 0.0);
        assert!(dab <= rmsd_raw(&a, &b) + 1e-9);
    });
}

#[test]
fn superposition_achieves_the_metric() {
    sweep("superposition_achieves_the_metric", CASES, |g| {
        let seed = g.u64_in(0..200);
        let n = g.usize_in(4..25);
        let a = random_points(n, seed);
        let b = random_points(n, seed + 7);
        let aligned = superpose(&a, &b);
        assert!((rmsd_raw(&a, &aligned) - rmsd(&a, &b)).abs() < 1e-6);
    });
}

#[test]
fn kcenters_invariants() {
    sweep("kcenters_invariants", CASES, |g| {
        let seed = g.u64_in(0..200);
        let n = g.usize_in(5..80);
        let k = g.usize_in(1..10);
        let items: Vec<f64> = {
            let mut rng = rng_from_seed(seed);
            (0..n).map(|_| rng.next_f64() * 100.0).collect()
        };
        let d = |a: &f64, b: &f64| (a - b).abs();
        let c = k_centers(&items, k, 0, d);
        // Assignments point at real clusters and distances match.
        for (i, &a) in c.assignment.iter().enumerate() {
            assert!(a < c.n_clusters());
            let center_val = items[c.centers[a]];
            assert!((d(&items[i], &center_val) - c.distances[i]).abs() < 1e-12);
            // No other center is strictly closer.
            for &other in &c.centers {
                assert!(d(&items[i], &items[other]) >= c.distances[i] - 1e-12);
            }
        }
        // Radius is non-increasing in k.
        if k >= 2 {
            let c_fewer = k_centers(&items, k - 1, 0, d);
            assert!(c.max_radius() <= c_fewer.max_radius() + 1e-12);
        }
    });
}

#[test]
fn count_matrix_total_matches_window_count() {
    sweep("count_matrix_total_matches_window_count", CASES, |g| {
        let dtraj = g.vec(0..200, |g| g.usize_in(0..8));
        let lag = g.usize_in(1..5);
        let c = CountMatrix::from_dtrajs(std::slice::from_ref(&dtraj), 8, lag);
        let expected = dtraj.len().saturating_sub(lag);
        assert_eq!(c.total(), expected as f64);
    });
}

#[test]
fn transition_matrices_are_row_stochastic_and_conserve_mass() {
    sweep(
        "transition_matrices_are_row_stochastic_and_conserve_mass",
        CASES,
        |g| {
            let dtraj = g.vec(10..300, |g| g.usize_in(0..6));
            let lag = g.usize_in(1..4);
            let c = CountMatrix::from_dtrajs(std::slice::from_ref(&dtraj), 6, lag);
            let t = TransitionMatrix::from_counts(&c, 1e-6);
            assert!(t.is_row_stochastic(1e-9));
            let p0 = vec![1.0 / 6.0; 6];
            let p1 = t.propagate(&p0);
            assert!((p1.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(p1.iter().all(|&x| x >= -1e-12));
        },
    );
}

#[test]
fn reversible_mle_detailed_balance_on_random_counts() {
    sweep(
        "reversible_mle_detailed_balance_on_random_counts",
        CASES,
        |g| {
            let seed = g.u64_in(0..200);
            let n = g.usize_in(2..8);
            let mut rng = rng_from_seed(seed);
            let mut c = CountMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    c.add(i, j, (rng.next_f64() * 20.0).floor() + 1.0);
                }
            }
            let (t, pi) = TransitionMatrix::reversible_mle(&c, 0.0);
            assert!(t.is_row_stochastic(1e-8));
            for i in 0..n {
                for j in 0..n {
                    let f_ij = pi[i] * t.get(i, j);
                    let f_ji = pi[j] * t.get(j, i);
                    assert!(
                        (f_ij - f_ji).abs() < 1e-6,
                        "detailed balance ({i},{j}): {f_ij} vs {f_ji}"
                    );
                }
            }
        },
    );
}

#[test]
fn scc_components_partition_the_states() {
    sweep("scc_components_partition_the_states", CASES, |g| {
        let seed = g.u64_in(0..300);
        let n = g.usize_in(1..15);
        let mut rng = rng_from_seed(seed);
        let mut c = CountMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                if i != j && rng.next_f64() < 0.25 {
                    c.add(i, j, 1.0);
                }
            }
        }
        let comps = strongly_connected_components(&c);
        // Partition: every state exactly once.
        let mut seen = vec![false; n];
        for comp in &comps {
            for &s in comp {
                assert!(!seen[s], "state {s} in two components");
                seen[s] = true;
            }
        }
        assert!(seen.into_iter().all(|x| x));
        // The largest connected set is one of the components.
        let largest = largest_connected_set(&c);
        assert!(comps.contains(&largest));
        // Mutual reachability within the largest component.
        if largest.len() > 1 {
            let reach = |from: usize| -> Vec<bool> {
                let mut vis = vec![false; n];
                let mut stack = vec![from];
                vis[from] = true;
                while let Some(u) = stack.pop() {
                    for (v, seen) in vis.iter_mut().enumerate() {
                        if c.get(u, v) > 0.0 && !*seen {
                            *seen = true;
                            stack.push(v);
                        }
                    }
                }
                vis
            };
            for &a in &largest {
                let r = reach(a);
                for &b in &largest {
                    assert!(r[b], "{a} cannot reach {b} inside an SCC");
                }
            }
        }
    });
}
