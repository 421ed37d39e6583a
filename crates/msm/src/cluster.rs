//! Conformational clustering: k-centers and k-medoids.
//!
//! The paper's MSM plugin clusters all trajectory data into microstates
//! (10,000 clusters at full scale) with an RMSD metric. K-centers
//! (Gonzalez farthest-point traversal) is the standard msmbuilder-era
//! choice: O(k·N) distance evaluations and approximately uniform state
//! radii. A k-medoids refinement pass tightens the centers.

/// Result of clustering `n` items into `k` states.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Item index of each cluster center, length k.
    pub centers: Vec<usize>,
    /// Cluster id of every item, length n.
    pub assignment: Vec<usize>,
    /// Distance from every item to its assigned center, length n.
    pub distances: Vec<f64>,
}

impl Clustering {
    pub fn n_clusters(&self) -> usize {
        self.centers.len()
    }

    /// Items belonging to cluster `c`.
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Cluster populations (item counts), length k.
    pub fn populations(&self) -> Vec<usize> {
        let mut pops = vec![0usize; self.n_clusters()];
        for &a in &self.assignment {
            pops[a] += 1;
        }
        pops
    }

    /// Largest distance of any item to its center (the clustering radius).
    pub fn max_radius(&self) -> f64 {
        self.distances.iter().copied().fold(0.0, f64::max)
    }
}

/// K-centers clustering (Gonzalez): start from `first`, repeatedly promote
/// the item farthest from all existing centers. Guarantees a 2-approximation
/// of the optimal covering radius.
///
/// `dist` must be a metric (symmetric, non-negative, zero on identity).
pub fn k_centers<T>(
    items: &[T],
    k: usize,
    first: usize,
    dist: impl Fn(&T, &T) -> f64,
) -> Clustering {
    let n = items.len();
    assert!(n > 0, "cannot cluster zero items");
    assert!(first < n, "first-center index out of range");
    let k = k.min(n);

    let mut centers = Vec::with_capacity(k);
    let mut assignment = vec![0usize; n];
    let mut distances = vec![f64::INFINITY; n];

    let mut next_center = first;
    for c in 0..k {
        centers.push(next_center);
        let center_item = &items[next_center];
        // Relax distances against the new center.
        for (i, item) in items.iter().enumerate() {
            let d = dist(item, center_item);
            if d < distances[i] {
                distances[i] = d;
                assignment[i] = c;
            }
        }
        // Pick the farthest item as the next center.
        if c + 1 < k {
            let (argmax, _) = distances
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .expect("non-empty");
            next_center = argmax;
        }
    }
    Clustering {
        centers,
        assignment,
        distances,
    }
}

/// K-medoids refinement: for each cluster, move the center to the member
/// minimizing the sum of in-cluster distances; reassign; repeat up to
/// `max_iter` times or until stable. Returns the refined clustering and
/// the number of update iterations performed.
pub fn k_medoids_refine<T>(
    items: &[T],
    clustering: &Clustering,
    max_iter: usize,
    dist: impl Fn(&T, &T) -> f64,
) -> (Clustering, usize) {
    let n = items.len();
    let k = clustering.n_clusters();
    let mut centers = clustering.centers.clone();
    let mut assignment = clustering.assignment.clone();
    let mut iters = 0;

    for _ in 0..max_iter {
        iters += 1;
        // Update step: exact medoid of each cluster.
        let members_of: Vec<Vec<usize>> = {
            let mut m: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (i, &a) in assignment.iter().enumerate() {
                m[a].push(i);
            }
            m
        };
        let new_centers: Vec<usize> = (0..k)
            .map(|c| {
                let members = &members_of[c];
                if members.is_empty() {
                    return centers[c];
                }
                *members
                    .iter()
                    .min_by(|&&a, &&b| {
                        let cost = |x: usize| -> f64 {
                            members.iter().map(|&m| dist(&items[x], &items[m])).sum()
                        };
                        cost(a).partial_cmp(&cost(b)).unwrap()
                    })
                    .expect("non-empty members")
            })
            .collect();

        // Assign step.
        let new_assignment: Vec<usize> = (0..n)
            .map(|i| {
                (0..k)
                    .min_by(|&a, &b| {
                        dist(&items[i], &items[new_centers[a]])
                            .partial_cmp(&dist(&items[i], &items[new_centers[b]]))
                            .unwrap()
                    })
                    .expect("k > 0")
            })
            .collect();

        let stable = new_centers == centers && new_assignment == assignment;
        centers = new_centers;
        assignment = new_assignment;
        if stable {
            break;
        }
    }

    let distances: Vec<f64> = (0..n)
        .map(|i| dist(&items[i], &items[centers[assignment[i]]]))
        .collect();
    (
        Clustering {
            centers,
            assignment,
            distances,
        },
        iters,
    )
}

/// Assign new items to the nearest of the given centers.
pub fn assign<T>(items: &[T], center_items: &[T], dist: impl Fn(&T, &T) -> f64) -> Vec<usize> {
    assert!(!center_items.is_empty(), "no centers to assign to");
    items
        .iter()
        .map(|item| {
            (0..center_items.len())
                .min_by(|&a, &b| {
                    dist(item, &center_items[a])
                        .partial_cmp(&dist(item, &center_items[b]))
                        .unwrap()
                })
                .expect("non-empty centers")
        })
        .collect()
}

/// Nearest center of `item` under `dist`: `(center index, distance)`.
/// The single-item core of [`assign`], exposed for streaming use where
/// frames arrive one segment at a time.
pub fn nearest_center<T>(
    item: &T,
    center_items: &[T],
    dist: impl Fn(&T, &T) -> f64,
) -> (usize, f64) {
    assert!(!center_items.is_empty(), "no centers to assign to");
    let mut best = (0, dist(item, &center_items[0]));
    for (c, center) in center_items.iter().enumerate().skip(1) {
        let d = dist(item, center);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// Pairwise distances between centers, for [`nearest_center_pruned`].
pub fn center_distances<T>(center_items: &[T], dist: impl Fn(&T, &T) -> f64) -> Vec<Vec<f64>> {
    let k = center_items.len();
    let mut between = vec![vec![0.0; k]; k];
    for a in 0..k {
        for b in a + 1..k {
            let d = dist(&center_items[a], &center_items[b]);
            between[a][b] = d;
            between[b][a] = d;
        }
    }
    between
}

/// Allowance for the rounding error of one computed distance, in the
/// metric's units. The superposition RMSD is `sqrt((Ga + Gb - 2λ)/N)`,
/// whose cancellation leaves an absolute error of about 3e-7 Å as the
/// distance goes to zero on protein-sized coordinates, and far less
/// elsewhere; pruning and drift bookkeeping stay this far clear of an
/// exact triangle-inequality bound.
pub const DIST_SLACK: f64 = 1e-6;

/// [`nearest_center`] for a `dist` that is a metric, skipping every
/// center the triangle inequality rules out. `floor[c]` is a lower
/// bound on the item's distance to center `c`: what the caller already
/// knows (zeros when nothing — for consecutive frames of a trajectory,
/// the previous frame's floors less the distance between the frames),
/// raised here by every center `e` evaluated at distance `d`, which
/// puts `c` at least `|between[e][c] - d|` away. A center whose floor
/// is above the best distance so far is never looked at. `hint` is the
/// center tried first, the previous frame's for a trajectory.
///
/// `between` may be stale: `moved[c]` bounds how far center `c` has
/// travelled since its row of `between` was computed (all zeros for
/// centers that do not move), and the floors it gives are lowered by
/// that much. The answer is the brute-force one, ties to the lower
/// index included: a center is skipped only when it is provably
/// *farther* than the best. A floor may overstate the true distance by
/// up to two [`DIST_SLACK`] (one per computed distance behind it), and
/// the test leaves that and the two of the comparison itself to spare.
pub fn nearest_center_pruned<T>(
    item: &T,
    center_items: &[T],
    between: &[Vec<f64>],
    moved: &[f64],
    floor: &mut [f64],
    hint: usize,
    dist: impl Fn(&T, &T) -> f64,
) -> (usize, f64) {
    let evaluated = |floor: &mut [f64], e: usize| {
        let d = dist(item, &center_items[e]);
        for (c, f) in floor.iter_mut().enumerate() {
            *f = f.max((between[e][c] - d).abs() - moved[e] - moved[c]);
        }
        floor[e] = d;
        d
    };
    let mut best = (hint, evaluated(floor, hint));
    for c in 0..center_items.len() {
        if c == hint || floor[c] > best.1 + 4.0 * DIST_SLACK {
            continue;
        }
        let d = evaluated(floor, c);
        if d < best.1 || (d == best.1 && c < best.0) {
            best = (c, d);
        }
    }
    best
}

/// One mini-batch k-means step (Sculley 2010) for conformational
/// centers: superpose the new member onto the center, then pull the
/// center toward it with per-center learning rate `1/count`, where
/// `count` includes the new member. Early members move a center a lot;
/// as the state fills in, the center converges to the state mean.
pub fn minibatch_center_update(
    center: &mut [mdsim::vec3::Vec3],
    member: &[mdsim::vec3::Vec3],
    count: f64,
) {
    assert_eq!(center.len(), member.len(), "particle count mismatch");
    assert!(count >= 1.0, "count must include the new member");
    let fitted = crate::metric::superpose(center, member);
    let eta = 1.0 / count;
    for (c, m) in center.iter_mut().zip(&fitted) {
        *c = *c + (*m - *c) * eta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d1(a: &f64, b: &f64) -> f64 {
        (a - b).abs()
    }

    /// Three well-separated 1-D blobs.
    fn blobs() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..10 {
            v.push(0.0 + i as f64 * 0.01);
            v.push(10.0 + i as f64 * 0.01);
            v.push(20.0 + i as f64 * 0.01);
        }
        v
    }

    #[test]
    fn kcenters_separates_blobs() {
        let items = blobs();
        let c = k_centers(&items, 3, 0, d1);
        assert_eq!(c.n_clusters(), 3);
        assert_eq!(c.assignment.len(), 30);
        // All members of one blob share a cluster.
        for blob in 0..3 {
            let ids: Vec<usize> = (0..10).map(|i| c.assignment[blob + 3 * i]).collect();
            assert!(
                ids.iter().all(|&x| x == ids[0]),
                "blob {blob} split across clusters"
            );
        }
        // Radius is within a blob, not across blobs.
        assert!(c.max_radius() < 1.0);
    }

    #[test]
    fn kcenters_handles_k_larger_than_n() {
        let items = vec![1.0, 2.0];
        let c = k_centers(&items, 10, 0, d1);
        assert_eq!(c.n_clusters(), 2);
        assert!(c.max_radius() < 1e-12);
    }

    #[test]
    fn kcenters_first_center_is_respected() {
        let items = blobs();
        let c = k_centers(&items, 3, 5, d1);
        assert_eq!(c.centers[0], 5);
    }

    #[test]
    fn populations_sum_to_n() {
        let items = blobs();
        let c = k_centers(&items, 3, 0, d1);
        assert_eq!(c.populations().iter().sum::<usize>(), 30);
    }

    #[test]
    fn members_match_assignment() {
        let items = blobs();
        let c = k_centers(&items, 3, 0, d1);
        for cl in 0..3 {
            for &m in &c.members(cl) {
                assert_eq!(c.assignment[m], cl);
            }
        }
    }

    #[test]
    fn kmedoids_moves_centers_to_blob_middles() {
        let items = blobs();
        let c = k_centers(&items, 3, 0, d1);
        let (refined, iters) = k_medoids_refine(&items, &c, 10, d1);
        assert!(iters <= 10);
        // Each refined center should be the medoid of a 10-point blob:
        // the sum of distances from the true medoid is minimal.
        for &center in &refined.centers {
            let val = items[center];
            let blob_base = (val / 10.0).round() * 10.0;
            // Blob spans base..base+0.09; the medoid is near the middle.
            assert!(
                (val - (blob_base + 0.04)).abs() <= 0.011,
                "center {val} not at blob medoid"
            );
        }
        // Refinement never increases the assignment distance sum.
        let before: f64 = c.distances.iter().sum();
        let after: f64 = refined.distances.iter().sum();
        assert!(after <= before + 1e-9);
    }

    #[test]
    fn assign_picks_nearest_center() {
        let centers = vec![0.0, 10.0];
        let items = vec![1.0, 9.0, 4.9, 5.1];
        let a = assign(&items, &centers, d1);
        assert_eq!(a, vec![0, 1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "zero items")]
    fn rejects_empty_input() {
        let items: Vec<f64> = vec![];
        let _ = k_centers(&items, 3, 0, d1);
    }

    #[test]
    fn kcenters_radius_shrinks_with_k() {
        let items: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let r2 = k_centers(&items, 2, 0, d1).max_radius();
        let r10 = k_centers(&items, 10, 0, d1).max_radius();
        let r50 = k_centers(&items, 50, 0, d1).max_radius();
        assert!(r2 > r10 && r10 > r50);
    }

    #[test]
    fn nearest_center_matches_assign() {
        let centers = vec![0.0, 10.0];
        for (item, want) in [(1.0, 0), (9.0, 1), (4.9, 0), (5.1, 1)] {
            let (c, d) = nearest_center(&item, &centers, d1);
            assert_eq!(c, want);
            assert!((d - d1(&item, &centers[c])).abs() < 1e-12);
        }
    }

    #[test]
    fn pruned_search_agrees_with_brute_force_from_any_hint() {
        // Two centers coincide: a tie the search must break downwards.
        let centers: Vec<f64> = vec![0.0, 3.0, 4.5, 10.0, 10.0, 11.0, 40.0];
        let between = center_distances(&centers, d1);
        let still = vec![0.0; centers.len()];
        let evaluated = std::cell::Cell::new(0);
        for i in 0..500 {
            let item = -5.0 + i as f64 * 0.1;
            let want = nearest_center(&item, &centers, d1);
            for hint in 0..centers.len() {
                let mut floor = still.clone();
                let count = |a: &f64, b: &f64| {
                    evaluated.set(evaluated.get() + 1);
                    d1(a, b)
                };
                let got = nearest_center_pruned(
                    &item, &centers, &between, &still, &mut floor, hint, count,
                );
                assert_eq!(got, want, "item {item}, hint {hint}");
                // What comes back is a floor under every distance.
                for (c, f) in floor.iter().enumerate() {
                    let d = d1(&item, &centers[c]);
                    assert!(*f <= d + 2.0 * DIST_SLACK, "item {item}, floor {c}");
                }
            }
        }
        assert!(
            evaluated.get() < 500 * centers.len() * centers.len() * 3 / 4,
            "pruning skipped nothing ({} distances)",
            evaluated.get()
        );
    }

    #[test]
    fn pruned_search_stays_exact_on_a_stale_table() {
        // The table is from before the centers moved; `moved` says by
        // how much at most. However loose the bound, the answer is the
        // brute-force one over the centers as they are now.
        let before: Vec<f64> = vec![0.0, 3.0, 4.5, 10.0, 11.0, 40.0];
        let shift = [0.4, -0.3, 0.0, 0.25, -0.5, 0.1];
        let centers: Vec<f64> = before.iter().zip(shift).map(|(c, s)| c + s).collect();
        let between = center_distances(&before, d1);
        for slack in [1.0, 1.5, 100.0] {
            let moved: Vec<f64> = shift.iter().map(|s| s.abs() * slack).collect();
            for i in 0..500 {
                let item = -5.0 + i as f64 * 0.1;
                let want = nearest_center(&item, &centers, d1);
                // Floors carry from one search to the next of the same
                // item, as they do from one frame to the next.
                let mut floor = vec![0.0; centers.len()];
                for hint in 0..centers.len() {
                    let got = nearest_center_pruned(
                        &item, &centers, &between, &moved, &mut floor, hint, d1,
                    );
                    assert_eq!(got, want, "item {item}, hint {hint}, slack {slack}");
                }
            }
        }
    }

    #[test]
    fn minibatch_update_converges_to_member_mean() {
        use mdsim::v3;
        // A two-particle "conformation"; members scatter around a mean
        // displaced from the initial center. Repeated updates with
        // count = 1, 2, 3, … compute exactly the running mean (after
        // superposition, which is near-identity here).
        let mut center = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let members: Vec<Vec<mdsim::Vec3>> = (0..20)
            .map(|i| {
                let eps = 0.01 * ((i % 5) as f64 - 2.0);
                vec![v3(0.5 + eps, 0.0, 0.0), v3(1.5 - eps, 0.0, 0.0)]
            })
            .collect();
        for (i, m) in members.iter().enumerate() {
            minibatch_center_update(&mut center, m, (i + 1) as f64);
        }
        // Mean member has particles at x = 0.5 and 1.5; superposition
        // removes the common translation so only the relative geometry
        // (bond length 1.0, same as the start) is preserved.
        let bond = (center[1] - center[0]).norm();
        assert!((bond - 1.0).abs() < 0.05, "bond drifted to {bond}");
    }

    #[test]
    fn minibatch_large_count_barely_moves_center() {
        use mdsim::v3;
        let orig = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let mut center = orig.clone();
        let member = vec![v3(0.0, 0.0, 0.0), v3(2.0, 0.0, 0.0)];
        minibatch_center_update(&mut center, &member, 1000.0);
        let moved: f64 = center
            .iter()
            .zip(&orig)
            .map(|(a, b)| (*a - *b).norm())
            .sum();
        assert!(moved < 0.01, "center moved {moved} at count 1000");
    }
}
