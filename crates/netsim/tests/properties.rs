//! Seeded property sweeps of the overlay-network simulator.

use copernicus_testkit::{sweep, CASES};
use netsim::{EventQueue, Link, NodeRole, Overlay};

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

#[test]
fn transfer_time_is_monotone_in_bytes_and_latency() {
    sweep(
        "transfer_time_is_monotone_in_bytes_and_latency",
        CASES,
        |g| {
            let (lat, bw) = (g.f64_in(0.0..2.0), g.f64_in(1.0..1e9));
            let (b1, extra) = (g.u64_in(0..1_000_000), g.u64_in(0..1_000_000));
            let l = Link::new(lat, bw);
            assert!(l.transfer_time(b1 + extra) >= l.transfer_time(b1));
            assert!(l.transfer_time(0) >= lat - 1e-12);
        },
    );
}

#[test]
fn routes_follow_trusted_links_and_sum_latency() {
    sweep("routes_follow_trusted_links_and_sum_latency", CASES, |g| {
        let (n, density) = (g.usize_in(2..12), g.f64_in(0.2..0.9));
        let mut net = Overlay::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| net.add_node(format!("n{i}"), NodeRole::RelayServer))
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if g.unit() < density {
                    let lat = 0.001 + g.unit() * 0.1;
                    net.connect_trusted(nodes[i], nodes[j], Link::new(lat, 1e6));
                }
            }
        }
        let a = nodes[0];
        let b = nodes[n - 1];
        if let Some(path) = net.route(a, b) {
            assert_eq!(path[0], a);
            assert_eq!(*path.last().unwrap(), b);
            // Every hop is a trusted installed link; latency sums match.
            let mut total = 0.0;
            for w in path.windows(2) {
                let link = net.link(w[0], w[1]);
                assert!(link.is_some(), "route uses a missing link");
                assert!(net.is_trusted(w[0], w[1]));
                total += link.unwrap().latency;
            }
            assert!((net.route_latency(a, b).unwrap() - total).abs() < 1e-12);
            // No repeated nodes (shortest paths are simple).
            let mut sorted = path.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), path.len());
        }
    });
}

#[test]
fn dijkstra_is_optimal_on_small_graphs() {
    sweep("dijkstra_is_optimal_on_small_graphs", CASES, |g| {
        let n = 6;
        let mut net = Overlay::new();
        let nodes: Vec<_> = (0..n)
            .map(|i| net.add_node(format!("n{i}"), NodeRole::RelayServer))
            .collect();
        let mut lat = vec![vec![f64::INFINITY; n]; n];
        for i in 0..n {
            lat[i][i] = 0.0;
            for j in (i + 1)..n {
                if g.unit() < 0.6 {
                    let l = 0.01 + g.unit();
                    net.connect_trusted(nodes[i], nodes[j], Link::new(l, 1e6));
                    lat[i][j] = l;
                    lat[j][i] = l;
                }
            }
        }
        // Floyd-Warshall reference.
        let mut dist = lat.clone();
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = dist[i][k] + dist[k][j];
                    if via < dist[i][j] {
                        dist[i][j] = via;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                let got = net.route_latency(nodes[i], nodes[j]);
                if dist[i][j].is_finite() {
                    let got = got.expect("a finite reference distance has a route");
                    assert!(
                        (got - dist[i][j]).abs() < 1e-9,
                        "route {i}->{j}: {got} vs {}",
                        dist[i][j]
                    );
                } else {
                    assert!(got.is_none());
                }
            }
        }
    });
}
