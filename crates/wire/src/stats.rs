//! Per-link traffic counters, backed by `copernicus-telemetry`.
//!
//! Every supervised link (client side) and every listener (server side)
//! owns a [`LinkStats`] whose counters are registered under the shared
//! [`Registry`], labelled by `link` (peer address or "listener") and
//! `role` (client/server). They surface in `copernicus --report`
//! alongside the command-lifecycle metrics.

use copernicus_telemetry::{labels, names, Counter, Registry};
use std::sync::Arc;

use crate::frame::HEADER_LEN;

#[derive(Clone)]
pub struct LinkStats {
    pub bytes_sent: Arc<Counter>,
    pub bytes_recv: Arc<Counter>,
    pub frames_sent: Arc<Counter>,
    pub frames_recv: Arc<Counter>,
    pub reconnects: Arc<Counter>,
    pub auth_failures: Arc<Counter>,
}

impl LinkStats {
    pub fn new(registry: &Registry, link: &str, role: &str) -> LinkStats {
        let l = labels(&[("link", link), ("role", role)]);
        LinkStats {
            bytes_sent: registry.counter(names::WIRE_BYTES_SENT, l.clone()),
            bytes_recv: registry.counter(names::WIRE_BYTES_RECV, l.clone()),
            frames_sent: registry.counter(names::WIRE_FRAMES_SENT, l.clone()),
            frames_recv: registry.counter(names::WIRE_FRAMES_RECV, l.clone()),
            reconnects: registry.counter(names::WIRE_RECONNECTS, l.clone()),
            auth_failures: registry.counter(names::WIRE_AUTH_FAILURES, l),
        }
    }

    /// Counters wired to a private registry nobody reads — for tests
    /// and tools that don't care about telemetry.
    pub fn detached() -> LinkStats {
        LinkStats::new(&Registry::new(), "detached", "none")
    }

    pub(crate) fn on_frame_sent(&self, payload_len: usize) {
        self.frames_sent.inc();
        self.bytes_sent.add((payload_len + HEADER_LEN) as u64);
    }

    pub(crate) fn on_frame_recv(&self, payload_len: usize) {
        self.frames_recv.inc();
        self.bytes_recv.add((payload_len + HEADER_LEN) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_under_shared_names() {
        let reg = Registry::new();
        let stats = LinkStats::new(&reg, "127.0.0.1:9", "client");
        stats.on_frame_sent(10);
        stats.on_frame_sent(6);
        stats.on_frame_recv(100);
        assert_eq!(reg.counter_total(names::WIRE_FRAMES_SENT), 2);
        assert_eq!(reg.counter_total(names::WIRE_BYTES_SENT), 16 + 2 * 4);
        assert_eq!(reg.counter_total(names::WIRE_BYTES_RECV), 104);
        assert_eq!(reg.counter_total(names::WIRE_RECONNECTS), 0);
    }

    #[test]
    fn links_are_distinguished_by_label() {
        let reg = Registry::new();
        let a = LinkStats::new(&reg, "a", "client");
        let b = LinkStats::new(&reg, "b", "client");
        a.on_frame_sent(0);
        b.on_frame_sent(0);
        b.on_frame_sent(0);
        let frames = |link| {
            let l = labels(&[("link", link), ("role", "client")]);
            reg.counter(names::WIRE_FRAMES_SENT, l).get()
        };
        assert_eq!((frames("a"), frames("b")), (1, 2));
        assert_eq!(reg.counter_total(names::WIRE_FRAMES_SENT), 3);
    }
}
