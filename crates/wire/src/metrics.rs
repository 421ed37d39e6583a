//! Live metrics endpoint: a minimal plain-TCP HTTP responder serving
//! Prometheus text exposition (`--metrics-addr`).
//!
//! Deliberately tiny and unauthenticated — it exposes *metrics*, not
//! control: every request, whatever its path, gets the current render
//! and the connection is closed. The render closure is taken at bind
//! time so this crate stays serialization-agnostic (the caller passes
//! `telemetry.render_prometheus()` or anything else).
//!
//! The accept loop runs on one background thread in non-blocking mode,
//! polling a stop flag, so [`MetricsServer`] can be shut down (and is
//! on drop) without keeping the process alive.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long one connection may take to deliver its request head.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-loop poll period while idle.
const POLL: Duration = Duration::from_millis(25);
/// Longest request head we bother reading before answering anyway.
const MAX_REQUEST: usize = 8192;

/// A running metrics endpoint. Dropping it stops the accept loop.
pub struct MetricsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9090"`, or port 0 for ephemeral)
    /// and serve `render()` to every connection.
    pub fn bind(
        addr: &str,
        render: impl Fn() -> String + Send + 'static,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = stop.clone();
            let served = served.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if serve_one(stream, &render).is_ok() {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL);
                        }
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
            })
        };
        Ok(MetricsServer {
            local_addr,
            stop,
            served,
            thread: Some(thread),
        })
    }

    /// The actually bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests answered so far. A request is counted once its
    /// connection has been closed, so a client can see its reply end
    /// before the count moves; [`Self::shutdown`] returns the settled
    /// total.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stop the accept loop, join its thread, and return how many
    /// requests it answered in all.
    pub fn shutdown(mut self) -> u64 {
        self.stop_inner();
        self.served()
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Answer one connection: read the request head (tolerantly — a bare
/// scrape with no headers still works), write one 200 with the current
/// render, close.
fn serve_one(mut stream: TcpStream, render: &impl Fn() -> String) -> std::io::Result<()> {
    // Scrape responses are one small write; don't let Nagle hold the
    // tail segment back from a latency-sensitive poller.
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n")
                    || head.windows(2).any(|w| w == b"\n\n")
                    || head.len() >= MAX_REQUEST
                {
                    break;
                }
            }
            // Slow or silent client: answer what we have anyway.
            Err(_) => break,
        }
    }
    let body = render();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_current_render_per_request() {
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let server = MetricsServer::bind("127.0.0.1:0", move || {
            format!("scrapes_total {}\n", h.fetch_add(1, Ordering::Relaxed))
        })
        .unwrap();
        let addr = server.local_addr();
        let first = scrape(addr);
        assert!(first.starts_with("HTTP/1.0 200 OK\r\n"), "{first}");
        assert!(first.contains("text/plain; version=0.0.4"), "{first}");
        assert!(first.ends_with("scrapes_total 0\n"), "{first}");
        let second = scrape(addr);
        assert!(second.ends_with("scrapes_total 1\n"), "{second}");
        // Joined first: the accept thread counts a request after it has
        // closed the connection, which is when `scrape` returns.
        assert_eq!(server.shutdown(), 2);
    }

    #[test]
    fn headerless_scrape_is_answered() {
        let server = MetricsServer::bind("127.0.0.1:0", || "x 1\n".to_string()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        // No request at all: just close our write side and read.
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.ends_with("x 1\n"), "{out}");
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = MetricsServer::bind("127.0.0.1:0", String::new).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        // The listener socket is gone; a fresh connect must fail (or be
        // refused once the OS drains the backlog — either way no reply).
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = s.write_all(b"GET / HTTP/1.0\r\n\r\n");
                let mut out = String::new();
                s.set_read_timeout(Some(Duration::from_millis(500)))
                    .unwrap();
                assert!(
                    s.read_to_string(&mut out).is_err() || out.is_empty(),
                    "unexpected reply after shutdown: {out}"
                );
            }
        }
    }
}
