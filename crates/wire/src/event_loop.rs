//! The single-threaded readiness loop that owns every server-side
//! connection.
//!
//! The thread-per-connection listener needed ~1 OS thread per worker:
//! at 512 workers that is 512 blocked readers plus an accept thread,
//! and every outbound frame contended one global writer-table mutex
//! *held across the write syscall*. This loop replaces all of it with
//! one thread multiplexed over a [`Poller`](crate::poll::Poller):
//!
//! - every connection is nonblocking; partial frames persist in a
//!   per-conn [`FrameDecoder`] and partial writes in a [`WriteQueue`],
//!   resumed on the next readiness report;
//! - handshakes run as a frame-driven state machine
//!   ([`ServerHandshake`]) instead of blocking reads, so a stalled
//!   peer costs a timer entry, not a parked thread;
//! - handshake and idle deadlines live in a [`TimerWheel`] — O(1) to
//!   arm, lazily cancelled by generation stamp, no `set_read_timeout`;
//! - cross-thread requests (send/kick/shutdown) arrive on an mpsc
//!   channel paired with a one-byte self-pipe wakeup, so `send` never
//!   touches a socket from the caller's thread;
//! - a write queue that the peer stops draining hits a byte cap and
//!   the connection is dropped (backpressure by eviction — the server
//!   must never buffer unboundedly for a dead consumer).

use crate::auth::{AuthKey, HandshakeStep, ServerHandshake};
use crate::frame::{self, FrameDecoder, WriteQueue};
use crate::listener::{ConnId, ListenerConfig, WireEvent};
use crate::poll::{Interest, PollEvent, Poller};
use crate::stats::LinkStats;
use crate::timer::TimerWheel;
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// Timer wheel granularity. Deadlines here are seconds-scale policy
/// (handshake, idle), so 25ms slots are plenty precise.
const WHEEL_TICK: Duration = Duration::from_millis(25);
const WHEEL_SLOTS: usize = 256;

/// Bytes read per `read` call; a conn yields back to the loop after
/// [`READ_ROUNDS`] full chunks so one firehose cannot starve the rest
/// (level-triggered polling re-reports it immediately).
const READ_CHUNK: usize = 16 * 1024;
const READ_ROUNDS: usize = 4;

pub(crate) enum LoopCmd {
    /// One pre-encoded frame (header included) for a live connection.
    Send {
        conn: ConnId,
        frame: Vec<u8>,
    },
    Kick(ConnId),
    Shutdown,
}

/// The caller-side face of the loop: submit commands, query liveness.
pub(crate) struct LoopHandle {
    cmds: mpsc::Sender<LoopCmd>,
    /// Write end of the self-pipe; one byte per submit. `WouldBlock`
    /// means wakeups are already pending — safe to drop.
    wake: UnixStream,
    live: Arc<Mutex<HashSet<ConnId>>>,
}

impl LoopHandle {
    pub(crate) fn is_live(&self, conn: ConnId) -> bool {
        self.live.lock().unwrap().contains(&conn)
    }

    pub(crate) fn submit(&self, cmd: LoopCmd) {
        if self.cmds.send(cmd).is_ok() {
            let _ = (&self.wake).write(&[1u8]);
        }
    }
}

enum ConnState {
    Handshaking {
        hs: ServerHandshake,
        deadline: Instant,
    },
    Established {
        id: ConnId,
        last_recv: Instant,
    },
}

struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    state: ConnState,
    decoder: FrameDecoder,
    writeq: WriteQueue,
    interest: Interest,
    /// Generation stamp for lazy timer cancellation; bumped whenever a
    /// new deadline supersedes old wheel entries.
    gen: u64,
}

/// How a connection leaves the loop.
enum Gone {
    /// Established conn died: emit `Disconnected` with this reason.
    Conn(String),
    /// Handshake failed: emit `AuthFailed`, bump the counter.
    Auth(String),
    /// Drop quietly (shutdown path).
    Silent,
}

pub(crate) fn spawn(
    listener: TcpListener,
    key: AuthKey,
    config: ListenerConfig,
    stats: LinkStats,
    events: mpsc::Sender<WireEvent>,
) -> io::Result<(LoopHandle, thread::JoinHandle<()>)> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let (cmd_tx, cmd_rx) = mpsc::channel();
    let live = Arc::new(Mutex::new(HashSet::new()));

    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;

    let now = Instant::now();
    let ev_loop = EventLoop {
        listener,
        wake_rx,
        cmds: cmd_rx,
        key,
        config,
        stats,
        events,
        live: Arc::clone(&live),
        poller,
        conns: Vec::new(),
        free: Vec::new(),
        by_id: HashMap::new(),
        wheel: TimerWheel::new(WHEEL_TICK, WHEEL_SLOTS, now),
        next_conn: 0,
        next_gen: 0,
        pollbuf: Vec::new(),
        expired: Vec::new(),
    };
    let join = thread::Builder::new()
        .name("wire-loop".into())
        .spawn(move || ev_loop.run())?;
    Ok((
        LoopHandle {
            cmds: cmd_tx,
            wake: wake_tx,
            live,
        },
        join,
    ))
}

struct EventLoop {
    listener: TcpListener,
    wake_rx: UnixStream,
    cmds: mpsc::Receiver<LoopCmd>,
    key: AuthKey,
    config: ListenerConfig,
    stats: LinkStats,
    events: mpsc::Sender<WireEvent>,
    live: Arc<Mutex<HashSet<ConnId>>>,
    poller: Poller,
    /// Slab of connections; token = slot + [`TOKEN_BASE`].
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    by_id: HashMap<ConnId, usize>,
    wheel: TimerWheel,
    next_conn: u64,
    next_gen: u64,
    pollbuf: Vec<PollEvent>,
    expired: Vec<(u64, u64)>,
}

impl EventLoop {
    fn run(mut self) {
        loop {
            let now = Instant::now();
            let mut expired = std::mem::take(&mut self.expired);
            self.wheel.expire(now, &mut expired);
            for &(token, gen) in &expired {
                self.on_timer(token, gen, now);
            }
            expired.clear();
            self.expired = expired;

            let timeout = self
                .wheel
                .next_wakeup(now)
                .map(|at| at.saturating_duration_since(now));
            let mut pollbuf = std::mem::take(&mut self.pollbuf);
            match self.poller.wait(&mut pollbuf, timeout) {
                Ok(_) => {}
                Err(_) => {
                    // A failing poller cannot make progress; don't
                    // spin the CPU while it lasts.
                    thread::sleep(Duration::from_millis(10));
                }
            }
            let now = Instant::now();
            let mut shutdown = false;
            for &ev in &pollbuf {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKE => {
                        let mut sink = [0u8; 256];
                        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                        if self.drain_cmds() {
                            shutdown = true;
                        }
                    }
                    token => self.conn_ready((token - TOKEN_BASE) as usize, ev, now),
                }
            }
            self.pollbuf = pollbuf;
            // Commands may land between wakeups of the same wait; a
            // drain here keeps latency at one loop turn worst-case.
            if self.drain_cmds() || shutdown {
                self.shutdown_all();
                return;
            }
        }
    }

    fn drain_cmds(&mut self) -> bool {
        loop {
            match self.cmds.try_recv() {
                Ok(LoopCmd::Send { conn, frame }) => self.queue_frame(conn, frame),
                Ok(LoopCmd::Kick(conn)) => {
                    if let Some(&slot) = self.by_id.get(&conn) {
                        self.close_conn(slot, Gone::Conn("kicked by server".into()));
                    }
                }
                Ok(LoopCmd::Shutdown) => return true,
                Err(mpsc::TryRecvError::Empty) => return false,
                // Every handle dropped without a Shutdown: the owning
                // WireListener is gone; stop serving.
                Err(mpsc::TryRecvError::Disconnected) => return true,
            }
        }
    }

    fn shutdown_all(&mut self) {
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_conn(slot, Gone::Silent);
            }
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => self.add_conn(stream, peer, now),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Transient accept failure (EMFILE and friends):
                    // back off briefly instead of spinning on the
                    // still-readable listener.
                    thread::sleep(Duration::from_millis(50));
                    return;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream, peer: SocketAddr, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self
            .poller
            .register(stream.as_raw_fd(), TOKEN_BASE + slot as u64, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.next_gen += 1;
        let gen = self.next_gen;
        let deadline = now + self.config.handshake_timeout;
        self.conns[slot] = Some(Conn {
            stream,
            peer,
            state: ConnState::Handshaking {
                hs: ServerHandshake::new(self.key),
                deadline,
            },
            decoder: FrameDecoder::new(self.config.max_frame.max(frame::HEADER_LEN + 128)),
            writeq: WriteQueue::new(),
            interest: Interest::READ,
            gen,
        });
        self.wheel.arm(slot as u64, gen, deadline);
    }

    fn on_timer(&mut self, token: u64, gen: u64, now: Instant) {
        enum Due {
            AuthTimeout,
            Idle,
            Rearm(Instant),
        }
        let slot = token as usize;
        let due = match self.conns.get(slot).and_then(|c| c.as_ref()) {
            Some(conn) if conn.gen == gen => match &conn.state {
                ConnState::Handshaking { deadline, .. } => {
                    if now >= *deadline {
                        Due::AuthTimeout
                    } else {
                        Due::Rearm(*deadline)
                    }
                }
                ConnState::Established { last_recv, .. } => {
                    let idle_at = *last_recv + self.config.idle_timeout;
                    if now >= idle_at {
                        Due::Idle
                    } else {
                        Due::Rearm(idle_at)
                    }
                }
            },
            // Stale generation or freed slot: lazily-cancelled entry.
            _ => return,
        };
        match due {
            Due::AuthTimeout => self.close_conn(
                slot,
                Gone::Auth(format!(
                    "handshake stalled for {:?}",
                    self.config.handshake_timeout
                )),
            ),
            Due::Idle => self.close_conn(
                slot,
                Gone::Conn(format!(
                    "idle for {:?} (heartbeat lost)",
                    self.config.idle_timeout
                )),
            ),
            Due::Rearm(at) => {
                self.next_gen += 1;
                let fresh = self.next_gen;
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.gen = fresh;
                }
                self.wheel.arm(token, fresh, at);
            }
        }
    }

    fn queue_frame(&mut self, id: ConnId, frame: Vec<u8>) {
        let Some(&slot) = self.by_id.get(&id) else {
            // Raced with a disconnect; the frame is dropped exactly as
            // it would be by a peer dying mid-flight.
            return;
        };
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.writeq.push(frame);
        }
        self.flush_slot(slot);
    }

    /// Drive the write queue; adjust write interest; close on error or
    /// backlog overflow.
    fn flush_slot(&mut self, slot: usize) {
        let outcome = match self.conns[slot].as_mut() {
            Some(conn) => match conn.writeq.flush(&mut conn.stream) {
                Ok(true) => Ok(Interest::READ),
                Ok(false) => {
                    // Per-connection cap on unflushed outbound bytes: a
                    // peer that stops reading is evicted rather than
                    // buffered forever.
                    let cap = self.config.write_backlog_cap;
                    if conn.writeq.queued_bytes() > cap {
                        Err(format!(
                            "write backlog exceeded {cap} bytes (peer not draining)"
                        ))
                    } else {
                        Ok(Interest::BOTH)
                    }
                }
                Err(e) => Err(format!("{} ({:?})", e, e.kind())),
            },
            None => return,
        };
        match outcome {
            Ok(want) => self.set_interest(slot, want),
            Err(reason) => {
                let gone = match self.conns[slot].as_ref().map(|c| &c.state) {
                    Some(ConnState::Established { .. }) => Gone::Conn(reason),
                    _ => Gone::Auth(reason),
                };
                self.close_conn(slot, gone);
            }
        }
    }

    fn set_interest(&mut self, slot: usize, want: Interest) {
        if let Some(conn) = self.conns[slot].as_mut() {
            if conn.interest != want
                && self
                    .poller
                    .modify(conn.stream.as_raw_fd(), TOKEN_BASE + slot as u64, want)
                    .is_ok()
            {
                conn.interest = want;
            }
        }
    }

    fn conn_ready(&mut self, slot: usize, ev: PollEvent, now: Instant) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            // Readiness for a conn already closed this turn.
            return;
        }
        if ev.writable {
            self.flush_slot(slot);
        }
        if !(ev.readable || ev.error || ev.hangup) {
            return;
        }

        // Read phase: pull what the socket has (bounded per turn).
        let mut gone: Option<Gone> = None;
        let mut buf = [0u8; READ_CHUNK];
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let mut rounds = 0;
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        gone = Some(match conn.state {
                            ConnState::Established { .. } => {
                                Gone::Conn("peer closed the connection (UnexpectedEof)".into())
                            }
                            ConnState::Handshaking { .. } => {
                                Gone::Auth("peer closed during handshake".into())
                            }
                        });
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.extend(&buf[..n]);
                        if let ConnState::Established { last_recv, .. } = &mut conn.state {
                            *last_recv = now;
                        }
                        rounds += 1;
                        if n < buf.len() || rounds >= READ_ROUNDS {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        gone = Some(match conn.state {
                            ConnState::Established { .. } => {
                                Gone::Conn(format!("{} ({:?})", e, e.kind()))
                            }
                            ConnState::Handshaking { .. } => {
                                Gone::Auth(format!("handshake failed: {e}"))
                            }
                        });
                        break;
                    }
                }
            }
        }

        // Frame phase: drain every complete frame, even when the read
        // phase ended in EOF — bytes before the close are real.
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let payload = match conn.decoder.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    gone = Some(match conn.state {
                        ConnState::Established { .. } => {
                            Gone::Conn(format!("{} ({:?})", e, e.kind()))
                        }
                        ConnState::Handshaking { .. } => {
                            Gone::Auth(format!("malformed handshake frame: {e}"))
                        }
                    });
                    break;
                }
            };
            match &mut conn.state {
                ConnState::Handshaking { hs, .. } => match hs.on_frame(&payload) {
                    Ok(HandshakeStep::Reply(reply)) => {
                        match frame::encode_frame(&reply) {
                            Ok(encoded) => conn.writeq.push(encoded),
                            Err(_) => unreachable!("handshake frames are tiny"),
                        }
                        self.flush_slot(slot);
                    }
                    Ok(HandshakeStep::Complete(session)) => {
                        let id = ConnId(self.next_conn);
                        self.next_conn += 1;
                        conn.state = ConnState::Established { id, last_recv: now };
                        // Supersede the handshake deadline with idle.
                        self.next_gen += 1;
                        conn.gen = self.next_gen;
                        let peer = conn.peer;
                        self.wheel
                            .arm(slot as u64, conn.gen, now + self.config.idle_timeout);
                        self.by_id.insert(id, slot);
                        self.live.lock().unwrap().insert(id);
                        if self
                            .events
                            .send(WireEvent::Connected {
                                conn: id,
                                session: session.session_id,
                                peer,
                            })
                            .is_err()
                        {
                            gone = Some(Gone::Silent);
                            break;
                        }
                    }
                    Err(e) => {
                        gone = Some(Gone::Auth(e.to_string()));
                        break;
                    }
                },
                ConnState::Established { id, .. } => {
                    let id = *id;
                    self.stats.on_frame_recv(payload.len());
                    if self
                        .events
                        .send(WireEvent::Frame { conn: id, payload })
                        .is_err()
                    {
                        gone = Some(Gone::Silent);
                        break;
                    }
                }
            }
        }

        if let Some(gone) = gone {
            self.close_conn(slot, gone);
        }
    }

    fn close_conn(&mut self, slot: usize, gone: Gone) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        self.poller.deregister(conn.stream.as_raw_fd()).ok();
        conn.stream.shutdown(Shutdown::Both).ok();
        self.free.push(slot);
        let established = match conn.state {
            ConnState::Established { id, .. } => {
                self.by_id.remove(&id);
                self.live.lock().unwrap().remove(&id);
                Some(id)
            }
            ConnState::Handshaking { .. } => None,
        };
        match gone {
            Gone::Conn(reason) => {
                if let Some(id) = established {
                    self.events
                        .send(WireEvent::Disconnected { conn: id, reason })
                        .ok();
                }
            }
            Gone::Auth(reason) => {
                self.stats.auth_failures.inc();
                self.events
                    .send(WireEvent::AuthFailed {
                        peer: conn.peer,
                        reason,
                    })
                    .ok();
            }
            Gone::Silent => {}
        }
    }
}
