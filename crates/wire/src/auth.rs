//! Pre-shared-key challenge–response handshake.
//!
//! Stand-in for the paper's SSL key exchange (§2.2: links become usable
//! only after an explicit, user-initiated key exchange). Both ends hold
//! the same 32-byte key; neither ever sends it. The transcript is three
//! frames:
//!
//! ```text
//! client → server   MAGIC ‖ client_nonce(32)
//! server → client   server_nonce(32) ‖ HMAC(key, "server" ‖ cn ‖ sn)
//! client → server   HMAC(key, "client" ‖ cn ‖ sn)
//! ```
//!
//! The server proves key possession first (so a worker never talks to
//! an impostor server), then the client proves its own. Role strings in
//! the MAC input prevent reflection (echoing the server's MAC back as
//! the client proof). Both sides derive the same `session_id` from the
//! nonces, giving freshly connected workers a collision-resistant
//! identity without a shared id allocator.
//!
//! **Not production crypto**: no forward secrecy, no rekeying, traffic
//! after the handshake is authenticated only by TCP's weak integrity.
//! It replaces the in-process trust of `std::sync::mpsc` channels with the
//! paper's *shape* of link authentication, nothing more.

use crate::frame;
use crate::hash;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Protocol magic + version. Bump the trailing digit on incompatible
/// frame-format changes.
pub const MAGIC: &[u8; 8] = b"CPNWIRE1";

pub const NONCE_LEN: usize = 32;
pub const MAC_LEN: usize = 32;

/// A 32-byte pre-shared link key.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AuthKey(pub [u8; 32]);

impl AuthKey {
    /// Derive a key from a passphrase (what the CLI's `--key` takes).
    pub fn from_passphrase(phrase: &str) -> AuthKey {
        AuthKey(hash::sha256(phrase.as_bytes()))
    }
}

impl fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never leak key material through Debug-formatted logs.
        write!(f, "AuthKey(…)")
    }
}

/// Why a handshake was refused.
#[derive(Debug)]
pub enum AuthError {
    Io(io::Error),
    /// First frame did not start with [`MAGIC`] — not a wire peer, or a
    /// version mismatch.
    BadMagic,
    /// MAC verification failed: the peer holds a different key.
    BadKey,
    /// Frame sizes didn't match the protocol transcript.
    Malformed,
}

impl fmt::Display for AuthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuthError::Io(e) => write!(f, "handshake i/o: {e}"),
            AuthError::BadMagic => write!(f, "bad protocol magic"),
            AuthError::BadKey => write!(f, "pre-shared key mismatch"),
            AuthError::Malformed => write!(f, "malformed handshake frame"),
        }
    }
}

impl std::error::Error for AuthError {}

impl From<io::Error> for AuthError {
    fn from(e: io::Error) -> Self {
        AuthError::Io(e)
    }
}

/// The result of a successful handshake.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    /// Derived identically on both ends from the key and both nonces.
    pub session_id: u64,
}

static NONCE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh 32-byte nonce. Uniqueness (process id + monotonic counter +
/// nanosecond clock + ASLR, hashed) is what the protocol needs;
/// unpredictability is best-effort since this is not production crypto.
pub fn fresh_nonce() -> [u8; NONCE_LEN] {
    let mut seed = Vec::with_capacity(64);
    seed.extend_from_slice(&NONCE_COUNTER.fetch_add(1, Ordering::Relaxed).to_be_bytes());
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    seed.extend_from_slice(&now.as_nanos().to_be_bytes());
    seed.extend_from_slice(&std::process::id().to_be_bytes());
    let stack_marker = 0u8;
    seed.extend_from_slice(&(&stack_marker as *const u8 as usize).to_be_bytes());
    hash::sha256(&seed)
}

fn transcript_mac(key: &AuthKey, role: &[u8], cn: &[u8], sn: &[u8]) -> [u8; MAC_LEN] {
    let mut msg = Vec::with_capacity(role.len() + cn.len() + sn.len());
    msg.extend_from_slice(role);
    msg.extend_from_slice(cn);
    msg.extend_from_slice(sn);
    hash::hmac_sha256(&key.0, &msg)
}

fn derive_session_id(key: &AuthKey, cn: &[u8], sn: &[u8]) -> u64 {
    let mac = transcript_mac(key, b"session", cn, sn);
    u64::from_be_bytes(mac[..8].try_into().unwrap())
}

/// Run the client leg of the handshake on a fresh stream.
pub fn client_handshake<S: Read + Write>(
    stream: &mut S,
    key: &AuthKey,
) -> Result<Session, AuthError> {
    let client_nonce = fresh_nonce();
    let mut hello = Vec::with_capacity(MAGIC.len() + NONCE_LEN);
    hello.extend_from_slice(MAGIC);
    hello.extend_from_slice(&client_nonce);
    frame::write_frame(stream, &hello)?;

    let challenge = frame::read_frame(stream)?;
    if challenge.len() != NONCE_LEN + MAC_LEN {
        return Err(AuthError::Malformed);
    }
    let (server_nonce, server_mac) = challenge.split_at(NONCE_LEN);
    let expected = transcript_mac(key, b"server", &client_nonce, server_nonce);
    if !hash::ct_eq(server_mac, &expected) {
        return Err(AuthError::BadKey);
    }

    let proof = transcript_mac(key, b"client", &client_nonce, server_nonce);
    frame::write_frame(stream, &proof)?;
    Ok(Session {
        session_id: derive_session_id(key, &client_nonce, server_nonce),
    })
}

/// Run the server leg of the handshake on a freshly accepted stream.
pub fn server_handshake<S: Read + Write>(
    stream: &mut S,
    key: &AuthKey,
) -> Result<Session, AuthError> {
    let hello = frame::read_frame(stream)?;
    if hello.len() != MAGIC.len() + NONCE_LEN {
        return Err(AuthError::Malformed);
    }
    if &hello[..MAGIC.len()] != MAGIC {
        return Err(AuthError::BadMagic);
    }
    let client_nonce = &hello[MAGIC.len()..];

    let server_nonce = fresh_nonce();
    let mut challenge = Vec::with_capacity(NONCE_LEN + MAC_LEN);
    challenge.extend_from_slice(&server_nonce);
    challenge.extend_from_slice(&transcript_mac(key, b"server", client_nonce, &server_nonce));
    frame::write_frame(stream, &challenge)?;

    let proof = frame::read_frame(stream)?;
    let expected = transcript_mac(key, b"client", client_nonce, &server_nonce);
    if !hash::ct_eq(&proof, &expected) {
        return Err(AuthError::BadKey);
    }
    Ok(Session {
        session_id: derive_session_id(key, client_nonce, &server_nonce),
    })
}

// ---------------------------------------------------------------------
// Frame-driven server handshake (event-loop form)
// ---------------------------------------------------------------------

/// What the state machine wants after absorbing one handshake frame.
#[derive(Debug)]
pub enum HandshakeStep {
    /// Queue this frame payload for the client and keep feeding.
    Reply(Vec<u8>),
    /// Handshake complete; the connection is authenticated.
    Complete(Session),
}

enum HandshakeState {
    AwaitHello,
    AwaitProof {
        expected: [u8; MAC_LEN],
        session_id: u64,
    },
    Done,
}

/// The server leg of the handshake as a state machine over whole
/// frames, for the event loop: no thread ever blocks mid-transcript,
/// and the handshake deadline is a timer-wheel entry instead of a
/// `set_read_timeout`. Same transcript, same errors as
/// [`server_handshake`].
pub struct ServerHandshake {
    key: AuthKey,
    state: HandshakeState,
}

impl ServerHandshake {
    pub fn new(key: AuthKey) -> ServerHandshake {
        ServerHandshake {
            key,
            state: HandshakeState::AwaitHello,
        }
    }

    /// Feed one inbound frame payload. Errors mean the connection must
    /// be dropped (with an auth-failure event).
    pub fn on_frame(&mut self, payload: &[u8]) -> Result<HandshakeStep, AuthError> {
        match &self.state {
            HandshakeState::AwaitHello => {
                if payload.len() != MAGIC.len() + NONCE_LEN {
                    return Err(AuthError::Malformed);
                }
                if &payload[..MAGIC.len()] != MAGIC {
                    return Err(AuthError::BadMagic);
                }
                let client_nonce = &payload[MAGIC.len()..];
                let server_nonce = fresh_nonce();
                let mut challenge = Vec::with_capacity(NONCE_LEN + MAC_LEN);
                challenge.extend_from_slice(&server_nonce);
                challenge.extend_from_slice(&transcript_mac(
                    &self.key,
                    b"server",
                    client_nonce,
                    &server_nonce,
                ));
                self.state = HandshakeState::AwaitProof {
                    expected: transcript_mac(&self.key, b"client", client_nonce, &server_nonce),
                    session_id: derive_session_id(&self.key, client_nonce, &server_nonce),
                };
                Ok(HandshakeStep::Reply(challenge))
            }
            HandshakeState::AwaitProof {
                expected,
                session_id,
            } => {
                if !hash::ct_eq(payload, expected) {
                    return Err(AuthError::BadKey);
                }
                let session = Session {
                    session_id: *session_id,
                };
                self.state = HandshakeState::Done;
                Ok(HandshakeStep::Complete(session))
            }
            HandshakeState::Done => Err(AuthError::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    /// Run the two handshake legs over a real loopback socket pair.
    fn run_handshake(
        client_key: AuthKey,
        server_key: AuthKey,
    ) -> (Result<Session, AuthError>, Result<Session, AuthError>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            server_handshake(&mut stream, &server_key)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let client_res = client_handshake(&mut stream, &client_key);
        // Close the client socket before joining: on a rejected
        // handshake the server is still blocked reading the proof frame
        // and needs the EOF to give up.
        drop(stream);
        (client_res, server.join().unwrap())
    }

    #[test]
    fn matching_keys_agree_on_session_id() {
        let key = AuthKey::from_passphrase("villin-fold");
        let (c, s) = run_handshake(key, key);
        let c = c.expect("client side accepted");
        let s = s.expect("server side accepted");
        assert_eq!(c.session_id, s.session_id);
    }

    #[test]
    fn fresh_nonces_give_fresh_session_ids() {
        let key = AuthKey::from_passphrase("villin-fold");
        let (a, _) = run_handshake(key, key);
        let (b, _) = run_handshake(key, key);
        assert_ne!(a.unwrap().session_id, b.unwrap().session_id);
    }

    #[test]
    fn mismatched_key_is_rejected_by_client_first() {
        // The *server* proves itself first, so a client with the wrong
        // key detects the mismatch in the challenge frame.
        let (c, s) = run_handshake(
            AuthKey::from_passphrase("right"),
            AuthKey::from_passphrase("wrong"),
        );
        assert!(matches!(c, Err(AuthError::BadKey)), "client: {c:?}");
        // The server sees either a dropped connection or a bad proof.
        assert!(s.is_err());
    }

    #[test]
    fn garbage_magic_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let key = AuthKey::from_passphrase("k");
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            server_handshake(&mut stream, &key)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut bogus = Vec::new();
        bogus.extend_from_slice(b"GETHTTP1");
        bogus.extend_from_slice(&[0u8; NONCE_LEN]);
        frame::write_frame(&mut stream, &bogus).unwrap();
        assert!(matches!(server.join().unwrap(), Err(AuthError::BadMagic)));
    }

    #[test]
    fn reflection_attack_fails() {
        // An attacker without the key echoing the server's own MAC back
        // as the client proof must be rejected (role strings differ).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let key = AuthKey::from_passphrase("secret");
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            server_handshake(&mut stream, &key)
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(MAGIC);
        hello.extend_from_slice(&fresh_nonce());
        frame::write_frame(&mut stream, &hello).unwrap();
        let challenge = frame::read_frame(&mut stream).unwrap();
        let echoed_mac = challenge[NONCE_LEN..].to_vec();
        frame::write_frame(&mut stream, &echoed_mac).unwrap();
        assert!(matches!(server.join().unwrap(), Err(AuthError::BadKey)));
    }

    #[test]
    fn debug_does_not_print_key_material() {
        let key = AuthKey::from_passphrase("super secret");
        let rendered = format!("{key:?}");
        assert_eq!(rendered, "AuthKey(…)");
    }

    #[test]
    fn passphrase_derivation_is_deterministic() {
        assert_eq!(
            AuthKey::from_passphrase("a").0,
            AuthKey::from_passphrase("a").0
        );
        assert_ne!(
            AuthKey::from_passphrase("a").0,
            AuthKey::from_passphrase("b").0
        );
    }
}
