//! Loopback integration tests for the supervised link: handshake,
//! traffic, reconnect-with-replay, and malformed-frame hygiene.

use copernicus_telemetry::{names, Registry};
use copernicus_wire::{
    auth, frame, AuthKey, ConnectError, LinkStats, ListenerConfig, ReconnectPolicy, RecvError,
    WireClient, WireEvent, WireListener,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn test_policy() -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 10,
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
    }
}

fn quick_listener_config() -> ListenerConfig {
    ListenerConfig {
        idle_timeout: Duration::from_secs(5),
        handshake_timeout: Duration::from_secs(2),
        ..ListenerConfig::default()
    }
}

fn wait_event(listener: &WireListener, what: &str) -> WireEvent {
    listener
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|| panic!("timed out waiting for {what}"))
}

/// Drain events until one matches `pick`, failing after a deadline.
fn wait_for<T>(
    listener: &WireListener,
    what: &str,
    mut pick: impl FnMut(WireEvent) -> Option<T>,
) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Some(ev) = listener.recv_timeout(Duration::from_millis(200)) {
            if let Some(out) = pick(ev) {
                return out;
            }
        }
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn frames_flow_both_ways() {
    let key = AuthKey::from_passphrase("pool");
    let listener = WireListener::bind(
        "127.0.0.1:0",
        key,
        quick_listener_config(),
        LinkStats::detached(),
    )
    .unwrap();
    let addr = listener.local_addr().to_string();
    let client = WireClient::connect(&addr, key, test_policy(), LinkStats::detached()).unwrap();

    let conn = wait_for(&listener, "Connected", |ev| match ev {
        WireEvent::Connected { conn, session, .. } => {
            assert_eq!(session, client.session_id());
            Some(conn)
        }
        _ => None,
    });

    client.send(b"request-work").unwrap();
    let payload = wait_for(&listener, "Frame", |ev| match ev {
        WireEvent::Frame { payload, .. } => Some(payload),
        _ => None,
    });
    assert_eq!(payload, b"request-work");

    listener.send(conn, b"workload").unwrap();
    let got = client.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(got, b"workload");
}

#[test]
fn recv_timeout_on_idle_link_is_clean() {
    let key = AuthKey::from_passphrase("idle");
    let listener = WireListener::bind(
        "127.0.0.1:0",
        key,
        quick_listener_config(),
        LinkStats::detached(),
    )
    .unwrap();
    let addr = listener.local_addr().to_string();
    let client = WireClient::connect(&addr, key, test_policy(), LinkStats::detached()).unwrap();
    match client.recv_timeout(Duration::from_millis(100)) {
        Err(RecvError::Timeout) => {}
        other => panic!("expected clean timeout, got {other:?}"),
    }
    // The link is still healthy afterwards.
    client.send(b"still here").unwrap();
    wait_for(&listener, "Frame after timeout", |ev| match ev {
        WireEvent::Frame { payload, .. } => {
            assert_eq!(payload, b"still here");
            Some(())
        }
        _ => None,
    });
}

#[test]
fn bad_key_is_rejected_at_handshake() {
    let reg = Registry::new();
    let listener = WireListener::bind(
        "127.0.0.1:0",
        AuthKey::from_passphrase("right"),
        quick_listener_config(),
        LinkStats::new(&reg, "listener", "server"),
    )
    .unwrap();
    let addr = listener.local_addr().to_string();
    let err = WireClient::connect(
        &addr,
        AuthKey::from_passphrase("wrong"),
        test_policy(),
        LinkStats::detached(),
    )
    .err()
    .expect("wrong key must not connect");
    assert!(matches!(err, ConnectError::Auth(_)), "{err}");
    match wait_event(&listener, "AuthFailed") {
        WireEvent::AuthFailed { .. } => {}
        other => panic!("expected AuthFailed, got {other:?}"),
    }
    assert_eq!(reg.counter_total(names::WIRE_AUTH_FAILURES), 1);
}

#[test]
fn kicked_client_reconnects_and_replays_session() {
    let reg = Registry::new();
    let key = AuthKey::from_passphrase("replay");
    let listener = WireListener::bind(
        "127.0.0.1:0",
        key,
        quick_listener_config(),
        LinkStats::detached(),
    )
    .unwrap();
    let addr = listener.local_addr().to_string();
    let client = WireClient::connect(
        &addr,
        key,
        test_policy(),
        LinkStats::new(&reg, &addr, "client"),
    )
    .unwrap();

    client.send_session(b"announce:w1").unwrap();
    let first_conn = wait_for(&listener, "first Connected", |ev| match ev {
        WireEvent::Connected { conn, .. } => Some(conn),
        _ => None,
    });
    wait_for(&listener, "announce frame", |ev| match ev {
        WireEvent::Frame { payload, .. } => {
            assert_eq!(payload, b"announce:w1");
            Some(())
        }
        _ => None,
    });

    // Partition: server kills the socket mid-session.
    listener.kick(first_conn);

    // The client notices on its next receive, redials, and replays the
    // registered announce; the caller sees `Reconnected` exactly once.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut reconnected = false;
    while Instant::now() < deadline && !reconnected {
        match client.recv_timeout(Duration::from_millis(200)) {
            Err(RecvError::Reconnected) => reconnected = true,
            Err(RecvError::Timeout) => {}
            other => panic!("unexpected recv outcome {other:?}"),
        }
    }
    assert!(reconnected, "client never observed the reconnect");

    let second_conn = wait_for(&listener, "second Connected", |ev| match ev {
        WireEvent::Connected { conn, .. } => Some(conn),
        _ => None,
    });
    assert_ne!(first_conn, second_conn);
    wait_for(&listener, "replayed announce", |ev| match ev {
        WireEvent::Frame { conn, payload } => {
            assert_eq!(conn, second_conn);
            assert_eq!(payload, b"announce:w1");
            Some(())
        }
        _ => None,
    });
    assert_eq!(reg.counter_total(names::WIRE_RECONNECTS), 1);

    // And the fresh link carries traffic both ways.
    client.send(b"after-reconnect").unwrap();
    wait_for(&listener, "post-reconnect frame", |ev| match ev {
        WireEvent::Frame { payload, .. } => (payload == b"after-reconnect").then_some(()),
        _ => None,
    });
    listener.send(second_conn, b"welcome back").unwrap();
    assert_eq!(
        client.recv_timeout(Duration::from_secs(5)).unwrap(),
        b"welcome back"
    );
}

#[test]
fn oversized_frame_drops_the_connection() {
    let key = AuthKey::from_passphrase("hygiene");
    let config = ListenerConfig {
        max_frame: 1024,
        ..quick_listener_config()
    };
    let listener = WireListener::bind("127.0.0.1:0", key, config, LinkStats::detached()).unwrap();
    let addr = listener.local_addr();

    // Handshake honestly, then turn hostile: a length prefix far above
    // the cap.
    let mut stream = TcpStream::connect(addr).unwrap();
    auth::client_handshake(&mut stream, &key).unwrap();
    let conn = wait_for(&listener, "Connected", |ev| match ev {
        WireEvent::Connected { conn, .. } => Some(conn),
        _ => None,
    });
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    stream.flush().unwrap();

    let reason = wait_for(&listener, "Disconnected", |ev| match ev {
        WireEvent::Disconnected { conn: c, reason } => {
            assert_eq!(c, conn);
            Some(reason)
        }
        _ => None,
    });
    assert!(reason.contains("exceeds"), "reason was: {reason}");
    // The listener thread survived: a fresh client still works.
    let client =
        WireClient::connect(&addr.to_string(), key, test_policy(), LinkStats::detached()).unwrap();
    client.send(b"ok").unwrap();
    wait_for(&listener, "frame from fresh client", |ev| match ev {
        WireEvent::Frame { payload, .. } => (payload == b"ok").then_some(()),
        _ => None,
    });
}

#[test]
fn mid_frame_disconnect_is_reported_not_fatal() {
    let key = AuthKey::from_passphrase("hygiene2");
    let listener = WireListener::bind(
        "127.0.0.1:0",
        key,
        quick_listener_config(),
        LinkStats::detached(),
    )
    .unwrap();
    let addr = listener.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    auth::client_handshake(&mut stream, &key).unwrap();
    let conn = wait_for(&listener, "Connected", |ev| match ev {
        WireEvent::Connected { conn, .. } => Some(conn),
        _ => None,
    });
    // Promise 100 bytes, deliver 10, vanish.
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(&[9u8; 10]).unwrap();
    stream.flush().unwrap();
    drop(stream);

    wait_for(&listener, "Disconnected", |ev| match ev {
        WireEvent::Disconnected { conn: c, .. } => {
            assert_eq!(c, conn);
            Some(())
        }
        _ => None,
    });
}

#[test]
fn truncated_handshake_times_out_without_wedging() {
    let key = AuthKey::from_passphrase("stall");
    let config = ListenerConfig {
        handshake_timeout: Duration::from_millis(200),
        ..quick_listener_config()
    };
    let listener = WireListener::bind("127.0.0.1:0", key, config, LinkStats::detached()).unwrap();
    let addr = listener.local_addr();

    // Connect and send half a hello, then go silent.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&[0u8, 0]).unwrap();
    stream.flush().unwrap();

    match wait_event(&listener, "AuthFailed for stalled handshake") {
        WireEvent::AuthFailed { .. } => {}
        other => panic!("expected AuthFailed, got {other:?}"),
    }
    // The accept loop is alive: a real client connects fine.
    let client =
        WireClient::connect(&addr.to_string(), key, test_policy(), LinkStats::detached()).unwrap();
    assert!(!client.is_closed());
}

#[test]
fn two_clients_are_kept_apart() {
    let key = AuthKey::from_passphrase("multi");
    let listener = WireListener::bind(
        "127.0.0.1:0",
        key,
        quick_listener_config(),
        LinkStats::detached(),
    )
    .unwrap();
    let addr = listener.local_addr().to_string();
    let a = WireClient::connect(&addr, key, test_policy(), LinkStats::detached()).unwrap();
    let b = WireClient::connect(&addr, key, test_policy(), LinkStats::detached()).unwrap();
    assert_ne!(a.session_id(), b.session_id());

    a.send(b"from-a").unwrap();
    b.send(b"from-b").unwrap();

    let mut conn_a = None;
    let mut conn_b = None;
    let deadline = Instant::now() + Duration::from_secs(5);
    while (conn_a.is_none() || conn_b.is_none()) && Instant::now() < deadline {
        if let Some(WireEvent::Frame { conn, payload }) =
            listener.recv_timeout(Duration::from_millis(200))
        {
            if payload == b"from-a" {
                conn_a = Some(conn);
            } else if payload == b"from-b" {
                conn_b = Some(conn);
            }
        }
    }
    let (conn_a, conn_b) = (conn_a.expect("a's frame"), conn_b.expect("b's frame"));
    assert_ne!(conn_a, conn_b);

    listener.send(conn_a, b"to-a").unwrap();
    listener.send(conn_b, b"to-b").unwrap();
    assert_eq!(a.recv_timeout(Duration::from_secs(5)).unwrap(), b"to-a");
    assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap(), b"to-b");
}

#[test]
fn frame_constants_are_sane() {
    // The framing overhead the stats layer accounts for matches the
    // writer's actual output.
    let mut buf = Vec::new();
    frame::write_frame(&mut buf, b"xyz").unwrap();
    assert_eq!(buf.len(), frame::HEADER_LEN + 3);
}
