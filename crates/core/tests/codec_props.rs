//! Seeded property-style tests for the message codec, and for the
//! codec stacked on the wire framing layer. Random messages — with
//! payloads that carry coordinate blocks among them — must
//! round-trip byte-exactly; random corruption of valid encodings must
//! decode or fail with a clean `CodecError` — never panic, never
//! produce a frame the router would misroute.
//!
//! The generator is a splitmix64 seeded from `COPERNICUS_TEST_SEED`
//! (default `0xC0FFEE`), the same convention as the chaos tests in
//! `faults.rs`, so the CI seed matrix sweeps this file too.

use copernicus_core::codec::{
    decode_inbound, decode_peer, decode_to_server, decode_to_worker, encode_peer, encode_to_server,
    encode_to_worker, Inbound,
};
use copernicus_core::messages::{PeerMsg, ToServer, ToWorker};
use copernicus_core::telemetry::TraceContext;
use copernicus_core::wire::frame::{read_frame, write_frame};
use copernicus_core::{
    Command, CommandId, CommandOutput, ExecutableSpec, Platform, ProjectId, Resources,
    WorkerDescription, WorkerId,
};
use mdsim::jsonv;
use mdsim::Vec3;
use serde_json::json;
use std::io::Cursor;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e3779b97f4a7c15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn seed() -> u64 {
    std::env::var("COPERNICUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn rand_string(rng: &mut Rng, max: usize) -> String {
    let len = rng.below(max + 1);
    (0..len)
        .map(|_| char::from(b'a' + (rng.below(26) as u8)))
        .collect()
}

fn rand_platform(rng: &mut Rng) -> Platform {
    match rng.below(3) {
        0 => Platform::Smp,
        1 => Platform::Mpi,
        _ => Platform::Gpu,
    }
}

fn rand_desc(rng: &mut Rng) -> WorkerDescription {
    let n_exec = rng.below(4);
    WorkerDescription {
        platform: rand_platform(rng),
        // The codec rejects zero-core resources, so generate ≥ 1.
        resources: Resources::new(1 + rng.below(128), rng.next_u64() % (1 << 20)),
        executables: (0..n_exec)
            .map(|_| {
                ExecutableSpec::new(
                    rand_string(rng, 12),
                    rand_platform(rng),
                    rand_string(rng, 8),
                )
            })
            .collect(),
    }
}

/// A frame of random bit patterns (NaN payloads, ±0, ±inf and
/// subnormals included) as the coordinate block `mdrun` sends.
fn rand_frame_block(rng: &mut Rng) -> serde_json::Value {
    let frame: Vec<Vec3> = (0..rng.below(40))
        .map(|_| {
            let mut x = || f64::from_bits(rng.next_u64());
            Vec3::new(x(), x(), x())
        })
        .collect();
    jsonv::frame_to_value(&frame)
}

/// A small payload, or one carrying coordinate blocks.
fn rand_payload(rng: &mut Rng) -> serde_json::Value {
    match rng.below(3) {
        0 => json!({ "steps": rng.below(1 << 20) }),
        1 => json!({ "start_positions": rand_frame_block(rng), "steps": rng.below(1 << 20) }),
        _ => {
            let n = rng.below(5);
            let times: Vec<f64> = (0..n).map(|_| f64::from_bits(rng.next_u64())).collect();
            json!({
                "trajectory": {
                    "times": jsonv::f64_block_to_value(&times),
                    "frames": (0..n).map(|_| rand_frame_block(rng)).collect::<Vec<_>>(),
                },
                "final_positions": rand_frame_block(rng),
            })
        }
    }
}

fn rand_command(rng: &mut Rng) -> Command {
    Command {
        id: CommandId(rng.next_u64()),
        project: ProjectId(rng.next_u64()),
        command_type: rand_string(rng, 16),
        priority: rng.next_u64() as i32,
        required: Resources::new(1 + rng.below(64), rng.next_u64() % (1 << 16)),
        payload: rand_payload(rng).into(),
        checkpoint: if rng.below(2) == 0 {
            None
        } else {
            Some(json!({ "frame": rng.below(1 << 16) }))
        },
        attempts: rng.below(10) as u32,
        trace: rand_trace(rng),
        // Deliberately not encoded (dispatch-local state); keep None so
        // re-encode equality is meaningful.
        not_before: None,
    }
}

/// Absent / root / child trace contexts, so the sweep exercises every
/// shape of the codec's trailing optional trace field.
fn rand_trace(rng: &mut Rng) -> Option<TraceContext> {
    match rng.below(3) {
        0 => None,
        1 => Some(TraceContext {
            trace_id: rng.next_u64(),
            span_id: rng.next_u64(),
            parent_span_id: None,
        }),
        _ => Some(TraceContext {
            trace_id: rng.next_u64(),
            span_id: rng.next_u64(),
            parent_span_id: Some(rng.next_u64()),
        }),
    }
}

fn rand_output(rng: &mut Rng) -> CommandOutput {
    let cmd = rand_command(rng);
    CommandOutput::new(
        &cmd,
        WorkerId(rng.next_u64()),
        rand_payload(rng),
        (rng.below(1000) as f64) / 64.0,
    )
}

fn rand_to_server(rng: &mut Rng) -> ToServer {
    match rng.below(6) {
        // One level only: the codec flattens nested batches at encode
        // and rejects them on decode, so leaves keep the re-encode
        // equality property meaningful.
        5 => ToServer::Batch(
            (0..1 + rng.below(4))
                .map(|_| rand_to_server_leaf(rng))
                .collect(),
        ),
        _ => rand_to_server_leaf(rng),
    }
}

fn rand_to_server_leaf(rng: &mut Rng) -> ToServer {
    match rng.below(6) {
        0 => ToServer::Announce {
            worker: WorkerId(rng.next_u64()),
            desc: rand_desc(rng),
        },
        1 => ToServer::RequestWork {
            worker: WorkerId(rng.next_u64()),
        },
        2 => ToServer::Completed {
            output: rand_output(rng),
        },
        3 => ToServer::CommandError {
            worker: WorkerId(rng.next_u64()),
            project: ProjectId(rng.next_u64()),
            command: CommandId(rng.next_u64()),
            epoch: rng.below(100) as u32,
            error: rand_string(rng, 40),
        },
        4 => ToServer::WorkerDeparted {
            worker: WorkerId(rng.next_u64()),
        },
        _ => ToServer::Heartbeat {
            worker: WorkerId(rng.next_u64()),
        },
    }
}

fn rand_to_worker(rng: &mut Rng) -> ToWorker {
    match rng.below(3) {
        0 => {
            let n = rng.below(4);
            ToWorker::Workload((0..n).map(|_| rand_command(rng)).collect())
        }
        1 => ToWorker::NoWork,
        _ => ToWorker::Shutdown,
    }
}

fn rand_peer(rng: &mut Rng) -> PeerMsg {
    match rng.below(7) {
        0 => PeerMsg::Hello {
            server: rand_string(rng, 24),
            projects: (0..rng.below(4))
                .map(|_| ProjectId(rng.next_u64()))
                .collect(),
        },
        1 => PeerMsg::OfferWork {
            offer: rng.next_u64(),
            worker: WorkerId(rng.next_u64()),
            desc: rand_desc(rng),
        },
        2 => PeerMsg::DelegateCommand {
            offer: rng.next_u64(),
            worker: WorkerId(rng.next_u64()),
            commands: (0..rng.below(3)).map(|_| rand_command(rng)).collect(),
        },
        3 => PeerMsg::DelegatedResult {
            output: rand_output(rng),
        },
        4 => PeerMsg::DelegatedError {
            worker: WorkerId(rng.next_u64()),
            project: ProjectId(rng.next_u64()),
            command: CommandId(rng.next_u64()),
            epoch: rng.below(100) as u32,
            error: rand_string(rng, 40),
        },
        5 => PeerMsg::Heartbeats {
            workers: (0..rng.below(6))
                .map(|_| WorkerId(rng.next_u64()))
                .collect(),
        },
        _ => PeerMsg::Shutdown,
    }
}

/// A random JSON value of every shape: integers of both signs at full
/// width, floats from random bit patterns (±0, subnormals, and NaN and
/// ±inf, which print as `null`), strings that need escapes, nesting.
fn rand_value(rng: &mut Rng, depth: usize) -> serde_json::Value {
    let leaf = if depth == 0 { 6 } else { 8 };
    match rng.below(leaf) {
        0 => serde_json::Value::Null,
        1 => json!(rng.below(2) == 0),
        2 => json!(rng.next_u64()),
        3 => json!(rng.next_u64() as i64),
        4 => json!(f64::from_bits(rng.next_u64())),
        5 => {
            const CHARS: [char; 10] =
                ['a', 'Z', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', 'é', '∂'];
            let s: String = (0..rng.below(12))
                .map(|_| CHARS[rng.below(CHARS.len())])
                .collect();
            json!(s)
        }
        6 => serde_json::Value::Array(
            (0..rng.below(5))
                .map(|_| rand_value(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let mut map = serde_json::Map::new();
            for _ in 0..rng.below(5) {
                map.insert(rand_string(rng, 6), rand_value(rng, depth - 1));
            }
            serde_json::Value::Object(map)
        }
    }
}

/// A payload's text is the one `serde_json::to_string` gives its value,
/// and a decoded payload keeps the text it arrived as: encode → decode →
/// encode gives the same bytes, and the text is the printed one, for
/// commands, results, and both as a peer delegates them.
#[test]
fn payload_text_is_the_printed_value_through_every_hop() {
    let mut rng = Rng::new(seed().rotate_left(53));
    for round in 0..ROUNDS {
        let value = rand_value(&mut rng, 3);
        let want = serde_json::to_string(&value).unwrap();
        let mut cmd = rand_command(&mut rng);
        cmd.payload = value.clone().into();
        let output = CommandOutput::new(&cmd, WorkerId(rng.next_u64()), value, 0.5);

        let sent = encode_to_worker(&ToWorker::Workload(vec![cmd.clone()]));
        let Ok(ToWorker::Workload(got)) = decode_to_worker(&sent) else {
            panic!("round {round}: workload did not decode");
        };
        assert_eq!(got[0].payload.text(), want, "round {round}: command");
        assert_eq!(
            encode_to_worker(&ToWorker::Workload(got)),
            sent,
            "round {round}"
        );

        let sent = encode_peer(&PeerMsg::DelegateCommand {
            offer: 1,
            worker: WorkerId(2),
            commands: vec![cmd],
        });
        let Ok(PeerMsg::DelegateCommand { commands, .. }) = decode_peer(&sent) else {
            panic!("round {round}: delegated command did not decode");
        };
        assert_eq!(commands[0].payload.text(), want, "round {round}: delegated");
        assert_eq!(
            encode_peer(&PeerMsg::DelegateCommand {
                offer: 1,
                worker: WorkerId(2),
                commands,
            }),
            sent,
            "round {round}"
        );

        let sent = encode_to_server(&ToServer::Completed {
            output: output.clone(),
        });
        let Ok(ToServer::Completed { output: got }) = decode_to_server(&sent) else {
            panic!("round {round}: result did not decode");
        };
        assert_eq!(got.data.text(), want, "round {round}: result");
        assert_eq!(encode_to_server(&ToServer::Completed { output: got }), sent);

        let sent = encode_peer(&PeerMsg::DelegatedResult { output });
        let Ok(PeerMsg::DelegatedResult { output: got }) = decode_peer(&sent) else {
            panic!("round {round}: delegated result did not decode");
        };
        assert_eq!(got.data.text(), want, "round {round}: delegated result");
        assert_eq!(encode_peer(&PeerMsg::DelegatedResult { output: got }), sent);
    }
}

const ROUNDS: usize = 120;

#[test]
fn random_messages_roundtrip_byte_exactly() {
    let mut rng = Rng::new(seed());
    for round in 0..ROUNDS {
        let msg = rand_to_server(&mut rng);
        let bytes = encode_to_server(&msg);
        let back =
            decode_to_server(&bytes).unwrap_or_else(|e| panic!("round {round}: {e} for {msg:?}"));
        // The message types carry no PartialEq; byte equality of the
        // re-encoding is the stronger property anyway.
        assert_eq!(encode_to_server(&back), bytes, "round {round}: {msg:?}");

        let msg = rand_to_worker(&mut rng);
        let bytes = encode_to_worker(&msg);
        let back =
            decode_to_worker(&bytes).unwrap_or_else(|e| panic!("round {round}: {e} for {msg:?}"));
        assert_eq!(encode_to_worker(&back), bytes, "round {round}: {msg:?}");

        let msg = rand_peer(&mut rng);
        let bytes = encode_peer(&msg);
        let back = decode_peer(&bytes).unwrap_or_else(|e| panic!("round {round}: {e} for {msg:?}"));
        assert_eq!(encode_peer(&back), bytes, "round {round}: {msg:?}");

        // The inbound demultiplexer must route by tag namespace.
        match decode_inbound(&encode_peer(&back)) {
            Ok(Inbound::Peer(_)) => {}
            other => panic!("round {round}: peer frame misrouted: {other:?}"),
        }
    }
}

#[test]
fn mutated_encodings_decode_or_error_cleanly() {
    let mut rng = Rng::new(seed().rotate_left(13));
    for _round in 0..ROUNDS {
        let mut bytes = match rng.below(3) {
            0 => encode_to_server(&rand_to_server(&mut rng)),
            1 => encode_to_worker(&rand_to_worker(&mut rng)),
            _ => encode_peer(&rand_peer(&mut rng)),
        };
        if bytes.is_empty() {
            continue;
        }
        match rng.below(3) {
            // Bit flip anywhere.
            0 => {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            // Truncate.
            1 => bytes.truncate(rng.below(bytes.len())),
            // Append garbage (trailing bytes must be rejected, not
            // silently ignored — the wire gives exactly one message
            // per frame).
            _ => bytes.extend((0..1 + rng.below(8)).map(|_| rng.next_u64() as u8)),
        }
        // Any outcome but a panic is acceptable; a decode that
        // succeeds must itself re-encode without panicking.
        match decode_inbound(&bytes) {
            Ok(Inbound::Worker(msg)) => {
                let _ = encode_to_server(&msg);
            }
            Ok(Inbound::Peer(msg)) => {
                let _ = encode_peer(&msg);
            }
            Err(_) => {}
        }
        let _ = decode_to_worker(&bytes);
    }
}

#[test]
fn random_garbage_never_decodes_to_half_parsed_messages() {
    let mut rng = Rng::new(seed().rotate_left(29));
    for _ in 0..ROUNDS {
        let len = rng.below(256);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // All three decoders must be total functions of the input.
        let _ = decode_to_server(&bytes);
        let _ = decode_to_worker(&bytes);
        let _ = decode_peer(&bytes);
        let _ = decode_inbound(&bytes);
    }
}

#[test]
fn codec_survives_the_framing_layer() {
    let mut rng = Rng::new(seed().rotate_left(41));
    for round in 0..24 {
        // A realistic wire session: several messages framed back to
        // back into one stream, then read and decoded in order.
        let msgs: Vec<PeerMsg> = (0..6).map(|_| rand_peer(&mut rng)).collect();
        let mut stream = Vec::new();
        for m in &msgs {
            write_frame(&mut stream, &encode_peer(m)).expect("frame fits");
        }
        let mut cursor = Cursor::new(stream);
        for (i, m) in msgs.iter().enumerate() {
            let payload =
                read_frame(&mut cursor).unwrap_or_else(|e| panic!("round {round} frame {i}: {e}"));
            let back =
                decode_peer(&payload).unwrap_or_else(|e| panic!("round {round} frame {i}: {e}"));
            assert_eq!(
                encode_peer(&back),
                encode_peer(m),
                "round {round} frame {i} corrupted in transit"
            );
        }
    }
}
