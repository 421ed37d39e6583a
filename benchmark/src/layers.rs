//! Isolated replays: each layer's public functions, timed on their own
//! on the messages, records and frames a traced run produced.
//!
//! A live run shows what a command's turnaround costs in total; these
//! replays price the parts of it the harness can reach from outside.
//! What is left over is the server's own work (`handle`, queue match,
//! `transition`, status publishing), reported as the residual.

use crate::harness::{bucket_of, Bucket, Exchange, KIND_MDRUN};
use crate::spans::{Spans, REPLAY_LANE};
use crate::stats::median;
use copernicus_core::wal::{FsyncMode, Wal, WalRecord};
use copernicus_core::{codec, messages, AuthKey, Command, CommandOutput, MdRunOutput, WorkerId};
use copernicus_wire::{
    LinkStats, ListenerConfig, ReconnectPolicy, WireClient, WireEvent, WireListener,
};
use msm::streaming::StreamingMsm;
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Repeat `f` until it has run for about `budget`; returns seconds per
/// call. Total time grows with the repeat count, which is how we know
/// the optimiser has not deleted the work behind `black_box`.
fn time_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t0.elapsed() < budget {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / calls as f64
}

// ---------------------------------------------------------------------
// mdsim: the plain serial baseline
// ---------------------------------------------------------------------

pub struct MdBaseline {
    pub step_ns: f64,
    pub record_step_ns: f64,
    /// Mean force and integrate phase per step, from the program's own
    /// step sink attached to a third such run.
    pub force_ns_per_step: f64,
    pub integrate_ns_per_step: f64,
}

/// Single-threaded `run_fast` / `run_recording` on HP35 from an
/// unfolded start: what an MD step costs with no framework around it.
pub fn mdsim_baseline(seed: u64, record_interval: u64) -> MdBaseline {
    const STEPS: u64 = 20_000;
    let model = mdsim::VillinModel::hp35();
    let start = model.unfolded_start(seed ^ 1);
    let timed = |run: &mut dyn FnMut(&mut mdsim::Simulation)| {
        let mut sim = model.simulation(start.clone(), 0.5, seed);
        let t0 = Instant::now();
        run(&mut sim);
        t0.elapsed().as_nanos() as f64 / STEPS as f64
    };
    let step_ns = timed(&mut |sim| {
        black_box(sim.run_fast(STEPS));
    });
    let record_step_ns = timed(&mut |sim| {
        black_box(sim.run_recording(STEPS, record_interval));
    });
    let sink = copernicus_telemetry::Telemetry::new().step_sink(Default::default());
    timed(&mut |sim| {
        black_box(sim.run_recording_with_sink(STEPS, record_interval, &sink));
    });
    MdBaseline {
        step_ns,
        record_step_ns,
        force_ns_per_step: sink.force_ns.mean(),
        integrate_ns_per_step: sink.integrate_ns.mean(),
    }
}

// ---------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------

/// What one command of a bucket costs the codec across both ends of
/// the link — request, workload and result, three messages — from the
/// median of up to three sampled commands.
#[derive(Default, Clone, Copy)]
pub struct CodecCost {
    pub encode_secs: f64,
    pub decode_secs: f64,
    /// The worker's byte count of the result (`CommandOutput::new`
    /// serializes it once more to measure it).
    pub wrap_secs: f64,
    /// Encoded bytes of the three messages together.
    pub bytes: f64,
    /// Result frame (up) and workload frame (down), bytes.
    pub frame_bytes: (usize, usize),
}

pub type CodecCosts = BTreeMap<Bucket, CodecCost>;

pub fn codec_replay(corpus: &[Exchange]) -> CodecCosts {
    let budget = Duration::from_millis(15);
    let mut samples: BTreeMap<Bucket, Vec<CodecCost>> = BTreeMap::new();
    for exchange in corpus {
        let of_bucket = samples.entry(bucket_of(&exchange.command)).or_default();
        if of_bucket.len() == 3 {
            continue;
        }
        let worker = WorkerId(exchange.worker);
        let output = || {
            CommandOutput::new(
                &exchange.command,
                worker,
                exchange.result.clone(),
                exchange.wall_secs,
            )
        };
        let wrap_secs = time_per_call(budget, || {
            black_box(output());
        }) - time_per_call(budget, || {
            black_box(exchange.result.clone());
        });
        let request = messages::ToServer::RequestWork { worker };
        let workload = messages::ToWorker::Workload(vec![exchange.command.clone()]);
        let completed = messages::ToServer::Completed { output: output() };
        let request_bytes = codec::encode_to_server(&request);
        let workload_bytes = codec::encode_to_worker(&workload);
        let completed_bytes = codec::encode_to_server(&completed);
        let encode_secs = time_per_call(budget, || {
            black_box(codec::encode_to_server(black_box(&request)));
        }) + time_per_call(budget, || {
            black_box(codec::encode_to_worker(black_box(&workload)));
        }) + time_per_call(budget, || {
            black_box(codec::encode_to_server(black_box(&completed)));
        });
        let decode_secs = time_per_call(budget, || {
            black_box(codec::decode_to_server(black_box(&request_bytes)).is_ok());
        }) + time_per_call(budget, || {
            black_box(codec::decode_to_worker(black_box(&workload_bytes)).is_ok());
        }) + time_per_call(budget, || {
            black_box(codec::decode_to_server(black_box(&completed_bytes)).is_ok());
        });
        of_bucket.push(CodecCost {
            encode_secs,
            decode_secs,
            wrap_secs: wrap_secs.max(0.0),
            bytes: (request_bytes.len() + workload_bytes.len() + completed_bytes.len()) as f64,
            frame_bytes: (completed_bytes.len(), workload_bytes.len()),
        });
    }
    samples
        .into_iter()
        .map(|(bucket, mut costs)| {
            costs.sort_by(|a, b| {
                (a.encode_secs + a.decode_secs).total_cmp(&(b.encode_secs + b.decode_secs))
            });
            (bucket, costs[costs.len() / 2])
        })
        .collect()
}

// ---------------------------------------------------------------------
// wire
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct WireCosts {
    /// Median seconds for one exchange at this bucket's frame sizes:
    /// result-sized frame up, workload-sized frame down.
    pub round_trip_secs: BTreeMap<Bucket, f64>,
    pub frames_per_s: f64,
    pub handshake_ms: f64,
}

/// An echo peer on the program's `WireListener`: answers every frame
/// with a frame of the size the request's first four bytes ask for.
/// A request asking for size 0 is flood traffic and gets no answer
/// until the marker frame (`u32::MAX`) that ends the flood.
fn echo_loop(listener: WireListener, stop: Arc<AtomicBool>) {
    let blob = vec![0x5au8; 1 << 20];
    while !stop.load(Ordering::Relaxed) {
        let Some(WireEvent::Frame { conn, payload }) =
            listener.recv_timeout(Duration::from_millis(20))
        else {
            continue;
        };
        let want = payload
            .get(..4)
            .map_or(0, |b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
        let reply: &[u8] = match want {
            0 => continue,
            u32::MAX => &blob[..4],
            n => &blob[..(n as usize).clamp(4, blob.len())],
        };
        let _ = listener.send(conn, reply);
    }
}

pub fn wire_replay(codec: &CodecCosts) -> std::io::Result<WireCosts> {
    let key = AuthKey::from_passphrase("copbench-replay");
    let listener = WireListener::bind(
        "127.0.0.1:0",
        key,
        ListenerConfig::default(),
        LinkStats::detached(),
    )?;
    let addr = listener.local_addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let echo = {
        let stop = stop.clone();
        std::thread::spawn(move || echo_loop(listener, stop))
    };
    let costs = wire_client_side(&addr, key, codec);
    stop.store(true, Ordering::Relaxed);
    echo.join().expect("echo thread does not panic");
    costs
}

fn wire_client_side(addr: &str, key: AuthKey, codec: &CodecCosts) -> std::io::Result<WireCosts> {
    let connect = || {
        WireClient::connect(addr, key, ReconnectPolicy::default(), LinkStats::detached())
            .map_err(|e| std::io::Error::other(format!("replay link: {e}")))
    };

    let mut costs = WireCosts::default();
    let mut handshakes = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        let client = connect()?;
        handshakes.push(t0.elapsed().as_secs_f64() * 1e3);
        client.close();
    }
    costs.handshake_ms = median(&handshakes);

    let client = connect()?;
    // Send `frame`, whose first four bytes ask for the reply's size, and
    // wait for the reply.
    let exchange = |frame: &mut [u8], down: u32| -> std::io::Result<()> {
        frame[..4].copy_from_slice(&down.to_be_bytes());
        client.send(frame).map_err(|e| std::io::Error::other(e.0))?;
        client
            .recv_timeout(Duration::from_secs(10))
            .map(drop)
            .map_err(|e| std::io::Error::other(format!("echo lost: {e:?}")))
    };
    for (&bucket, cost) in codec {
        let (up, down) = cost.frame_bytes;
        let mut frame = vec![0xa5u8; up.max(4)];
        let mut samples = Vec::new();
        let t0 = Instant::now();
        while samples.len() < 5000
            && (samples.len() < 50 || t0.elapsed() < Duration::from_millis(200))
        {
            let t = Instant::now();
            exchange(&mut frame, down.clamp(4, 1 << 20) as u32)?;
            samples.push(t.elapsed().as_secs_f64());
        }
        costs.round_trip_secs.insert(bucket, median(&samples));
    }

    // Flood: small frames sent back to back, acknowledged once at the
    // end, so the rate is the receiving event loop's.
    const FLOOD: usize = 50_000;
    let small = [0u8; 16];
    let t0 = Instant::now();
    for _ in 0..FLOOD {
        client
            .send(&small)
            .map_err(|e| std::io::Error::other(e.0))?;
    }
    exchange(&mut [0u8; 4], u32::MAX)?;
    costs.frames_per_s = FLOOD as f64 / t0.elapsed().as_secs_f64();
    client.close();
    Ok(costs)
}

// ---------------------------------------------------------------------
// wal
// ---------------------------------------------------------------------

#[derive(Default)]
pub struct WalCosts {
    /// Seconds and log bytes of one command's spawn, dispatch and
    /// completion records, per bucket (median of the sampled commands).
    pub per_command: BTreeMap<Bucket, (f64, f64)>,
    /// Append rate on controller-state records (the large ones).
    pub state_mb_per_s: f64,
}

pub fn wal_replay(
    corpus: &[Exchange],
    snapshots: &[String],
    scratch: &Path,
) -> std::io::Result<WalCosts> {
    let _ = std::fs::remove_dir_all(scratch);
    let (wal, _) = Wal::open(scratch, FsyncMode::Never)?;
    let mut costs = WalCosts::default();
    let mut samples: BTreeMap<Bucket, Vec<(f64, f64)>> = BTreeMap::new();
    for exchange in corpus {
        let command = &exchange.command;
        let records = [
            WalRecord::Spawned {
                cmd: Command {
                    attempts: 0,
                    ..command.clone()
                },
            },
            WalRecord::Dispatched {
                command: command.id,
                worker: WorkerId(exchange.worker),
                epoch: 1,
            },
            WalRecord::Completed {
                command: command.id,
                bytes: 0,
            },
        ];
        let bytes_before = wal.log_len();
        let t0 = Instant::now();
        for record in &records {
            wal.append(record)?;
        }
        let secs = t0.elapsed().as_secs_f64();
        samples
            .entry(bucket_of(command))
            .or_default()
            .push((secs, (wal.log_len() - bytes_before) as f64));
    }
    for (bucket, mut of_bucket) in samples {
        of_bucket.sort_by(|a, b| a.0.total_cmp(&b.0));
        costs
            .per_command
            .insert(bucket, of_bucket[of_bucket.len() / 2]);
    }
    let (mut state_bytes, mut state_secs) = (0.0, 0.0);
    for snapshot in snapshots {
        let record = WalRecord::ControllerState {
            state: snapshot.clone(),
        };
        let t0 = Instant::now();
        wal.append(&record)?;
        state_secs += t0.elapsed().as_secs_f64();
        state_bytes += snapshot.len() as f64;
    }
    if state_secs > 0.0 {
        costs.state_mb_per_s = state_bytes / state_secs / 1e6;
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(scratch);
    Ok(costs)
}

/// What the first generation of a run's log says each command cost it.
#[derive(Default, Debug)]
pub struct WalCounts {
    pub records_per_cmd: f64,
    pub bytes_per_cmd: f64,
}

/// Header of one WAL frame: 8 hex digits of body length, a space, 8 hex
/// digits of CRC, a space (the format `wal.rs` documents).
const WAL_HEADER: usize = 18;

/// The body length a frame header announces.
fn wal_body_len(header: &[u8]) -> Option<usize> {
    usize::from_str_radix(std::str::from_utf8(header.get(..8)?).ok()?, 16).ok()
}

/// Split a log into `(offset, body)` frames, stopping at a torn tail.
pub fn wal_frames(bytes: &[u8]) -> Vec<(usize, &[u8])> {
    let mut frames = Vec::new();
    let mut pos = 0;
    while let Some(header) = bytes.get(pos..pos + WAL_HEADER) {
        let Some(len) = wal_body_len(header) else {
            break;
        };
        let body_start = pos + WAL_HEADER;
        let Some(body) = bytes.get(body_start..body_start + len) else {
            break;
        };
        if bytes.get(body_start + len) != Some(&b'\n') {
            break;
        }
        frames.push((pos, body));
        pos = body_start + len + 1;
    }
    frames
}

/// Records and frame bytes per command, counted over the commands with
/// the lowest ids in the log's first generation. Counting by id, not by
/// position, makes the result independent of how the two workers'
/// records interleave; the worker-id digits of `dispatched` records are
/// left out because session ids are random. Controller-state records
/// carry no command id and are shared out over the completions that
/// precede the last counted one.
pub fn wal_counts(first_generation: &[u8]) -> WalCounts {
    const COUNTED: u64 = 200;
    struct Rec {
        end: usize,
        size: usize,
        kind: String,
        id: Option<u64>,
    }
    let recs: Vec<Rec> = wal_frames(first_generation)
        .into_iter()
        .filter_map(|(offset, body)| {
            let doc: Value = serde_json::from_slice(body).ok()?;
            let kind = doc["kind"].as_str()?.to_string();
            let id = doc["command"].as_u64().or(doc["cmd"]["id"].as_u64());
            let mut size = WAL_HEADER + body.len() + 1;
            if kind == "dispatched" {
                size -= doc["worker"].as_u64()?.to_string().len();
            }
            Some(Rec {
                end: offset + size,
                size,
                kind,
                id,
            })
        })
        .collect();
    let completed = recs.iter().filter(|r| r.kind == "completed").count() as u64;
    let counted = COUNTED.min(completed);
    if counted == 0 {
        return WalCounts::default();
    }
    let by_id: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.id.is_some_and(|id| id < counted))
        .collect();
    let horizon = by_id
        .iter()
        .filter(|r| r.kind == "completed")
        .map(|r| r.end)
        .max()
        .unwrap_or(0);
    let before: Vec<&Rec> = recs.iter().filter(|r| r.end <= horizon).collect();
    let completions_before = before
        .iter()
        .filter(|r| r.kind == "completed")
        .count()
        .max(1);
    let state: Vec<&&Rec> = before.iter().filter(|r| r.kind == "controller").collect();
    WalCounts {
        records_per_cmd: by_id.len() as f64 / counted as f64
            + state.len() as f64 / completions_before as f64,
        bytes_per_cmd: by_id.iter().map(|r| r.size).sum::<usize>() as f64 / counted as f64
            + state.iter().map(|r| r.size).sum::<usize>() as f64 / completions_before as f64,
    }
}

/// The longest record-aligned prefix of a log whose replay stays inside
/// the time budget, found from the frame headers alone (the log can be
/// hundreds of megabytes; only the prefix is then read).
/// `wal::replay_bytes` parses each record with `telemetry::json`, whose
/// string reader re-validates the rest of the input at every
/// character, so a record costs time quadratic in its length: a log of
/// megabyte-sized controller snapshots would take minutes. The cap is
/// on the sum of squared record lengths, which is what that cost
/// follows; a log under the cap is replayed whole.
pub fn replay_prefix(log: &mut (impl Read + Seek)) -> std::io::Result<u64> {
    const SQUARED_BYTES_CAP: f64 = 2.5e11;
    const BYTES_CAP: u64 = 64 << 20;
    let mut squared = 0.0;
    let mut end = 0u64;
    let log_len = log.seek(SeekFrom::End(0))?;
    log.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; WAL_HEADER];
    while log.read_exact(&mut header).is_ok() {
        let Some(len) = wal_body_len(&header).map(|len| len as u64) else {
            break;
        };
        squared += (len as f64).powi(2);
        let next = end + WAL_HEADER as u64 + len + 1;
        if next > log_len || (end > 0 && (squared > SQUARED_BYTES_CAP || next > BYTES_CAP)) {
            break;
        }
        end = next;
        log.seek(SeekFrom::Start(end))?;
    }
    Ok(end)
}

// ---------------------------------------------------------------------
// msm
// ---------------------------------------------------------------------

/// `StreamingMsm::observe` on the frames the run's MD commands
/// returned, against the estimator the run ended with. Frames per
/// second; 0 when the run never bootstrapped an estimator.
pub fn msm_replay(final_snapshot: Option<&Value>, corpus: &[Exchange]) -> f64 {
    let Some(mut stream) = final_snapshot
        .and_then(|s| s.get("stream"))
        .filter(|s| !s.is_null())
        .and_then(|s| StreamingMsm::from_value(s).ok())
    else {
        return 0.0;
    };
    let (mut frames, mut secs) = (0usize, 0.0);
    for (i, exchange) in corpus.iter().enumerate() {
        if bucket_of(&exchange.command).0 != KIND_MDRUN {
            continue;
        }
        let Ok(output) = MdRunOutput::from_value(&exchange.result) else {
            continue;
        };
        let new_frames = &output.trajectory.frames()[1..];
        let t0 = Instant::now();
        black_box(stream.observe(u64::MAX - i as u64, new_frames));
        secs += t0.elapsed().as_secs_f64();
        frames += new_frames.len();
    }
    if secs > 0.0 {
        frames as f64 / secs
    } else {
        0.0
    }
}

/// Run one replay under a harness span on the replay lane.
pub fn spanned<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = spans.map(|s| s.open(name, REPLAY_LANE, None));
    let out = f();
    if let (Some(s), Some(open)) = (spans, open) {
        s.close(open, None);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use copernicus_core::{CommandId, CommandSpec, ProjectId, Resources};
    use serde_json::json;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("copbench-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A log as the server writes it for `n` commands run by two
    /// workers whose records interleave.
    fn write_log(dir: &Path, n: u64, workers: [u64; 2]) -> Vec<u8> {
        let (wal, _) = Wal::open(dir, FsyncMode::Never).unwrap();
        wal.append(&WalRecord::Started).unwrap();
        let command = |id: u64| {
            let spec = CommandSpec::new("bulk", Resources::new(1, 1), json!({ "i": id }));
            Command::from_spec(CommandId(id), ProjectId(0), spec)
        };
        for id in 0..n {
            wal.append(&WalRecord::Spawned { cmd: command(id) })
                .unwrap();
        }
        for id in 0..n {
            wal.append(&WalRecord::Dispatched {
                command: CommandId(id),
                worker: WorkerId(workers[(id % 2) as usize]),
                epoch: 1,
            })
            .unwrap();
            if id > 0 {
                wal.append(&WalRecord::Completed {
                    command: CommandId(id - 1),
                    bytes: 11,
                })
                .unwrap();
            }
        }
        std::fs::read(dir.join(copernicus_core::wal::WAL_FILE)).unwrap()
    }

    #[test]
    fn counts_do_not_depend_on_worker_id_digits() {
        let (a, b) = (scratch("wal-a"), scratch("wal-b"));
        let short = wal_counts(&write_log(&a, 40, [7, 8]));
        let long = wal_counts(&write_log(&b, 40, [u64::MAX, u64::MAX - 1]));
        assert_eq!(short.records_per_cmd, 3.0);
        assert_eq!(short.records_per_cmd, long.records_per_cmd);
        assert_eq!(short.bytes_per_cmd, long.bytes_per_cmd);
        for dir in [a, b] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn frames_stop_at_a_torn_tail_and_the_prefix_is_record_aligned() {
        let dir = scratch("wal-torn");
        let mut log = write_log(&dir, 10, [1, 2]);
        let whole = wal_frames(&log).len();
        let clean_len = log.len();
        log.extend_from_slice(b"0000ffff 00000000 {\"kind\":");
        assert_eq!(wal_frames(&log).len(), whole);
        let prefix = replay_prefix(&mut std::io::Cursor::new(&log)).unwrap();
        assert_eq!(prefix as usize, clean_len, "a small log is replayed whole");
        let _ = std::fs::remove_dir_all(dir);
    }
}
