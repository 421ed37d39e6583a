//! A result's size, to the byte, end to end: shared by the
//! in-process channel suite (`e2e.rs`) and the loopback-TCP suite
//! (`tcp.rs`).
//!
//! One command per case; each returns `{"case": i, "data": cases()[i]}`.
//! The server counts a result's bytes off its text once it accepts it,
//! so the `bytes` the controller is handed, `ProjectResult::bytes_received`,
//! the journal's `completed` and `event` records, and a replay of that
//! journal must all read `serde_json::to_string(&result).len()`.

use copernicus_core::executor::{ExecContext, ExecError, MdRunOutput};
use copernicus_core::prelude::*;
use copernicus_core::wal;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Shapes whose printed length is easy to get wrong: escapes, non-ASCII
/// text, the float spellings the formatter special-cases, coordinate
/// blocks, a 16 Ki-float array and empty containers.
pub fn cases() -> Vec<Value> {
    let md = json!({
        "final_positions": [[0.1, -2.5e-7, 3.0], [1e21, 4.0, -0.0]],
        "potential_energy": -152.37,
        "steps": 1600u64,
        "tag": { "lineage": 3u64, "note": "q\"\\\n\t\u{1}é" },
        "trajectory": { "frames": [[[1.5, 2.25, -3.125]]], "times": [0.0, 0.04] },
    });
    // The same kind of result with its coordinates as blocks, as
    // `mdrun` writes it.
    let frame = |k: f64| -> Vec<mdsim::Vec3> {
        (0..35)
            .map(|i| mdsim::Vec3::new(k * 0.1 + i as f64, -2.5e-7 * k, f64::from(i).sqrt()))
            .collect()
    };
    let mut trajectory = mdsim::trajectory::Trajectory::new();
    for k in 0..6 {
        trajectory.push(0.04 * k as f64, frame(k as f64));
    }
    let blocks = MdRunOutput {
        trajectory,
        final_positions: frame(5.0),
        steps_executed: 200,
        final_potential: Some(-152.37),
        tag: json!({ "lineage": 3u64 }),
    }
    .to_value();
    let mut x = 0.37_f64;
    let floats: Vec<f64> = (0..16 * 1024)
        .map(|_| {
            x = (x * 997.0 + 0.123).fract();
            (x - 0.5) * 1e3
        })
        .collect();
    let odd = json!({
        "a": [], "b": {}, "c": [null, true, false], "d": -7, "e": u64::MAX,
        "f": f64::NAN, "g": f64::INFINITY, "ü\u{1f}": "\r",
    });
    vec![
        md,
        blocks,
        json!({ "data": floats }),
        odd,
        json!("plain"),
        json!(null),
    ]
}

/// What case `i`'s command returns.
pub fn result_of(i: usize) -> Value {
    json!({ "case": i, "data": cases()[i] })
}

/// Returns `result_of(payload["case"])`.
pub struct CaseExecutor;

impl CommandExecutor for CaseExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new("sized", Platform::Smp, "1")]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<Value, ExecError> {
        let case = ctx.command.payload["case"]
            .as_u64()
            .ok_or_else(|| ExecError::BadPayload("no case".into()))?;
        Ok(result_of(case as usize))
    }
}

/// Case → the `bytes` the controller was handed with its result.
pub type Seen = Arc<Mutex<BTreeMap<u64, u64>>>;

/// Spawns one command per case and finishes when all have reported.
/// Stateful (it has a snapshot), so the server journals its events.
pub struct SizeLedger {
    seen: Seen,
    n: usize,
}

impl SizeLedger {
    pub fn new(seen: Seen) -> Self {
        SizeLedger {
            seen,
            n: cases().len(),
        }
    }
}

impl Controller for SizeLedger {
    fn name(&self) -> &str {
        "size-ledger"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => vec![Action::Spawn(
                (0..self.n)
                    .map(|i| CommandSpec::new("sized", Resources::new(1, 1), json!({ "case": i })))
                    .collect(),
            )],
            ControllerEvent::CommandFinished(output) => {
                let case = output.data["case"].as_u64().expect("a case result");
                let mut seen = self.seen.lock().unwrap();
                seen.insert(case, output.bytes);
                if seen.len() == self.n {
                    vec![Action::FinishProject {
                        result: json!(null),
                    }]
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    }

    fn snapshot(&self) -> Option<Value> {
        Some(json!(self.seen.lock().unwrap().len()))
    }
}

/// A fresh journal directory for `tag`.
pub fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus_result_bytes_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The framed records of a journal, as JSON bodies.
fn records(log: &[u8]) -> Vec<Value> {
    // Frame: 8 hex digits of length, space, 8 of CRC, space, body, `\n`.
    let mut out = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let header = std::str::from_utf8(&log[at..at + 18]).expect("a frame header");
        let len = usize::from_str_radix(&header[..8], 16).expect("a length");
        out.push(serde_json::from_slice(&log[at + 18..at + 18 + len]).expect("a record"));
        at += 18 + len + 1;
    }
    out
}

/// Every place the count lands reads the printed length of the result.
pub fn check(result: &ProjectResult, seen: &Seen, dir: &Path) {
    let want: Vec<u64> = (0..cases().len())
        .map(|i| serde_json::to_string(&result_of(i)).unwrap().len() as u64)
        .collect();
    let seen: Vec<u64> = seen.lock().unwrap().values().copied().collect();
    assert_eq!(seen, want, "bytes handed to the controller");
    assert_eq!(result.commands_completed, want.len() as u64);
    assert_eq!(result.bytes_received, want.iter().sum::<u64>());

    let log = std::fs::read(dir.join(wal::WAL_FILE)).unwrap();
    // Command id → case, from the journaled events.
    let mut case_of = BTreeMap::new();
    let mut events = 0;
    for r in records(&log) {
        if r["kind"] == json!("event") && r["event"] == json!("finished") {
            let data: Value = serde_json::from_str(r["data"].as_str().unwrap()).unwrap();
            let case = data["case"].as_u64().unwrap() as usize;
            assert_eq!(
                r["bytes"].as_u64(),
                Some(want[case]),
                "event of case {case}"
            );
            case_of.insert(r["command"].as_u64().unwrap(), case);
            events += 1;
        }
    }
    assert_eq!(events, want.len());
    let mut completed = 0;
    for r in records(&log) {
        if r["kind"] == json!("completed") {
            let case = case_of[&r["command"].as_u64().unwrap()];
            assert_eq!(
                r["bytes"].as_u64(),
                Some(want[case]),
                "completed of case {case}"
            );
            completed += 1;
        }
    }
    assert_eq!(completed, want.len());

    let (replayed, clean) = wal::replay_bytes(&log);
    assert_eq!(clean, log.len(), "the whole journal replays");
    assert_eq!(replayed.counters.bytes_received, result.bytes_received);
    assert_eq!(
        replayed.counters.commands_completed,
        result.commands_completed
    );
}
