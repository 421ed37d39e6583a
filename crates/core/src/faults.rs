//! Fault-injection executables for lifecycle testing.
//!
//! These executors misbehave *deterministically* so the e2e fault suite
//! (`tests/faults.rs`) can drive the server's command lifecycle through
//! its error, orphan and drop paths and assert exactly-once accounting:
//!
//! * [`FlakyExecutor`] — fails each command's first `fail_times`
//!   executions with a reportable error, then succeeds (the
//!   "errored-then-healthy" retry/backoff path).
//! * [`CrashingExecutor`] — kills the whole worker (simulated node
//!   death) for each command's first `crash_times` executions, then
//!   succeeds (the orphan/re-queue path).
//! * [`ChaosExecutor`] — picks error / crash / success per execution
//!   from a seeded hash of `(seed, command, attempt)`, for randomized
//!   soak tests that stay reproducible.
//!
//! All three are dependency-free and share [`ExecutionLog`], a
//! cross-worker record of every execution used by tests to assert how
//! often each command actually ran.

use crate::executor::{CommandExecutor, ExecContext, ExecError};
use crate::ids::CommandId;
use crate::resources::{ExecutableSpec, Platform};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shared record of executions per command (across every worker and
/// executor clone in a test).
#[derive(Clone, Default)]
pub struct ExecutionLog {
    counts: Arc<Mutex<HashMap<CommandId, u32>>>,
}

impl ExecutionLog {
    pub fn new() -> Self {
        ExecutionLog::default()
    }

    /// Record one execution; returns the execution number (1-based).
    pub fn bump(&self, cmd: CommandId) -> u32 {
        let mut counts = self.counts.lock().unwrap();
        let n = counts.entry(cmd).or_insert(0);
        *n += 1;
        *n
    }

    /// How many times a command has been executed so far.
    pub fn executions(&self, cmd: CommandId) -> u32 {
        self.counts.lock().unwrap().get(&cmd).copied().unwrap_or(0)
    }

    /// Total executions across all commands.
    pub fn total(&self) -> u64 {
        self.counts
            .lock()
            .unwrap()
            .values()
            .map(|&n| n as u64)
            .sum()
    }
}

fn success_output(ctx: &ExecContext<'_>, executions: u32) -> serde_json::Value {
    serde_json::json!({
        "command": ctx.command.id.0,
        "attempts": ctx.command.attempts,
        "executions": executions,
    })
}

// ---------------------------------------------------------------------------
// Flaky: error N times, then succeed
// ---------------------------------------------------------------------------

/// Fails each command's first `fail_times` executions with a reportable
/// [`ExecError::Failed`], then succeeds.
pub struct FlakyExecutor {
    fail_times: u32,
    log: ExecutionLog,
}

impl FlakyExecutor {
    pub const COMMAND_TYPE: &'static str = "flaky";

    pub fn new(fail_times: u32, log: ExecutionLog) -> Self {
        FlakyExecutor { fail_times, log }
    }
}

impl CommandExecutor for FlakyExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new(
            Self::COMMAND_TYPE,
            Platform::Smp,
            "fault-0.1",
        )]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        let n = self.log.bump(ctx.command.id);
        if n <= self.fail_times {
            return Err(ExecError::Failed(format!(
                "injected failure {n}/{}",
                self.fail_times
            )));
        }
        Ok(success_output(&ctx, n))
    }
}

// ---------------------------------------------------------------------------
// Crashing: kill the worker N times, then succeed
// ---------------------------------------------------------------------------

/// Simulates node death: each command's first `crash_times` executions
/// return [`ExecError::SimulatedCrash`], which makes the worker fall
/// silent (no report, no further heartbeats). Later executions — on a
/// replacement worker — succeed.
pub struct CrashingExecutor {
    crash_times: u32,
    log: ExecutionLog,
}

impl CrashingExecutor {
    pub const COMMAND_TYPE: &'static str = "crashy";

    pub fn new(crash_times: u32, log: ExecutionLog) -> Self {
        CrashingExecutor { crash_times, log }
    }
}

impl CommandExecutor for CrashingExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new(
            Self::COMMAND_TYPE,
            Platform::Smp,
            "fault-0.1",
        )]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        let n = self.log.bump(ctx.command.id);
        if n <= self.crash_times {
            return Err(ExecError::SimulatedCrash);
        }
        Ok(success_output(&ctx, n))
    }
}

// ---------------------------------------------------------------------------
// Chaos: seeded random misbehaviour
// ---------------------------------------------------------------------------

/// Per-execution outcome distribution for [`ChaosExecutor`], in percent.
/// Whatever `error_pct + crash_pct` leaves of 100 is the success rate.
#[derive(Debug, Clone, Copy)]
pub struct ChaosProfile {
    pub seed: u64,
    pub error_pct: u32,
    pub crash_pct: u32,
}

/// Misbehaves at random — but the randomness is a pure hash of
/// `(seed, command, execution number)`, so a failing run replays
/// exactly from its seed.
pub struct ChaosExecutor {
    profile: ChaosProfile,
    log: ExecutionLog,
}

impl ChaosExecutor {
    pub const COMMAND_TYPE: &'static str = "chaos";

    pub fn new(profile: ChaosProfile, log: ExecutionLog) -> Self {
        assert!(
            profile.error_pct + profile.crash_pct <= 100,
            "outcome percentages exceed 100"
        );
        ChaosExecutor { profile, log }
    }
}

/// splitmix64: tiny, dependency-free, good enough to decorrelate the
/// (seed, command, execution) stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl CommandExecutor for ChaosExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new(
            Self::COMMAND_TYPE,
            Platform::Smp,
            "fault-0.1",
        )]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        let n = self.log.bump(ctx.command.id);
        let roll = mix(mix(self.profile.seed ^ ctx.command.id.0).wrapping_add(n as u64)) % 100;
        if roll < self.profile.error_pct as u64 {
            return Err(ExecError::Failed(format!("chaos error (roll {roll})")));
        }
        if roll < (self.profile.error_pct + self.profile.crash_pct) as u64 {
            return Err(ExecError::SimulatedCrash);
        }
        Ok(success_output(&ctx, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, CommandSpec};
    use crate::ids::{ProjectId, WorkerId};
    use crate::resources::Resources;

    fn cmd(id: u64, ctype: &str, attempts: u32) -> Command {
        let mut c = Command::from_spec(
            CommandId(id),
            ProjectId(0),
            CommandSpec::new(ctype, Resources::new(1, 1), serde_json::Value::Null),
        );
        c.attempts = attempts;
        c
    }

    fn ctx(c: &Command) -> ExecContext<'_> {
        ExecContext {
            command: c,
            worker: WorkerId(0),
            shared_fs: None,
            telemetry: None,
        }
    }

    #[test]
    fn flaky_fails_n_times_then_succeeds() {
        let log = ExecutionLog::new();
        let exec = FlakyExecutor::new(2, log.clone());
        let c = cmd(1, FlakyExecutor::COMMAND_TYPE, 1);
        assert!(matches!(exec.execute(ctx(&c)), Err(ExecError::Failed(_))));
        assert!(matches!(exec.execute(ctx(&c)), Err(ExecError::Failed(_))));
        let out = exec.execute(ctx(&c)).expect("third execution succeeds");
        assert_eq!(out["executions"], serde_json::json!(3));
        assert_eq!(log.executions(CommandId(1)), 3);
        // Failure counting is per command.
        let c2 = cmd(2, FlakyExecutor::COMMAND_TYPE, 1);
        assert!(exec.execute(ctx(&c2)).is_err());
    }

    #[test]
    fn crashing_crashes_then_succeeds() {
        let log = ExecutionLog::new();
        let exec = CrashingExecutor::new(1, log.clone());
        let c = cmd(3, CrashingExecutor::COMMAND_TYPE, 1);
        assert_eq!(
            exec.execute(ctx(&c)).unwrap_err(),
            ExecError::SimulatedCrash
        );
        assert!(exec.execute(ctx(&c)).is_ok());
        assert_eq!(log.total(), 2);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let profile = ChaosProfile {
            seed: 42,
            error_pct: 30,
            crash_pct: 20,
        };
        let run = || {
            let exec = ChaosExecutor::new(profile, ExecutionLog::new());
            (0..50)
                .map(|i| {
                    let c = cmd(i, ChaosExecutor::COMMAND_TYPE, 1);
                    match exec.execute(ctx(&c)) {
                        Ok(_) => 0u8,
                        Err(ExecError::Failed(_)) => 1,
                        Err(ExecError::SimulatedCrash) => 2,
                        Err(ExecError::BadPayload(_)) => 3,
                    }
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed must replay the same outcomes");
        // The profile actually produces all three outcomes.
        assert!(a.contains(&0) && a.contains(&1) && a.contains(&2));
    }
}
