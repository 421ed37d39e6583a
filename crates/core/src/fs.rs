//! Shared-filesystem abstraction for checkpoint hand-off.
//!
//! §2.3 of the paper: *"If the server the worker connects to has access
//! to the same file system as the worker… this also allows commands that
//! do checkpointing… to have another client transparently continue from
//! the last checkpoint."* Workers periodically deposit checkpoints here;
//! when a worker is declared lost, the server re-queues its command with
//! the latest checkpoint attached.
//!
//! Two durability concerns live here beyond the plain map:
//!
//! - **Retired-id fence.** Checkpoint deposits arrive from worker
//!   threads concurrently with the server retiring the command (a
//!   result can be accepted while a late heartbeat-piggybacked deposit
//!   is still in flight). `clear` therefore *retires* the id: a deposit
//!   for a retired command is dropped instead of re-creating an entry
//!   that nothing will ever clear again — the leak the chaos suites
//!   assert against with `n_checkpoints() == 0`.
//! - **Write-ahead logging.** When a [`Wal`] is attached (server
//!   configured with a state dir), every deposit and retirement is
//!   journaled so a restarted server re-attaches the latest checkpoint
//!   to re-queued work instead of restarting runs from step zero.

use crate::ids::CommandId;
use crate::wal::{Wal, WalRecord};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

#[derive(Default)]
struct Inner {
    map: HashMap<CommandId, serde_json::Value>,
    /// Ids whose checkpoints were cleared by a terminal transition;
    /// late deposits for these are ignored.
    retired: HashSet<CommandId>,
    wal: Option<Wal>,
}

/// An in-process stand-in for a cluster shared filesystem.
#[derive(Clone, Default)]
pub struct SharedFs {
    inner: Arc<Mutex<Inner>>,
}

impl SharedFs {
    pub fn new() -> Self {
        SharedFs::default()
    }

    /// Journal deposits and retirements to `wal` from now on. Shared
    /// by every clone (they share `inner`).
    pub fn attach_wal(&self, wal: Wal) {
        self.inner.lock().unwrap().wal = Some(wal);
    }

    /// Preload a recovered checkpoint without journaling it again
    /// (recovery replay only).
    pub fn preload_checkpoint(&self, cmd: CommandId, checkpoint: serde_json::Value) {
        let mut inner = self.inner.lock().unwrap();
        inner.retired.remove(&cmd);
        inner.map.insert(cmd, checkpoint);
    }

    /// Deposit (overwrite) the latest checkpoint for a command. A
    /// deposit for a retired command — one a terminal transition
    /// already cleared — is dropped: the late write lost the race and
    /// must not resurrect an entry nothing will clear again.
    pub fn store_checkpoint(&self, cmd: CommandId, checkpoint: serde_json::Value) {
        let mut inner = self.inner.lock().unwrap();
        if inner.retired.contains(&cmd) {
            return;
        }
        if let Some(wal) = &inner.wal {
            let data = serde_json::to_string(&checkpoint).unwrap_or_else(|_| "null".to_string());
            let _ = wal.append(&WalRecord::CheckpointStored { command: cmd, data });
        }
        inner.map.insert(cmd, checkpoint);
    }

    /// Latest checkpoint for a command, if any.
    pub fn checkpoint(&self, cmd: CommandId) -> Option<serde_json::Value> {
        self.inner.lock().unwrap().map.get(&cmd).cloned()
    }

    /// Retire a command's checkpoint. Part of every *terminal*
    /// lifecycle transition (`Completed`, `Dropped` and `Cancelled`):
    /// whatever path retires a command must also retire its checkpoint
    /// or the shared filesystem leaks one entry per fault. Marks the
    /// id retired so a racing late deposit cannot leak either. Returns
    /// the evicted checkpoint, if one existed.
    pub fn clear(&self, cmd: CommandId) -> Option<serde_json::Value> {
        let mut inner = self.inner.lock().unwrap();
        inner.retired.insert(cmd);
        let evicted = inner.map.remove(&cmd);
        if let Some(wal) = &inner.wal {
            if evicted.is_some() {
                let _ = wal.append(&WalRecord::CheckpointCleared { command: cmd });
            }
        }
        evicted
    }

    pub fn n_checkpoints(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Ids that still hold a checkpoint (diagnostics for leak asserts).
    pub fn checkpointed_commands(&self) -> Vec<CommandId> {
        let mut ids: Vec<CommandId> = self.inner.lock().unwrap().map.keys().copied().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn store_fetch_clear() {
        let fs = SharedFs::new();
        assert!(fs.checkpoint(CommandId(1)).is_none());
        fs.store_checkpoint(CommandId(1), json!({"step": 100}));
        assert_eq!(fs.checkpoint(CommandId(1)).unwrap()["step"], json!(100));
        fs.store_checkpoint(CommandId(1), json!({"step": 200}));
        assert_eq!(fs.checkpoint(CommandId(1)).unwrap()["step"], json!(200));
        assert_eq!(fs.n_checkpoints(), 1);
        fs.clear(CommandId(1));
        assert!(fs.checkpoint(CommandId(1)).is_none());
    }

    #[test]
    fn clones_share_state() {
        let fs = SharedFs::new();
        let fs2 = fs.clone();
        fs.store_checkpoint(CommandId(7), json!(42));
        assert_eq!(fs2.checkpoint(CommandId(7)).unwrap(), json!(42));
    }

    /// The leak regression: a deposit that loses the race against the
    /// terminal transition's `clear` must not re-create the entry.
    #[test]
    fn late_deposit_after_clear_does_not_leak() {
        let fs = SharedFs::new();
        fs.store_checkpoint(CommandId(3), json!({"step": 1}));
        fs.clear(CommandId(3));
        fs.store_checkpoint(CommandId(3), json!({"step": 2}));
        assert_eq!(fs.n_checkpoints(), 0, "late deposit leaked a checkpoint");
        assert!(fs.checkpoint(CommandId(3)).is_none());
    }

    /// A clear with no deposit yet still fences later deposits — the
    /// decline/re-queue paths can retire a command that never
    /// checkpointed.
    #[test]
    fn clear_before_any_deposit_still_fences() {
        let fs = SharedFs::new();
        assert!(fs.clear(CommandId(9)).is_none());
        fs.store_checkpoint(CommandId(9), json!(1));
        assert_eq!(fs.n_checkpoints(), 0);
    }

    /// Re-spawning an id after recovery preload works (preload lifts
    /// the fence).
    #[test]
    fn preload_lifts_the_retired_fence() {
        let fs = SharedFs::new();
        fs.clear(CommandId(4));
        fs.preload_checkpoint(CommandId(4), json!({"step": 7}));
        assert_eq!(fs.checkpoint(CommandId(4)).unwrap()["step"], json!(7));
        fs.store_checkpoint(CommandId(4), json!({"step": 8}));
        assert_eq!(fs.checkpoint(CommandId(4)).unwrap()["step"], json!(8));
    }
}
