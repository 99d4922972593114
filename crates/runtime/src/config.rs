//! Runtime configuration.
//!
//! Deadlock handling is not a setting: the runtime has one rule, die on
//! cycle (the wait-for graph in `deadlock.rs`), and
//! [`RtConfig::wait_timeout`] only bounds waits that no cycle explains — a
//! holder that simply never finishes.

use crate::sync::Arc;
use std::path::PathBuf;
use std::time::Duration;

use crate::fault::FaultInjector;
use crate::trace::TraceRecorder;
use crate::wal::FsyncPolicy;

/// Locking discipline (see crate docs for the three-way comparison).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LockMode {
    /// Moss' nested read/write locking — the paper's algorithm.
    #[default]
    MossRW,
    /// Nested *exclusive* locking: reads take write locks. This is the
    /// Lynch–Merritt algorithm; per the paper's §4.3 remark, Moss'
    /// algorithm degenerates into it when all accesses are declared writes.
    Exclusive,
    /// Classical flat two-phase locking: locks are owned by the *top-level*
    /// ancestor, children provide no isolation from each other, and a
    /// failure anywhere dooms the whole top-level transaction.
    Flat2PL,
}

/// Configuration for a [`crate::TxManager`].
#[derive(Clone)]
pub struct RtConfig {
    /// Locking discipline.
    pub mode: LockMode,
    /// Maximum total time a single lock request may wait before failing
    /// with [`crate::TxError::Timeout`]. A request that times out cancels
    /// its queued waiter node in place and withdraws.
    pub wait_timeout: Duration,
    /// Moss' footnote-8 optimisation: drop a transaction's read lock on an
    /// object once it holds a write lock there.
    pub drop_read_lock_when_write_held: bool,
    /// Deterministic fault injector consulted at the runtime's yield
    /// points (`None` = hooks are no-ops). See [`crate::FaultInjector`].
    pub fault: Option<Arc<dyn FaultInjector>>,
    /// Action-trace recorder (`None` = tracing off). See
    /// [`crate::TraceRecorder`].
    pub trace: Option<Arc<TraceRecorder>>,
    /// Directory for the write-ahead log's segment files. `None` (the
    /// default) disables durability entirely: no WAL is opened, commits pay
    /// zero io, and every pre-existing workload behaves exactly as before.
    /// When set, top-level commits of objects registered through
    /// [`crate::TxManager::register_durable`] are logged and
    /// [`crate::TxManager::recover`] can rebuild committed state after a
    /// crash.
    pub wal_dir: Option<PathBuf>,
    /// When appended WAL records are flushed to stable storage. Only
    /// consulted when [`RtConfig::wal_dir`] is set.
    pub fsync_policy: FsyncPolicy,
    /// Checkpoint (snapshot all durable objects into a fresh segment and
    /// delete the old ones) after this many logged commits. `0` (the
    /// default) never checkpoints; the log grows until a clean restart.
    pub checkpoint_every: u64,
}

impl std::fmt::Debug for RtConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtConfig")
            .field("mode", &self.mode)
            .field("wait_timeout", &self.wait_timeout)
            .field(
                "drop_read_lock_when_write_held",
                &self.drop_read_lock_when_write_held,
            )
            .field("fault", &self.fault.as_ref().map(|_| "<injector>"))
            .field("trace", &self.trace)
            .field("wal_dir", &self.wal_dir)
            .field("fsync_policy", &self.fsync_policy)
            .field("checkpoint_every", &self.checkpoint_every)
            .finish()
    }
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            mode: LockMode::MossRW,
            wait_timeout: Duration::from_secs(10),
            drop_read_lock_when_write_held: false,
            fault: None,
            trace: None,
            wal_dir: None,
            fsync_policy: FsyncPolicy::Always,
            checkpoint_every: 0,
        }
    }
}

impl RtConfig {
    /// Convenience: default config with the given mode.
    pub fn with_mode(mode: LockMode) -> Self {
        RtConfig {
            mode,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = RtConfig::default();
        assert_eq!(c.mode, LockMode::MossRW);
        assert!(!c.drop_read_lock_when_write_held);
        assert!(c.fault.is_none());
        assert!(c.trace.is_none());
        assert!(c.wal_dir.is_none(), "durability must default off");
        assert_eq!(c.fsync_policy, FsyncPolicy::Always);
        assert_eq!(c.checkpoint_every, 0);
    }

    #[test]
    fn debug_marks_hooks() {
        let c = RtConfig {
            trace: Some(Arc::new(TraceRecorder::new())),
            ..Default::default()
        };
        let s = format!("{c:?}");
        assert!(s.contains("TraceRecorder(0 events)"), "{s}");
        assert!(s.contains("fault: None"), "{s}");
    }

    #[test]
    fn with_mode() {
        assert_eq!(
            RtConfig::with_mode(LockMode::Flat2PL).mode,
            LockMode::Flat2PL
        );
    }
}
