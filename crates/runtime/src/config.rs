//! Runtime configuration.
//!
//! Deadlock handling is not a setting: the runtime has one rule, die on
//! cycle (the wait-for graph in `deadlock.rs`), and
//! [`RtConfig::wait_timeout`] only bounds waits that no cycle explains — a
//! holder that simply never finishes. Neither is the locking discipline:
//! the runtime runs Moss' read/write locking and nothing else. Exclusive
//! locking is a caller issuing every access as a write (§4.3), and flat
//! two-phase locking a caller restarting the top on any child failure.

use crate::sync::Arc;
use std::path::PathBuf;
use std::time::Duration;

use crate::fault::FaultInjector;
use crate::trace::TraceRecorder;
use crate::wal::FsyncPolicy;

/// Configuration for a [`crate::TxManager`].
#[derive(Clone)]
pub struct RtConfig {
    /// Maximum total time a single lock request may wait before failing
    /// with [`crate::TxError::Timeout`]. A request that times out cancels
    /// its queued waiter node in place and withdraws.
    pub wait_timeout: Duration,
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
            .field("wait_timeout", &self.wait_timeout)
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
            wait_timeout: Duration::from_secs(10),
            fault: None,
            trace: None,
            wal_dir: None,
            fsync_policy: FsyncPolicy::Always,
            checkpoint_every: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = RtConfig::default();
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
}
