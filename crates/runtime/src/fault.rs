//! Deterministic fault-injection hooks.
//!
//! The runtime exposes a small set of *yield points* — lock-request entry,
//! the blocked point of a lock wait, and commit entry — where an injector
//! plugged into [`crate::RtConfig::fault`] may force a failure. The paper's
//! model treats spontaneous `ABORT`s as a scheduler right; these hooks give
//! the real runtime the same right, under test control, so a fuzzing
//! harness can exercise every recovery path (subtree rollback, lock
//! discard, doomed-descendant propagation) from a single reproducible seed.
//!
//! When [`crate::RtConfig::fault`] is `None` the hooks reduce to one
//! branch on an `Option` — no allocation, no locking, no atomics.

use std::fmt;

/// Where in the runtime a fault decision is being taken.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultPoint {
    /// Entry of a lock request, before the grant check.
    LockRequest,
    /// A lock request that found itself blocked (consulted once per
    /// blocking round, before the deadline check).
    LockWait,
    /// Entry of [`crate::Tx::commit`], before the state transition.
    Commit,
    /// Inside the commit turnstile window, before the commit's `Commit`
    /// record is appended (crash here loses the whole commit).
    WalPreAppend,
    /// After the `Commit` record is appended but before the policy fsync
    /// (crash here tests the group-commit durable-prefix guarantee; a
    /// teardown that cuts the unsynced tail mid-record leaves a torn record
    /// for recovery to discard whole).
    WalPostAppend,
    /// Between checkpoint rotation and old-segment deletion (crash here
    /// leaves a superseded-but-present log for recovery to arbitrate).
    WalCheckpoint,
}

/// The injector's decision at a yield point.
///
/// Semantics per point:
///
/// * at [`FaultPoint::LockRequest`] / [`FaultPoint::LockWait`] every
///   variant is honoured;
/// * at [`FaultPoint::Commit`] only [`FaultAction::Abort`] and
///   [`FaultAction::CrashSubtree`] are meaningful — `Timeout` and
///   `DeadlockVictim` describe lock-wait outcomes and are treated as
///   [`FaultAction::Continue`];
/// * at the WAL crash points (`WalPreAppend`, `WalPostAppend`,
///   `WalCheckpoint`) only [`FaultAction::CrashProcess`]
///   is meaningful; every other variant is treated as
///   [`FaultAction::Continue`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// No fault; proceed normally.
    Continue,
    /// Spontaneously abort the requesting transaction's subtree; the
    /// request fails with [`crate::TxError::Doomed`].
    Abort,
    /// Fail the lock request with [`crate::TxError::Timeout`] without
    /// touching any state (models an exhausted wait budget).
    Timeout,
    /// Fail the lock request with [`crate::TxError::Deadlock`] as if the
    /// requester had been chosen as a deadlock victim.
    DeadlockVictim,
    /// Crash the whole top-level transaction: abort the subtree rooted at
    /// the requester's top-level ancestor. The request fails with
    /// [`crate::TxError::Doomed`].
    CrashSubtree,
    /// Kill the whole process at a WAL yield point: the log is frozen (no
    /// further bytes reach disk) while the in-memory manager stays alive so
    /// the test driver can wind down and then exercise recovery. Only
    /// honoured at the `Wal*` fault points.
    CrashProcess,
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultAction::Continue => "continue",
            FaultAction::Abort => "abort",
            FaultAction::Timeout => "timeout",
            FaultAction::DeadlockVictim => "victim",
            FaultAction::CrashSubtree => "crash",
            FaultAction::CrashProcess => "kill",
        };
        f.write_str(s)
    }
}

/// Everything an injector may condition its decision on.
#[derive(Clone, Copy, Debug)]
pub struct FaultContext {
    /// The yield point being crossed.
    pub point: FaultPoint,
    /// Id of the transaction at the yield point.
    pub tx: u64,
    /// Id of its top-level ancestor.
    pub top: u64,
    /// Nesting depth (0 = top level).
    pub depth: usize,
    /// Object index of a lock request (`None` at [`FaultPoint::Commit`]).
    pub obj: Option<usize>,
    /// Whether the lock request is a write (`false` at commit).
    pub write: bool,
}

/// A pluggable source of fault decisions.
///
/// Implementations must be deterministic functions of their own state and
/// the sequence of [`FaultContext`]s observed if runs are to be replayable
/// from a seed (the harness in `ntx-sim` keys decisions off an internal
/// call counter).
pub trait FaultInjector: Send + Sync {
    /// Decide what happens at this yield point.
    fn decide(&self, ctx: &FaultContext) -> FaultAction;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysAbort;
    impl FaultInjector for AlwaysAbort {
        fn decide(&self, _ctx: &FaultContext) -> FaultAction {
            FaultAction::Abort
        }
    }

    #[test]
    fn injector_is_object_safe() {
        let f: Box<dyn FaultInjector> = Box::new(AlwaysAbort);
        let ctx = FaultContext {
            point: FaultPoint::LockRequest,
            tx: 1,
            top: 1,
            depth: 0,
            obj: Some(0),
            write: true,
        };
        assert_eq!(f.decide(&ctx), FaultAction::Abort);
    }

    #[test]
    fn actions_render_stably() {
        assert_eq!(FaultAction::Abort.to_string(), "abort");
        assert_eq!(FaultAction::CrashSubtree.to_string(), "crash");
        assert_eq!(FaultAction::DeadlockVictim.to_string(), "victim");
        assert_eq!(FaultAction::CrashProcess.to_string(), "kill");
    }
}
