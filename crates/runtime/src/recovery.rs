//! Crash recovery: rebuild the committed store from the write-ahead log.
//!
//! Recovery is a pure *redo* pass. The log never contains effects of
//! uncommitted work: a top-level commit's whole durable write set is one
//! `Commit` record, appended only inside the committer's turnstile window,
//! and its CRC makes it atomic, so a record is on disk whole or not at all.
//! There is nothing to undo; a transaction that was mid-commit when the
//! process died left at most a torn final record, discarded as a torn tail.
//! A transaction that aborts, or never commits, leaves no record at all.
//!
//! The scan:
//!
//! 1. List `wal-NNNNNN.log` segments in index order. Start from the newest
//!    segment that *opens* with a valid `Checkpoint` record (a checkpoint
//!    supersedes everything before it); fall back to the oldest segment
//!    when none does — e.g. when a crash tore the checkpoint's own segment
//!    before its first fsync, in which case the superseded segments are
//!    still on disk because [`crate::wal`] deletes them only after the new
//!    segment is durable.
//! 2. Read each segment's valid record prefix
//!    ([`crate::wal::walk_records`]); bytes past it are a torn tail from
//!    the crash and are discarded. A checksummed frame that does not decode
//!    — damage, or a log written in another format — fails the recovery.
//! 3. Replay the checkpoint base (if any) and then every `Commit` record
//!    past it in commit-timestamp order into fresh version chains, and
//!    advance the clocks — the id floor covers the top of every scanned
//!    `Commit` — so new work continues after the history.
//!
//! Replaying in timestamp order into [`crate::mvcc::SnapshotCell`] chains
//! reproduces not just the final committed state but the whole surviving
//! *history*, so snapshot reads behave identically before and after a
//! crash — the differential fuzzer in `ntx-sim` leans on this.

use crate::error::TxError;
use crate::manager::TxManager;
use crate::stats::Ctr;
use crate::sync::atomic::Ordering;
use crate::trace::RtEvent;
use crate::wal::{list_segments, walk_records, Entries, WalRecord};

use std::fs;
use std::path::{Path, PathBuf};

/// Every segment file in `dir`, in index order, with its bytes.
fn read_segments(dir: &Path) -> Result<Vec<(PathBuf, Vec<u8>)>, TxError> {
    let segs = list_segments(dir)
        .map_err(|e| TxError::Recovery(format!("cannot list {}: {e}", dir.display())))?;
    segs.into_iter()
        .map(|(_, path)| match fs::read(&path) {
            Ok(bytes) => Ok((path, bytes)),
            Err(e) => Err(TxError::Recovery(format!(
                "cannot read {}: {e}",
                path.display()
            ))),
        })
        .collect()
}

/// Everything the scan pass extracted from the segment files; the entries
/// borrow the segments' bytes.
struct ScannedLog<'a> {
    /// Checkpoint cut timestamp and snapshot entries (`None` when
    /// recovering from genesis).
    base: Option<(u64, Entries<'a>)>,
    /// Committed write sets as `(ts, top, entries)`, sorted by ascending
    /// commit timestamp.
    commits: Vec<(u64, u64, Entries<'a>)>,
    /// Highest top-level transaction id in a scanned `Commit`.
    max_top: u64,
    /// Bytes of torn tail discarded across all scanned segments.
    torn_bytes: u64,
}

/// Scan the segments into commit-ordered redo work.
fn scan(segs: &[(PathBuf, Vec<u8>)]) -> Result<ScannedLog<'_>, TxError> {
    // Read every segment's valid prefix up front; pick the scan start.
    let mut parsed = Vec::with_capacity(segs.len());
    let mut torn_bytes = 0u64;
    for (path, bytes) in segs {
        let mut recs = Vec::new();
        let valid = walk_records(bytes, |rec| recs.push(rec))
            .map_err(|bad| TxError::Recovery(format!("{}: {bad}", path.display())))?;
        torn_bytes += (bytes.len() - valid) as u64;
        parsed.push(recs);
    }
    let start = parsed
        .iter()
        .rposition(|recs| matches!(recs.first(), Some(WalRecord::Checkpoint { .. })))
        .unwrap_or(0);

    let mut base = None;
    let mut commits = Vec::new();
    let mut max_top = 0u64;
    for rec in parsed.into_iter().skip(start).flatten() {
        match rec {
            WalRecord::Checkpoint { ts, entries } => {
                // A checkpoint snapshots everything at `ts`; earlier replay
                // work is subsumed by it.
                base = Some((ts, entries));
                commits.retain(|&(c, _, _)| c > ts);
            }
            WalRecord::Commit { ts, top, entries } => {
                max_top = max_top.max(top);
                if ts > base.map_or(0, |(b, _)| b) {
                    commits.push((ts, top, entries));
                }
            }
        }
    }
    commits.sort_by_key(|&(ts, _, _)| ts);
    Ok(ScannedLog {
        base,
        commits,
        max_top,
        torn_bytes,
    })
}

/// What [`TxManager::recover`] rebuilt, for assertions and reporting.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Commit clock after replay: the highest redone commit timestamp (or
    /// the checkpoint cut when no commit followed it; 0 for an empty log).
    pub recovered_ts: u64,
    /// Committed write sets replayed from `Commit` records.
    pub commits_redone: u64,
    /// Top-level ids of the replayed commits, in timestamp order.
    pub redone_tops: Vec<u64>,
    /// Cut timestamp of the checkpoint the replay started from (0 = none).
    pub checkpoint_ts: u64,
    /// Torn-tail bytes discarded while scanning (non-zero after a crash
    /// that died mid-write).
    pub torn_bytes: u64,
}

impl TxManager {
    /// Rebuild committed state from the write-ahead log after a crash.
    ///
    /// Call on a **fresh** manager — same [`crate::RtConfig::wal_dir`],
    /// durable objects re-registered in the same order with the same types,
    /// no transactions begun or committed yet. Replays every committed
    /// write set the log retained (see the module docs for what "retained"
    /// means under each [`crate::FsyncPolicy`]), advances the commit clock
    /// past the recovered history, and bumps the transaction-id allocator
    /// above the top of every scanned `Commit` record, so a new transaction
    /// never shares an id with one the log holds. A torn record is a torn
    /// tail, discarded whole, so it leaves no fragment for a later id to
    /// claim; a top that never committed left no record.
    ///
    /// Errors if no WAL is configured, if the manager already has history
    /// (recovery replays into version chains and cannot merge), or if the
    /// log references an object this manager did not register durably.
    pub fn recover(&self) -> Result<RecoveryReport, TxError> {
        let inner = &*self.inner;
        let Some(wal) = &inner.wal else {
            return Err(TxError::Recovery("no WAL configured".into()));
        };
        if inner.commit_ts.load(Ordering::SeqCst) != 0 || inner.stats.total(Ctr::TopCommits) != 0 {
            return Err(TxError::Recovery(
                "recover() needs a fresh manager (history already present)".into(),
            ));
        }
        let segs = read_segments(wal.dir())?;
        let scanned = scan(&segs)?;

        // Replay one write: decode through the object's registered codec
        // and publish it as the committed version at `ts`.
        let apply = |ts: u64, obj: u32, data: &[u8]| -> Result<(), TxError> {
            let idx = obj as usize;
            if idx >= inner.objects.len() {
                return Err(TxError::Recovery(format!(
                    "log references object #{obj}, but only {} are registered",
                    inner.objects.len()
                )));
            }
            let slot = inner.slot(idx);
            let Some(codec) = &slot.codec else {
                return Err(TxError::Recovery(format!(
                    "log references object #{obj} ({:?}), which is not durable",
                    inner.object_name(idx)
                )));
            };
            let Some(state) = (codec.decode)(data) else {
                return Err(TxError::Recovery(format!(
                    "corrupt state payload for object #{obj} ({:?}) at ts {ts}",
                    inner.object_name(idx)
                )));
            };
            let _guard = slot.inner.lock();
            slot.snap.publish(ts, state);
            inner.stats.bump(Ctr::VersionsPublished);
            Ok(())
        };

        let (checkpoint_ts, base) = scanned.base.unwrap_or_default();
        for (obj, data) in base {
            apply(checkpoint_ts, obj, data)?;
        }
        let mut recovered_ts = checkpoint_ts;
        for &(ts, _, entries) in &scanned.commits {
            for (obj, data) in entries {
                apply(ts, obj, data)?;
            }
            recovered_ts = ts;
        }

        // Advance the clocks: new commits must ticket *after* the recovered
        // history, and a snapshot taken now must see all of it.
        inner.ts_alloc.store(recovered_ts, Ordering::SeqCst);
        inner.commit_ts.store(recovered_ts, Ordering::SeqCst);
        let floor = scanned.max_top + 1;
        inner.next_tx_id.fetch_max(floor, Ordering::SeqCst);

        let report = RecoveryReport {
            recovered_ts,
            commits_redone: scanned.commits.len() as u64,
            redone_tops: scanned.commits.iter().map(|&(_, top, _)| top).collect(),
            checkpoint_ts,
            // `Wal::open` already truncated the live segment's torn tail;
            // the scan only sees leftovers in non-live segments.
            torn_bytes: scanned.torn_bytes + wal.repaired_bytes(),
        };
        inner.stats.bump(Ctr::Recoveries);
        inner.trace(RtEvent::Recovered {
            commits: report.commits_redone,
            ts: recovered_ts,
        });
        Ok(report)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::config::RtConfig;
    use crate::wal::FsyncPolicy;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ntx-recovery-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_cfg(dir: &Path) -> RtConfig {
        RtConfig {
            wal_dir: Some(dir.to_path_buf()),
            fsync_policy: FsyncPolicy::Always,
            ..RtConfig::default()
        }
    }

    #[test]
    fn recover_requires_a_wal() {
        let mgr = TxManager::new(RtConfig::default());
        assert!(matches!(mgr.recover(), Err(TxError::Recovery(_))));
    }

    #[test]
    fn empty_log_recovers_to_genesis() {
        let dir = tmp("empty");
        let mgr = TxManager::new(durable_cfg(&dir));
        let x = mgr.register_durable("x", 7i64);
        let report = mgr.recover().unwrap();
        assert_eq!(report.recovered_ts, 0);
        assert_eq!(report.commits_redone, 0);
        assert_eq!(mgr.read_committed(&x, |v| *v), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commits_replay_and_clocks_advance() {
        let dir = tmp("replay");
        {
            let mgr = TxManager::new(durable_cfg(&dir));
            let x = mgr.register_durable("x", 0i64);
            for i in 1..=3i64 {
                let tx = mgr.begin();
                tx.write(&x, |v| *v = i * 10).unwrap();
                tx.commit().unwrap();
            }
        }
        let mgr = TxManager::new(durable_cfg(&dir));
        let x = mgr.register_durable("x", 0i64);
        let report = mgr.recover().unwrap();
        assert_eq!(report.commits_redone, 3);
        assert_eq!(report.recovered_ts, 3);
        assert_eq!(mgr.read_committed(&x, |v| *v), 30);
        // History is rebuilt, not just the tip: a snapshot pinned at ts 2
        // must see the second commit's value.
        assert_eq!(mgr.version_history::<i64>(&x).len(), 4, "genesis + 3");
        // New work continues after the recovered history.
        let tx = mgr.begin();
        assert!(tx.id() > report.redone_tops.iter().copied().max().unwrap());
        tx.write(&x, |v| *v += 1).unwrap();
        tx.commit().unwrap();
        assert_eq!(mgr.read_committed(&x, |v| *v), 31);
        assert_eq!(mgr.commit_clock(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log from a build that wrote one `Publish` frame per object (tag 2)
    /// is refused, not replayed in part or cut short: here it sits in a
    /// segment before the live one, which the scan alone reads.
    #[test]
    fn a_legacy_segment_is_refused() {
        let dir = tmp("legacy");
        let mut publish = vec![2u8];
        for field in [1u64, 1] {
            publish.extend_from_slice(&field.to_le_bytes()); // ts, top
        }
        publish.extend_from_slice(&0u32.to_le_bytes()); // obj
        publish.extend_from_slice(&8u32.to_le_bytes()); // len
        publish.extend_from_slice(&11i64.to_le_bytes());
        let mut seg = (publish.len() as u32).to_le_bytes().to_vec();
        seg.extend_from_slice(&crate::wal::crc32(&publish).to_le_bytes());
        seg.extend_from_slice(&publish);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-000000.log"), &seg).unwrap();
        std::fs::write(dir.join("wal-000001.log"), []).unwrap();

        let mgr = TxManager::new(durable_cfg(&dir));
        let x = mgr.register_durable("x", 0i64);
        match mgr.recover() {
            Err(TxError::Recovery(msg)) => {
                assert!(
                    msg.contains("wal-000000.log") && msg.contains("(tag 2)"),
                    "{msg}"
                );
            }
            other => panic!("a legacy segment must be refused, got {other:?}"),
        }
        assert_eq!(mgr.read_committed(&x, |v| *v), 0);
        assert_eq!(std::fs::read(dir.join("wal-000000.log")).unwrap(), seg);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn second_recovery_on_same_manager_errors() {
        let dir = tmp("twice");
        {
            let mgr = TxManager::new(durable_cfg(&dir));
            let x = mgr.register_durable("x", 0i64);
            let tx = mgr.begin();
            tx.write(&x, |v| *v = 1).unwrap();
            tx.commit().unwrap();
        }
        let mgr = TxManager::new(durable_cfg(&dir));
        let _x = mgr.register_durable("x", 0i64);
        mgr.recover().unwrap();
        assert!(matches!(mgr.recover(), Err(TxError::Recovery(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_durable_object_in_log_is_an_error() {
        let dir = tmp("nondurable");
        {
            let mgr = TxManager::new(durable_cfg(&dir));
            let x = mgr.register_durable("x", 0i64);
            let tx = mgr.begin();
            tx.write(&x, |v| *v = 1).unwrap();
            tx.commit().unwrap();
        }
        // Re-registering the object *without* a codec must fail recovery
        // rather than silently dropping its state.
        let mgr = TxManager::new(durable_cfg(&dir));
        let _x = mgr.register("x", 0i64);
        assert!(matches!(mgr.recover(), Err(TxError::Recovery(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
