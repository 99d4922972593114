//! Crash recovery: rebuild the committed store from the write-ahead log.
//!
//! Recovery is a pure *redo* pass. The log never contains effects of
//! uncommitted work — `Publish` records are appended only inside a
//! top-level committer's turnstile window, immediately fenced by their
//! `Commit` record — so there is nothing to undo; "undo" is simply
//! discarding any buffered write set whose commit fence never made it to
//! disk (a transaction that was mid-commit when the process died). A
//! transaction that aborts, or never commits, leaves no record at all.
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
//! 2. Parse each segment's valid frame prefix ([`crate::wal::parse_frames`]);
//!    bytes past it are a torn tail from the crash and are discarded.
//!    Legacy `Begin`/`Abort` frames are skipped.
//! 3. Buffer `Publish` records per top-level transaction; a `Commit` fence
//!    promotes the buffer to a redo-eligible write set.
//! 4. Replay the checkpoint base (if any) and then every committed write
//!    set in commit-timestamp order into fresh version chains, and advance
//!    the clocks — the id floor covers the top ids of scanned `Publish`
//!    and `Commit` records — so new work continues after the history.
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
use crate::wal::{list_segments, parse_frames, WalRecord};

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// One committed transaction reconstructed from the log.
struct RecoveredCommit {
    /// Commit timestamp (dense turnstile ticket).
    ts: u64,
    /// Top-level transaction id.
    top: u64,
    /// `(object slab index, encoded state)` in append order.
    writes: Vec<(u32, Vec<u8>)>,
}

/// Everything the scan pass extracted from the segment files.
struct ScannedLog {
    /// Checkpoint cut timestamp (0 when recovering from genesis).
    base_ts: u64,
    /// Checkpoint snapshot entries (empty when `base_ts == 0`).
    base: Vec<(u32, Vec<u8>)>,
    /// Committed write sets, sorted by ascending commit timestamp.
    commits: Vec<RecoveredCommit>,
    /// Highest top-level transaction id in a scanned `Publish` or `Commit`.
    max_top: u64,
    /// Bytes of torn tail discarded across all scanned segments.
    torn_bytes: u64,
}

/// Scan the log directory into commit-ordered redo work.
fn scan_dir(dir: &Path) -> Result<ScannedLog, TxError> {
    let segs = list_segments(dir)
        .map_err(|e| TxError::Recovery(format!("cannot list {}: {e}", dir.display())))?;

    // Parse every segment's valid prefix up front; pick the scan start.
    let mut parsed = Vec::with_capacity(segs.len());
    let mut torn_bytes = 0u64;
    for (idx, path) in &segs {
        let bytes = fs::read(path)
            .map_err(|e| TxError::Recovery(format!("cannot read {}: {e}", path.display())))?;
        let (recs, valid) = parse_frames(&bytes);
        torn_bytes += bytes.len() as u64 - valid as u64;
        parsed.push((*idx, recs));
    }
    let start = parsed
        .iter()
        .rposition(|(_, recs)| matches!(recs.first(), Some(WalRecord::Checkpoint { .. })))
        .unwrap_or(0);

    let mut base_ts = 0u64;
    let mut base: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut pending: BTreeMap<u64, Vec<(u32, Vec<u8>)>> = BTreeMap::new();
    let mut commits: Vec<RecoveredCommit> = Vec::new();
    let mut max_top = 0u64;

    for (_, recs) in parsed.into_iter().skip(start) {
        for rec in recs {
            match rec {
                WalRecord::Checkpoint { ts, entries } => {
                    // A checkpoint snapshots everything at `ts`; earlier
                    // replay work is subsumed by it.
                    base_ts = ts;
                    base = entries;
                    commits.retain(|c| c.ts > ts);
                }
                WalRecord::Publish { top, obj, data, .. } => {
                    max_top = max_top.max(top);
                    pending.entry(top).or_default().push((obj, data));
                }
                WalRecord::Commit { ts, top } => {
                    max_top = max_top.max(top);
                    let writes = pending.remove(&top).unwrap_or_default();
                    if ts > base_ts {
                        commits.push(RecoveredCommit { ts, top, writes });
                    }
                }
            }
        }
    }
    // Anything left in `pending` had no durable commit fence: the process
    // died mid-commit. Dense turnstile tickets mean no *later* fence of its
    // run can be durable either (appends are ordered by the turnstile), so
    // dropping these buffers loses only a suffix — never a middle — of
    // history. A later run's fences carry ids above it (see `recover`).
    commits.sort_by_key(|c| c.ts);
    Ok(ScannedLog {
        base_ts,
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
    /// Committed write sets replayed from `Publish`+`Commit` records.
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
    /// above every top id in a scanned `Publish` or `Commit` record.
    ///
    /// That floor is what redo needs. The scan buffers `Publish` frames by
    /// top id until its `Commit`, so a new transaction must never take the
    /// id of an orphan `Publish` torn from its fence (`WalMidCommit`): its
    /// own `Commit` would adopt the orphan. A top that never published left
    /// no record, and no later scan reads the segments before this scan's
    /// checkpoint, so their ids need no floor and `Checkpoint` carries none.
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
        let scanned = scan_dir(wal.dir())?;

        // Replay one write: decode through the object's registered codec
        // and install as the committed base + a version at `ts`.
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
                    slot.name
                )));
            };
            let Some(state) = (codec.decode)(data) else {
                return Err(TxError::Recovery(format!(
                    "corrupt state payload for object #{obj} ({:?}) at ts {ts}",
                    slot.name
                )));
            };
            let mut guard = slot.inner.lock();
            slot.snap.publish(ts, state.clone_box());
            guard.base = state;
            inner.stats.bump(Ctr::VersionsPublished);
            Ok(())
        };

        if scanned.base_ts > 0 {
            for (obj, data) in &scanned.base {
                apply(scanned.base_ts, *obj, data)?;
            }
        }
        let mut recovered_ts = scanned.base_ts;
        for c in &scanned.commits {
            for (obj, data) in &c.writes {
                apply(c.ts, *obj, data)?;
            }
            recovered_ts = c.ts;
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
            redone_tops: scanned.commits.iter().map(|c| c.top).collect(),
            checkpoint_ts: scanned.base_ts,
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

    /// A segment written while the log still recorded `Begin` and `Abort`
    /// opens without repair and recovers whole: the legacy frames are
    /// skipped, not taken for a torn tail that cuts off what follows.
    #[test]
    fn legacy_begin_and_abort_frames_are_skipped() {
        let dir = tmp("legacy");
        let legacy = |out: &mut Vec<u8>, tag: u8, top: u64| {
            let mut p = vec![tag];
            p.extend_from_slice(&top.to_le_bytes());
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(&crate::wal::crc32(&p).to_le_bytes());
            out.extend_from_slice(&p);
        };
        let publish = |out: &mut Vec<u8>, ts: u64, top: u64, obj: u32, v: i64| {
            crate::wal::frame_publish(out, ts, top, obj, |d| d.extend_from_slice(&v.to_le_bytes()));
        };
        let mut seg = Vec::new();
        legacy(&mut seg, 1, 1);
        publish(&mut seg, 1, 1, 0, 11);
        crate::wal::frame_commit(&mut seg, 1, 1);
        legacy(&mut seg, 4, 2);
        publish(&mut seg, 2, 3, 1, 22);
        crate::wal::frame_commit(&mut seg, 2, 3);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-000000.log"), &seg).unwrap();

        let mgr = TxManager::new(durable_cfg(&dir));
        let x = mgr.register_durable("x", 0i64);
        let y = mgr.register_durable("y", 0i64);
        let wal = mgr.inner.wal.as_ref().unwrap();
        assert_eq!(wal.repaired_bytes(), 0);
        let report = mgr.recover().unwrap();
        assert_eq!(report.commits_redone, 2);
        assert_eq!(report.redone_tops, [1, 3]);
        assert_eq!(report.torn_bytes, 0);
        assert_eq!(mgr.read_committed(&x, |v| *v), 11);
        assert_eq!(mgr.read_committed(&y, |v| *v), 22);
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
