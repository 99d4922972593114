//! Crash-recovery integration tests: the durable version store must
//! rebuild exactly the committed prefix of pre-crash history — never an
//! uncommitted write, never a hole in the middle — across torn tails,
//! repeated recoveries, checkpoints, and version GC.
//!
//! The deeper property (recovery lands *on* the pre-crash MVCC timeline
//! for random workloads killed at random WAL yield points) is delegated to
//! `ntx-sim`'s differential kill-and-recover fuzzer, driven here through a
//! proptest over seeds.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ntx_runtime::{FsyncPolicy, RtConfig, TxError, TxManager};
use ntx_sim::{fuzz_crash_run, CrashFuzzConfig, CrashPlan};
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntx-recovery-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(dir: &Path, fsync: FsyncPolicy, checkpoint_every: u64) -> RtConfig {
    RtConfig {
        wal_dir: Some(dir.to_path_buf()),
        fsync_policy: fsync,
        checkpoint_every,
        ..RtConfig::default()
    }
}

/// A crash that loses the commit fence mid-append must roll the whole
/// transaction back — recovery keeps the last *fenced* commit only.
#[test]
fn torn_commit_fence_discards_the_whole_write_set() {
    let dir = tmp("torn-fence");
    // A group size the workload never reaches and a deadline it never
    // waits out: nothing is ever fsynced, every byte stays unsynced.
    let never_syncs = FsyncPolicy::Group(1000, Duration::from_secs(3600));
    let (cut, full);
    {
        let mgr = TxManager::new(durable_cfg(&dir, never_syncs, 0));
        let x = mgr.register_durable("x", 0i64);
        let y = mgr.register_durable("y", 0i64);

        let t1 = mgr.begin();
        t1.write(&x, |v| *v = 10).unwrap();
        t1.commit().unwrap();
        cut = mgr.wal_unsynced_bytes();

        let t2 = mgr.begin();
        t2.write(&x, |v| *v = 20).unwrap();
        t2.write(&y, |v| *v = 99).unwrap();
        t2.commit().unwrap();
        full = mgr.wal_unsynced_bytes();
        assert!(full > cut + 3, "t2 appended more than 3 bytes");

        // Power cut 3 bytes short of t2's fence: its Publish records are
        // on disk, the Commit record is torn mid-frame.
        mgr.wal_crash_teardown(full - 3).unwrap();
    }
    let mgr = TxManager::new(durable_cfg(&dir, never_syncs, 0));
    let x = mgr.register_durable("x", 0i64);
    let y = mgr.register_durable("y", 0i64);
    let rec = mgr.recover().unwrap();
    assert_eq!(rec.commits_redone, 1, "only the fenced t1 survives");
    assert_eq!(rec.recovered_ts, 1);
    assert!(rec.torn_bytes > 0, "the torn frame was detected");
    assert_eq!(mgr.read_committed(&x, |v| *v), 10);
    assert_eq!(
        mgr.read_committed(&y, |v| *v),
        0,
        "no partial write set: y must not carry t2's fragment"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovering twice from the same log (two fresh managers) rebuilds the
/// same state; recovering twice *into* the same manager is rejected.
#[test]
fn recovery_is_idempotent_across_reopens_and_one_shot_per_manager() {
    let dir = tmp("idempotent");
    {
        let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 0));
        let x = mgr.register_durable("x", 0i64);
        for i in 1..=5i64 {
            let tx = mgr.begin();
            tx.write(&x, |v| *v += i).unwrap();
            tx.commit().unwrap();
        }
        let s = mgr.stats();
        assert!(s.wal_fsyncs >= s.top_level_commits, "fsync per commit");
    }
    let mut seen = Vec::new();
    for _ in 0..2 {
        let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 0));
        let x = mgr.register_durable("x", 0i64);
        let rec = mgr.recover().unwrap();
        seen.push((
            rec.recovered_ts,
            rec.commits_redone,
            mgr.read_committed(&x, |v| *v),
        ));
        // Recovery must not re-log what it replays: a second fresh manager
        // sees the same log, not a doubled one.
        assert!(matches!(mgr.recover(), Err(TxError::Recovery(_))));
    }
    assert_eq!(seen[0], seen[1]);
    assert_eq!(seen[0], (5, 5, 15));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Checkpoints rotate to a fresh segment and prune the old ones, and a
/// crash right after a checkpoint recovers from the snapshot record alone.
#[test]
fn checkpoint_then_crash_recovers_from_the_snapshot() {
    let dir = tmp("checkpoint");
    {
        let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 2));
        let x = mgr.register_durable("x", 0i64);
        let _y = mgr.register_durable("y", 100i64);
        for i in 1..=5i64 {
            let tx = mgr.begin();
            tx.write(&x, |v| *v = i * 11).unwrap();
            tx.commit().unwrap();
        }
        // checkpoint_every=2 → checkpoints at ts 2 and 4; old segments
        // pruned each time, so exactly the post-checkpoint segment remains.
        let segs: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .collect();
        assert_eq!(segs.len(), 1, "old segments pruned after checkpoint");
        // Simulated power cut without a clean close.
        mgr.wal_crash_teardown(u64::MAX).unwrap();
    }
    let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 2));
    let x = mgr.register_durable("x", 0i64);
    let y = mgr.register_durable("y", 100i64);
    let rec = mgr.recover().unwrap();
    assert_eq!(rec.checkpoint_ts, 4, "replay starts from the ts-4 snapshot");
    assert_eq!(rec.recovered_ts, 5);
    assert_eq!(rec.commits_redone, 1, "only the post-checkpoint commit");
    assert_eq!(mgr.read_committed(&x, |v| *v), 55);
    assert_eq!(
        mgr.read_committed(&y, |v| *v),
        100,
        "an object never written still restores from the checkpoint"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Version GC reclaiming pre-crash chains does not change what recovery
/// rebuilds — durability comes from the log, not the in-memory chains.
#[test]
fn recovery_is_independent_of_version_gc() {
    let dir = tmp("gc");
    {
        let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 0));
        let x = mgr.register_durable("x", 0i64);
        for i in 1..=6i64 {
            let tx = mgr.begin();
            tx.write(&x, |v| *v = i).unwrap();
            tx.commit().unwrap();
        }
        // No live snapshot: GC collapses the chain to the newest version.
        mgr.collect_garbage();
        assert_eq!(mgr.version_chain_len(&x), 1);
        mgr.wal_crash_teardown(u64::MAX).unwrap();
    }
    let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 0));
    let x = mgr.register_durable("x", 0i64);
    let rec = mgr.recover().unwrap();
    assert_eq!(rec.recovered_ts, 6);
    assert_eq!(mgr.read_committed(&x, |v| *v), 6);
    // The rebuilt chain carries the full redone history: a snapshot-style
    // walk can still see every recovered version.
    assert_eq!(mgr.version_history::<i64>(&x).len(), 7, "genesis + 6");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Group commit trades a bounded durable-prefix lag for throughput: after
/// a crash, everything fsynced survives and the recovered clock never
/// exceeds what was committed.
#[test]
fn group_commit_loses_at_most_the_unsynced_suffix() {
    let dir = tmp("group");
    let group = FsyncPolicy::Group(3, Duration::from_secs(3600));
    let durable;
    {
        let mgr = TxManager::new(durable_cfg(&dir, group, 0));
        let x = mgr.register_durable("x", 0i64);
        for i in 1..=7i64 {
            let tx = mgr.begin();
            tx.write(&x, |v| *v = i).unwrap();
            tx.commit().unwrap();
        }
        durable = mgr.wal_durable_ts();
        assert!(durable >= 6, "two full groups of 3 must have fsynced");
        assert!(durable < 7, "the 7th commit is still pending");
        let s = mgr.stats();
        assert!(s.group_commit_batch_max > 1, "one fsync retired a batch");
        assert!(s.wal_fsyncs < s.top_level_commits, "{s:?}");
        // Harsh crash: every unsynced byte is lost.
        mgr.wal_crash_teardown(0).unwrap();
    }
    let mgr = TxManager::new(durable_cfg(&dir, group, 0));
    let x = mgr.register_durable("x", 0i64);
    let rec = mgr.recover().unwrap();
    assert!(rec.recovered_ts >= durable, "durable prefix survives");
    assert!(rec.recovered_ts <= 7);
    assert_eq!(mgr.read_committed(&x, |v| *v), rec.recovered_ts as i64);
    assert!(mgr.stats().recoveries == 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A partial group never reaches the file while the manager runs — it sits
/// in the log's staging buffer — but an orderly shutdown writes it out and
/// fsyncs it: nothing acknowledged is lost and nothing is torn.
#[test]
fn clean_shutdown_keeps_a_partial_group() {
    let dir = tmp("partial-group");
    let group = FsyncPolicy::Group(1000, Duration::from_secs(3600));
    {
        let mgr = TxManager::new(durable_cfg(&dir, group, 0));
        let x = mgr.register_durable("x", 0i64);
        for i in 1..=5i64 {
            let tx = mgr.begin();
            tx.write(&x, |v| *v = i).unwrap();
            tx.commit().unwrap();
        }
        assert_eq!(mgr.wal_durable_ts(), 0, "the group never filled");
        assert!(mgr.wal_unsynced_bytes() > 0);
    }
    let mgr = TxManager::new(durable_cfg(&dir, group, 0));
    let x = mgr.register_durable("x", 0i64);
    let rec = mgr.recover().unwrap();
    assert_eq!(rec.commits_redone, 5);
    assert_eq!(rec.recovered_ts, 5);
    assert_eq!(rec.torn_bytes, 0);
    assert_eq!(mgr.read_committed(&x, |v| *v), 5);
    assert_eq!(mgr.wal_durable_ts(), 5, "what is on disk is durable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A partial group that no later commit closes still meets its deadline:
/// the manager's sweeper writes the batch out and fsyncs it, with no
/// further call into the manager.
#[test]
fn an_idle_group_batch_meets_its_deadline() {
    let dir = tmp("idle-group");
    let deadline = Duration::from_millis(50);
    let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Group(1000, deadline), 0));
    let x = mgr.register_durable("x", 0i64);
    for i in 1..=3i64 {
        let tx = mgr.begin();
        tx.write(&x, |v| *v = i).unwrap();
        tx.commit().unwrap();
    }
    let start = Instant::now();
    while mgr.wal_durable_ts() < 3 {
        assert!(
            start.elapsed() < 40 * deadline,
            "the batch is still volatile after {:?}",
            start.elapsed()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Another handle on the segment reads every byte of the three commits:
    // one 41-byte `Publish` and one 25-byte `Commit` frame each.
    let seg = std::fs::read(dir.join("wal-000000.log")).unwrap();
    assert_eq!(seg.len(), 3 * (41 + 25));
    assert_eq!(mgr.wal_unsynced_bytes(), 0);
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable transaction touches the log once, at its commit: an N1
/// (begin, child, write, commit child, commit top) is one append, and a
/// top that aborts or only reads is none.
#[test]
fn a_durable_transaction_appends_once_at_its_commit() {
    let dir = tmp("one-append");
    let never_syncs = FsyncPolicy::Group(1000, Duration::from_secs(3600));
    let mgr = TxManager::new(durable_cfg(&dir, never_syncs, 0));
    let x = mgr.register_durable("x", 0i64);
    let log = || (mgr.stats().wal_appends, mgr.wal_unsynced_bytes());

    let before = log();
    let top = mgr.begin();
    let child = top.child().unwrap();
    child.write(&x, |v| *v = 1).unwrap();
    child.commit().unwrap();
    top.commit().unwrap();
    assert_eq!(log().0, before.0 + 1, "N1 is one append");

    let before = log();
    let tx = mgr.begin();
    tx.write(&x, |v| *v = 2).unwrap();
    tx.abort();
    assert_eq!(log(), before, "begin and abort leave the log alone");

    let tx = mgr.begin();
    assert_eq!(tx.read(&x, |v| *v).unwrap(), 1);
    tx.commit().unwrap();
    assert_eq!(log(), before, "a read-only commit leaves the log alone");
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random workloads killed at random WAL yield points (torn tails
    /// included) never surface an uncommitted or aborted write after
    /// recovery, and always land on the pre-crash committed timeline.
    #[test]
    fn random_kill_points_never_surface_uncommitted_writes(seed in 0u64..10_000) {
        let dir = std::env::temp_dir().join(format!(
            "ntx-recovery-prop-{}-{seed}",
            std::process::id()
        ));
        let out = fuzz_crash_run(&CrashFuzzConfig::new(seed, dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(out.ok(), "seed {}: failures {:?}", seed, out.failures);
    }

    /// Certain-death at a single chosen yield point, across seeds: each
    /// crash site individually preserves the committed prefix.
    #[test]
    fn each_crash_point_preserves_the_committed_prefix(
        seed in 0u64..10_000,
        point_idx in 0usize..4,
    ) {
        use ntx_runtime::FaultPoint;
        let point = [
            FaultPoint::WalPreAppend,
            FaultPoint::WalMidCommit,
            FaultPoint::WalPostAppend,
            FaultPoint::WalCheckpoint,
        ][point_idx];
        let dir = std::env::temp_dir().join(format!(
            "ntx-recovery-prop-pt-{}-{seed}-{point_idx}",
            std::process::id()
        ));
        let cfg = CrashFuzzConfig {
            crash: CrashPlan::at(point, 150),
            ..CrashFuzzConfig::new(seed, dir.clone())
        };
        let out = fuzz_crash_run(&cfg);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(out.ok(), "seed {} point {:?}: failures {:?}", seed, point, out.failures);
    }
}
