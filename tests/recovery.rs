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

/// Frame header (`len`, `crc`), then the `Commit` record's own fields:
/// tag, `ts`, `top` and the entry count.
const COMMIT_HEAD: u64 = (4 + 4) + 1 + 8 + 8 + 4;
/// One entry of an `i64` object: `obj`, `len`, then 8 bytes of state.
const I64_ENTRY: u64 = 4 + 4 + 8;

/// A power cut anywhere inside a commit's record loses that commit whole:
/// recovery keeps the commit before it, and none of the torn one's writes.
#[test]
fn a_torn_commit_record_discards_the_whole_write_set() {
    // A group size the workload never reaches and a deadline it never
    // waits out: nothing is ever fsynced, every byte stays unsynced.
    let never_syncs = FsyncPolicy::Group(1000, Duration::from_secs(3600));
    let t2_len = COMMIT_HEAD + 2 * I64_ENTRY;
    let t1_end = COMMIT_HEAD + I64_ENTRY;
    for cut in t1_end + 1..t1_end + t2_len {
        let dir = tmp(&format!("torn-{cut}"));
        {
            let mgr = TxManager::new(durable_cfg(&dir, never_syncs, 0));
            let x = mgr.register_durable("x", 0i64);
            let y = mgr.register_durable("y", 0i64);

            let t1 = mgr.begin();
            t1.write(&x, |v| *v = 10).unwrap();
            t1.commit().unwrap();
            assert_eq!(mgr.wal_unsynced_bytes(), t1_end);

            let t2 = mgr.begin();
            t2.write(&x, |v| *v = 20).unwrap();
            t2.write(&y, |v| *v = 99).unwrap();
            t2.commit().unwrap();
            assert_eq!(mgr.wal_unsynced_bytes(), t1_end + t2_len);

            // Power cut `cut` bytes into the log: inside t2's record.
            mgr.wal_crash_teardown(cut).unwrap();
        }
        let mgr = TxManager::new(durable_cfg(&dir, never_syncs, 0));
        let x = mgr.register_durable("x", 0i64);
        let y = mgr.register_durable("y", 0i64);
        let rec = mgr.recover().unwrap();
        assert_eq!(rec.commits_redone, 1, "cut {cut}: only t1 survives");
        assert_eq!(rec.recovered_ts, 1);
        assert_eq!(rec.torn_bytes, cut - t1_end, "cut {cut}: the torn record");
        assert_eq!(mgr.read_committed(&x, |v| *v), 10, "cut {cut}");
        assert_eq!(
            mgr.read_committed(&y, |v| *v),
            0,
            "cut {cut}: no partial write set, y must not carry t2's write"
        );
        drop(mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A record larger than 16 MiB is an ordinary record: a 17 MiB commit and
/// the small commit after it both survive a clean close and reopen.
#[test]
fn a_commit_over_16_mib_recovers() {
    let dir = tmp("big-commit");
    let big = vec![0xA5u8; 17 << 20];
    {
        let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 0));
        let blob = mgr.register_durable("blob", Vec::<u8>::new());
        let x = mgr.register_durable("x", 0i64);
        let tx = mgr.begin();
        tx.write(&blob, |v| v.clone_from(&big)).unwrap();
        tx.commit().unwrap();
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 7).unwrap();
        tx.commit().unwrap();
        assert_eq!(mgr.wal_durable_ts(), 2);
    }
    let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 0));
    let blob = mgr.register_durable("blob", Vec::<u8>::new());
    let x = mgr.register_durable("x", 0i64);
    let rec = mgr.recover().unwrap();
    assert_eq!((rec.commits_redone, rec.torn_bytes), (2, 0));
    assert!(mgr.read_committed(&blob, |v| *v == big));
    assert_eq!(mgr.read_committed(&x, |v| *v), 7);
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same for a checkpoint over 16 MiB: it heads the only segment left,
/// so losing it would lose everything before it.
#[test]
fn a_checkpoint_over_16_mib_recovers() {
    let dir = tmp("big-checkpoint");
    let big = vec![0x5Au8; 17 << 20];
    {
        let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 1));
        let blob = mgr.register_durable("blob", Vec::<u8>::new());
        let x = mgr.register_durable("x", 0i64);
        let tx = mgr.begin();
        tx.write(&blob, |v| v.clone_from(&big)).unwrap();
        tx.commit().unwrap();
        let tx = mgr.begin();
        tx.write(&x, |v| *v = 7).unwrap();
        tx.commit().unwrap();
    }
    let mgr = TxManager::new(durable_cfg(&dir, FsyncPolicy::Always, 1));
    let blob = mgr.register_durable("blob", Vec::<u8>::new());
    let x = mgr.register_durable("x", 0i64);
    let rec = mgr.recover().unwrap();
    assert_eq!(
        (rec.checkpoint_ts, rec.recovered_ts, rec.torn_bytes),
        (2, 2, 0)
    );
    assert!(mgr.read_committed(&blob, |v| *v == big));
    assert_eq!(mgr.read_committed(&x, |v| *v), 7);
    drop(mgr);
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
    // one `Commit` record of one `i64` entry each.
    let seg = std::fs::read(dir.join("wal-000000.log")).unwrap();
    assert_eq!(seg.len() as u64, 3 * (COMMIT_HEAD + I64_ENTRY));
    assert_eq!(mgr.wal_unsynced_bytes(), 0);
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable transaction touches the log once, at its commit, with one
/// record: an N1 (begin, child, write, commit child, commit top) is one
/// append of one entry, a commit of two objects one append of two, and a
/// top that aborts or only reads is none.
#[test]
fn a_durable_transaction_appends_once_at_its_commit() {
    let dir = tmp("one-append");
    let never_syncs = FsyncPolicy::Group(1000, Duration::from_secs(3600));
    let mgr = TxManager::new(durable_cfg(&dir, never_syncs, 0));
    let x = mgr.register_durable("x", 0i64);
    let y = mgr.register_durable("y", 0i64);
    let log = || (mgr.stats().wal_appends, mgr.wal_unsynced_bytes());

    let before = log();
    let top = mgr.begin();
    let child = top.child().unwrap();
    child.write(&x, |v| *v = 1).unwrap();
    child.commit().unwrap();
    top.commit().unwrap();
    assert_eq!(
        log(),
        (before.0 + 1, before.1 + COMMIT_HEAD + I64_ENTRY),
        "N1 is one append of one 45-byte record"
    );

    let before = log();
    let tx = mgr.begin();
    tx.write(&x, |v| *v = 1).unwrap();
    tx.write(&y, |v| *v = 1).unwrap();
    tx.commit().unwrap();
    assert_eq!(
        log(),
        (before.0 + 1, before.1 + COMMIT_HEAD + 2 * I64_ENTRY),
        "two objects are one append of one 61-byte record"
    );

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
        point_idx in 0usize..3,
    ) {
        use ntx_runtime::FaultPoint;
        let point = [
            FaultPoint::WalPreAppend,
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
