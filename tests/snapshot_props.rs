//! Property tests for MVCC snapshot-read visibility (the paper's §4 read
//! semantics, specialised to the runtime's two snapshot entry points):
//!
//! * a detached [`ntx_runtime::Snapshot`] sees exactly the committed
//!   state — never an uncommitted or aborted write, no matter how
//!   subtransactions interleave commits and aborts around it;
//! * [`ntx_runtime::Tx::snapshot_read`] additionally sees the caller's
//!   *ancestors'* retained writes (a committed child's work, held by the
//!   parent, is visible inside the tree before it is published) — and
//!   still never a sibling's or an aborted child's write;
//! * savepoint partial aborts discard exactly the rolled-back deltas from
//!   the snapshot view;
//! * version chains stay bounded: garbage collection reclaims everything
//!   but the newest version once no snapshot is live.

use ntx_runtime::{RtConfig, SavepointScope, TxManager};
use proptest::prelude::*;

proptest! {
    /// Random interleaving of top-level writers (each commits or aborts)
    /// with detached snapshot reads: every snapshot equals the sum of the
    /// deltas committed *before* it was opened.
    #[test]
    fn detached_snapshots_see_exactly_the_committed_state(
        script in proptest::collection::vec((-5i64..6, any::<bool>(), any::<bool>()), 1..24)
    ) {
        let mgr = TxManager::new(RtConfig::default());
        let obj = mgr.register("x", 0i64);
        let mut committed = 0i64;
        for (delta, commit, snap_first) in script {
            let tx = mgr.begin();
            tx.write(&obj, |v| *v += delta).unwrap();
            // A snapshot opened while the writer is in flight must not see
            // its delta, whether the writer later commits or aborts.
            let early = mgr.snapshot();
            prop_assert_eq!(early.read(&obj, |v| *v), committed);
            if snap_first {
                // Keep it live across the commit: its view is immutable.
                if commit { tx.commit().unwrap(); committed += delta; } else { tx.abort(); }
                prop_assert_eq!(early.read(&obj, |v| *v), committed - if commit { delta } else { 0 });
            } else {
                drop(early);
                if commit { tx.commit().unwrap(); committed += delta; } else { tx.abort(); }
            }
            let now = mgr.snapshot();
            prop_assert_eq!(now.read(&obj, |v| *v), committed);
        }
        prop_assert_eq!(mgr.read_committed(&obj, |v| *v), committed);
    }

    /// Children of one top-level transaction write and then commit or
    /// abort; `snapshot_read` from inside the tree sees the base plus the
    /// committed children's deltas (retained by the parent, not yet
    /// published), while a detached snapshot still sees only the base.
    #[test]
    fn tx_snapshot_read_sees_ancestor_writes_but_not_aborted_ones(
        base in -10i64..11,
        script in proptest::collection::vec((-5i64..6, any::<bool>()), 1..16)
    ) {
        let mgr = TxManager::new(RtConfig::default());
        let obj = mgr.register("x", 0i64);
        let other = mgr.register("y", 99i64);
        // Establish a committed base version.
        let setup = mgr.begin();
        setup.write(&obj, |v| *v = base).unwrap();
        setup.commit().unwrap();

        let top = mgr.begin();
        let mut retained = 0i64;
        for (delta, commit) in script {
            let child = top.child().unwrap();
            child.write(&obj, |v| *v += delta).unwrap();
            // From inside the subtree: parent's retained writes visible.
            prop_assert_eq!(child.snapshot_read(&obj, |v| *v).unwrap(), base + retained + delta);
            if commit {
                child.commit().unwrap();
                retained += delta;
            } else {
                child.abort();
            }
            prop_assert_eq!(top.snapshot_read(&obj, |v| *v).unwrap(), base + retained);
            // An object the tree never touched reads lock-free committed
            // state even from inside the tree.
            prop_assert_eq!(top.snapshot_read(&other, |v| *v).unwrap(), 99);
            // Outside the tree: nothing published yet.
            prop_assert_eq!(mgr.snapshot().read(&obj, |v| *v), base);
        }
        top.commit().unwrap();
        prop_assert_eq!(mgr.snapshot().read(&obj, |v| *v), base + retained);
    }

    /// Savepoint partial aborts: rolled-back blocks vanish from the
    /// snapshot view, kept blocks persist, and only the final kept sum is
    /// ever published.
    #[test]
    fn savepoint_rollbacks_discard_exactly_the_rolled_back_deltas(
        blocks in proptest::collection::vec((1i64..5, any::<bool>()), 1..12)
    ) {
        let mgr = TxManager::new(RtConfig::default());
        let obj = mgr.register("x", 0i64);
        let top = mgr.begin();
        let mut scope = SavepointScope::new(&top).unwrap();
        let mut kept = 0i64;
        for (delta, keep) in blocks {
            scope.write(&obj, |v| *v += delta).unwrap();
            // The in-flight block is ancestral to the scope's current
            // child, so its snapshot view includes it...
            prop_assert_eq!(scope.tx().unwrap().snapshot_read(&obj, |v| *v).unwrap(), kept + delta);
            if keep {
                scope.savepoint().unwrap();
                kept += delta;
            } else {
                scope.rollback().unwrap();
            }
            prop_assert_eq!(scope.tx().unwrap().snapshot_read(&obj, |v| *v).unwrap(), kept);
            // ...while the world still sees nothing.
            prop_assert_eq!(mgr.snapshot().read(&obj, |v| *v), 0);
        }
        scope.finish().unwrap();
        top.commit().unwrap();
        prop_assert_eq!(mgr.snapshot().read(&obj, |v| *v), kept);
    }
}

/// Regression: a top-level committer whose user code panics inside the
/// commit window — here a durable object's `encode_wal`, run while its
/// version is encoded into the commit record — must not stall the
/// publication turnstile: later committers draw later tickets and would
/// spin forever waiting on the dead ticket. The ticket's drop guard
/// advances `commit_ts` even on unwind. The encode runs before the version
/// is published, so the object's committed state stays as it was, and
/// every reader of it — `read_committed`, a locking `Tx::read`, a
/// snapshot — agrees on that.
#[test]
fn panicking_publish_does_not_stall_later_committers() {
    use ntx_runtime::WalState;
    use std::sync::atomic::{AtomicBool, Ordering};

    static ARMED: AtomicBool = AtomicBool::new(false);

    #[derive(Clone, Debug)]
    struct Grenade(i64);
    impl WalState for Grenade {
        fn encode_wal(&self, out: &mut Vec<u8>) {
            assert!(!ARMED.load(Ordering::SeqCst), "armed encode");
            self.0.encode_wal(out);
        }
        fn decode_wal(bytes: &[u8]) -> Option<Self> {
            i64::decode_wal(bytes).map(Grenade)
        }
    }

    let dir = std::env::temp_dir().join(format!("ntx-snapshot-grenade-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mgr = TxManager::new(RtConfig {
        wal_dir: Some(dir.clone()),
        ..RtConfig::default()
    });
    let grenade = mgr.register_durable("grenade", Grenade(0));
    let obj = mgr.register("x", 0i64);

    // The write runs before arming; the commit-time encode runs after and
    // panics.
    let tx = mgr.begin();
    tx.write(&grenade, |g| g.0 = 1).unwrap();
    ARMED.store(true, Ordering::SeqCst);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tx.commit()));
    ARMED.store(false, Ordering::SeqCst);
    assert!(r.is_err(), "commit-time encode was expected to panic");

    let committed = mgr.read_committed(&grenade, |g| g.0);
    let reader = mgr.begin();
    let locked = reader.read(&grenade, |g| g.0).unwrap();
    reader.commit().unwrap();
    let snapshot = mgr.snapshot().read(&grenade, |g| g.0);
    assert_eq!(
        (committed, locked, snapshot),
        (0, 0, 0),
        "read_committed, Tx::read and a snapshot must agree"
    );

    // A later committer must still pass the turnstile (this used to hang
    // forever), and snapshots must see its publication.
    let tx2 = mgr.begin();
    tx2.write(&obj, |v| *v = 7).unwrap();
    tx2.commit().unwrap();
    assert_eq!(mgr.snapshot().read(&obj, |v| *v), 7);
    assert_eq!(mgr.read_committed(&obj, |v| *v), 7);
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot reads never enter the lock service, even beside writers on
/// the same objects. Held phase: with every object write-locked by an
/// open transaction, a batch of snapshot reads leaves `read_grants` and
/// `waits` exactly where they were. Racing phase: each writer thread owns
/// one object (so writers cannot block each other) while reader threads
/// snapshot-read all of them — any wait or read grant at the end would be
/// on the readers' account, and there is none.
#[test]
fn snapshot_readers_take_no_locks_and_cause_no_waits_beside_writers() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const ROUNDS: usize = 300;
    let mgr = TxManager::new(RtConfig::default());
    let objs: Vec<_> = (0..WRITERS)
        .map(|i| mgr.register(format!("o{i}"), 0i64))
        .collect();

    let holder = mgr.begin();
    for o in &objs {
        holder.write(o, |v| *v = -1).unwrap();
    }
    let before = mgr.stats();
    let snap = mgr.snapshot();
    for o in &objs {
        assert_eq!(snap.read(o, |v| *v), 0, "uncommitted write leaked");
    }
    drop(snap);
    let after = mgr.stats();
    assert_eq!(after.snapshot_reads, before.snapshot_reads + WRITERS as u64);
    assert_eq!(
        (after.read_grants, after.waits),
        (before.read_grants, before.waits)
    );
    holder.abort();

    let barrier = std::sync::Barrier::new(WRITERS + READERS);
    std::thread::scope(|s| {
        for o in &objs {
            let (mgr, barrier) = (&mgr, &barrier);
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    let tx = mgr.begin();
                    tx.write(o, |v| *v += 1).unwrap();
                    tx.commit().unwrap();
                }
            });
        }
        for _ in 0..READERS {
            let (mgr, objs, barrier) = (&mgr, &objs, &barrier);
            s.spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    let snap = mgr.snapshot();
                    for o in objs {
                        let v = snap.read(o, |v| *v);
                        assert!((0..=ROUNDS as i64).contains(&v));
                    }
                }
            });
        }
    });
    let end = mgr.stats();
    assert_eq!(
        end.snapshot_reads - after.snapshot_reads,
        (READERS * ROUNDS * WRITERS) as u64
    );
    assert_eq!((end.read_grants, end.waits), (0, 0), "{end:?}");
    assert_eq!(end.top_level_commits, (WRITERS * ROUNDS) as u64);
}

/// Regression: a long run of publishing commits with interleaved snapshot
/// reads must not grow version chains without bound. Incremental GC at
/// publish time plus an explicit `collect_garbage` once the last snapshot
/// drops must leave exactly one version.
#[test]
fn version_chains_stay_bounded_under_a_long_run() {
    let mgr = TxManager::new(RtConfig::default());
    let obj = mgr.register("x", 0i64);
    let mut peak = 0;
    for round in 0..600 {
        let tx = mgr.begin();
        tx.write(&obj, |v| *v += 1).unwrap();
        tx.commit().unwrap();
        // A short-lived snapshot every round, as a read-heavy workload
        // would produce.
        let snap = mgr.snapshot();
        assert_eq!(snap.read(&obj, |v| *v), round + 1);
        drop(snap);
        peak = peak.max(mgr.version_chain_len(&obj));
    }
    // Incremental GC runs at publish time with the pre-publish watermark,
    // so the chain stays within a small constant of the live set.
    assert!(peak <= 4, "version chain grew unbounded: peak {peak}");

    // A snapshot held across many commits pins its version...
    let pinned = mgr.snapshot();
    for _ in 0..50 {
        let tx = mgr.begin();
        tx.write(&obj, |v| *v += 1).unwrap();
        tx.commit().unwrap();
    }
    assert_eq!(pinned.read(&obj, |v| *v), 600);
    let with_pin = mgr.version_chain_len(&obj);
    drop(pinned);
    // ...and releasing it lets an explicit pass reclaim down to one.
    let freed = mgr.collect_garbage();
    assert!(freed > 0, "nothing reclaimed (chain was {with_pin})");
    assert_eq!(mgr.version_chain_len(&obj), 1);
    assert_eq!(mgr.snapshot().read(&obj, |v| *v), 650);
}
