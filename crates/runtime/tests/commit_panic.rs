//! A top-level commit is all or nothing, even when a durable object's
//! `encode_wal` panics: every encode runs before the transaction commits,
//! and a panic there aborts the whole tree before it reaches the caller.
//! Nothing is published, nothing stays locked, and the log recovers the
//! same committed state.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ntx_runtime::{ObjRef, RtConfig, TxManager, WalState};

/// Set while `Grenade::encode_wal` must panic.
static ARMED: AtomicBool = AtomicBool::new(false);

/// A durable `i64` whose encode panics while [`ARMED`] is set.
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

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntx-commit-panic-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn manager(dir: &std::path::Path) -> TxManager {
    TxManager::new(RtConfig {
        wal_dir: Some(dir.to_path_buf()),
        wait_timeout: Duration::from_millis(100),
        ..RtConfig::default()
    })
}

/// Commit `tx` with the grenade armed; the commit must panic.
fn commit_armed(tx: ntx_runtime::Tx) {
    ARMED.store(true, Ordering::SeqCst);
    let r = catch_unwind(AssertUnwindSafe(|| tx.commit()));
    ARMED.store(false, Ordering::SeqCst);
    assert!(r.is_err(), "the commit-time encode was expected to panic");
}

/// Each object is free again: a new writer is granted at once (well
/// inside the 100 ms wait budget), and its abort leaves the value alone.
fn assert_unlocked<T: Clone + Send + Sync + 'static>(mgr: &TxManager, obj: &ObjRef<T>) {
    let tx = mgr.begin();
    assert!(
        tx.write(obj, |_| ()).is_ok(),
        "{} stayed locked",
        mgr.object_name(obj)
    );
    tx.abort();
}

/// A top writes durable `g` (object 0, whose encode panics) and plain `x`
/// (object 1). Before the encode moved out of the publish loop, `x` stayed
/// locked by the committed top for good and a new writer timed out.
#[test]
fn a_panicking_encode_leaves_no_object_locked() {
    let dir = wal_dir("one");
    let mgr = manager(&dir);
    let g = mgr.register_durable("g", Grenade(0));
    let x = mgr.register("x", 0i64);
    let tx = mgr.begin();
    tx.write(&g, |v| v.0 = 1).unwrap();
    tx.write(&x, |v| *v = 1).unwrap();
    commit_armed(tx);
    assert_unlocked(&mgr, &x);
    assert_unlocked(&mgr, &g);
    assert_eq!(mgr.read_committed(&x, |v| *v), 0);
    assert_eq!(mgr.read_committed(&g, |v| v.0), 0);
    assert_eq!(mgr.queued_waiters(), 0);
    assert_eq!(mgr.stats().top_level_commits, 0);
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two durable objects, the second's encode panicking after the first's
/// entry was written: neither is published or locked, in memory and after
/// recovery from the log.
#[test]
fn a_panicking_encode_publishes_nothing_in_memory_or_in_the_log() {
    let dir = wal_dir("two");
    let register = |mgr: &TxManager| {
        (
            mgr.register_durable("g1", 0i64),
            mgr.register_durable("g2", Grenade(0)),
        )
    };
    {
        let mgr = manager(&dir);
        let (g1, g2) = register(&mgr);
        let first = mgr.begin();
        first.write(&g1, |v| *v = 5).unwrap();
        first.commit().unwrap();
        let tx = mgr.begin();
        let child = tx.child().unwrap();
        child.write(&g1, |v| *v = 6).unwrap();
        child.write(&g2, |v| v.0 = 6).unwrap();
        child.commit().unwrap();
        commit_armed(tx);
        assert_unlocked(&mgr, &g1);
        assert_unlocked(&mgr, &g2);
        assert_eq!(mgr.read_committed(&g1, |v| *v), 5);
        assert_eq!(mgr.read_committed(&g2, |v| v.0), 0);
        assert_eq!(mgr.snapshot().read(&g1, |v| *v), 5);
        // The turnstile stays live: a later commit publishes and logs.
        let later = mgr.begin();
        later.write(&g2, |v| v.0 = 7).unwrap();
        later.commit().unwrap();
        assert_eq!(mgr.read_committed(&g2, |v| v.0), 7);
    }
    let mgr = manager(&dir);
    let (g1, g2) = register(&mgr);
    mgr.recover().unwrap();
    assert_eq!(
        mgr.read_committed(&g1, |v| *v),
        5,
        "g1 recovered as committed"
    );
    assert_eq!(
        mgr.read_committed(&g2, |v| v.0),
        7,
        "g2 recovered as committed"
    );
    assert_unlocked(&mgr, &g1);
    drop(mgr);
    let _ = std::fs::remove_dir_all(&dir);
}
