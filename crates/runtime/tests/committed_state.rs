//! An object's committed state is kept once, as the head of its snapshot
//! chain, and a top-level commit moves its version there.
//!
//! The clone-count gate: a `Clone` type that counts its clones shows that
//! registering an object, committing a top-level transaction and replaying
//! the log copy no state at all; only a write copies, once, for the
//! writer's own version.

use std::cell::Cell;
use std::path::{Path, PathBuf};

use ntx_runtime::{FsyncPolicy, RtConfig, TxManager, WalState};

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ntx-committed-state-{}-{name}", std::process::id()));
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

thread_local! {
    /// Clones of [`Counted`] made on this thread. Every step the gate
    /// measures runs on the test's own thread.
    static CLONES: Cell<usize> = const { Cell::new(0) };
}

/// Clones of [`Counted`] on this thread since the last call.
fn take_clones() -> usize {
    CLONES.with(|c| c.replace(0))
}

/// An `i64` that counts its clones.
#[derive(Debug)]
struct Counted(i64);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted(self.0)
    }
}

impl WalState for Counted {
    fn encode_wal(&self, out: &mut Vec<u8>) {
        self.0.encode_wal(out);
    }
    fn decode_wal(bytes: &[u8]) -> Option<Self> {
        i64::decode_wal(bytes).map(Counted)
    }
}

#[test]
fn the_committed_state_is_never_copied() {
    const COMMITS: i64 = 3;
    let dir = tmp("clones");
    {
        let mgr = TxManager::new(durable_cfg(&dir));
        take_clones();
        let plain = mgr.register("plain", Counted(0));
        let obj = mgr.register_durable("c", Counted(0));
        assert_eq!(take_clones(), 0, "register");
        for v in 1..=COMMITS {
            let tx = mgr.begin();
            tx.write(&obj, |c| c.0 = v).unwrap();
            tx.write(&plain, |c| c.0 = v).unwrap();
            assert_eq!(take_clones(), 2, "a write copies the committed state once");
            tx.commit().unwrap();
            assert_eq!(take_clones(), 0, "a top-level commit moves its versions");
        }
        assert_eq!(mgr.read_committed(&obj, |c| c.0), COMMITS);
        assert_eq!(mgr.read_committed(&plain, |c| c.0), COMMITS);
        assert_eq!(take_clones(), 0);
    }
    let mgr = TxManager::new(durable_cfg(&dir));
    let _plain = mgr.register("plain", Counted(0));
    let obj = mgr.register_durable("c", Counted(0));
    take_clones();
    let report = mgr.recover().unwrap();
    assert_eq!(report.commits_redone, COMMITS as u64);
    assert_eq!(
        take_clones(),
        0,
        "recovery publishes each decoded state once"
    );
    assert_eq!(mgr.read_committed(&obj, |c| c.0), COMMITS);
    assert_eq!(mgr.snapshot().read(&obj, |c| c.0), COMMITS);
    let _ = std::fs::remove_dir_all(&dir);
}
