//! Integration test: the runtime conforms to the formal model.
//!
//! Random interleaved workloads run against the real `TxManager`; every
//! trace is rebuilt as a schedule of the paper's R/W Locking system and
//! must (a) replay — the runtime granted exactly the locks `M(X)` grants
//! and returned exactly the values the model computes — and (b) pass the
//! Theorem 34 serial-correctness checker.
//!
//! The driver keeps several top-level transactions open at once in one
//! thread and interleaves their operations; blocked operations time out
//! quickly and simply are not recorded, exactly like an access that never
//! becomes enabled in the model.
//!
//! Exclusive locking runs as its callers run it: every read is issued as
//! an add of 0, a write whose effect only reads (the paper's §4.3 remark).

use std::time::Duration;

use ntx_conform::{check_trace, ConformanceSession, TracedTx, TranslateOptions};
use ntx_runtime::{RtConfig, TxError, TxManager};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct OpenTx {
    node: TracedTx,
    children: Vec<OpenTx>,
}

fn drive(
    session: &ConformanceSession,
    seed: u64,
    steps: usize,
    objects: usize,
    reads_as_writes: bool,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut open: Vec<OpenTx> = Vec::new();

    for _ in 0..steps {
        let choice = rng.gen_range(0..100);
        match choice {
            // Begin a new top-level transaction.
            0..=14 => {
                if open.len() < 4 {
                    open.push(OpenTx {
                        node: session.begin(),
                        children: Vec::new(),
                    });
                }
            }
            // Begin a child of a random open transaction.
            15..=29 => {
                if let Some(top) = pick_mut(&mut open, &mut rng) {
                    let holder = descend_mut(top, &mut rng);
                    if holder.children.len() < 3 {
                        if let Ok(c) = session.child(&holder.node) {
                            holder.children.push(OpenTx {
                                node: c,
                                children: Vec::new(),
                            });
                        }
                    }
                }
            }
            // Read or add somewhere in an open subtree.
            30..=74 => {
                if let Some(top) = pick_mut(&mut open, &mut rng) {
                    let t = leaf_mut(top, &mut rng);
                    let obj = rng.gen_range(0..objects);
                    let r = if rng.gen_bool(0.5) {
                        if reads_as_writes {
                            session.add(&t.node, obj, 0).map(|_| ())
                        } else {
                            session.read(&t.node, obj).map(|_| ())
                        }
                    } else {
                        session.add(&t.node, obj, rng.gen_range(-3..4)).map(|_| ())
                    };
                    match r {
                        Ok(()) | Err(TxError::Timeout) | Err(TxError::Deadlock) => {}
                        Err(TxError::Doomed) | Err(TxError::AlreadyFinished) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
            // Commit the deepest child of some transaction (children must
            // return before parents).
            75..=94 => {
                if !open.is_empty() {
                    let idx = rng.gen_range(0..open.len());
                    let finished =
                        commit_or_abort_deepest(session, &mut open[idx], rng.gen_bool(0.85));
                    if finished {
                        open.swap_remove(idx);
                    }
                }
            }
            // Abort a whole open top-level transaction.
            _ => {
                if !open.is_empty() {
                    let idx = rng.gen_range(0..open.len());
                    let top = open.swap_remove(idx);
                    session.abort(&top.node);
                    // Descendant handles are dropped without events — the
                    // subtree abort covers them.
                    drop_silently(top);
                }
            }
        }
    }
    // Unwind everything still open.
    while let Some(mut top) = open.pop() {
        while !commit_or_abort_deepest(session, &mut top, true) {}
        // `commit_or_abort_deepest` returning true means `top` itself
        // returned.
    }
}

fn pick_mut<'a>(open: &'a mut [OpenTx], rng: &mut StdRng) -> Option<&'a mut OpenTx> {
    if open.is_empty() {
        None
    } else {
        let i = rng.gen_range(0..open.len());
        Some(&mut open[i])
    }
}

/// Walk down randomly, returning some node of the subtree (possibly the
/// root of it).
fn descend_mut<'a>(t: &'a mut OpenTx, rng: &mut StdRng) -> &'a mut OpenTx {
    if t.children.is_empty() || rng.gen_bool(0.5) {
        return t;
    }
    let i = rng.gen_range(0..t.children.len());
    descend_mut(&mut t.children[i], rng)
}

/// Walk to a random node (like `descend_mut`, used for access placement).
fn leaf_mut<'a>(t: &'a mut OpenTx, rng: &mut StdRng) -> &'a mut OpenTx {
    descend_mut(t, rng)
}

/// Commit (or abort) the deepest open descendant of `t`. Returns `true`
/// when `t` itself returned.
fn commit_or_abort_deepest(session: &ConformanceSession, t: &mut OpenTx, commit: bool) -> bool {
    if let Some(last) = t.children.last_mut() {
        if commit_or_abort_deepest(session, last, commit) {
            t.children.pop();
        }
        return false;
    }
    if commit {
        match session.commit(&t.node) {
            Ok(()) => {}
            Err(_) => session.abort(&t.node),
        }
    } else {
        session.abort(&t.node);
    }
    true
}

fn drop_silently(_t: OpenTx) {
    // Handles just drop; their runtime nodes were already aborted via the
    // subtree abort, and `Tx::drop` sees a non-active state.
}

fn run_conformance(reads_as_writes: bool, seeds: std::ops::Range<u64>, steps: usize) {
    for seed in seeds {
        let mgr = TxManager::new(RtConfig {
            wait_timeout: Duration::from_millis(15),
            ..Default::default()
        });
        let session = ConformanceSession::new(mgr, 3);
        drive(&session, seed, steps, 3, reads_as_writes);
        let trace = session.finish();
        let report = check_trace(
            &trace,
            TranslateOptions {
                exclusive: reads_as_writes,
                footnote8: false,
            },
        );
        assert!(
            report.ok(),
            "seed {seed} reads_as_writes {reads_as_writes}: schedule_error={:?} violations={:?}\ntrace: {:?}",
            report.schedule_error,
            report.correctness_violations,
            trace.events
        );
    }
}

#[test]
fn random_moss_traces_conform_to_the_model() {
    run_conformance(false, 0..25, 120);
}

#[test]
fn random_exclusive_traces_conform_to_the_model() {
    run_conformance(true, 100..115, 120);
}

#[test]
fn long_trace_conforms() {
    run_conformance(false, 1000..1002, 600);
}
