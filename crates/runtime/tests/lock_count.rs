//! The lock-count gate: the mutexes one transaction takes, counted per
//! thread by the `--cfg ntx_count` build of the sync shim
//! (`crates/runtime/src/sync.rs`), keyed by the type each mutex guards.
//! Other builds compile this file to nothing. Run it with
//!
//! ```text
//! RUSTFLAGS="--cfg ntx_count" cargo test -p ntx-runtime --test lock_count
//! ```
//!
//! An N1 — a top, one child that reads `a` and writes `b`, two commits —
//! takes at most nine mutexes: the two accesses' slot mutexes and the
//! child's book (its touched set), the top's book at the child's creation
//! and at its commit (folding the committed child in), and the top
//! commit's two slot mutexes. A child's commit takes none while its top
//! has no queued request: its locks move to its parent where they lie.
//!
//! The same build counts the waiter-queue entries each release scan
//! inspects (`lock_count::take_inspected`). A scan does work for the
//! waiters it resolves, not for the depth of the queue: behind a holder
//! and sixteen queued writers, the holder's commit, the granted writer's
//! apply and a seventeenth request's enqueue each inspect at most two.

#![cfg(ntx_count)]

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use ntx_runtime::{lock_count, AccessFuture, ObjRef, RtConfig, Tx, TxManager};

/// Acquisitions of mutexes guarding a type whose name contains `kind`.
fn of(counts: &BTreeMap<&'static str, u64>, kind: &str) -> u64 {
    counts
        .iter()
        .filter(|(name, _)| name.contains(kind))
        .map(|(_, n)| n)
        .sum()
}

fn n1(mgr: &TxManager, a: &ObjRef<i64>, b: &ObjRef<i64>) {
    let top = mgr.begin();
    let child = top.child().unwrap();
    child.read(a, |v| *v).unwrap();
    child.write(b, |v| *v += 1).unwrap();
    child.commit().unwrap();
    top.commit().unwrap();
}

fn setup() -> (TxManager, ObjRef<i64>, ObjRef<i64>) {
    let mgr = TxManager::new(RtConfig::default());
    let a = mgr.register("a", 0i64);
    let b = mgr.register("b", 0i64);
    // Warm up: first-use allocations and lazily built state stay out of
    // the count.
    n1(&mgr, &a, &b);
    (mgr, a, b)
}

#[test]
fn an_n1_takes_at_most_nine_mutexes() {
    let (mgr, a, b) = setup();
    lock_count::take();
    n1(&mgr, &a, &b);
    let counts = lock_count::take();
    let total: u64 = counts.values().sum();
    eprintln!("N1: {total} mutexes {counts:?}");
    assert_eq!(of(&counts, "ObjectInner"), 4, "slot mutexes: {counts:?}");
    assert!(total <= 9, "an N1 took {total} mutexes: {counts:?}");
    assert_eq!(mgr.read_committed(&b, |v| *v), 2);
}

#[test]
fn a_child_commit_with_no_same_top_waiter_takes_no_slot_mutex() {
    let (mgr, a, b) = setup();
    let top = mgr.begin();
    let child: Tx = top.child().unwrap();
    child.read(&a, |v| *v).unwrap();
    child.write(&b, |v| *v += 1).unwrap();
    lock_count::take();
    child.commit().unwrap();
    let counts = lock_count::take();
    eprintln!("child commit: {counts:?}");
    assert_eq!(of(&counts, "ObjectInner"), 0, "slot mutexes: {counts:?}");
    top.commit().unwrap();
    assert_eq!(mgr.read_committed(&b, |v| *v), 2);
}

/// Poll a write request once; `true` while it waits in the queue.
fn queued(fut: &mut Pin<Box<AccessFuture<()>>>) -> bool {
    let mut cx = Context::from_waker(Waker::noop());
    fut.as_mut().poll(&mut cx).is_pending()
}

#[test]
fn a_release_scan_inspects_only_the_waiters_it_resolves() {
    let mgr = TxManager::new(RtConfig {
        wait_timeout: Duration::from_secs(60),
        ..Default::default()
    });
    let x = mgr.register("x", 0i64);
    let holder = mgr.begin();
    holder.write(&x, |v| *v += 1).unwrap();
    let tops: Vec<Tx> = (0..17).map(|_| mgr.begin()).collect();
    let mut futs: Vec<Pin<Box<AccessFuture<()>>>> = tops
        .iter()
        .map(|t| Box::pin(t.write_async(&x, |v| *v += 1)))
        .collect();
    for f in &mut futs[..16] {
        assert!(queued(f));
    }
    assert_eq!(mgr.queued_waiters(), 16);

    lock_count::take_inspected();
    assert!(queued(&mut futs[16]));
    let enqueue = lock_count::take_inspected();
    holder.commit().unwrap();
    let commit = lock_count::take_inspected();
    let mut cx = Context::from_waker(Waker::noop());
    assert_eq!(futs[0].as_mut().poll(&mut cx), Poll::Ready(Ok(())));
    let apply = lock_count::take_inspected();
    eprintln!("queue entries inspected: enqueue {enqueue}, holder commit {commit}, apply {apply}");
    assert!(enqueue <= 1, "a 17th request's enqueue inspected {enqueue}");
    assert!(commit <= 2, "the holder's commit inspected {commit}");
    assert!(apply <= 1, "the granted writer's apply inspected {apply}");

    assert_eq!(mgr.queued_waiters(), 16);
    drop(futs);
    for t in &tops {
        t.abort();
    }
    assert_eq!(mgr.queued_waiters(), 0);
    assert_eq!(mgr.read_committed(&x, |v| *v), 1);
}
