//! Heap allocations per transaction, and heap bytes per object, counted by
//! a counting global allocator.
//!
//! A transaction's bookkeeping — its ancestor path, touched set and list of
//! live children — lives inline in its `TxNode`, and a version is one heap
//! block that a top-level commit links into the snapshot chain as it is.
//! What is left is the work itself: one `TxNode` per transaction and one
//! version per first write; a commit allocates nothing. These tests pin
//! that count, that a queued request allocates its queue node and nothing
//! else — no wait-for bookkeeping, no handoff, no wake — and what an
//! object costs: its slot, its slab entry, its name's bytes and its
//! versions.
//!
//! Counts are per thread (`const` thread-locals, no lazy init and no
//! destructor, so the allocator can use them): libtest runs the tests of
//! this file concurrently, and each measures only its own thread. Every
//! measurement follows a warm-up on the same objects, so the objects' own
//! lock tables have grown to size and the thread's first-use state exists.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::future::Future;
use std::task::{Context, Poll, Waker};

use ntx_runtime::{ObjRef, RtConfig, Tx, TxManager};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested and not yet freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation of `grow` more live bytes (a free is a negative
/// `grow` and no allocation).
fn note(allocs: u64, grow: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| n.set(n.get() + grow));
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).expect("an allocation's size fits i64")
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are plain thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, bytes(layout.size()));
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, bytes(layout.size()));
        // SAFETY: the caller's contract for `alloc_zeroed`, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, bytes(new_size) - bytes(layout.size()));
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -bytes(layout.size()));
        // SAFETY: the caller's contract for `dealloc`, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The most allocations any of eight runs of `f` makes, after eight
/// unmeasured runs.
fn steady_allocs(mut f: impl FnMut()) -> u64 {
    for _ in 0..8 {
        f();
    }
    (0..8).map(|_| allocs_in(&mut f)).max().unwrap()
}

fn setup(objects: usize) -> (TxManager, Vec<ObjRef<i64>>) {
    let mgr = TxManager::new(RtConfig::default());
    let objs = (0..objects)
        .map(|i| mgr.register(format!("o{i}"), 0i64))
        .collect();
    (mgr, objs)
}

/// The benchmark's `N1` body: read `a`, write `b`, in a child of `parent`;
/// the child aborts first when `abort_first` is set, then reruns.
fn n1_child(parent: &Tx, a: &ObjRef<i64>, b: &ObjRef<i64>, abort_first: bool) {
    if abort_first {
        let child = parent.child().unwrap();
        child.read(a, |v| *v).unwrap();
        child.write(b, |v| *v += 1).unwrap();
        child.abort();
    }
    let child = parent.child().unwrap();
    child.read(a, |v| *v).unwrap();
    child.write(b, |v| *v += 1).unwrap();
    child.commit().unwrap();
}

/// `N1`: begin, child, read, write, child commit, top commit. Two
/// `TxNode`s and the write's version, which the top commit publishes.
#[test]
fn n1_allocates_three_times() {
    let (mgr, objs) = setup(2);
    let n = steady_allocs(|| {
        let top = mgr.begin();
        n1_child(&top, &objs[0], &objs[1], false);
        top.commit().unwrap();
    });
    assert!(n <= 3, "N1 made {n} heap allocations, want <= 3");
}

/// `N1` whose first child aborts and is rerun: one more node and one more
/// undo version, and the abort itself allocates nothing.
#[test]
fn n1_with_an_aborted_first_child_allocates_six_times() {
    let (mgr, objs) = setup(2);
    let n = steady_allocs(|| {
        let top = mgr.begin();
        n1_child(&top, &objs[0], &objs[1], true);
        top.commit().unwrap();
    });
    assert!(n <= 6, "N1 with a partial abort made {n}, want <= 6");
}

/// `N1` at the bottom of a depth-4 chain: every level is one node, and
/// each child commit passes the locks up without allocating.
#[test]
fn depth_four_chain_allocates_seven_times() {
    let (mgr, objs) = setup(2);
    let n = steady_allocs(|| {
        let top = mgr.begin();
        let c1 = top.child().unwrap();
        let c2 = c1.child().unwrap();
        let c3 = c2.child().unwrap();
        n1_child(&c3, &objs[0], &objs[1], false);
        assert_eq!(c3.depth(), 3);
        for c in [c3, c2, c1] {
            c.commit().unwrap();
        }
        top.commit().unwrap();
    });
    assert!(n <= 7, "a depth-4 chain made {n}, want <= 7");
}

/// Commit alone allocates nothing: not a child commit over up to four
/// touched objects, and not a top-level commit, which links each version
/// its tree wrote into the snapshot chain as it is.
#[test]
fn commits_allocate_nothing() {
    let (mgr, objs) = setup(4);
    for writes in 0..=4 {
        let mut child_commit = 0;
        let mut top_commit = 0;
        steady_allocs(|| {
            let top = mgr.begin();
            let child = top.child().unwrap();
            for (i, o) in objs.iter().enumerate() {
                if i < writes {
                    child.write(o, |v| *v += 1).unwrap();
                } else {
                    child.read(o, |v| *v).unwrap();
                }
            }
            child_commit = allocs_in(|| child.commit().unwrap());
            top_commit = allocs_in(|| top.commit().unwrap());
        });
        assert_eq!(child_commit, 0, "child commit with {writes} writes");
        assert_eq!(top_commit, 0, "top commit with {writes} writes");
    }
}

/// One round of the wait path on `x`: a writer holds it, three other tops
/// queue on it through `write_async`, and the holder's commit hands it to
/// the first, whose commit hands it to the next. Returns the allocations of
/// polling the three into the queue, of the three polls that find their
/// grant, and of the holder's commit.
fn wait_path(mgr: &TxManager, x: &ObjRef<i64>) -> (u64, u64, u64) {
    let holder = mgr.begin();
    holder.write(x, |v| *v += 1).unwrap();
    let tops: Vec<Tx> = (0..3).map(|_| mgr.begin()).collect();
    let mut futures: Vec<_> = tops
        .iter()
        .map(|t| Box::pin(t.write_async(x, |v| *v += 1)))
        .collect();
    let mut cx = Context::from_waker(Waker::noop());
    let enqueue = allocs_in(|| {
        for f in &mut futures {
            assert!(f.as_mut().poll(&mut cx).is_pending(), "x is held");
        }
    });
    let commit = allocs_in(|| holder.commit().unwrap());
    let mut grants = 0;
    for (t, f) in tops.iter().zip(&mut futures) {
        grants += allocs_in(|| {
            let granted = f.as_mut().poll(&mut cx);
            assert!(
                matches!(granted, Poll::Ready(Ok(()))),
                "handed off in order"
            );
        });
        t.commit().unwrap();
    }
    (enqueue, grants, commit)
}

/// The wait path allocates one queue node per waiter: entering the queue
/// and the wait-for graph, the handoffs, and the wakes cost nothing more.
#[test]
fn the_wait_path_allocates_only_its_queue_nodes() {
    let (mgr, objs) = setup(1);
    for _ in 0..8 {
        wait_path(&mgr, &objs[0]);
    }
    let (enqueue, grants, commit) = wait_path(&mgr, &objs[0]);
    assert!(
        enqueue <= 3,
        "three waiters' enqueue made {enqueue}, want <= 3"
    );
    assert_eq!(grants, 0, "the three grant polls");
    assert!(commit <= 4, "the holder's commit made {commit}, want <= 4");
    assert_eq!(mgr.read_committed(&objs[0], |v| *v), 4 * 9);
}

/// Live bytes `f` leaves allocated on this thread.
fn live_bytes_in<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let before = LIVE.with(Cell::get);
    let r = f();
    (r, LIVE.with(Cell::get) - before)
}

/// What a registered `i64` object costs in requested heap bytes: its slot,
/// its share of the slab's index and of the name table, and its genesis
/// version; then, once an `N1` has read and written it, one more version
/// (the published one; the genesis version below it is still the
/// collector's cut). The lock table holds its one version and two readers
/// itself, so it keeps no buffer of its own. Objects are counted at the
/// benchmark's size, 4096.
#[test]
fn an_object_costs_its_slot_and_versions() {
    const OBJECTS: usize = 4096;
    let mgr = TxManager::new(RtConfig::default());
    let names: Vec<String> = (0..OBJECTS).map(|i| format!("o{i}")).collect();
    let mut objs = Vec::with_capacity(OBJECTS);
    let ((), registered) = live_bytes_in(|| {
        objs.extend(names.iter().map(|name| mgr.register(name.as_str(), 0i64)));
    });
    let ((), used) = live_bytes_in(|| {
        for o in &objs {
            let top = mgr.begin();
            n1_child(&top, o, o, false);
            top.commit().unwrap();
        }
    });
    let per_object = |n: i64| n as f64 / OBJECTS as f64;
    let (at_registration, after_n1) = (per_object(registered), per_object(registered + used));
    eprintln!("bytes per object: {at_registration:.1} registered, {after_n1:.1} after an N1");
    assert!(
        at_registration <= 256.0,
        "a registered object costs {at_registration:.1} bytes, want <= 256"
    );
    assert!(
        after_n1 <= 288.0,
        "an object an N1 read and wrote costs {after_n1:.1} bytes, want <= 288"
    );
    assert_eq!(mgr.read_committed(&objs[OBJECTS - 1], |v| *v), 1);
}
