//! Timestamped multi-version chains for lock-free snapshot reads.
//!
//! Each [`crate::object::ObjectSlot`] carries a [`SnapshotCell`]: a singly
//! linked chain of committed versions, newest first, each stamped with the
//! commit timestamp that published it. Readers traverse the chain with no
//! lock at all; publishers and the garbage collector mutate it only while
//! holding the slot mutex, so the *only* concurrency the cell has to
//! survive is lock-free readers racing one serialized writer.
//!
//! The protocol (orderings are all `SeqCst`; the full argument lives in
//! DESIGN.md §"MVCC snapshot reads"):
//!
//! * **Publish** (under the slot mutex): stamp the committing version's
//!   block with its timestamp, point its `next` at the current head, then
//!   store it as the new head. A reader sees either
//!   the old head or the new one — never a torn chain, because `next` is
//!   written before the head pointer is released. The head is the object's
//!   committed state: the lock table reads it through [`SnapshotCell::head`]
//!   while it holds the slot mutex, so no publish can move it meanwhile.
//! * **Read**: increment `pins` *first*, then choose the snapshot
//!   timestamp `S`, then load the head and walk `next` until a node with
//!   `ts <= S` appears. The cell is created with a `ts = 0` genesis node,
//!   and nodes at or below the GC watermark are never unlinked while
//!   `pins != 0`, so the walk always terminates at a live node.
//! * **Collect** (under the slot mutex): given a watermark `W` no greater
//!   than any live snapshot's timestamp, find the newest node with
//!   `ts <= W` (the *cut* — every snapshot still needs it, nothing below
//!   it is reachable). If `pins == 0`, unlink everything below the cut and
//!   hand it back, to be freed once the mutex is down; if any reader is
//!   pinned, skip entirely and let a later pass reclaim. `pins == 0`
//!   observed after the watermark was fixed means
//!   every in-flight reader has already unpinned, and any reader that pins
//!   afterwards picks `S >= W` (S is chosen after pinning, from a clock
//!   that is already `>= W`), so it stops at or above the cut.
//!
//! A version is one heap block ([`Version`]): the link, the timestamp and
//! the state together. A write allocates it when it clones the state it
//! will change, the version lives on the object's lock table while it is
//! uncommitted, and a top-level commit links that same block into the
//! chain, so publishing allocates nothing. Freeing a version runs its
//! state's `Drop`, which is user code: every path that unlinks versions
//! under the slot mutex hands them back as a [`Detached`] list, threaded
//! through the same link field, to be freed once the mutex is down.
use std::any::Any;
use std::ptr::{self, NonNull};

use crate::object::{AnyState, ObjectInner};
use crate::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// The fixed part of a version block, at its start.
#[repr(C)]
struct Header {
    /// The commit timestamp, set once by [`SnapshotCell::publish`] before
    /// the block becomes reachable; meaningless while uncommitted.
    ts: u64,
    /// Next-older version on a chain (null at genesis), or the next block
    /// of a [`Detached`] list.
    next: AtomicPtr<Header>,
    /// The block as its concrete type, behind a `dyn` pointer: the one
    /// place the state's type is remembered.
    erase: fn(NonNull<Header>) -> *mut Block<dyn AnyState>,
}

/// A version block: the header, then the state.
#[repr(C)]
struct Block<S: ?Sized> {
    header: Header,
    state: S,
}

/// [`Header::erase`] for a block holding a `T`: a pointer cast, which
/// only a header of a `Block<T>` makes meaningful.
fn erase<T: AnyState>(h: NonNull<Header>) -> *mut Block<dyn AnyState> {
    h.as_ptr().cast::<Block<T>>() as *mut Block<dyn AnyState>
}

/// One owned version: a thin pointer to its block. Uncommitted, it sits on
/// an object's lock table; published, its block belongs to the
/// [`SnapshotCell`] it was linked into.
pub(crate) struct Version(NonNull<Header>);

// SAFETY: a `Version` owns its block alone, and the state in it is
// `AnyState` (`Send + Sync`); the header's fields are plain data and an
// atomic.
unsafe impl Send for Version {}
// SAFETY: `&Version` hands out only `&dyn AnyState`, which is `Sync`.
unsafe impl Sync for Version {}

impl Version {
    /// A new block holding `state`: the version's one allocation.
    pub(crate) fn new<T: AnyState>(state: T) -> Version {
        let block = Box::new(Block {
            header: Header {
                ts: 0,
                next: AtomicPtr::new(ptr::null_mut()),
                erase: erase::<T>,
            },
            state,
        });
        // `Block` is `repr(C)` with the header first, so the block's
        // address is its header's.
        Version(NonNull::from(Box::leak(block)).cast())
    }

    /// The block as its concrete type.
    fn block(&self) -> *mut Block<dyn AnyState> {
        // SAFETY: `self.0` is the header of the live block this owns, made
        // by `Version::new`, whose `erase` is the one for its type.
        (unsafe { (*self.0.as_ptr()).erase })(self.0)
    }

    pub(crate) fn state(&self) -> &dyn AnyState {
        // SAFETY: the block is live while `self` owns it; the borrow is
        // tied to `&self`.
        unsafe { &(*self.block()).state }
    }

    pub(crate) fn state_mut(&mut self) -> &mut dyn AnyState {
        // SAFETY: as in `state`; `&mut self` makes the borrow unique.
        unsafe { &mut (*self.block()).state }
    }

    /// Give up ownership of the block (to a chain or a [`Detached`] list).
    fn into_raw(self) -> NonNull<Header> {
        let raw = self.0;
        std::mem::forget(self);
        raw
    }
}

impl Drop for Version {
    fn drop(&mut self) {
        // SAFETY: the block was allocated as a `Box<Block<T>>` in
        // `Version::new`, and `erase` rebuilds exactly that box's pointer;
        // this owner frees it once.
        drop(unsafe { Box::from_raw(self.block()) });
    }
}

/// The state in the block whose header is `node`.
///
/// # Safety
///
/// `node` is the header of a live block made by `Version::new`, and the
/// block stays live for `'a`.
// SAFETY: every caller reaches `node` from a chain head under a reader pin
// or the slot mutex, which keep it live for the borrow.
unsafe fn state_at<'a>(node: *mut Header) -> &'a dyn AnyState {
    // SAFETY: per the contract, `node` is a live block's header, so it is
    // non-null and its `erase` is the one for its type.
    unsafe { &(*((*node).erase)(NonNull::new_unchecked(node))).state }
}

/// Per-object chain of committed versions plus the reader pin count.
///
/// Lives on the `ObjectSlot` *outside* the slot mutex: readers touch only
/// this cell, writers touch it only while holding the mutex.
pub(crate) struct SnapshotCell {
    /// Newest committed version. Never null after construction.
    head: AtomicPtr<Header>,
    /// Number of readers currently traversing the chain.
    pins: AtomicU64,
}

// SAFETY: the raw version pointers are owned by the cell and only ever
// point to blocks whose payloads are `AnyState` (`Send + Sync`); all
// mutation is serialized by the slot mutex and reads are guarded by the
// pin/watermark protocol above.
unsafe impl Send for SnapshotCell {}
// SAFETY: shared references only expose the pin/watermark-guarded read
// protocol; see the `Send` argument above.
unsafe impl Sync for SnapshotCell {}

impl SnapshotCell {
    /// A fresh cell whose genesis version (`ts = 0`) is `initial`.
    pub(crate) fn new(initial: Version) -> SnapshotCell {
        SnapshotCell {
            head: AtomicPtr::new(initial.into_raw().as_ptr()),
            pins: AtomicU64::new(0),
        }
    }

    /// Publish `version` as the one committed at `ts`: link its block in,
    /// allocating nothing.
    ///
    /// Caller must hold the slot mutex (publishers and the collector are
    /// serialized per object) and must allocate `ts` from the manager's
    /// monotone clock, so timestamps along the chain strictly decrease.
    pub(crate) fn publish(&self, ts: u64, version: Version) {
        let old = self.head.load(Ordering::SeqCst);
        debug_assert!(
            // SAFETY: `old` is the current head: non-null by construction
            // and not freed while we hold the slot mutex.
            unsafe { (*old).ts } < ts,
            "version timestamps must be strictly monotone"
        );
        let node = version.into_raw().as_ptr();
        // SAFETY: the block is ours alone until the head store below makes
        // it reachable; that store publishes these writes.
        unsafe {
            (*node).ts = ts;
            (*node).next.store(old, Ordering::SeqCst);
        }
        self.head.store(node, Ordering::SeqCst);
    }

    /// The newest committed version: the object's committed state.
    ///
    /// `_held` is the object's lock table, reachable only through the slot
    /// mutex's guard: it shows the mutex is held and bounds the borrow to
    /// the guard. Only a publish moves the head, under that mutex, and the
    /// caller publishes nothing while it holds the borrow; a collect frees
    /// only versions below the head. The version is shared with lock-free
    /// readers, so it is never handed out mutably.
    pub(crate) fn head<'a>(&'a self, _held: &'a ObjectInner) -> &'a dyn AnyState {
        // SAFETY: the head is non-null by construction and, per the
        // contract above, neither moved nor freed while the borrow lives.
        unsafe { state_at(self.head.load(Ordering::SeqCst)) }
    }

    /// Read the newest version with `ts <= S` without taking any lock.
    ///
    /// The snapshot timestamp is produced by `choose_ts` *after* the pin is
    /// taken — for an ephemeral read that loads the global commit clock,
    /// this is what guarantees the chosen version cannot be collected
    /// underneath the walk (see the module docs). Returns the closure's
    /// result and the timestamp of the version it saw.
    pub(crate) fn read<R>(
        &self,
        choose_ts: impl FnOnce() -> u64,
        f: impl FnOnce(&dyn Any) -> R,
    ) -> (u64, R) {
        // Unpin on scope exit *including unwind*: a panic in `f` (e.g. a
        // failed downcast `expect` in the caller's closure) must not leak
        // the pin, or the collector would skip this cell forever and its
        // chain would grow without bound.
        struct Unpin<'a>(&'a AtomicU64);
        impl Drop for Unpin<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        self.pins.fetch_add(1, Ordering::SeqCst);
        let _pin = Unpin(&self.pins);
        let s = choose_ts();
        let mut node = self.head.load(Ordering::SeqCst);
        // SAFETY: `node` starts at the head (non-null) and follows `next`
        // links; the pin taken above keeps every node with `ts <= S`
        // reachable from the head alive (the collector skips the cell
        // while `pins != 0` and never unlinks nodes above its watermark,
        // which is <= S for any timestamp chosen after pinning).
        unsafe {
            while (*node).ts > s {
                let next = (*node).next.load(Ordering::SeqCst);
                debug_assert!(!next.is_null(), "walked past the genesis version");
                node = next;
            }
            let out = f(state_at(node).as_any());
            ((*node).ts, out)
        }
    }

    /// Detach the versions no live snapshot can reach. Caller must hold
    /// the slot mutex and pass a `watermark` that is `<=` every live
    /// snapshot timestamp and `<=` the current commit clock.
    ///
    /// Returns the detached tail, which frees the versions when it drops —
    /// after the caller lets go of the slot mutex, so no state's `Drop`
    /// (user code, which may take that mutex) runs under it. The tail is
    /// empty when a pinned reader made this pass skip (a later publish or
    /// explicit collection retries).
    pub(crate) fn collect(&self, watermark: u64) -> Detached {
        if self.pins.load(Ordering::SeqCst) != 0 {
            return Detached::default();
        }
        let mut cut = self.head.load(Ordering::SeqCst);
        // SAFETY: mutex held — no concurrent publish/collect; the chain is
        // intact and ends at the genesis node, so the walk terminates.
        unsafe {
            while (*cut).ts > watermark {
                let next = (*cut).next.load(Ordering::SeqCst);
                if next.is_null() {
                    // The chain is all above the watermark except genesis.
                    return Detached::default();
                }
                cut = next;
            }
            // `cut` is the newest node with ts <= watermark: still needed.
            // Everything strictly older is unreachable by any live or
            // future snapshot (pins was 0 after the watermark was fixed,
            // and no new reader can pass the cut link); detach it.
            Detached((*cut).next.swap(ptr::null_mut(), Ordering::SeqCst))
        }
    }

    /// Current chain length, genesis included (diagnostics and GC
    /// regression tests).
    ///
    /// Caller must hold the slot mutex (or otherwise be serialized with
    /// `publish`/`collect`). A pin would *not* make this safe: the pin
    /// protocol only protects nodes at or above a concurrently fixed GC
    /// watermark, and this walk deliberately continues below the cut all
    /// the way to genesis — exactly the suffix a racing `collect` that
    /// observed `pins == 0` before we arrived may be freeing.
    pub(crate) fn chain_len(&self) -> usize {
        let mut n = 0;
        self.walk(|_, _| n += 1);
        n
    }

    /// `f` of every version on the chain as `(ts, f(state))` pairs, oldest
    /// first (genesis included). Used by the kill-and-recover differential
    /// check to pin down the committed value at an arbitrary recovered
    /// timestamp.
    ///
    /// Caller must hold the slot mutex — like [`SnapshotCell::chain_len`],
    /// this walk deliberately crosses the GC cut down to genesis, which the
    /// pin protocol alone does not protect.
    pub(crate) fn history<R>(&self, mut f: impl FnMut(&dyn AnyState) -> R) -> Vec<(u64, R)> {
        let mut out = Vec::new();
        self.walk(|ts, st| out.push((ts, f(st))));
        out.reverse();
        out
    }

    /// Visit the whole chain, newest first. Caller serializes with
    /// `publish`/`collect` (see [`SnapshotCell::chain_len`]).
    fn walk(&self, mut f: impl FnMut(u64, &dyn AnyState)) {
        let mut node = self.head.load(Ordering::SeqCst);
        // SAFETY: slot mutex held by the caller — no concurrent
        // publish/collect, chain intact to genesis, nothing freed mid-walk.
        unsafe {
            while !node.is_null() {
                f((*node).ts, state_at(node));
                node = (*node).next.load(Ordering::SeqCst);
            }
        }
    }
}

impl Drop for SnapshotCell {
    fn drop(&mut self) {
        drop(Detached(self.head.swap(ptr::null_mut(), Ordering::SeqCst)));
    }
}

/// Versions unlinked under a slot mutex — a tail [`SnapshotCell::collect`]
/// cut off, or uncommitted versions an abort or a commit discarded —
/// linked through their blocks, owned here alone and freed when this
/// drops. Gathering them allocates nothing.
#[must_use = "dropping the list frees its versions: drop it after the slot mutex"]
pub(crate) struct Detached(*mut Header);

impl Default for Detached {
    fn default() -> Self {
        Detached(ptr::null_mut())
    }
}

impl Detached {
    /// Add one version to the list.
    pub(crate) fn push(&mut self, version: Version) {
        let node = version.into_raw().as_ptr();
        // SAFETY: the block is ours alone; its link is free to reuse.
        unsafe { (*node).next.store(self.0, Ordering::SeqCst) };
        self.0 = node;
    }

    /// Free the versions, returning how many there were.
    pub(crate) fn free(self) -> usize {
        let mut n = 0;
        let mut node = self.0;
        while !node.is_null() {
            n += 1;
            // SAFETY: the list is owned by `self` alone (see `drop`).
            node = unsafe { (*node).next.load(Ordering::SeqCst) };
        }
        n
    }
}

impl Drop for Detached {
    fn drop(&mut self) {
        let mut node = self.0;
        while let Some(raw) = NonNull::new(node) {
            // SAFETY: every block was made by `Version::new` and, once
            // unlinked from its chain (or with the cell gone) or discarded,
            // no reader can reach it: this list owns it and frees it once,
            // through the `Version` it came from.
            node = unsafe { (*raw.as_ptr()).next.load(Ordering::SeqCst) };
            drop(Version(raw));
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn cell(initial: i64) -> SnapshotCell {
        SnapshotCell::new(Version::new(initial))
    }

    fn read_i64(c: &SnapshotCell, s: u64) -> (u64, i64) {
        c.read(|| s, |st| *st.downcast_ref::<i64>().unwrap())
    }

    #[test]
    fn genesis_visible_at_any_timestamp() {
        let c = cell(7);
        assert_eq!(read_i64(&c, 0), (0, 7));
        assert_eq!(read_i64(&c, 100), (0, 7));
    }

    #[test]
    fn reads_pick_newest_at_or_below_s() {
        let c = cell(0);
        c.publish(2, Version::new(10i64));
        c.publish(5, Version::new(20i64));
        assert_eq!(read_i64(&c, 1), (0, 0));
        assert_eq!(read_i64(&c, 2), (2, 10));
        assert_eq!(read_i64(&c, 4), (2, 10));
        assert_eq!(read_i64(&c, 5), (5, 20));
        assert_eq!(read_i64(&c, 9), (5, 20));
    }

    #[test]
    fn collect_frees_below_cut_and_keeps_cut() {
        let c = cell(0);
        for ts in 1..=4 {
            c.publish(ts, Version::new(ts as i64 * 10));
        }
        assert_eq!(c.chain_len(), 5);
        // Watermark 3: the ts=3 node is the cut; ts 0..=2 are freed.
        assert_eq!(c.collect(3).free(), 3);
        assert_eq!(c.chain_len(), 2);
        assert_eq!(read_i64(&c, 3), (3, 30));
        assert_eq!(read_i64(&c, 10), (4, 40));
        // A snapshot at the watermark still resolves to the cut.
        assert_eq!(read_i64(&c, 3), (3, 30));
    }

    #[test]
    fn collect_skips_when_pinned() {
        let c = cell(0);
        c.publish(1, Version::new(1i64));
        c.publish(2, Version::new(2i64));
        let (ts, freed) = c.read(
            || 2,
            |_| {
                // A "reader still traversing": pins is held while collect
                // runs, so nothing may be freed.
                c.collect(2).free()
            },
        );
        assert_eq!(ts, 2);
        assert_eq!(freed, 0);
        assert_eq!(c.chain_len(), 3);
        // Once unpinned, the same watermark reclaims.
        assert_eq!(c.collect(2).free(), 2);
        assert_eq!(c.chain_len(), 1);
    }

    #[test]
    fn reader_panic_releases_the_pin() {
        let c = cell(0);
        c.publish(1, Version::new(10i64));
        c.publish(2, Version::new(20i64));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.read(|| 2, |_| -> i64 { panic!("downcast failed") })
        }));
        assert!(r.is_err());
        // The pin must not leak on unwind: collection still reclaims
        // everything below the cut afterwards.
        assert_eq!(c.collect(2).free(), 2);
        assert_eq!(c.chain_len(), 1);
    }

    #[test]
    fn collect_with_nothing_reclaimable_is_noop() {
        let c = cell(0);
        assert_eq!(c.collect(0).free(), 0);
        assert_eq!(c.collect(100).free(), 0);
        c.publish(5, Version::new(1i64));
        // Watermark below every non-genesis version: cut is genesis.
        assert_eq!(c.collect(3).free(), 0);
        assert_eq!(c.chain_len(), 2);
    }
}
