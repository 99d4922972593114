//! Sharding primitives shared by the striped hot-path structures.
//!
//! Every global contention point the runtime used to funnel through — the
//! object store, the wait-for graph, the stat counters, the trace buffer —
//! is now split into stripes. This module holds the two building blocks
//! they share: cache-line padding (so neighbouring stripes never false-
//! share) and a cheap per-thread stripe index (so a thread keeps hitting
//! the same stripe instead of bouncing lines between cores).

use crate::sync::atomic::{AtomicUsize, Ordering};
use std::cell::Cell;

/// Pads and aligns `T` to 128 bytes so adjacent array elements land on
/// distinct cache lines (128 covers the spatial-prefetcher pair on x86).
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub T);

/// Small dense per-thread index, assigned on first use. Stripe selection is
/// `thread_index() % N`: threads spread round-robin over stripes, and a
/// given thread always returns to the same stripe.
pub(crate) fn thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    INDEX.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            // relaxed(thread-index): the RMW guarantees distinct indices;
            // stripe choice is a performance hint with no ordering role.
            idx = NEXT.fetch_add(1, Ordering::Relaxed);
            slot.set(idx);
        }
        idx
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_index_is_stable_within_a_thread() {
        let a = thread_index();
        let b = thread_index();
        assert_eq!(a, b);
    }

    #[test]
    fn thread_indices_differ_across_threads() {
        let mine = thread_index();
        let theirs = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn cache_padded_is_at_least_a_line() {
        assert!(std::mem::size_of::<CachePadded<u64>>() >= 128);
        assert_eq!(std::mem::align_of::<CachePadded<u64>>(), 128);
    }
}
