//! A small vector that keeps its first `N` elements inline.
//!
//! A transaction's bookkeeping is small: its ancestor path is as long as
//! it is deep, it touches a handful of objects and has a child or two
//! live at a time. [`InlineVec`] holds that much in the `TxNode` itself, so
//! begin, access and commit never reach the allocator for it; past `N`
//! elements it moves to a `Vec` and stays there. Safe code only: unused
//! inline slots hold `T::default()`.

use std::ops::{Deref, DerefMut};

/// Up to `N` elements inline, then a `Vec`.
#[derive(Clone)]
pub(crate) enum InlineVec<T, const N: usize> {
    /// The first `len` slots are the elements; the rest hold
    /// `T::default()`.
    Inline { len: usize, buf: [T; N] },
    /// More than `N` elements were held at some point.
    Spilled(Vec<T>),
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        InlineVec::Inline {
            len: 0,
            buf: std::array::from_fn(|_| T::default()),
        }
    }

    /// Insert `x` at index `pos`, shifting the elements after it right.
    pub fn insert(&mut self, pos: usize, x: T) {
        match self {
            InlineVec::Inline { len, buf } if *len < N => {
                assert!(pos <= *len, "insert index out of range");
                buf[*len] = x;
                buf[pos..=*len].rotate_right(1);
                *len += 1;
            }
            InlineVec::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend(buf.iter_mut().map(std::mem::take));
                v.insert(pos, x);
                *self = InlineVec::Spilled(v);
            }
            InlineVec::Spilled(v) => v.insert(pos, x),
        }
    }

    /// Append `x`.
    pub fn push(&mut self, x: T) {
        self.insert(self.len(), x);
    }

    /// Remove the element at `i`, moving the last element into its place.
    pub fn swap_remove(&mut self, i: usize) -> T {
        match self {
            InlineVec::Inline { len, buf } => {
                assert!(i < *len, "swap_remove index out of range");
                *len -= 1;
                buf.swap(i, *len);
                std::mem::take(&mut buf[*len])
            }
            InlineVec::Spilled(v) => v.swap_remove(i),
        }
    }

    /// `prefix` followed by `last`.
    pub fn extended(prefix: &[T], last: T) -> Self
    where
        T: Clone,
    {
        let len = prefix.len() + 1;
        if len <= N {
            let mut buf: [T; N] = std::array::from_fn(|_| T::default());
            buf[..prefix.len()].clone_from_slice(prefix);
            buf[prefix.len()] = last;
            InlineVec::Inline { len, buf }
        } else {
            let mut v = Vec::with_capacity(len);
            v.extend_from_slice(prefix);
            v.push(last);
            InlineVec::Spilled(v)
        }
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline { len, buf } => &buf[..*len],
            InlineVec::Spilled(v) => v,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline { len, buf } => &mut buf[..*len],
            InlineVec::Spilled(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spilled<T, const N: usize>(v: &InlineVec<T, N>) -> bool {
        matches!(v, InlineVec::Spilled(_))
    }

    #[test]
    fn sorted_inserts_stay_inline_then_spill_in_order() {
        let mut v: InlineVec<usize, 4> = InlineVec::new();
        for x in [5, 1, 9, 3] {
            let pos = v.binary_search(&x).unwrap_err();
            v.insert(pos, x);
        }
        assert_eq!(&v[..], [1, 3, 5, 9]);
        assert!(!spilled(&v));
        v.insert(2, 4);
        assert!(spilled(&v), "the fifth element spills");
        assert_eq!(&v[..], [1, 3, 4, 5, 9]);
    }

    #[test]
    fn swap_remove_resets_the_freed_slot() {
        use std::sync::{Arc, Weak};
        let a = Arc::new(1);
        let mut v: InlineVec<Weak<i32>, 2> = InlineVec::new();
        v.push(Arc::downgrade(&a));
        v.push(Arc::downgrade(&a));
        assert_eq!(Arc::weak_count(&a), 2);
        drop(v.swap_remove(0));
        assert_eq!(v.len(), 1);
        assert_eq!(Arc::weak_count(&a), 1, "the freed slot holds no handle");
        v.push(Arc::downgrade(&a));
        v.push(Arc::downgrade(&a));
        assert!(spilled(&v));
        assert_eq!(v.len(), 3);
        drop(v.swap_remove(1));
        assert_eq!(Arc::weak_count(&a), 2);
    }

    #[test]
    fn extended_copies_the_prefix_and_spills_past_capacity() {
        let mut path: InlineVec<u64, 3> = InlineVec::extended(&[], 1);
        for id in 2..=5 {
            path = InlineVec::extended(&path, id);
            assert_eq!(path.last(), Some(&id));
            assert_eq!(spilled(&path), id > 3);
        }
        assert_eq!(&path[..], [1, 2, 3, 4, 5]);
    }
}
