//! A small vector that keeps its first `N` elements inline.
//!
//! A transaction's bookkeeping is small: its ancestor path is as long as
//! it is deep, it touches a handful of objects and has a child or two
//! live at a time. [`InlineVec`] holds that much in the `TxNode` itself, so
//! begin, access and commit never reach the allocator for it; past `N`
//! elements it moves to a `Vec` and stays there. Safe code only: unused
//! inline slots hold `T::default()`.
//!
//! An object's lock table is smaller still, and there is one per object:
//! its common case is one uncommitted version and a reader or two.
//! [`Inline1`] and [`Inline2`] hold that much with no length field — the
//! element count is the variant, which the compiler keeps in the spilled
//! `Vec`'s unused capacity values — so each is the size of a bare `Vec`.

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

/// At most one element inline, then a `Vec`.
pub(crate) enum Inline1<T> {
    One(Option<T>),
    /// More than one element was held at some point.
    Spilled(Vec<T>),
}

impl<T> Inline1<T> {
    /// An empty vector.
    pub const fn new() -> Self {
        Inline1::One(None)
    }

    /// Append `x`.
    pub fn push(&mut self, x: T) {
        match self {
            Inline1::One(slot @ None) => *slot = Some(x),
            Inline1::One(first) => {
                let mut v = Vec::with_capacity(4);
                v.extend(first.take());
                v.push(x);
                *self = Inline1::Spilled(v);
            }
            Inline1::Spilled(v) => v.push(x),
        }
    }

    /// Remove and return the last element.
    pub fn pop(&mut self) -> Option<T> {
        match self {
            Inline1::One(slot) => slot.take(),
            Inline1::Spilled(v) => v.pop(),
        }
    }

    /// Remove the element at `i`, shifting the elements after it left.
    pub fn remove(&mut self, i: usize) -> T {
        match self {
            Inline1::One(slot) if i == 0 => slot.take().expect("remove index out of range"),
            Inline1::One(_) => panic!("remove index out of range"),
            Inline1::Spilled(v) => v.remove(i),
        }
    }

    /// Keep, in order, the elements `keep` accepts; hand every other one
    /// to `gone`.
    pub fn retain_or(&mut self, mut keep: impl FnMut(&T) -> bool, mut gone: impl FnMut(T)) {
        let mut i = 0;
        while i < self.len() {
            if keep(&self[i]) {
                i += 1;
            } else {
                gone(self.remove(i));
            }
        }
    }
}

impl<T> Deref for Inline1<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Inline1::One(slot) => slot.as_slice(),
            Inline1::Spilled(v) => v,
        }
    }
}

impl<T> DerefMut for Inline1<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Inline1::One(slot) => slot.as_mut_slice(),
            Inline1::Spilled(v) => v,
        }
    }
}

/// At most two elements inline, then a `Vec`.
pub(crate) enum Inline2<T> {
    Zero,
    One([T; 1]),
    Two([T; 2]),
    /// More than two elements were held at some point.
    Spilled(Vec<T>),
}

impl<T> Inline2<T> {
    /// Append `x`.
    pub fn push(&mut self, x: T) {
        *self = match std::mem::replace(self, Inline2::Zero) {
            Inline2::Zero => Inline2::One([x]),
            Inline2::One([a]) => Inline2::Two([a, x]),
            Inline2::Two([a, b]) => {
                let mut v = Vec::with_capacity(4);
                v.extend([a, b, x]);
                Inline2::Spilled(v)
            }
            Inline2::Spilled(mut v) => {
                v.push(x);
                Inline2::Spilled(v)
            }
        };
    }

    /// Remove the element at `i`, shifting the elements after it left.
    pub fn remove(&mut self, i: usize) -> T {
        if let Inline2::Spilled(v) = self {
            return v.remove(i);
        }
        let (x, rest) = match (std::mem::replace(self, Inline2::Zero), i) {
            (Inline2::One([a]), 0) => (a, Inline2::Zero),
            (Inline2::Two([a, b]), 0) => (a, Inline2::One([b])),
            (Inline2::Two([a, b]), 1) => (b, Inline2::One([a])),
            _ => panic!("remove index out of range"),
        };
        *self = rest;
        x
    }

    /// Keep, in order, the elements `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut i = 0;
        while i < self.len() {
            if keep(&self[i]) {
                i += 1;
            } else {
                self.remove(i);
            }
        }
    }
}

impl<T> Deref for Inline2<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Inline2::Zero => &[],
            Inline2::One(a) => a,
            Inline2::Two(a) => a,
            Inline2::Spilled(v) => v,
        }
    }
}

impl<T> DerefMut for Inline2<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Inline2::Zero => &mut [],
            Inline2::One(a) => a,
            Inline2::Two(a) => a,
            Inline2::Spilled(v) => v,
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

    #[test]
    fn inline1_holds_one_then_spills_in_order() {
        let mut v: Inline1<u32> = Inline1::new();
        assert!(v.is_empty());
        v.push(1);
        assert!(matches!(v, Inline1::One(Some(1))));
        v.push(2);
        v.push(3);
        assert!(matches!(v, Inline1::Spilled(_)));
        assert_eq!(&v[..], [1, 2, 3]);
        let mut gone = Vec::new();
        v.retain_or(|&x| x != 2, |x| gone.push(x));
        assert_eq!((&v[..], &gone[..]), (&[1, 3][..], &[2][..]));
        assert_eq!(v.remove(0), 1);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.pop(), None);
        let mut one: Inline1<u32> = Inline1::new();
        one.push(7);
        one.retain_or(|_| false, |x| gone.push(x));
        assert!(one.is_empty() && gone == [2, 7]);
    }

    #[test]
    fn inline2_holds_two_then_spills_and_removes_in_order() {
        let mut v: Inline2<u32> = Inline2::Zero;
        v.push(1);
        v.push(2);
        assert!(matches!(v, Inline2::Two([1, 2])));
        v[0] = 5;
        assert_eq!(v.remove(0), 5);
        assert_eq!(&v[..], [2]);
        v.push(3);
        v.push(4);
        assert!(matches!(v, Inline2::Spilled(_)));
        assert_eq!(v.remove(0), 2);
        assert_eq!(&v[..], [3, 4]);
        v.retain(|&x| x == 3);
        assert_eq!(&v[..], [3]);
        let mut w: Inline2<u32> = Inline2::Zero;
        w.push(1);
        w.push(2);
        w.retain(|&x| x == 2);
        assert_eq!(&w[..], [2]);
        w.retain(|_| false);
        assert!(w.is_empty());
    }
}
