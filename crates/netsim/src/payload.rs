//! Zero-copy payload buffers for simulated datagrams and stream segments.
//!
//! A [`Payload`] is a window into a reference-counted, immutable byte
//! buffer. Cloning one is a pointer bump — the engine can carry a segment
//! from `Ctx::tcp_send` through the fault layer to delivery without ever
//! copying the bytes. The two mutating faults stay cheap, too:
//!
//! * truncation ([`Payload::truncate`]) just narrows the window;
//! * corruption ([`Payload::make_mut`]) copies on write, and only when the
//!   buffer is actually shared or sliced.
//!
//! Hosts keep handing the engine `Vec<u8>`s (every send site takes
//! `impl Into<Payload>`), and receive `&[u8]` views back out through
//! deref, so the protocol crates never see this type change shape.

use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::rc::Rc;

/// A cheaply clonable, immutable byte buffer with an adjustable window.
// Payload bytes ride inside every cross-host event.
#[derive(Clone)]
pub struct Payload {
    // Single-thread sharing today; the sharding plan swaps this Rc for Arc wholesale.
    data: Rc<[u8]>,
    start: usize,
    end: usize,
}

/// Image: the visible window as a length-prefixed byte string.
impl Snap for Payload {
    fn snap(&self, w: &mut SnapWriter) {
        w.bytes(self.as_slice());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Payload, SnapError> {
        r.bytes().map(Payload::from)
    }
}

impl Payload {
    /// Empty payload.
    pub fn new() -> Payload {
        Payload {
            data: Rc::from([]),
            start: 0,
            end: 0,
        }
    }

    /// Bytes in the window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Shrink the window to the first `len` bytes (no-op if already
    /// shorter). Never copies.
    pub fn truncate(&mut self, len: usize) {
        self.end = self.end.min(self.start + len);
    }

    /// Mutable access to the visible bytes, copying them into a fresh
    /// unshared buffer first if this payload is shared or sliced.
    pub fn make_mut(&mut self) -> &mut [u8] {
        let windowed = self.start != 0 || self.end != self.data.len();
        if windowed || Rc::get_mut(&mut self.data).is_none() {
            self.data = Rc::from(&self.data[self.start..self.end]);
            self.start = 0;
            self.end = self.data.len();
        }
        Rc::get_mut(&mut self.data).expect("payload buffer is unshared after copy-on-write")
    }

    /// How many `Payload`s currently share this buffer (diagnostics).
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.data)
    }
}

impl Default for Payload {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        let end = v.len();
        Payload {
            data: Rc::from(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload {
            data: Rc::from(v),
            start: 0,
            end: v.len(),
        }
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Payload {
        Payload::from(&v[..])
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_buffer() {
        let p: Payload = vec![1u8, 2, 3, 4].into();
        let q = p.clone();
        assert_eq!(p.ref_count(), 2);
        assert_eq!(&*q, &[1, 2, 3, 4]);
    }

    #[test]
    fn truncate_narrows_without_copying() {
        let p: Payload = vec![9u8; 64].into();
        let mut q = p.clone();
        q.truncate(16);
        assert_eq!(q.len(), 16);
        assert_eq!(p.len(), 64); // the original window is untouched
        assert_eq!(p.ref_count(), 2); // still the same buffer
        q.truncate(100); // longer than the window: no-op
        assert_eq!(q.len(), 16);
    }

    #[test]
    fn make_mut_copies_only_when_shared_or_sliced() {
        let mut p: Payload = vec![0u8; 8].into();
        // Unique and unsliced: mutation happens in place.
        p.make_mut()[0] = 0xAA;
        assert_eq!(p[0], 0xAA);

        // Shared: the writer gets its own copy, the reader is unaffected.
        let mut q = p.clone();
        q.make_mut()[0] = 0xBB;
        assert_eq!(p[0], 0xAA);
        assert_eq!(q[0], 0xBB);
        assert_eq!(p.ref_count(), 1);

        // Sliced: mutation rebases the window to a fresh buffer.
        let mut r = p.clone();
        r.truncate(4);
        r.make_mut()[3] = 0xCC;
        assert_eq!(r.len(), 4);
        assert_eq!(r[3], 0xCC);
        assert_eq!(p[3], 0);
    }

    #[test]
    fn equality_compares_visible_bytes() {
        let a: Payload = vec![1u8, 2, 3].into();
        let mut b: Payload = vec![1u8, 2, 3, 9].into();
        b.truncate(3);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "Payload(3 bytes)");
    }
}
