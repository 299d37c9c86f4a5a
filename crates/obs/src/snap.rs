//! The one snapshot codec: a tiny, versioned, deterministic
//! little-endian writer/reader pair plus the [`Snap`] trait every
//! checkpointed type implements — the engine image (`PSNP`), host
//! behaviours (`ETHN`, `NFND`) and this crate's recorder image (`OBSS`)
//! all serialize through here.
//!
//! ## Format
//!
//! A snapshot section is `magic(4) ‖ version(1) ‖ fields…`. Every field
//! is fixed-width little-endian (no varints: a snapshot's byte image
//! must be a pure function of the state it captures, and fixed widths
//! keep the mapping trivially auditable). Layers nest by embedding a
//! child section as a byte string — each layer owns its own magic and
//! version byte, so formats can evolve independently. A child section
//! is written in place through [`SnapWriter::section`], into its
//! parent's buffer, not into a buffer of its own.
//!
//! | Rust type | bytes |
//! |---|---|
//! | `u8` `u16` `u32` `u64` `u128` | fixed width, little-endian |
//! | `usize` | as `u64`; rejected on read if the platform cannot hold it |
//! | `bool` | one byte, `0` or `1`; anything else is corrupt |
//! | `i64` | two's-complement bit pattern as `u64` |
//! | `f64` | IEEE-754 bit pattern as `u64` |
//! | `String` | `u64` length ‖ UTF-8 bytes |
//! | `[T; N]` | `N` elements, **no** length prefix |
//! | `Vec` `VecDeque` `BTreeSet` `BTreeMap` | `u64` length ‖ elements (maps: key then value; sets and maps must be strictly ascending) |
//! | `Option<T>` | presence `bool` ‖ `T` if present |
//! | tuples | fields in order |
//! | `Ipv4Addr` | `u32` (network-order value, little-endian bytes) |
//! | [`snap_struct!`](crate::snap_struct) types | the listed fields in order |
//! | [`snap_enum!`](crate::snap_enum) types | `u8` tag ‖ the variant's fields in order |
//!
//! ## Contract
//!
//! * Writing is infallible and goes straight from `&self` into the
//!   buffer; reading validates everything (magic, version, lengths,
//!   tags, bool bytes) in the `unsnap` that owns the value and fails
//!   with a [`SnapError`] instead of panicking — a snapshot is external
//!   input by the time it is read. A length prefix never pre-allocates
//!   more elements than the unread bytes could encode.
//! * [`SnapReader::finish`] asserts full consumption so trailing garbage
//!   (a truncated write, a version skew that moved a field) is caught at
//!   restore time, not as silent state corruption later.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;

/// Why a snapshot could not be read (or taken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The leading magic bytes did not match.
    BadMagic {
        /// What the section expected.
        expected: [u8; 4],
        /// What the buffer held.
        found: [u8; 4],
    },
    /// The version byte is not one this build can read.
    BadVersion {
        /// The version this build writes.
        expected: u8,
        /// The version found in the buffer.
        found: u8,
    },
    /// The buffer ended before the field at this byte offset.
    Truncated {
        /// Byte offset of the incomplete read.
        at: usize,
    },
    /// A structurally invalid value (bad enum tag, impossible length,
    /// cross-field inconsistency).
    Corrupt(&'static str),
    /// The state in question cannot be checkpointed (e.g. a host
    /// behaviour without `save_state` support).
    Unsupported(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic { expected, found } => write!(
                f,
                "bad snapshot magic: expected {expected:?}, found {found:?}"
            ),
            SnapError::BadVersion { expected, found } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {expected})"
            ),
            SnapError::Truncated { at } => write!(f, "snapshot truncated at byte {at}"),
            SnapError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapError::Unsupported(what) => write!(f, "state not checkpointable: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only little-endian section writer. Infallible: every method
/// just grows the internal buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Empty writer (for a headerless embedded blob).
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Writer primed with a `magic ‖ version` section header.
    pub fn with_header(magic: [u8; 4], version: u8) -> SnapWriter {
        let mut w = SnapWriter::new();
        w.header(magic, version);
        w
    }

    /// Append a `magic ‖ version` section header.
    pub fn header(&mut self, magic: [u8; 4], version: u8) {
        self.buf.extend_from_slice(&magic);
        self.buf.push(version);
    }

    /// Append a length-prefixed section that `write` writes in place:
    /// the `u64` length is reserved, `write` appends the section, and the
    /// length is patched to what it appended. The bytes are those of
    /// [`SnapWriter::bytes`] over the same section written into a writer
    /// of its own, without that writer's buffer and copy. On `Err` the
    /// writer holds a partial section and should be dropped.
    pub fn section(
        &mut self,
        write: impl FnOnce(&mut SnapWriter) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let at = self.buf.len();
        self.u64(0);
        write(self)?;
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
        Ok(())
    }

    /// Append a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte (0 or 1).
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u16`, little-endian.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (snapshots are word-size independent).
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` by its IEEE-754 bit pattern (byte-exact round
    /// trip, NaN payloads included).
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed byte string (same bytes as a `Vec<u8>`,
    /// in one copy).
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Append a fixed-width array with no length prefix (the reader
    /// knows the width from the schema).
    #[inline]
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Take the finished section.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based section reader; every method validates bounds and tags.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Reader over a headerless embedded blob.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Reader that first validates a `magic ‖ version` section header.
    pub fn with_header(
        buf: &'a [u8],
        magic: [u8; 4],
        version: u8,
    ) -> Result<SnapReader<'a>, SnapError> {
        let mut r = SnapReader::new(buf);
        let found = r.array::<4>()?;
        if found != magic {
            return Err(SnapError::BadMagic {
                expected: magic,
                found,
            });
        }
        let v = r.u8()?;
        if v != version {
            return Err(SnapError::BadVersion {
                expected: version,
                found: v,
            });
        }
        Ok(r)
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated { at: self.pos });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a one-byte `bool`; any value other than 0/1 is corrupt.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte out of range")),
        }
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Read a `usize` written by [`SnapWriter::usize`], rejecting values
    /// this platform cannot represent.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflows platform"))
    }

    /// Read an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Corrupt("non-UTF-8 string"))
    }

    /// Read a fixed-width array written by [`SnapWriter::raw`].
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the section was fully consumed — trailing bytes mean the
    /// schema and the buffer disagree.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes after snapshot"))
        }
    }
}

/// A value with a fixed place in the snapshot format: `snap` appends its
/// bytes, `unsnap` reads them back, validating as it goes. The two must
/// be exact inverses — `unsnap(snap(x)) == x` consuming every byte.
pub trait Snap: Sized {
    /// Append this value's image.
    fn snap(&self, w: &mut SnapWriter);
    /// Read one value, rejecting anything `snap` could not have written.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Append `items` back to back with no prefix. Only `u8` overrides
    /// this (one copy instead of a push per byte); the bytes are the same.
    #[doc(hidden)]
    fn snap_run(items: &[Self], w: &mut SnapWriter) {
        for x in items {
            x.snap(w);
        }
    }

    /// Overwrite `out` with consecutive values (`u8`: one copy).
    #[doc(hidden)]
    fn unsnap_run(r: &mut SnapReader<'_>, out: &mut [Self]) -> Result<(), SnapError> {
        for x in out {
            *x = Self::unsnap(r)?;
        }
        Ok(())
    }

    /// Read `n` consecutive values into a fresh vector (`u8`: one copy).
    #[doc(hidden)]
    fn unsnap_vec(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<Self>, SnapError> {
        // Every element takes at least one byte, so a hostile length
        // cannot reserve more than the buffer could actually hold.
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(Self::unsnap(r)?);
        }
        Ok(out)
    }
}

macro_rules! snap_primitive {
    ($($ty:ident),*) => {$(
        impl Snap for $ty {
            #[inline]
            fn snap(&self, w: &mut SnapWriter) {
                w.$ty(*self);
            }
            #[inline]
            fn unsnap(r: &mut SnapReader<'_>) -> Result<$ty, SnapError> {
                r.$ty()
            }
        }
    )*};
}
snap_primitive!(u16, u32, u64, usize, bool, f64);

impl Snap for u8 {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    #[inline]
    fn unsnap(r: &mut SnapReader<'_>) -> Result<u8, SnapError> {
        r.u8()
    }
    #[inline]
    fn snap_run(items: &[u8], w: &mut SnapWriter) {
        w.raw(items);
    }
    #[inline]
    fn unsnap_run(r: &mut SnapReader<'_>, out: &mut [u8]) -> Result<(), SnapError> {
        out.copy_from_slice(r.take(out.len())?);
        Ok(())
    }
    #[inline]
    fn unsnap_vec(r: &mut SnapReader<'_>, n: usize) -> Result<Vec<u8>, SnapError> {
        r.take(n).map(<[u8]>::to_vec)
    }
}

impl Snap for u128 {
    fn snap(&self, w: &mut SnapWriter) {
        w.raw(&self.to_le_bytes());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<u128, SnapError> {
        r.array().map(u128::from_le_bytes)
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<i64, SnapError> {
        r.u64().map(|bits| bits as i64)
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
        r.str().map(str::to_string)
    }
}

impl Snap for Ipv4Addr {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(u32::from(*self));
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Ipv4Addr, SnapError> {
        r.u32().map(Ipv4Addr::from)
    }
}

impl<T: Snap + Copy + Default, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        T::snap_run(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<[T; N], SnapError> {
        let mut out = [T::default(); N];
        T::unsnap_run(r, &mut out)?;
        Ok(out)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(x) = self {
            x.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapError> {
        Ok(if r.bool()? { Some(T::unsnap(r)?) } else { None })
    }
}

/// Write a `u64` length prefix and then every element.
fn snap_seq<'a, T: Snap + 'a>(len: usize, items: impl Iterator<Item = &'a T>, w: &mut SnapWriter) {
    w.usize(len);
    for x in items {
        x.snap(w);
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        T::snap_run(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapError> {
        let n = r.usize()?;
        T::unsnap_vec(r, n)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        snap_seq(self.len(), self.iter(), w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<VecDeque<T>, SnapError> {
        Vec::unsnap(r).map(VecDeque::from)
    }
}

/// Read a length-prefixed list whose `key`s must be strictly ascending —
/// the order a `BTreeSet`/`BTreeMap` is written in. Collecting the
/// checked list builds the tree in one pass.
fn unsnap_ascending<T: Snap, K: Ord>(
    r: &mut SnapReader<'_>,
    key: impl Fn(&T) -> &K,
) -> Result<Vec<T>, SnapError> {
    let items = Vec::<T>::unsnap(r)?;
    if !items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        return Err(SnapError::Corrupt("set or map keys not strictly ascending"));
    }
    Ok(items)
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        snap_seq(self.len(), self.iter(), w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<BTreeSet<T>, SnapError> {
        Ok(unsnap_ascending(r, |x: &T| x)?.into_iter().collect())
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<BTreeMap<K, V>, SnapError> {
        Ok(unsnap_ascending(r, |kv: &(K, V)| &kv.0)?
            .into_iter()
            .collect())
    }
}

macro_rules! snap_tuple {
    ($($name:ident),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            #[allow(non_snake_case)]
            fn snap(&self, w: &mut SnapWriter) {
                let ($($name,)+) = self;
                $($name.snap(w);)+
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($name::unsnap(r)?,)+))
            }
        }
    };
}
snap_tuple!(A, B);
snap_tuple!(A, B, C);
snap_tuple!(A, B, C, D);
snap_tuple!(A, B, C, D, E);

/// Implement [`Snap`] for a struct from its field list, written once:
/// `snap_struct!(Endpoint { ip, udp_port, tcp_port });` writes the fields
/// in the listed order and reads them back in the same order. Every
/// field type must itself be `Snap`; a type with fields that are not
/// serialized, or invariants to check, writes its `impl` by hand.
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                $($crate::snap::Snap::snap(&self.$field, w);)+
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                Ok($ty { $($field: $crate::snap::Snap::unsnap(r)?),+ })
            }
        }
    };
}

/// Implement [`Snap`] for an enum from its `tag => variant` list, written
/// once: a `u8` tag, then the variant's fields in the listed order. Unit,
/// tuple (`1 => Host(a)`) and struct (`2 => Done { seen, queries }`)
/// variants are accepted; an unlisted tag reads as
/// [`SnapError::Corrupt`](crate::snap::SnapError::Corrupt).
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident
            $(( $($elem:ident),+ ))?
            $({ $($field:ident),+ })?
    ),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {$(
                    $ty::$variant $(( $($elem),+ ))? $({ $($field),+ })? => {
                        w.u8($tag);
                        $($($crate::snap::Snap::snap($elem, w);)+)?
                        $($($crate::snap::Snap::snap($field, w);)+)?
                    }
                )+}
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $elem = $crate::snap::Snap::unsnap(r)?;)+)?
                        $($(let $field = $crate::snap::Snap::unsnap(r)?;)+)?
                        $ty::$variant $(( $($elem),+ ))? $({ $($field),+ })?
                    })+
                    _ => {
                        return Err($crate::snap::SnapError::Corrupt(concat!(
                            stringify!($ty),
                            " tag out of range"
                        )))
                    }
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = SnapWriter::with_header(*b"TEST", 3);
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12_345);
        w.f64(-0.125);
        w.bytes(b"hello");
        w.str("wörld");
        w.raw(&[1, 2, 3, 4]);
        let buf = w.finish();

        let mut r = SnapReader::with_header(&buf, *b"TEST", 3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12_345);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "wörld");
        assert_eq!(r.array::<4>().unwrap(), [1, 2, 3, 4]);
        r.finish().unwrap();
    }

    #[test]
    fn a_section_written_in_place_equals_its_bytes() {
        let write = |w: &mut SnapWriter| -> Result<(), SnapError> {
            w.header(*b"SECT", 2);
            w.u32(0xDEAD_BEEF);
            w.str("in place");
            Ok(())
        };
        let mut own = SnapWriter::new();
        write(&mut own).unwrap();
        let mut copied = SnapWriter::with_header(*b"OUTR", 1);
        copied.bytes(&own.finish());
        copied.u8(7);
        let mut in_place = SnapWriter::with_header(*b"OUTR", 1);
        in_place.section(write).unwrap();
        in_place.u8(7);
        assert_eq!(in_place.finish(), copied.finish());

        let mut empty = SnapWriter::new();
        empty.section(|_| Ok(())).unwrap();
        assert_eq!(empty.finish(), 0u64.to_le_bytes());
    }

    #[test]
    fn a_byte_vec_is_a_byte_string() {
        let v: Vec<u8> = (0..=255).collect();
        let mut as_vec = SnapWriter::new();
        v.snap(&mut as_vec);
        let mut as_bytes = SnapWriter::new();
        as_bytes.bytes(&v);
        let buf = as_vec.finish();
        assert_eq!(buf, as_bytes.finish());
        assert_eq!(Vec::<u8>::unsnap(&mut SnapReader::new(&buf)), Ok(v));
        let short = &buf[..buf.len() - 1];
        assert_eq!(
            Vec::<u8>::unsnap(&mut SnapReader::new(short)),
            Err(SnapError::Truncated { at: 8 })
        );
    }

    #[test]
    fn header_mismatches_are_rejected() {
        let buf = SnapWriter::with_header(*b"AAAA", 1).finish();
        assert!(matches!(
            SnapReader::with_header(&buf, *b"BBBB", 1),
            Err(SnapError::BadMagic { .. })
        ));
        assert!(matches!(
            SnapReader::with_header(&buf, *b"AAAA", 2),
            Err(SnapError::BadVersion {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let mut w = SnapWriter::new();
        w.u64(42);
        let buf = w.finish();

        let mut r = SnapReader::new(&buf[..4]);
        assert_eq!(r.u64(), Err(SnapError::Truncated { at: 0 }));

        let mut r = SnapReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 42);
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));

        // A byte-string length larger than the buffer must not wrap.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        let buf = w.finish();
        let mut r = SnapReader::new(&buf);
        assert!(matches!(
            r.bytes(),
            Err(SnapError::Truncated { .. }) | Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = SnapReader::new(&[9]);
        assert_eq!(r.bool(), Err(SnapError::Corrupt("bool byte out of range")));
    }
}
