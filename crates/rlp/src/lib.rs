//! Recursive Length Prefix (RLP) encoding and decoding.
//!
//! RLP is the serialization format used by every layer of the Ethereum
//! network stack: discv4 discovery packets, the RLPx handshake, DEVp2p
//! HELLO/DISCONNECT messages, and the Ethereum subprotocol (`eth/62-63`)
//! all carry RLP payloads.
//!
//! The format has exactly two kinds of items:
//!
//! * **strings** — byte sequences, and
//! * **lists** — heterogeneous sequences of items.
//!
//! Canonical encoding rules (per the Ethereum Yellow Paper, Appendix B):
//!
//! * a single byte in `0x00..=0x7f` encodes as itself;
//! * a string of 0–55 bytes encodes as `0x80 + len` followed by the bytes;
//! * a longer string encodes as `0xb7 + len_of_len`, the big-endian length,
//!   then the bytes;
//! * a list whose payload is 0–55 bytes encodes as `0xc0 + len` plus payload;
//! * a longer list encodes as `0xf7 + len_of_len`, the big-endian length,
//!   then the payload.
//!
//! The decoder in this crate is strict: it rejects non-canonical encodings
//! (leading zeros in lengths, short payloads using long forms, single bytes
//! below `0x80` wrapped in a string header) because the Ethereum wire
//! protocols require canonical RLP and because accepting non-canonical input
//! opens signature-malleability holes at the discovery layer.
//!
//! # Quick example
//!
//! ```
//! use rlp::{RlpStream, Rlp};
//!
//! let mut s = RlpStream::new_list(3);
//! s.append(&17u64).append(&"abc").append_empty();
//! let bytes = s.out();
//!
//! let r = Rlp::new(&bytes);
//! assert_eq!(r.item_count().unwrap(), 3);
//! assert_eq!(r.at(0).unwrap().as_u64().unwrap(), 17);
//! assert_eq!(r.at(1).unwrap().as_str().unwrap(), "abc");
//! ```
#![forbid(unsafe_code)]
// Unit tests may panic on impossible states; production code may not.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod decode;
mod encode;
mod error;
mod traits;

pub use decode::Rlp;
pub use encode::RlpStream;
pub use error::RlpError;
pub use traits::{Decodable, DecodableListElem, Encodable, EncodableListElem};

/// Encode any [`Encodable`] value to a standalone RLP byte vector.
pub fn encode<T: Encodable + ?Sized>(value: &T) -> Vec<u8> {
    let mut s = RlpStream::new();
    value.rlp_append(&mut s);
    s.out()
}

/// Encode a slice of values as an RLP list.
pub fn encode_list<T: Encodable>(values: &[T]) -> Vec<u8> {
    let mut s = RlpStream::new_list(values.len());
    for v in values {
        s.append(v);
    }
    s.out()
}

/// Decode a standalone RLP item into any [`Decodable`] type.
///
/// Fails if `bytes` does not contain exactly one item (trailing garbage is an
/// error — wire messages must be fully consumed).
pub fn decode<T: Decodable>(bytes: &[u8]) -> Result<T, RlpError> {
    let rlp = Rlp::new(bytes);
    // conformance: strict -- one-shot decode is documented as whole-buffer-exact
    rlp.ensure_exact()?;
    T::rlp_decode(&rlp)
}

/// Decode an RLP list into a vector of `T`.
pub fn decode_list<T: Decodable>(bytes: &[u8]) -> Result<Vec<T>, RlpError> {
    let rlp = Rlp::new(bytes);
    // conformance: strict -- same whole-buffer contract as `decode` above
    rlp.ensure_exact()?;
    rlp.as_list()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc<T: Encodable + ?Sized>(v: &T) -> Vec<u8> {
        encode(v)
    }

    #[test]
    fn encode_empty_string() {
        assert_eq!(enc(&""), vec![0x80]);
        assert_eq!(enc(&b"".as_slice()), vec![0x80]);
    }

    #[test]
    fn encode_single_bytes() {
        assert_eq!(enc(&b"\x00".as_slice()), vec![0x00]);
        assert_eq!(enc(&b"\x0f".as_slice()), vec![0x0f]);
        assert_eq!(enc(&b"\x7f".as_slice()), vec![0x7f]);
        // 0x80 needs a header
        assert_eq!(enc(&b"\x80".as_slice()), vec![0x81, 0x80]);
    }

    #[test]
    fn encode_short_string() {
        assert_eq!(enc(&"dog"), vec![0x83, b'd', b'o', b'g']);
    }

    #[test]
    fn encode_long_string() {
        // The canonical yellow-paper test vector: a 56-byte string takes the
        // long form with a one-byte length.
        let s = "Lorem ipsum dolor sit amet, consectetur adipisicing elit";
        assert_eq!(s.len(), 56);
        let out = enc(&s);
        assert_eq!(out[0], 0xb8);
        assert_eq!(out[1], 56);
        assert_eq!(&out[2..], s.as_bytes());
    }

    #[test]
    fn encode_integers() {
        assert_eq!(enc(&0u64), vec![0x80]);
        assert_eq!(enc(&1u64), vec![0x01]);
        assert_eq!(enc(&15u64), vec![0x0f]);
        assert_eq!(enc(&1024u64), vec![0x82, 0x04, 0x00]);
        assert_eq!(enc(&0x7fu64), vec![0x7f]);
        assert_eq!(enc(&0x80u64), vec![0x81, 0x80]);
        assert_eq!(
            enc(&u64::MAX),
            vec![0x88, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]
        );
    }

    #[test]
    fn encode_empty_list() {
        let s = RlpStream::new_list(0);
        assert_eq!(s.out(), vec![0xc0]);
    }

    #[test]
    fn encode_string_list() {
        // ["cat", "dog"] -> 0xc8 0x83 cat 0x83 dog
        let mut s = RlpStream::new_list(2);
        s.append(&"cat").append(&"dog");
        assert_eq!(
            s.out(),
            vec![0xc8, 0x83, b'c', b'a', b't', 0x83, b'd', b'o', b'g']
        );
    }

    #[test]
    fn encode_nested_empty_lists() {
        // [ [], [[]], [ [], [[]] ] ] — the classic "set theoretic
        // representation of three" vector.
        let mut s = RlpStream::new_list(3);
        s.begin_list(0);
        s.begin_list(1);
        s.begin_list(0);
        s.begin_list(2);
        s.begin_list(0);
        s.begin_list(1);
        s.begin_list(0);
        assert_eq!(
            s.out(),
            vec![0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0]
        );
    }

    #[test]
    fn decode_roundtrip_basics() {
        let v: u64 = decode(&enc(&1_000_000u64)).unwrap();
        assert_eq!(v, 1_000_000);
        let s: String = decode(&enc(&"hello devp2p")).unwrap();
        assert_eq!(s, "hello devp2p");
        let b: Vec<u8> = decode(&enc(&vec![1u8, 2, 3].as_slice())).unwrap();
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn decode_list_roundtrip() {
        let xs = vec![1u64, 2, 3, 0xdead_beef];
        let out = encode_list(&xs);
        let back: Vec<u64> = decode_list(&out).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = enc(&5u64);
        bytes.push(0x00);
        assert!(decode::<u64>(&bytes).is_err());
    }

    #[test]
    fn decode_rejects_noncanonical_single_byte() {
        // 0x81 0x05 is the non-canonical form of 0x05.
        assert!(decode::<u64>(&[0x81, 0x05]).is_err());
    }

    #[test]
    fn decode_rejects_leading_zero_integer() {
        // 0x82 0x00 0x01 would decode to 1 but has a leading zero byte.
        assert!(decode::<u64>(&[0x82, 0x00, 0x01]).is_err());
    }

    #[test]
    fn decode_rejects_noncanonical_long_length() {
        // long form (0xb8) used for a 3-byte string must be rejected
        assert!(Rlp::new(&[0xb8, 0x03, 1, 2, 3]).data().is_err());
        // leading zero in the length-of-length bytes
        assert!(Rlp::new(&[0xb9, 0x00, 0x38, 0x00]).data().is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        assert!(decode::<String>(&[0x83, b'c', b'a']).is_err());
        let r = Rlp::new(&[0xc8, 0x83, b'c', b'a']);
        assert!(r.item_count().is_err() || r.at(0).is_err());
    }

    #[test]
    fn u64_overflow_rejected() {
        // 9-byte integer cannot fit u64
        let bytes = [0x89, 1, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(decode::<u64>(&bytes).is_err());
    }

    #[test]
    fn heterogeneous_list_access() {
        let mut s = RlpStream::new_list(3);
        s.append(&"cat");
        s.append(&42u64);
        s.begin_list(2);
        s.append(&1u8);
        s.append(&2u8);
        let out = s.out();

        let r = Rlp::new(&out);
        assert!(r.is_list());
        assert_eq!(r.item_count().unwrap(), 3);
        assert_eq!(r.at(0).unwrap().as_str().unwrap(), "cat");
        assert_eq!(r.at(1).unwrap().as_u64().unwrap(), 42);
        let inner = r.at(2).unwrap();
        assert!(inner.is_list());
        assert_eq!(inner.item_count().unwrap(), 2);
        assert!(r.at(3).is_err());
    }

    #[test]
    fn iterator_yields_items_in_order() {
        let xs = vec![10u64, 20, 30];
        let out = encode_list(&xs);
        let r = Rlp::new(&out);
        let items: Vec<u64> = r.iter().map(|i| i.as_u64().unwrap()).collect();
        assert_eq!(items, xs);
    }

    #[test]
    fn fixed_array_roundtrip() {
        let a: [u8; 32] = [7; 32];
        let out = enc(&a);
        let back: [u8; 32] = decode(&out).unwrap();
        assert_eq!(back, a);
        // wrong length must fail
        assert!(decode::<[u8; 16]>(&out).is_err());
    }

    #[test]
    fn u16_u32_roundtrip() {
        for v in [0u16, 1, 255, 256, 30303, u16::MAX] {
            let back: u16 = decode(&enc(&v)).unwrap();
            assert_eq!(back, v);
        }
        for v in [0u32, 1, 65536, u32::MAX] {
            let back: u32 = decode(&enc(&v)).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn bool_roundtrip() {
        assert_eq!(enc(&true), vec![0x01]);
        assert_eq!(enc(&false), vec![0x80]);
        assert!(decode::<bool>(&enc(&true)).unwrap());
        assert!(!decode::<bool>(&enc(&false)).unwrap());
    }

    #[test]
    fn u128_roundtrip() {
        for v in [0u128, 1, u64::MAX as u128 + 1, u128::MAX] {
            let back: u128 = decode(&enc(&v)).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn nested_stream_finalizes_sizes() {
        // outer list containing a long inner string forcing long-form lengths
        let long = vec![0xabu8; 300];
        let mut s = RlpStream::new_list(2);
        s.append(&long.as_slice());
        s.append(&7u8);
        let out = s.out();
        let r = Rlp::new(&out);
        assert_eq!(r.at(0).unwrap().data().unwrap(), long.as_slice());
        assert_eq!(r.at(1).unwrap().as_u64().unwrap(), 7);
    }

    #[test]
    fn raw_append_splices_preencoded() {
        let inner = encode(&"spliced");
        let mut s = RlpStream::new_list(2);
        s.append_raw(&inner, 1);
        s.append(&1u8);
        let out = s.out();
        let r = Rlp::new(&out);
        assert_eq!(r.at(0).unwrap().as_str().unwrap(), "spliced");
    }

    #[test]
    fn as_val_generic_decoding() {
        let out = encode(&123u64);
        let r = Rlp::new(&out);
        let v: u64 = r.as_val().unwrap();
        assert_eq!(v, 123);
    }

    #[test]
    fn deeply_nested_lists_do_not_overflow() {
        // 200 nested singleton lists; decoder must handle without recursion
        // issues when only walking lazily.
        let mut payload = vec![0x80u8];
        for _ in 0..200 {
            let mut s = RlpStream::new_list(1);
            s.append_raw(&payload, 1);
            payload = s.out();
        }
        let mut r = Rlp::new(&payload);
        let mut owned;
        for _ in 0..200 {
            assert!(r.is_list());
            owned = r.at(0).unwrap();
            r = owned;
        }
        assert!(r.is_data());
    }
}
