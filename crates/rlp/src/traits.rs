//! `Encodable` / `Decodable` traits plus implementations for primitives.

use crate::decode::Rlp;
use crate::encode::RlpStream;
use crate::error::RlpError;

/// Types that can append themselves to an [`RlpStream`].
pub trait Encodable {
    /// Append this value (as exactly one RLP item) to the stream.
    fn rlp_append(&self, s: &mut RlpStream);
}

/// Types that can be decoded from a single [`Rlp`] item.
pub trait Decodable: Sized {
    /// Decode from one RLP item.
    fn rlp_decode(rlp: &Rlp<'_>) -> Result<Self, RlpError>;
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Encodable for $t {
            fn rlp_append(&self, s: &mut RlpStream) {
                s.append_uint(*self as u128);
            }
        }
        impl Decodable for $t {
            fn rlp_decode(rlp: &Rlp<'_>) -> Result<Self, RlpError> {
                let v = rlp.as_uint(std::mem::size_of::<$t>())?;
                Ok(v as $t)
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64, usize, u128);

impl Encodable for bool {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_uint(*self as u128);
    }
}

impl Decodable for bool {
    fn rlp_decode(rlp: &Rlp<'_>) -> Result<Self, RlpError> {
        match rlp.as_uint(1)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(RlpError::BadBool),
        }
    }
}

impl Encodable for [u8] {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_bytes(self);
    }
}

impl Encodable for &[u8] {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_bytes(self);
    }
}

impl Encodable for Vec<u8> {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_bytes(self);
    }
}

impl Decodable for Vec<u8> {
    fn rlp_decode(rlp: &Rlp<'_>) -> Result<Self, RlpError> {
        Ok(rlp.data()?.to_vec())
    }
}

impl Encodable for str {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_bytes(self.as_bytes());
    }
}

impl Encodable for &str {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_bytes(self.as_bytes());
    }
}

impl Encodable for String {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_bytes(self.as_bytes());
    }
}

impl Decodable for String {
    fn rlp_decode(rlp: &Rlp<'_>) -> Result<Self, RlpError> {
        Ok(rlp.as_str()?.to_owned())
    }
}

impl<const N: usize> Encodable for [u8; N] {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.append_bytes(self);
    }
}

impl<const N: usize> Decodable for [u8; N] {
    fn rlp_decode(rlp: &Rlp<'_>) -> Result<Self, RlpError> {
        rlp.as_array::<N>()
    }
}

impl<T: Encodable> Encodable for Vec<T>
where
    T: EncodableListElem,
{
    fn rlp_append(&self, s: &mut RlpStream) {
        s.begin_list(self.len());
        for item in self {
            s.append(item);
        }
    }
}

/// Marker trait distinguishing element types whose `Vec` should encode as an
/// RLP *list* (as opposed to `Vec<u8>`, which encodes as a string).
pub trait EncodableListElem {}

impl<T: Decodable + DecodableListElem> Decodable for Vec<T> {
    fn rlp_decode(rlp: &Rlp<'_>) -> Result<Self, RlpError> {
        rlp.as_list()
    }
}

/// Marker trait mirror of [`EncodableListElem`] for decoding.
pub trait DecodableListElem {}

#[cfg(test)]
mod tests {
    use crate::{decode, encode};

    #[test]
    fn usize_roundtrip() {
        for v in [0usize, 1, 55, 56, 1 << 20] {
            let back: usize = decode(&encode(&v)).unwrap();
            assert_eq!(back, v);
        }
    }
}
