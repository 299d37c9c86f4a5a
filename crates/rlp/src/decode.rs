//! Strict, zero-copy RLP decoder.

use crate::error::RlpError;
use crate::traits::Decodable;

/// A lazily-parsed view over one RLP item (string or list).
///
/// `Rlp` borrows the underlying buffer; navigation ([`Rlp::at`],
/// [`Rlp::iter`]) yields sub-views without copying. All length arithmetic is
/// checked so malformed input can never cause a panic, only an `Err`.
#[derive(Debug, Clone, Copy)]
pub struct Rlp<'a> {
    bytes: &'a [u8],
}

/// Parsed header of the item at the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    /// Offset where the payload starts.
    payload_start: usize,
    /// Payload length in bytes.
    payload_len: usize,
    /// Whether the item is a list.
    is_list: bool,
}

/// Parse the header of the first item in `buf`, enforcing canonical form.
fn parse_header(buf: &[u8]) -> Result<Header, RlpError> {
    let first = *buf.first().ok_or(RlpError::Truncated)?;
    let h = match first {
        0x00..=0x7f => Header {
            payload_start: 0,
            payload_len: 1,
            is_list: false,
        },
        0x80..=0xb7 => {
            let len = (first - 0x80) as usize;
            if len == 1 {
                let b = *buf.get(1).ok_or(RlpError::Truncated)?;
                if b < 0x80 {
                    // must have been encoded as the byte itself
                    return Err(RlpError::NonCanonical);
                }
            }
            Header {
                payload_start: 1,
                payload_len: len,
                is_list: false,
            }
        }
        0xb8..=0xbf => {
            let len_of_len = (first - 0xb7) as usize;
            let len = parse_long_length(buf, len_of_len)?;
            if len <= 55 {
                return Err(RlpError::NonCanonical);
            }
            Header {
                payload_start: 1 + len_of_len,
                payload_len: len,
                is_list: false,
            }
        }
        0xc0..=0xf7 => {
            let len = (first - 0xc0) as usize;
            Header {
                payload_start: 1,
                payload_len: len,
                is_list: true,
            }
        }
        0xf8..=0xff => {
            let len_of_len = (first - 0xf7) as usize;
            let len = parse_long_length(buf, len_of_len)?;
            if len <= 55 {
                return Err(RlpError::NonCanonical);
            }
            Header {
                payload_start: 1 + len_of_len,
                payload_len: len,
                is_list: true,
            }
        }
    };
    if buf.len() < h.payload_start + h.payload_len {
        return Err(RlpError::Truncated);
    }
    Ok(h)
}

fn parse_long_length(buf: &[u8], len_of_len: usize) -> Result<usize, RlpError> {
    let len_bytes = buf.get(1..1 + len_of_len).ok_or(RlpError::Truncated)?;
    if len_bytes[0] == 0 {
        return Err(RlpError::NonCanonical);
    }
    // usize is 64-bit on every supported target; len_of_len <= 8 by format.
    let mut len: usize = 0;
    for &b in len_bytes {
        len = len.checked_mul(256).ok_or(RlpError::NonCanonical)?;
        len = len.checked_add(b as usize).ok_or(RlpError::NonCanonical)?;
    }
    Ok(len)
}

impl<'a> Rlp<'a> {
    /// Wrap a buffer whose first bytes form an RLP item.
    pub fn new(bytes: &'a [u8]) -> Self {
        Rlp { bytes }
    }

    /// Total encoded size (header + payload) of the first item.
    pub fn item_len(&self) -> Result<usize, RlpError> {
        let h = parse_header(self.bytes)?;
        Ok(h.payload_start + h.payload_len)
    }

    /// Error unless the buffer contains exactly one item with no trailing
    /// bytes.
    // conformance: strict -- this is the named opt-in point for whole-buffer decoding
    pub fn ensure_exact(&self) -> Result<(), RlpError> {
        if self.item_len()? != self.bytes.len() {
            // conformance: strict -- sole construction site of the error R7 gates
            return Err(RlpError::TrailingBytes);
        }
        Ok(())
    }

    /// Whether the item is a list.
    pub fn is_list(&self) -> bool {
        matches!(parse_header(self.bytes), Ok(h) if h.is_list)
    }

    /// Whether the item is a string (data) item.
    pub fn is_data(&self) -> bool {
        matches!(parse_header(self.bytes), Ok(h) if !h.is_list)
    }

    /// Whether the item is the empty string (`0x80`), used by several wire
    /// messages to mark absent optional fields.
    pub fn is_empty(&self) -> bool {
        matches!(parse_header(self.bytes), Ok(h) if !h.is_list && h.payload_len == 0)
    }

    /// Payload bytes of a string item.
    pub fn data(&self) -> Result<&'a [u8], RlpError> {
        let h = parse_header(self.bytes)?;
        if h.is_list {
            return Err(RlpError::ExpectedData);
        }
        Ok(&self.bytes[h.payload_start..h.payload_start + h.payload_len])
    }

    /// Payload bytes of a list item (the concatenated encodings of its
    /// children).
    pub fn list_payload(&self) -> Result<&'a [u8], RlpError> {
        let h = parse_header(self.bytes)?;
        if !h.is_list {
            return Err(RlpError::ExpectedList);
        }
        Ok(&self.bytes[h.payload_start..h.payload_start + h.payload_len])
    }

    /// Number of direct children of a list item.
    pub fn item_count(&self) -> Result<usize, RlpError> {
        let mut payload = self.list_payload()?;
        let mut n = 0;
        while !payload.is_empty() {
            let h = parse_header(payload)?;
            payload = &payload[h.payload_start + h.payload_len..];
            n += 1;
        }
        Ok(n)
    }

    /// The `index`-th child of a list item.
    pub fn at(&self, index: usize) -> Result<Rlp<'a>, RlpError> {
        let mut payload = self.list_payload()?;
        let mut i = 0;
        while !payload.is_empty() {
            let h = parse_header(payload)?;
            let total = h.payload_start + h.payload_len;
            if i == index {
                return Ok(Rlp::new(&payload[..total]));
            }
            payload = &payload[total..];
            i += 1;
        }
        Err(RlpError::IndexOutOfBounds)
    }

    /// Iterate the children of a list item. Malformed children terminate the
    /// iteration (use [`Rlp::item_count`] first to validate).
    pub fn iter(&self) -> RlpIter<'a> {
        RlpIter {
            payload: self.list_payload().unwrap_or(&[]),
        }
    }

    /// Decode the item as `T`.
    pub fn as_val<T: Decodable>(&self) -> Result<T, RlpError> {
        T::rlp_decode(self)
    }

    /// Decode a list item as `Vec<T>`.
    pub fn as_list<T: Decodable>(&self) -> Result<Vec<T>, RlpError> {
        let count = self.item_count()?;
        let mut out = Vec::with_capacity(count);
        for item in self.iter() {
            out.push(T::rlp_decode(&item)?);
        }
        Ok(out)
    }

    /// Decode as an unsigned integer up to 128 bits, canonical form only.
    pub fn as_uint(&self, max_bytes: usize) -> Result<u128, RlpError> {
        let data = self.data()?;
        if data.len() > max_bytes {
            return Err(RlpError::BadInteger);
        }
        if data.first() == Some(&0) {
            return Err(RlpError::BadInteger);
        }
        let mut v: u128 = 0;
        for &b in data {
            v = (v << 8) | b as u128;
        }
        Ok(v)
    }

    /// Decode as `u64`.
    pub fn as_u64(&self) -> Result<u64, RlpError> {
        Ok(self.as_uint(8)? as u64)
    }

    /// Decode as UTF-8 text.
    pub fn as_str(&self) -> Result<&'a str, RlpError> {
        std::str::from_utf8(self.data()?).map_err(|_| RlpError::BadUtf8)
    }

    /// Decode a string item into a fixed-size array (hashes, node IDs...).
    pub fn as_array<const N: usize>(&self) -> Result<[u8; N], RlpError> {
        let data = self.data()?;
        if data.len() != N {
            return Err(RlpError::BadLength {
                expected: N,
                actual: data.len(),
            });
        }
        let mut out = [0u8; N];
        out.copy_from_slice(data);
        Ok(out)
    }
}

/// Iterator over the children of an RLP list.
#[derive(Debug, Clone)]
pub struct RlpIter<'a> {
    payload: &'a [u8],
}

impl<'a> Iterator for RlpIter<'a> {
    type Item = Rlp<'a>;

    fn next(&mut self) -> Option<Rlp<'a>> {
        if self.payload.is_empty() {
            return None;
        }
        let h = parse_header(self.payload).ok()?;
        let total = h.payload_start + h.payload_len;
        let item = Rlp::new(&self.payload[..total]);
        self.payload = &self.payload[total..];
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_forms() {
        assert_eq!(
            parse_header(&[0x05]).unwrap(),
            Header {
                payload_start: 0,
                payload_len: 1,
                is_list: false
            }
        );
        assert_eq!(
            parse_header(&[0x82, 1, 2]).unwrap(),
            Header {
                payload_start: 1,
                payload_len: 2,
                is_list: false
            }
        );
        assert_eq!(
            parse_header(&[0xc2, 0x01, 0x02]).unwrap(),
            Header {
                payload_start: 1,
                payload_len: 2,
                is_list: true
            }
        );
    }

    #[test]
    fn empty_buffer_errors() {
        assert_eq!(parse_header(&[]), Err(RlpError::Truncated));
    }

    #[test]
    fn long_length_with_zero_msb_rejected() {
        assert_eq!(
            parse_header(&[0xb9, 0x00, 0x40]),
            Err(RlpError::NonCanonical)
        );
    }

    #[test]
    fn empty_string_is_empty() {
        assert!(Rlp::new(&[0x80]).is_empty());
        assert!(!Rlp::new(&[0x01]).is_empty());
        assert!(!Rlp::new(&[0xc0]).is_empty());
    }
}
