//! RLP encoder.

use crate::traits::Encodable;

/// An append-only RLP output stream.
///
/// Lists may be declared with a known item count ([`RlpStream::new_list`] /
/// [`RlpStream::begin_list`]); the stream tracks how many items have been
/// appended at each nesting level and patches list headers in when a level
/// completes. Because header lengths are not known until a list closes,
/// payloads are buffered and headers are spliced at finalization.
#[derive(Debug, Clone)]
pub struct RlpStream {
    buf: Vec<u8>,
    // Stack of open lists: (payload start offset in `buf`, items remaining).
    open: Vec<(usize, usize)>,
}

impl Default for RlpStream {
    fn default() -> Self {
        Self::new()
    }
}

impl RlpStream {
    /// Create a stream expecting a single (non-list) item.
    pub fn new() -> Self {
        RlpStream {
            buf: Vec::with_capacity(64),
            open: Vec::new(),
        }
    }

    /// Create a stream whose top-level item is a list of `items` entries.
    pub fn new_list(items: usize) -> Self {
        let mut s = Self::new();
        s.begin_list(items);
        s
    }

    /// [`RlpStream::new_list`] written behind `head`: [`RlpStream::out`]
    /// returns `head` followed by the list, in `head`'s allocation — for a
    /// frame whose header is filled in once the payload is known.
    pub fn new_list_after(head: Vec<u8>, items: usize) -> Self {
        let mut s = RlpStream {
            buf: head,
            open: Vec::new(),
        };
        s.begin_list(items);
        s
    }

    /// Open a nested list of exactly `items` entries.
    ///
    /// The list closes automatically when the final entry is appended; a
    /// zero-item list closes immediately.
    pub fn begin_list(&mut self, items: usize) -> &mut Self {
        self.note_appended_later();
        if items == 0 {
            self.buf.push(0xc0);
            self.finish_item();
        } else {
            self.open.push((self.buf.len(), items));
        }
        self
    }

    /// Append one encodable value.
    pub fn append<T: Encodable + ?Sized>(&mut self, value: &T) -> &mut Self {
        value.rlp_append(self);
        self
    }

    /// Append an empty string item (`0x80`). Used for optional/blank fields.
    pub fn append_empty(&mut self) -> &mut Self {
        self.note_appended_later();
        self.buf.push(0x80);
        self.finish_item();
        self
    }

    /// Splice pre-encoded RLP (`item_count` complete items) into the stream.
    pub fn append_raw(&mut self, raw: &[u8], item_count: usize) -> &mut Self {
        for _ in 0..item_count {
            self.note_appended_later();
        }
        self.buf.extend_from_slice(raw);
        for _ in 0..item_count {
            self.finish_item();
        }
        self
    }

    /// Encode raw bytes as an RLP string item.
    pub fn append_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.note_appended_later();
        encode_str_header_into(&mut self.buf, bytes);
        self.finish_item();
        self
    }

    /// Encode an unsigned integer (big-endian, no leading zeros; zero is the
    /// empty string).
    pub fn append_uint(&mut self, value: u128) -> &mut Self {
        let be = value.to_be_bytes();
        let first = be.iter().position(|&b| b != 0).unwrap_or(be.len());
        let bytes = &be[first..];
        self.append_bytes_tmp(bytes)
    }

    fn append_bytes_tmp(&mut self, bytes: &[u8]) -> &mut Self {
        // Helper avoiding a borrow conflict between `be` and `self`.
        self.note_appended_later();
        encode_str_header_into(&mut self.buf, bytes);
        self.finish_item();
        self
    }

    /// True once every declared list has been fully populated.
    pub fn is_finished(&self) -> bool {
        self.open.is_empty()
    }

    /// Number of bytes currently buffered (before header splicing of any
    /// still-open lists).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finalize and return the encoded bytes.
    ///
    /// # Panics
    /// Panics if a declared list has not received all of its items; that is
    /// a programming error in message construction, not a runtime condition.
    pub fn out(self) -> Vec<u8> {
        assert!(
            self.open.is_empty(),
            "RlpStream::out called with {} unfinished list(s)",
            self.open.len()
        );
        self.buf
    }

    // Called before writing an item's bytes: nothing to do now (count is
    // decremented in finish_item once the payload is in the buffer).
    fn note_appended_later(&mut self) {}

    // Called after an item's bytes are written: decrement the innermost open
    // list and close any lists that complete, inserting their headers.
    fn finish_item(&mut self) {
        while let Some(top) = self.open.last_mut() {
            top.1 -= 1;
            if top.1 > 0 {
                return;
            }
            let Some((start, _)) = self.open.pop() else {
                return;
            };
            let payload_len = self.buf.len() - start;
            let mut header = Vec::with_capacity(9);
            encode_list_header(&mut header, payload_len);
            // splice the header in front of the payload
            self.buf.splice(start..start, header);
            // closing this list is itself the completion of one item in the
            // enclosing list, so loop.
        }
    }
}

/// Write the canonical RLP header + data for a byte string into `out`.
pub(crate) fn encode_str_header_into(out: &mut Vec<u8>, bytes: &[u8]) {
    match bytes.len() {
        1 if bytes[0] < 0x80 => out.push(bytes[0]),
        len if len <= 55 => {
            out.push(0x80 + len as u8);
            out.extend_from_slice(bytes);
        }
        len => {
            let be = (len as u64).to_be_bytes();
            #[allow(clippy::unwrap_used)]
            // detlint: allow(R5) -- len > 55 here, so at least one byte is nonzero
            let first = be.iter().position(|&b| b != 0).unwrap();
            out.push(0xb7 + (8 - first) as u8);
            out.extend_from_slice(&be[first..]);
            out.extend_from_slice(bytes);
        }
    }
}

/// Write the canonical RLP list header for a payload of `payload_len` bytes.
pub(crate) fn encode_list_header(out: &mut Vec<u8>, payload_len: usize) {
    if payload_len <= 55 {
        out.push(0xc0 + payload_len as u8);
    } else {
        let be = (payload_len as u64).to_be_bytes();
        #[allow(clippy::unwrap_used)]
        // detlint: allow(R5) -- payload_len > 55 here, so at least one byte is nonzero
        let first = be.iter().position(|&b| b != 0).unwrap();
        out.push(0xf7 + (8 - first) as u8);
        out.extend_from_slice(&be[first..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unfinished")]
    fn out_panics_on_unfinished_list() {
        let s = RlpStream::new_list(2);
        let _ = s.out();
    }

    #[test]
    fn zero_item_list_closes_immediately() {
        let mut s = RlpStream::new_list(1);
        s.begin_list(0);
        assert!(s.is_finished());
        assert_eq!(s.out(), vec![0xc1, 0xc0]);
    }

    #[test]
    fn list_after_a_head_is_the_head_then_the_list() {
        // A nested list and a long payload: both splice headers in at
        // offsets that must count the head.
        let fill = |mut s: RlpStream| {
            s.begin_list(2).append(&1u8).append(&2u8);
            s.append_bytes(&[7u8; 60]);
            s.out()
        };
        let plain = fill(RlpStream::new_list(2));
        let after = fill(RlpStream::new_list_after(vec![0xaa; 5], 2));
        assert_eq!(after[..5], [0xaa; 5]);
        assert_eq!(after[5..], plain[..]);
    }

    #[test]
    fn long_list_header() {
        // list of 60 single-byte items -> payload 60 bytes -> 0xf8 0x3c
        let mut s = RlpStream::new_list(60);
        for _ in 0..60 {
            s.append(&1u8);
        }
        let out = s.out();
        assert_eq!(out[0], 0xf8);
        assert_eq!(out[1], 60);
        assert_eq!(out.len(), 62);
    }

    #[test]
    fn append_uint_canonical() {
        let mut s = RlpStream::new();
        s.append_uint(0);
        assert_eq!(s.out(), vec![0x80]);
        let mut s = RlpStream::new();
        s.append_uint(0x0102_0304);
        assert_eq!(s.out(), vec![0x84, 1, 2, 3, 4]);
    }
}
