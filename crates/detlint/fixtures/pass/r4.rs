// R4 pass: the crate root repeats the forbid header.
#![forbid(unsafe_code)]

pub fn read(bytes: &[u8]) -> Option<u8> {
    bytes.first().copied()
}
