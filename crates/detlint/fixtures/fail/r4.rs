// R4 fail: a crate root without the unsafe-code ban (rustc rejects
// `unsafe` itself; this header is what a package without `[lints]` lacks).
pub fn read(bytes: &[u8]) -> Option<u8> {
    bytes.first().copied()
}
