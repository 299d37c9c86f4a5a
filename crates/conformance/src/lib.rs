//! Wire-conformance subsystem: golden vectors and differential drivers
//! for the protocol stack (`rlp`, `discv4`, `rlpx`, `devp2p`/`ethwire`).
//!
//! The paper's crawler only censuses what it can parse; an encode/decode
//! asymmetry in any wire layer silently biases every downstream table
//! (§5.4's warning). This crate pins the wire formats three ways:
//!
//! 1. **Golden vectors** (`vectors/*.txt`, `tests/golden.rs`): checked-in
//!    hex bytes for every message family. Each case asserts
//!    `decode(vector) == expected` AND `encode(expected)` reproduces the
//!    canonical bytes. Regenerate with
//!    `CONFORMANCE_BLESS=1 cargo test -p conformance --test golden`.
//! 2. **Differential drivers** (`tests/differential.rs`): seeded
//!    decode→encode→decode harnesses cross-checking independent code
//!    paths, shrinking any divergence to a minimal reproducer.
//! 3. **Lenient-decode policy**: every decoder tolerates-and-counts extra
//!    trailing RLP list elements (EIP-8 forward compatibility) via
//!    `wire.extra.*` obs counters; strict rejections carry a
//!    `// conformance: strict` justification enforced by detlint R7.
//!    The per-message policy table lives in DESIGN.md § Wire conformance.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

mod cases;

pub use cases::{layers, Layer};

/// One checked-in vector: the bytes that must decode (`wire`) and the
/// canonical re-encoding of the expected value (`canonical`). For exact
/// vectors the two are identical; for lenient vectors (EIP-8-style extras)
/// `wire` carries the tolerated surplus and `canonical` is the clean form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vector {
    /// Case name, unique within a layer file.
    pub name: String,
    /// Bytes that must decode to the expected value.
    pub wire: Vec<u8>,
    /// `encode(expected)` — equals `wire` unless the case is lenient.
    pub canonical: Vec<u8>,
}

/// A registry entry: a named builder producing the vector bytes plus a
/// decode-check closure that compares against the expected value.
pub struct Case {
    /// Unique name; doubles as the key in the vector file.
    pub name: &'static str,
    /// Construct the vector bytes and the expected-value check.
    pub build: fn() -> Built,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Case").field("name", &self.name).finish()
    }
}

/// A decode-and-compare closure: decodes the given bytes and checks them
/// against the case's expected value; `Err` holds a human-readable
/// mismatch description.
pub type CheckFn = Box<dyn Fn(&[u8]) -> Result<(), String>>;

/// The materialized form of a [`Case`].
pub struct Built {
    /// Bytes that must decode (may carry EIP-8-style extras).
    pub wire: Vec<u8>,
    /// Canonical `encode(expected)` bytes.
    pub canonical: Vec<u8>,
    /// Decode `bytes` and compare against the expected value.
    pub check: CheckFn,
}

impl std::fmt::Debug for Built {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Built")
            .field("wire_len", &self.wire.len())
            .field("canonical_len", &self.canonical.len())
            .finish_non_exhaustive()
    }
}

/// Equality check with a readable mismatch message for case closures.
pub fn expect_eq<T: std::fmt::Debug + PartialEq>(expected: &T, actual: &T) -> Result<(), String> {
    if expected == actual {
        Ok(())
    } else {
        Err(format!("expected {expected:?}\n    actual {actual:?}"))
    }
}

// ---------------------------------------------------------------------
// Hex + vector-file format
// ---------------------------------------------------------------------

/// Lowercase hex, no prefix.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

/// Parse lowercase/uppercase hex (whitespace tolerated).
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let compact: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    if !compact.len().is_multiple_of(2) {
        return Err(format!("odd-length hex ({} digits)", compact.len()));
    }
    let mut out = Vec::with_capacity(compact.len() / 2);
    let bytes = compact.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[1] as char))?;
        out.push((hi * 16 + lo) as u8);
    }
    Ok(out)
}

/// Hex wrapped to 80 digits per line; continuation lines are indented so
/// the file parser can reassemble them.
fn wrap_hex(bytes: &[u8]) -> String {
    let hex = hex_encode(bytes);
    if hex.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    for (i, chunk) in hex.as_bytes().chunks(80).enumerate() {
        if i > 0 {
            out.push_str("\n  ");
        }
        // chunks of an ASCII string are valid UTF-8
        out.push_str(std::str::from_utf8(chunk).unwrap_or(""));
    }
    out
}

/// Parse a vector file. Format, per entry (blank-line separated):
///
/// ```text
/// # free-form comment lines
/// name discv4_ping
/// wire <hex, continuation lines indented>
/// canonical <hex>        # only present when != wire
/// ```
pub fn parse_vectors(text: &str) -> Result<Vec<Vector>, String> {
    let mut out: Vec<Vector> = Vec::new();
    let mut name: Option<String> = None;
    let mut wire: Option<String> = None;
    let mut canonical: Option<String> = None;
    // Which hex field continuation lines extend.
    let mut last_field: Option<u8> = None;

    let mut flush = |name: &mut Option<String>,
                     wire: &mut Option<String>,
                     canonical: &mut Option<String>|
     -> Result<(), String> {
        if let Some(n) = name.take() {
            let w = hex_decode(&wire.take().ok_or(format!("{n}: missing wire"))?)
                .map_err(|e| format!("{n}: wire: {e}"))?;
            let c = match canonical.take() {
                Some(hex) => hex_decode(&hex).map_err(|e| format!("{n}: canonical: {e}"))?,
                None => w.clone(),
            };
            out.push(Vector {
                name: n,
                wire: w,
                canonical: c,
            });
        }
        Ok(())
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.trim_start().starts_with('#') {
            continue;
        }
        if line.is_empty() {
            flush(&mut name, &mut wire, &mut canonical)?;
            last_field = None;
            continue;
        }
        if line.starts_with("  ") {
            // continuation of the previous hex field
            let tail = line.trim_start();
            match last_field {
                Some(0) => {
                    if let Some(w) = wire.as_mut() {
                        w.push_str(tail);
                    }
                }
                Some(1) => {
                    if let Some(c) = canonical.as_mut() {
                        c.push_str(tail);
                    }
                }
                _ => return Err(format!("line {}: stray continuation", lineno + 1)),
            }
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .map(|(k, v)| (k, v.trim()))
            .unwrap_or((line, ""));
        match key {
            "name" => {
                flush(&mut name, &mut wire, &mut canonical)?;
                name = Some(value.to_string());
                last_field = None;
            }
            "wire" => {
                wire = Some(value.to_string());
                last_field = Some(0);
            }
            "canonical" => {
                canonical = Some(value.to_string());
                last_field = Some(1);
            }
            other => return Err(format!("line {}: unknown key {other:?}", lineno + 1)),
        }
    }
    flush(&mut name, &mut wire, &mut canonical)?;
    Ok(out)
}

/// Render a vector file from built cases.
pub fn render_vectors(header: &str, entries: &[(String, Vec<u8>, Vec<u8>)]) -> String {
    let mut out = String::new();
    for line in header.lines() {
        let _ = writeln!(out, "# {line}");
    }
    for (name, wire, canonical) in entries {
        let _ = writeln!(out);
        let _ = writeln!(out, "name {name}");
        let _ = writeln!(out, "wire {}", wrap_hex(wire));
        if canonical != wire {
            let _ = writeln!(out, "canonical {}", wrap_hex(canonical));
        }
    }
    out
}

/// Load and parse a vector file into a name-keyed map.
pub fn load_vectors(path: &Path) -> Result<BTreeMap<String, Vector>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut map = BTreeMap::new();
    for v in parse_vectors(&text)? {
        if map.insert(v.name.clone(), v).is_some() {
            return Err(format!("duplicate vector name in {}", path.display()));
        }
    }
    Ok(map)
}

// ---------------------------------------------------------------------
// Human-readable byte diff
// ---------------------------------------------------------------------

/// Side-by-side hexdump diff: reports lengths, the first divergent offset,
/// and a few lines of context around it with a caret under the first
/// differing byte. Empty string when equal.
pub fn diff_bytes(label: &str, expected: &[u8], actual: &[u8]) -> String {
    if expected == actual {
        return String::new();
    }
    let first_diff = expected
        .iter()
        .zip(actual.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.len().min(actual.len()));
    let mut out = format!(
        "{label}: byte mismatch at offset {first_diff} \
         (expected {} bytes, actual {} bytes)\n",
        expected.len(),
        actual.len()
    );
    const PER_LINE: usize = 16;
    let start = (first_diff / PER_LINE).saturating_sub(1) * PER_LINE;
    let end = (first_diff + 3 * PER_LINE).min(expected.len().max(actual.len()));
    let dump = |out: &mut String, title: &str, bytes: &[u8]| {
        let _ = writeln!(out, "  {title}:");
        let mut off = start;
        while off < end {
            let row_end = (off + PER_LINE).min(end);
            let mut hex = String::new();
            for i in off..row_end {
                match bytes.get(i) {
                    Some(b) => {
                        let _ = write!(hex, "{b:02x} ");
                    }
                    None => hex.push_str(".. "),
                }
            }
            let _ = writeln!(out, "    {off:06x}: {hex}");
            if (off..row_end).contains(&first_diff) {
                let pad = 4 + 8 + (first_diff - off) * 3;
                let _ = writeln!(out, "{}^^", " ".repeat(pad));
            }
            off = row_end;
        }
    };
    dump(&mut out, "expected", expected);
    dump(&mut out, "actual", actual);
    out
}

#[cfg(test)]
mod tests {
    // Format helpers are exercised on fixed inputs only.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn hex_roundtrip() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("0g").is_err());
        assert!(hex_decode("abc").is_err());
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn vector_file_roundtrip() {
        let entries = vec![
            (
                "exact".to_string(),
                vec![0x83, 0x64, 0x6f, 0x67],
                vec![0x83, 0x64, 0x6f, 0x67],
            ),
            (
                "lenient".to_string(),
                vec![0xc2, 0x01, 0x02],
                vec![0xc1, 0x01],
            ),
            ("long".to_string(), vec![0xAB; 100], vec![0xAB; 100]),
            ("empty".to_string(), Vec::new(), Vec::new()),
        ];
        let text = render_vectors("test header\nsecond line", &entries);
        let parsed = parse_vectors(&text).unwrap();
        assert_eq!(parsed.len(), 4);
        for ((name, wire, canonical), v) in entries.iter().zip(&parsed) {
            assert_eq!(&v.name, name);
            assert_eq!(&v.wire, wire);
            assert_eq!(&v.canonical, canonical);
        }
    }

    #[test]
    fn diff_reports_offset_and_lengths() {
        let a = vec![0u8; 40];
        let mut b = a.clone();
        b[21] ^= 0xff;
        let d = diff_bytes("case", &a, &b);
        assert!(d.contains("offset 21"), "{d}");
        assert!(d.contains("expected 40 bytes, actual 40 bytes"), "{d}");
        assert!(diff_bytes("case", &a, &a).is_empty());
        let d = diff_bytes("case", &a, &a[..10]);
        assert!(d.contains("actual 10 bytes"), "{d}");
    }
}
