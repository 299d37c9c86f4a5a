//! Keccak sponge (original pre-SHA-3 padding, as used by Ethereum).
//!
//! Ethereum hashing everywhere is **Keccak-256** — *not* FIPS-202 SHA3-256:
//! the domain-separation byte is `0x01` rather than `0x06`. The RLPx
//! handshake additionally uses Keccak-512 for key material expansion, and
//! the node-distance metric in discovery hashes node IDs with Keccak-256.
//!
//! The state is kept as a flat `[u64; 25]` (lane `(x, y)` at index
//! `x + 5*y`) and absorption works directly from the caller's slice, so a
//! one-shot hash performs no heap allocation besides the digest itself.

const ROUNDS: usize = 24;

const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

// Rotation offsets, indexed [x][y].
const ROTC: [[u32; 5]; 5] = [
    [0, 36, 3, 41, 18],
    [1, 44, 10, 45, 2],
    [62, 6, 43, 15, 61],
    [28, 55, 25, 21, 56],
    [27, 20, 39, 8, 14],
];

/// Per-lane rotation for the flat state: `FLAT_ROT[x + 5*y] = ROTC[x][y]`.
const FLAT_ROT: [u32; 25] = build_flat_rot();

/// ρ+π destination index: lane `(x, y)` moves to `(y, (2x + 3y) mod 5)`.
const PI_DST: [usize; 25] = build_pi_dst();

const fn build_flat_rot() -> [u32; 25] {
    let mut out = [0u32; 25];
    let mut i = 0;
    while i < 25 {
        out[i] = ROTC[i % 5][i / 5];
        i += 1;
    }
    out
}

const fn build_pi_dst() -> [usize; 25] {
    let mut out = [0usize; 25];
    let mut i = 0;
    while i < 25 {
        let (x, y) = (i % 5, i / 5);
        out[i] = y + 5 * ((2 * x + 3 * y) % 5);
        i += 1;
    }
    out
}

/// The Keccak-f[1600] permutation applied to a flat 25-lane state.
fn keccak_f(a: &mut [u64; 25]) {
    for &rc in RC.iter() {
        // θ
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            a[x] ^= d;
            a[x + 5] ^= d;
            a[x + 10] ^= d;
            a[x + 15] ^= d;
            a[x + 20] ^= d;
        }
        // ρ and π
        let mut b = [0u64; 25];
        for i in 0..25 {
            b[PI_DST[i]] = a[i].rotate_left(FLAT_ROT[i]);
        }
        // χ
        for y in 0..5 {
            let o = 5 * y;
            for x in 0..5 {
                a[o + x] = b[o + x] ^ ((!b[o + (x + 1) % 5]) & b[o + (x + 2) % 5]);
            }
        }
        // ι
        a[0] ^= rc;
    }
}

/// Largest rate used (Keccak-256); the partial-block buffer is sized for it.
pub const MAX_RATE: usize = 136;

/// Incremental Keccak hasher with a configurable output length.
#[derive(Debug, Clone)]
pub struct Keccak {
    state: [u64; 25],
    rate: usize, // in bytes
    buf: [u8; MAX_RATE],
    buf_len: usize,
    output_len: usize,
}

impl Keccak {
    /// Keccak-256 (rate 136, 32-byte output).
    pub fn v256() -> Keccak {
        Keccak {
            state: [0; 25],
            rate: 136,
            buf: [0; MAX_RATE],
            buf_len: 0,
            output_len: 32,
        }
    }

    /// Keccak-512 (rate 72, 64-byte output).
    pub fn v512() -> Keccak {
        Keccak {
            state: [0; 25],
            rate: 72,
            buf: [0; MAX_RATE],
            buf_len: 0,
            output_len: 64,
        }
    }

    /// Capture the full sponge state for checkpoint/restore:
    /// `(state lanes, rate, partial-block buffer, buffered length,
    /// output length)`. Feeding the tuple back through
    /// [`Keccak::from_parts`] resumes the exact absorb position.
    pub fn to_parts(&self) -> ([u64; 25], usize, [u8; MAX_RATE], usize, usize) {
        (
            self.state,
            self.rate,
            self.buf,
            self.buf_len,
            self.output_len,
        )
    }

    /// Rebuild a hasher from [`Keccak::to_parts`] output. `None` unless
    /// the parts describe one of the two sponges this module builds
    /// (`v256`, `v512`) at a legal absorb position.
    pub fn from_parts(parts: ([u64; 25], usize, [u8; MAX_RATE], usize, usize)) -> Option<Keccak> {
        let (state, rate, buf, buf_len, output_len) = parts;
        if !matches!((rate, output_len), (136, 32) | (72, 64)) || buf_len >= rate {
            return None;
        }
        Some(Keccak {
            state,
            rate,
            buf,
            buf_len,
            output_len,
        })
    }

    /// Absorb input bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        // Top up a pending partial block first.
        if self.buf_len > 0 {
            let need = self.rate - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < self.rate {
                return; // input exhausted, block still partial
            }
            let block = self.buf;
            self.absorb_block(&block[..self.rate]);
            self.buf_len = 0;
        }
        // Absorb full blocks straight from the input.
        let mut chunks = data.chunks_exact(self.rate);
        for block in &mut chunks {
            self.absorb_block(block);
        }
        // Stash the tail.
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    fn absorb_block(&mut self, block: &[u8]) {
        debug_assert_eq!(block.len(), self.rate);
        for (lane, chunk) in self.state.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(chunk.try_into().unwrap());
        }
        keccak_f(&mut self.state);
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Vec<u8> {
        // Original Keccak padding: 0x01 ... 0x80 (multi-rate pad10*1 with
        // domain bits 01).
        self.buf[self.buf_len] = 0x01;
        self.buf[self.buf_len + 1..self.rate].fill(0);
        self.buf[self.rate - 1] |= 0x80;
        let block = self.buf;
        self.absorb_block(&block[..self.rate]);

        let mut out = Vec::with_capacity(self.output_len);
        loop {
            for lane in self.state.iter().take(self.rate / 8) {
                out.extend_from_slice(&lane.to_le_bytes());
                if out.len() >= self.output_len {
                    out.truncate(self.output_len);
                    return out;
                }
            }
            keccak_f(&mut self.state);
        }
    }
}

/// One-shot Keccak-256.
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    let mut h = Keccak::v256();
    h.update(data);
    h.finalize().try_into().unwrap()
}

/// One-shot Keccak-512.
pub fn keccak512(data: &[u8]) -> [u8; 64] {
    let mut h = Keccak::v512();
    h.update(data);
    h.finalize().try_into().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn keccak256_empty() {
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn keccak256_abc() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn keccak256_fox() {
        assert_eq!(
            hex(&keccak256(b"The quick brown fox jumps over the lazy dog")),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
        );
    }

    #[test]
    fn rate_boundary_lengths_are_distinct() {
        // exactly one block, one block + 1, one block - 1: all distinct and
        // none panic (padding block handling).
        let h135 = keccak256(&[0u8; 135]);
        let h136 = keccak256(&[0u8; 136]);
        let h137 = keccak256(&[0u8; 137]);
        assert_ne!(h135, h136);
        assert_ne!(h136, h137);
    }

    #[test]
    fn keccak512_empty() {
        assert_eq!(
            hex(&keccak512(b"")),
            "0eab42de4c3ceb9235fc91acffe746b29c29a8c366b7c60e4e67c466f36a4304\
             c00fa9caf9d87976ba469bcbe06713b435f091ef2769fb160cdab33d3670680e"
        );
    }

    #[test]
    fn keccak512_one_block_plus() {
        // crosses the 72-byte rate boundary of the 512 variant
        let h72 = keccak512(&[0x5a; 72]);
        let h73 = keccak512(&[0x5a; 73]);
        assert_ne!(h72, h73);
        assert_eq!(h72.len(), 64);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let oneshot = keccak256(&data);
        for chunk_size in [1, 7, 64, 135, 136, 137, 500] {
            let mut h = Keccak::v256();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            let incr: [u8; 32] = h.finalize().try_into().unwrap();
            assert_eq!(incr, oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn mainnet_genesis_hash_prefix() {
        // The Ethereum Mainnet genesis hash begins d4e56740... — it is the
        // keccak-256 of the RLP-encoded genesis header. We can't rebuild the
        // full header here, but we pin the constant the protocol crates use.
        // (Sanity link between this crate and `ethwire::MAINNET_GENESIS`.)
        let mainnet = "d4e56740f876aef8c010b86a40d5f56745a118d0906a34e69aec8c0db1cb8fa3";
        assert_eq!(mainnet.len(), 64);
    }
}
