//! AES block cipher (FIPS 197) with CTR mode.
//!
//! RLPx encrypts frames with AES-256-CTR (a never-rewinding keystream shared
//! by both directions) and ECIES bodies with AES-128-CTR.
//!
//! Rounds are table lookups: SubBytes, ShiftRows and MixColumns of one column
//! are four reads of `TE` XORed together.

// Column indices are part of the cipher's definition; keep them explicit.
#![allow(clippy::needless_range_loop)]

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 11] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
];

/// `TE[x]` is the MixColumns image of the column `(S[x], 0, 0, 0)`, as the
/// big-endian word `[2·S[x], S[x], S[x], 3·S[x]]`. A byte in row `r` of a
/// column contributes the same word rotated right by `8·r` bits, so one
/// 1 kB table serves all four rows of SubBytes∘ShiftRows∘MixColumns.
const TE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = (s << 1) ^ ((s >> 7) * 0x1b); // GF(2^8) doubling
        t[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        i += 1;
    }
    t
};

/// SubBytes on each byte of a word.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// Round-key words of AES-256, the longest schedule: four per round, 14
/// rounds plus the initial key.
const MAX_ROUND_KEYS: usize = 4 * (14 + 1);

/// An expanded AES key (128, 192, or 256 bits). Encryption-only: CTR mode
/// never needs the inverse cipher. The schedule is inline, so a key is
/// no allocation of its own.
#[derive(Debug, Clone)]
pub struct Aes {
    /// Round keys as big-endian column words, four per round; the first
    /// `4 * (rounds + 1)` are used.
    round_keys: [u32; MAX_ROUND_KEYS],
    rounds: usize,
}

impl Aes {
    /// Expand a 16-, 24-, or 32-byte key.
    ///
    /// # Panics
    /// Panics on any other key length — key sizes are fixed by the protocol,
    /// so a wrong length is a programming error.
    pub fn new(key: &[u8]) -> Aes {
        let nk = match key.len() {
            16 => 4,
            24 => 6,
            32 => 8,
            n => panic!("invalid AES key length {n}"),
        };
        let rounds = nk + 6;
        let mut round_keys = [0u32; MAX_ROUND_KEYS];
        let w = &mut round_keys[..4 * (rounds + 1)];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in nk..w.len() {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (RCON[i / nk] as u32) << 24;
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        Aes { round_keys, rounds }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rounds = self.rounds;
        let rk = &self.round_keys[..4 * (rounds + 1)];
        // State is column-major: s[c] is column c, row 0 in the top byte.
        let mut s = [0u32; 4];
        for c in 0..4 {
            let col = [
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ];
            s[c] = u32::from_be_bytes(col) ^ rk[c];
        }
        for round in rk[4..4 * rounds].chunks_exact(4) {
            let mut t = [0u32; 4];
            for c in 0..4 {
                // ShiftRows: row r of output column c comes from column c + r.
                t[c] = TE[(s[c] >> 24) as usize]
                    ^ TE[(s[(c + 1) % 4] >> 16 & 0xff) as usize].rotate_right(8)
                    ^ TE[(s[(c + 2) % 4] >> 8 & 0xff) as usize].rotate_right(16)
                    ^ TE[(s[(c + 3) % 4] & 0xff) as usize].rotate_right(24)
                    ^ round[c];
            }
            s = t;
        }
        // Final round: SubBytes and ShiftRows only.
        let last = &rk[4 * rounds..];
        for c in 0..4 {
            let col = [
                SBOX[(s[c] >> 24) as usize],
                SBOX[(s[(c + 1) % 4] >> 16 & 0xff) as usize],
                SBOX[(s[(c + 2) % 4] >> 8 & 0xff) as usize],
                SBOX[(s[(c + 3) % 4] & 0xff) as usize],
            ];
            let out = u32::from_be_bytes(col) ^ last[c];
            block[4 * c..4 * c + 4].copy_from_slice(&out.to_be_bytes());
        }
    }
}

/// AES in counter mode: a streaming XOR cipher. Encryption and decryption
/// are the same operation.
#[derive(Debug)]
pub struct AesCtr {
    cipher: Aes,
    counter: [u8; 16],
    keystream: [u8; 16],
    used: usize,
}

impl AesCtr {
    /// Start a CTR stream with the given key and 16-byte initial counter
    /// block (IV).
    pub fn new(key: &[u8], iv: &[u8; 16]) -> AesCtr {
        AesCtr {
            cipher: Aes::new(key),
            counter: *iv,
            keystream: [0; 16],
            used: 16,
        }
    }

    /// Capture the CTR stream position for checkpoint/restore:
    /// `(counter block, buffered keystream, bytes of keystream consumed)`.
    /// The expanded key is NOT captured — the caller re-derives it from the
    /// session secrets it already persists and passes it to
    /// [`AesCtr::from_parts`].
    pub fn to_parts(&self) -> ([u8; 16], [u8; 16], usize) {
        (self.counter, self.keystream, self.used)
    }

    /// Rebuild a CTR stream from a key plus [`AesCtr::to_parts`] output.
    /// `None` if `used` points past the 16-byte keystream block.
    pub fn from_parts(key: &[u8], parts: ([u8; 16], [u8; 16], usize)) -> Option<AesCtr> {
        let (counter, keystream, used) = parts;
        if used > 16 {
            return None;
        }
        Some(AesCtr {
            cipher: Aes::new(key),
            counter,
            keystream,
            used,
        })
    }

    /// The next keystream block into `self.keystream`; advances the counter.
    fn next_block(&mut self) {
        self.keystream = self.counter;
        self.cipher.encrypt_block(&mut self.keystream);
        // big-endian increment of the counter block
        self.counter = u128::from_be_bytes(self.counter)
            .wrapping_add(1)
            .to_be_bytes();
    }

    /// XOR the keystream over `data` in place (encrypt or decrypt).
    ///
    /// Whole blocks are XORed 16 bytes at a time, but the stream position
    /// ([`AesCtr::to_parts`]) ends exactly where a byte-at-a-time walk would
    /// leave it: a block is generated only when a byte needs it, and the
    /// last one generated stays in `keystream`.
    pub fn apply(&mut self, data: &mut [u8]) {
        // Finish the buffered block.
        let head = data.len().min(16 - self.used);
        let (head, rest) = data.split_at_mut(head);
        for byte in head {
            *byte ^= self.keystream[self.used];
            self.used += 1;
        }
        let mut blocks = rest.chunks_exact_mut(16);
        for block in &mut blocks {
            self.next_block();
            for (byte, k) in block.iter_mut().zip(&self.keystream) {
                *byte ^= k;
            }
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            self.next_block();
            for (byte, k) in tail.iter_mut().zip(&self.keystream) {
                *byte ^= k;
            }
            self.used = tail.len();
        }
    }

    /// Convenience: apply to a copy and return it.
    pub fn process(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_to(buf: &mut [u8], s: &str) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
    }

    #[test]
    fn fips197_aes128() {
        let mut key = [0u8; 16];
        hex_to(&mut key, "000102030405060708090a0b0c0d0e0f");
        let mut block = [0u8; 16];
        hex_to(&mut block, "00112233445566778899aabbccddeeff");
        Aes::new(&key).encrypt_block(&mut block);
        let mut want = [0u8; 16];
        hex_to(&mut want, "69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(block, want);
    }

    #[test]
    fn fips197_aes192() {
        let mut key = [0u8; 24];
        hex_to(&mut key, "000102030405060708090a0b0c0d0e0f1011121314151617");
        let mut block = [0u8; 16];
        hex_to(&mut block, "00112233445566778899aabbccddeeff");
        Aes::new(&key).encrypt_block(&mut block);
        let mut want = [0u8; 16];
        hex_to(&mut want, "dda97ca4864cdfe06eaf70a0ec0d7191");
        assert_eq!(block, want);
    }

    #[test]
    fn fips197_aes256() {
        let mut key = [0u8; 32];
        hex_to(
            &mut key,
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
        );
        let mut block = [0u8; 16];
        hex_to(&mut block, "00112233445566778899aabbccddeeff");
        Aes::new(&key).encrypt_block(&mut block);
        let mut want = [0u8; 16];
        hex_to(&mut want, "8ea2b7ca516745bfeafc49904b496089");
        assert_eq!(block, want);
    }

    const NIST_PLAINTEXT: &str = "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
                                  30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";

    fn check_nist_ctr(key_hex: &str, want_hex: &str) {
        let mut key = vec![0u8; key_hex.len() / 2];
        hex_to(&mut key, key_hex);
        let mut iv = [0u8; 16];
        hex_to(&mut iv, "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
        let mut data = [0u8; 64];
        hex_to(&mut data, NIST_PLAINTEXT);
        let mut want = [0u8; 64];
        hex_to(&mut want, want_hex);
        AesCtr::new(&key, &iv).apply(&mut data);
        assert_eq!(data, want);
    }

    #[test]
    fn sp800_38a_f51_ctr_aes128() {
        check_nist_ctr(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
        );
    }

    #[test]
    fn sp800_38a_f55_ctr_aes256() {
        check_nist_ctr(
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5\
             2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6",
        );
    }

    /// The byte-at-a-time CTR walk whose `(counter, keystream, used)` the
    /// v1 snapshots pin.
    fn apply_bytewise(ctr: &mut AesCtr, data: &mut [u8]) {
        for byte in data.iter_mut() {
            if ctr.used == 16 {
                ctr.keystream = ctr.counter;
                ctr.cipher.encrypt_block(&mut ctr.keystream);
                for i in (0..16).rev() {
                    ctr.counter[i] = ctr.counter[i].wrapping_add(1);
                    if ctr.counter[i] != 0 {
                        break;
                    }
                }
                ctr.used = 0;
            }
            *byte ^= ctr.keystream[ctr.used];
            ctr.used += 1;
        }
    }

    #[test]
    fn blockwise_apply_leaves_the_bytewise_stream_position() {
        let key = [0x5au8; 32];
        // low two bytes ff fe: the counter carries into byte 14 on the
        // second block
        let mut iv = [0x11u8; 16];
        iv[14] = 0xff;
        iv[15] = 0xfe;
        let data: Vec<u8> = (0u8..100).collect();
        for len in 0..=100 {
            for chunk in [1usize, 3, 16, 17, 33] {
                let mut fast = AesCtr::new(&key, &iv);
                let mut slow = AesCtr::new(&key, &iv);
                let mut got = data[..len].to_vec();
                let mut want = data[..len].to_vec();
                for (g, w) in got.chunks_mut(chunk).zip(want.chunks_mut(chunk)) {
                    fast.apply(g);
                    apply_bytewise(&mut slow, w);
                    assert_eq!(fast.to_parts(), slow.to_parts(), "len {len} chunk {chunk}");
                }
                assert_eq!(got, want, "len {len} chunk {chunk}");
                assert_eq!(fast.to_parts(), slow.to_parts(), "len {len} chunk {chunk}");
            }
        }
    }

    #[test]
    fn ctr_roundtrip() {
        let key = [0x42u8; 32];
        let iv = [0x24u8; 16];
        let plaintext: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let mut enc = AesCtr::new(&key, &iv);
        let ciphertext = enc.process(&plaintext);
        assert_ne!(ciphertext, plaintext);
        let mut dec = AesCtr::new(&key, &iv);
        assert_eq!(dec.process(&ciphertext), plaintext);
    }

    #[test]
    fn ctr_streaming_matches_oneshot() {
        let key = [7u8; 16];
        let iv = [9u8; 16];
        let data: Vec<u8> = (0u8..200).collect();
        let mut one = AesCtr::new(&key, &iv);
        let whole = one.process(&data);
        let mut stream = AesCtr::new(&key, &iv);
        let mut pieces = Vec::new();
        for chunk in data.chunks(7) {
            pieces.extend(stream.process(chunk));
        }
        assert_eq!(pieces, whole);
    }

    #[test]
    fn ctr_counter_wraps_low_byte() {
        // IV ending in 0xff forces a carry into the next counter byte.
        let key = [1u8; 16];
        let mut iv = [0u8; 16];
        iv[15] = 0xff;
        let data = vec![0u8; 64];
        let mut c = AesCtr::new(&key, &iv);
        let out = c.process(&data);
        // keystream blocks must all differ (counter really increments)
        assert_ne!(out[0..16], out[16..32]);
        assert_ne!(out[16..32], out[32..48]);
    }

    #[test]
    #[should_panic(expected = "invalid AES key length")]
    fn bad_key_length_panics() {
        let _ = Aes::new(&[0u8; 10]);
    }
}
