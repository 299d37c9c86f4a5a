//! AES block cipher (FIPS 197) with CTR mode.
//!
//! RLPx encrypts frames with AES-256-CTR (a never-rewinding keystream shared
//! by both directions) and ECIES bodies with AES-128-CTR.

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

fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

/// An expanded AES key (128, 192, or 256 bits). Encryption-only: CTR mode
/// never needs the inverse cipher.
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
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
        let nr = nk + 6;
        let total_words = 4 * (nr + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = [
                    SBOX[temp[1] as usize] ^ RCON[i / nk],
                    SBOX[temp[2] as usize],
                    SBOX[temp[3] as usize],
                    SBOX[temp[0] as usize],
                ];
            } else if nk > 6 && i % nk == 4 {
                temp = [
                    SBOX[temp[0] as usize],
                    SBOX[temp[1] as usize],
                    SBOX[temp[2] as usize],
                    SBOX[temp[3] as usize],
                ];
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        let round_keys = w
            .chunks_exact(4)
            .map(|c| {
                let mut rk = [0u8; 16];
                for (j, word) in c.iter().enumerate() {
                    rk[4 * j..4 * j + 4].copy_from_slice(word);
                }
                rk
            })
            .collect();
        Aes { round_keys }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let nr = self.round_keys.len() - 1;
        add_round_key(block, &self.round_keys[0]);
        for round in 1..nr {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[nr]);
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State is column-major: state[4*col + row].
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[4 * col + row] = s[4 * ((col + row) % 4) + row];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let a0 = state[4 * col];
        let a1 = state[4 * col + 1];
        let a2 = state[4 * col + 2];
        let a3 = state[4 * col + 3];
        state[4 * col] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        state[4 * col + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        state[4 * col + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        state[4 * col + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

/// AES in counter mode: a streaming XOR cipher. Encryption and decryption
/// are the same operation.
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

    /// XOR the keystream over `data` in place (encrypt or decrypt).
    pub fn apply(&mut self, data: &mut [u8]) {
        for byte in data.iter_mut() {
            if self.used == 16 {
                self.keystream = self.counter;
                self.cipher.encrypt_block(&mut self.keystream);
                // big-endian increment of the counter block
                for i in (0..16).rev() {
                    self.counter[i] = self.counter[i].wrapping_add(1);
                    if self.counter[i] != 0 {
                        break;
                    }
                }
                self.used = 0;
            }
            *byte ^= self.keystream[self.used];
            self.used += 1;
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
