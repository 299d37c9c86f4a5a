//! ECIES (Elliptic Curve Integrated Encryption Scheme) as used by the RLPx
//! `auth`/`ack` handshake messages.
//!
//! The exact construction (matching Geth's `p2p/crypto` package):
//!
//! 1. generate an ephemeral secp256k1 key `E`;
//! 2. `Z` = x coordinate of `E · recipient_pub` (raw ECDH);
//! 3. derive 32 bytes via the NIST SP 800-56 concatenation KDF over SHA-256:
//!    `kE` = first 16 bytes (AES-128-CTR key), `kM` = last 16 bytes;
//! 4. the MAC key is `SHA-256(kM)`;
//! 5. output `0x04 ‖ E_pub ‖ IV ‖ AES-CTR(kE, IV, m) ‖ HMAC(mac_key, IV ‖ c ‖ s2)`
//!
//! where `s2` is optional shared MAC data (RLPx feeds the EIP-8 size prefix
//! through it).

use crate::aes::AesCtr;
use crate::hmac::HmacSha256;
use crate::secp256k1::{PublicKey, SecretKey};
use crate::sha256::Sha256;
use crate::CryptoError;

/// Byte overhead added by ECIES: 1 (0x04) + 64 (ephemeral pub) + 16 (IV) +
/// 32 (MAC tag).
pub const OVERHEAD: usize = 1 + 64 + 16 + 32;

/// NIST SP 800-56 concatenation KDF producing `len` bytes from shared secret
/// `z` (single-hash-round variant is enough for 32 bytes but we implement the
/// full counter loop).
pub fn concat_kdf(z: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter: u32 = 1;
    while out.len() < len {
        let mut h = Sha256::new();
        h.update(&counter.to_be_bytes());
        h.update(z);
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

/// Encrypt `plaintext` to `recipient`, mixing `shared_mac_data` into the MAC.
pub fn encrypt<R: rand::Rng + ?Sized>(
    rng: &mut R,
    recipient: &PublicKey,
    plaintext: &[u8],
    shared_mac_data: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let ephemeral = SecretKey::random(rng);
    let z = ephemeral.ecdh(recipient)?;
    let keys = concat_kdf(&z, 32);
    let ke = &keys[..16];
    let km = &keys[16..];
    let mac_key = crate::sha256::sha256(km);

    let mut iv = [0u8; 16];
    rng.fill(&mut iv[..]);

    let mut cipher = AesCtr::new(ke, &iv);
    let ciphertext = cipher.process(plaintext);

    let mut out = Vec::with_capacity(OVERHEAD + plaintext.len());
    out.push(0x04);
    out.extend_from_slice(&ephemeral.public_key().to_xy_bytes());
    out.extend_from_slice(&iv);
    out.extend_from_slice(&ciphertext);

    let mut mac = HmacSha256::new(&mac_key);
    mac.update(&iv);
    mac.update(&ciphertext);
    mac.update(shared_mac_data);
    out.extend_from_slice(&mac.finalize());
    Ok(out)
}

/// Decrypt an ECIES message addressed to `secret`.
pub fn decrypt(
    secret: &SecretKey,
    message: &[u8],
    shared_mac_data: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if message.len() < OVERHEAD || message[0] != 0x04 {
        return Err(CryptoError::DecryptionFailed);
    }
    let ephemeral_pub: [u8; 64] = message[1..65].try_into().unwrap();
    let ephemeral =
        PublicKey::from_xy_bytes(&ephemeral_pub).map_err(|_| CryptoError::DecryptionFailed)?;
    let iv: [u8; 16] = message[65..81].try_into().unwrap();
    let tag_start = message.len() - 32;
    let ciphertext = &message[81..tag_start];
    let tag = &message[tag_start..];

    let z = secret.ecdh(&ephemeral)?;
    let keys = concat_kdf(&z, 32);
    let ke = &keys[..16];
    let km = &keys[16..];
    let mac_key = crate::sha256::sha256(km);

    let mut mac = HmacSha256::new(&mac_key);
    mac.update(&iv);
    mac.update(ciphertext);
    mac.update(shared_mac_data);
    let expected = mac.finalize();
    // Measurement tool, not a wallet: plain comparison is fine here.
    if expected != tag {
        return Err(CryptoError::DecryptionFailed);
    }

    let mut cipher = AesCtr::new(ke, &iv);
    Ok(cipher.process(ciphertext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let sk = SecretKey::random(&mut rng);
        let msg = b"rlpx auth body: a signed handshake payload";
        let ct = encrypt(&mut rng, &sk.public_key(), msg, b"").unwrap();
        assert_eq!(ct.len(), msg.len() + OVERHEAD);
        let pt = decrypt(&sk, &ct, b"").unwrap();
        assert_eq!(pt, msg);
    }

    #[test]
    fn roundtrip_with_shared_mac_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let sk = SecretKey::random(&mut rng);
        let msg = b"eip-8 style message";
        let prefix = [0x01u8, 0x94];
        let ct = encrypt(&mut rng, &sk.public_key(), msg, &prefix).unwrap();
        assert_eq!(decrypt(&sk, &ct, &prefix).unwrap(), msg);
        // wrong shared mac data fails authentication
        assert_eq!(
            decrypt(&sk, &ct, b"").unwrap_err(),
            CryptoError::DecryptionFailed
        );
    }

    #[test]
    fn wrong_recipient_fails() {
        let mut rng = StdRng::seed_from_u64(3);
        let alice = SecretKey::random(&mut rng);
        let eve = SecretKey::random(&mut rng);
        let ct = encrypt(&mut rng, &alice.public_key(), b"secret", b"").unwrap();
        assert!(decrypt(&eve, &ct, b"").is_err());
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let sk = SecretKey::random(&mut rng);
        let mut ct = encrypt(&mut rng, &sk.public_key(), b"hello hello", b"").unwrap();
        let mid = ct.len() / 2;
        ct[mid] ^= 0x01;
        assert!(decrypt(&sk, &ct, b"").is_err());
    }

    #[test]
    fn truncated_message_fails_cleanly() {
        let mut rng = StdRng::seed_from_u64(5);
        let sk = SecretKey::random(&mut rng);
        let ct = encrypt(&mut rng, &sk.public_key(), b"x", b"").unwrap();
        for len in [0, 1, 64, OVERHEAD - 1] {
            assert!(decrypt(&sk, &ct[..len.min(ct.len())], b"").is_err());
        }
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let sk = SecretKey::random(&mut rng);
        let ct = encrypt(&mut rng, &sk.public_key(), b"", b"").unwrap();
        assert_eq!(decrypt(&sk, &ct, b"").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn kdf_expected_lengths_and_determinism() {
        let z = [0x55u8; 32];
        let k32 = concat_kdf(&z, 32);
        let k64 = concat_kdf(&z, 64);
        assert_eq!(k32.len(), 32);
        assert_eq!(k64.len(), 64);
        assert_eq!(&k64[..32], &k32[..]);
        assert_eq!(concat_kdf(&z, 32), k32);
        // counter actually advances: second block differs from first
        assert_ne!(&k64[..32], &k64[32..]);
    }
}
