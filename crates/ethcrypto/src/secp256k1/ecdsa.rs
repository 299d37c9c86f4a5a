//! ECDSA over secp256k1 with deterministic nonces (RFC 6979) and public-key
//! recovery.
//!
//! discv4 packets carry a 65-byte recoverable signature `r || s || v`; the
//! receiver recovers the sender's node ID directly from the signature, so
//! recovery is a first-class operation here rather than an afterthought.

use super::field::Fe;
use super::memo;
use super::point::{double_scalar_mul, scalar_mul_generator, Affine, N};
use super::scalar::mul_mod_n;
use super::{PublicKey, SecretKey};
use crate::hmac::HmacSha256;
use crate::u256::U256;
use crate::CryptoError;

/// An ECDSA signature (r, s), both in `[1, n-1]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// x coordinate of the nonce point, mod n.
    pub r: U256,
    /// Proof scalar.
    pub s: U256,
}

/// A signature plus the recovery id needed to reconstruct the signer's
/// public key. Serialized as the 65-byte `r || s || v` wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoverableSignature {
    /// The (r, s) pair.
    pub sig: Signature,
    /// Recovery id in 0..=3: bit 0 is the nonce point's y parity, bit 1 is
    /// set in the (astronomically rare) case the nonce x exceeded n.
    pub recovery_id: u8,
}

impl RecoverableSignature {
    /// Serialize as `r || s || v` (65 bytes), the discv4 wire layout.
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.sig.r.to_be_bytes());
        out[32..64].copy_from_slice(&self.sig.s.to_be_bytes());
        out[64] = self.recovery_id;
        out
    }

    /// Parse the 65-byte wire form, validating ranges.
    pub fn from_bytes(bytes: &[u8; 65]) -> Result<RecoverableSignature, CryptoError> {
        let mut rb = [0u8; 32];
        let mut sb = [0u8; 32];
        rb.copy_from_slice(&bytes[..32]);
        sb.copy_from_slice(&bytes[32..64]);
        let r = U256::from_be_bytes(&rb);
        let s = U256::from_be_bytes(&sb);
        let recovery_id = bytes[64];
        if r.is_zero() || s.is_zero() || r.ge(&N) || s.ge(&N) || recovery_id > 3 {
            return Err(CryptoError::InvalidSignature);
        }
        Ok(RecoverableSignature {
            sig: Signature { r, s },
            recovery_id,
        })
    }
}

/// Convert a 32-byte digest to a scalar (take the value mod n; for a 256-bit
/// curve no truncation is needed).
fn digest_to_scalar(digest: &[u8; 32]) -> U256 {
    let z = U256::from_be_bytes(digest);
    if z.ge(&N) {
        z.wrapping_sub(&N)
    } else {
        z
    }
}

/// RFC 6979's initial key `K = 0x00…00`, keyed at compile time.
const ZERO_KEYED: HmacSha256 = HmacSha256::keyed(&[0u8; 64]);

/// `HMAC_K(data)` for an already keyed `K`.
fn mac(keyed: &HmacSha256, data: &[u8]) -> [u8; 32] {
    let mut state = keyed.clone();
    state.update(data);
    state.finalize()
}

/// RFC 6979 deterministic nonce generation (HMAC-SHA256 flavour). Each `K`
/// MACs two messages and is keyed once: 16 SHA-256 compressions.
fn rfc6979_nonce(key: &SecretKey, digest: &[u8; 32]) -> U256 {
    let mut v = [0x01u8; 32];
    let mut keyed = ZERO_KEYED;
    // K = HMAC_K(V || sep || x || h); V = HMAC_K(V) — for sep 0x00, then 0x01
    let mut seed = [0u8; 32 + 1 + 32 + 32];
    seed[33..65].copy_from_slice(&key.scalar.to_be_bytes());
    seed[65..].copy_from_slice(digest);
    for sep in [0x00, 0x01] {
        seed[..32].copy_from_slice(&v);
        seed[32] = sep;
        keyed = HmacSha256::new(&mac(&keyed, &seed));
        v = mac(&keyed, &v);
    }

    loop {
        v = mac(&keyed, &v);
        let candidate = U256::from_be_bytes(&v);
        if !candidate.is_zero() && candidate.lt(&N) {
            return candidate;
        }
        // K = HMAC_K(V || 0x00); V = HMAC_K(V)
        let mut retry = [0u8; 33];
        retry[..32].copy_from_slice(&v);
        keyed = HmacSha256::new(&mac(&keyed, &retry));
        v = mac(&keyed, &v);
    }
}

/// Sign a digest, returning a recoverable signature with low-s normalized
/// (as Ethereum requires).
pub fn sign(key: &SecretKey, digest: &[u8; 32]) -> RecoverableSignature {
    let z = digest_to_scalar(digest);
    let mut nonce = rfc6979_nonce(key, digest);
    loop {
        let point = scalar_mul_generator(&nonce);
        let Affine::Point { x, y } = point else {
            // nonce was a multiple of n — impossible for a valid nonce, but
            // loop defensively.
            nonce = nonce.add_mod(&U256::ONE, &N);
            continue;
        };
        // r = x mod n
        let x_int = U256::from_be_bytes(&x.to_be_bytes());
        let overflowed = x_int.ge(&N);
        let r = if overflowed {
            x_int.wrapping_sub(&N)
        } else {
            x_int
        };
        if r.is_zero() {
            nonce = nonce.add_mod(&U256::ONE, &N);
            continue;
        }
        // s = k^-1 (z + r d) mod n
        let kinv = nonce.inv_mod(&N).expect("nonce nonzero");
        let rd = mul_mod_n(&r, &key.scalar);
        let mut s = mul_mod_n(&kinv, &z.add_mod(&rd, &N));
        if s.is_zero() {
            nonce = nonce.add_mod(&U256::ONE, &N);
            continue;
        }
        let mut y_odd = y.is_odd();
        // Low-s normalization flips the nonce point's y parity.
        let half_n_plus = N.shr1(); // floor(n/2); s > half means high
        if s.cmp_u(&half_n_plus) == std::cmp::Ordering::Greater {
            s = N.wrapping_sub(&s);
            y_odd = !y_odd;
        }
        let recovery_id = (y_odd as u8) | ((overflowed as u8) << 1);
        let rsig = RecoverableSignature {
            sig: Signature { r, s },
            recovery_id,
        };
        // Recovering this exact (digest, signature) pair returns the
        // signer's public key by construction of the recovery id — record
        // it now so in-process receivers can skip the group arithmetic.
        memo::sig_put(*digest, rsig.to_bytes(), memo::public_point(&key.scalar));
        return rsig;
    }
}

/// Verify `(r, s)` over `digest` against a public key.
pub fn verify(pk: &PublicKey, digest: &[u8; 32], sig: &Signature) -> bool {
    if sig.r.is_zero() || sig.s.is_zero() || sig.r.ge(&N) || sig.s.ge(&N) {
        return false;
    }
    let z = digest_to_scalar(digest);
    let Some(sinv) = sig.s.inv_mod(&N) else {
        return false;
    };
    let u1 = mul_mod_n(&z, &sinv);
    let u2 = mul_mod_n(&sig.r, &sinv);
    let p = double_scalar_mul(&u1, &u2, &pk.point);
    let Affine::Point { x, .. } = p else {
        return false;
    };
    let x_int = U256::from_be_bytes(&x.to_be_bytes());
    let r_check = if x_int.ge(&N) {
        x_int.wrapping_sub(&N)
    } else {
        x_int
    };
    r_check == sig.r
}

/// Recover the signer's public key from a recoverable signature.
pub fn recover(digest: &[u8; 32], rsig: &RecoverableSignature) -> Result<PublicKey, CryptoError> {
    let sig = &rsig.sig;
    if sig.r.is_zero() || sig.s.is_zero() || sig.r.ge(&N) || sig.s.ge(&N) || rsig.recovery_id > 3 {
        return Err(CryptoError::InvalidSignature);
    }
    // Fast path: a signature produced (or previously recovered) in this
    // process under the same digest — the memo holds exactly the point the
    // computation below would return.
    let wire = rsig.to_bytes();
    if let Some(point) = memo::sig_get(digest, &wire) {
        return Ok(PublicKey { point });
    }
    // Reconstruct the nonce point R from r (+ n if the overflow bit is set).
    let mut x_int = sig.r;
    if rsig.recovery_id & 2 != 0 {
        let (sum, carry) = x_int.overflowing_add(&N);
        if carry || sum.ge(&super::field::P) {
            return Err(CryptoError::InvalidSignature);
        }
        x_int = sum;
    }
    let x_fe = Fe::from_be_bytes(&x_int.to_be_bytes()).ok_or(CryptoError::InvalidSignature)?;
    let y_odd = rsig.recovery_id & 1 != 0;
    let r_point = Affine::from_x(x_fe, y_odd).ok_or(CryptoError::InvalidSignature)?;

    // Q = r^-1 (s*R - z*G)
    let z = digest_to_scalar(digest);
    let rinv = sig.r.inv_mod(&N).ok_or(CryptoError::InvalidSignature)?;
    let u1 = N.wrapping_sub(&mul_mod_n(&z, &rinv)); // -z/r mod n
    let u1 = if u1 == N { U256::ZERO } else { u1 };
    let u2 = mul_mod_n(&sig.s, &rinv); // s/r mod n
    let q = double_scalar_mul(&u1, &u2, &r_point);
    if q.is_infinity() {
        return Err(CryptoError::InvalidSignature);
    }
    memo::sig_put_recovered(*digest, wire, q);
    Ok(PublicKey { point: q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak256;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn test_key(seed: u8) -> SecretKey {
        SecretKey::from_bytes(&[seed; 32]).unwrap()
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = test_key(0x11);
        let digest = keccak256(b"devp2p ping");
        let rsig = sign(&sk, &digest);
        assert!(verify(&sk.public_key(), &digest, &rsig.sig));
        // wrong digest fails
        let other = keccak256(b"devp2p pong");
        assert!(!verify(&sk.public_key(), &other, &rsig.sig));
        // wrong key fails
        assert!(!verify(&test_key(0x22).public_key(), &digest, &rsig.sig));
    }

    #[test]
    fn signing_is_deterministic() {
        let sk = test_key(0x33);
        let digest = keccak256(b"hello");
        assert_eq!(sign(&sk, &digest), sign(&sk, &digest));
        assert_ne!(sign(&sk, &digest).sig, sign(&sk, &keccak256(b"world")).sig);
    }

    #[test]
    fn recovery_roundtrip_many() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..12 {
            let sk = SecretKey::random(&mut rng);
            let mut msg = [0u8; 40];
            rng.fill(&mut msg[..]);
            let digest = keccak256(&msg);
            let rsig = sign(&sk, &digest);
            let recovered = recover(&digest, &rsig).unwrap();
            assert_eq!(recovered, sk.public_key());
        }
    }

    #[test]
    fn low_s_enforced() {
        let mut rng = StdRng::seed_from_u64(5);
        let half = N.shr1();
        for _ in 0..12 {
            let sk = SecretKey::random(&mut rng);
            let digest = keccak256(&rng.gen::<[u8; 32]>());
            let rsig = sign(&sk, &digest);
            assert!(rsig.sig.s.cmp_u(&half) != std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn wire_form_roundtrip() {
        let sk = test_key(0x44);
        let digest = keccak256(b"serialize me");
        let rsig = sign(&sk, &digest);
        let bytes = rsig.to_bytes();
        let back = RecoverableSignature::from_bytes(&bytes).unwrap();
        assert_eq!(back, rsig);
        assert_eq!(recover(&digest, &back).unwrap(), sk.public_key());
    }

    #[test]
    fn tampered_signature_rejected_or_wrong_key() {
        let sk = test_key(0x55);
        let digest = keccak256(b"tamper");
        let rsig = sign(&sk, &digest);
        let mut bytes = rsig.to_bytes();
        bytes[10] ^= 0xff;
        if let Ok(bad) = RecoverableSignature::from_bytes(&bytes) {
            if let Ok(pk) = recover(&digest, &bad) {
                assert_ne!(pk, sk.public_key());
            }
        }
    }

    #[test]
    fn invalid_wire_forms_rejected() {
        let zeros = [0u8; 65];
        assert!(RecoverableSignature::from_bytes(&zeros).is_err());
        let mut bad_v = [1u8; 65];
        bad_v[64] = 7;
        assert!(RecoverableSignature::from_bytes(&bad_v).is_err());
    }
}
