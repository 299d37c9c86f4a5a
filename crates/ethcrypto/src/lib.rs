//! Cryptographic primitives for the Ethereum P2P stack, implemented from
//! scratch in pure Rust.
//!
//! Every algorithm here is required by some layer of the network protocols
//! reproduced in this workspace:
//!
//! | Primitive | Used by |
//! |---|---|
//! | [`keccak256`] | discv4 packet integrity, RLPx MAC, node-distance metric, block hashes |
//! | [`keccak512`] | RLPx handshake key derivation |
//! | [`fn@sha256`] / [`hmac_sha256`] | ECIES KDF and message authentication |
//! | [`aes`] (CTR mode) | ECIES body encryption, RLPx frame cipher |
//! | [`secp256k1`] | node identity keys, discv4 packet signatures (with public-key recovery), ECDH for RLPx/ECIES |
//! | [`ecies`] | RLPx `auth`/`ack` handshake message encryption |
//!
//! A simulated crawl spends most of its host time in this crate (DESIGN.md
//! § Performance, "Where host time goes"), so the secp256k1 and AES kernels
//! are written for speed — GLV scalar multiplication, carry-chain field
//! arithmetic, T-table AES — in safe Rust, each beside a slow, obviously
//! correct path that the tests use as an oracle. [`secp256k1`] also memoizes
//! its pure public-key operations per thread (derived keys, signature →
//! signer, ECDH pairs), and because a simulated world derives every key it
//! uses, the derivation memo doubles as a table of known discrete logs: an
//! ECDH against a key derived on the same thread is one fixed-base
//! multiplication by `a·b mod n`, and only keys that arrive as bytes pay
//! the variable-base one — same output either way. Nothing here is hardened
//! against timing side channels (lookups and branches depend on secrets):
//! the crate exists to run a protocol-faithful measurement simulation, not
//! to guard real funds.
//!
//! # Example: sign and recover
//!
//! ```
//! use ethcrypto::secp256k1::{SecretKey, recover};
//! use ethcrypto::keccak256;
//!
//! let sk = SecretKey::from_bytes(&[7u8; 32]).unwrap();
//! let digest = keccak256(b"find me a node");
//! let sig = sk.sign_recoverable(&digest);
//! let pk = recover(&digest, &sig).unwrap();
//! assert_eq!(pk, sk.public_key());
//! ```
#![forbid(unsafe_code)]

pub mod aes;
pub mod ecies;
pub mod hmac;
pub mod keccak;
mod modinv;
pub mod secp256k1;
pub mod sha256;
mod u256;

pub use hmac::hmac_sha256;
pub use keccak::{keccak256, keccak512, Keccak};
pub use sha256::{sha256, Sha256};
pub use u256::U256;

/// Errors produced by the primitives in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// A secret key was zero or >= the curve order.
    InvalidSecretKey,
    /// A public key was not a valid curve point.
    InvalidPublicKey,
    /// A signature component was out of range or the recovery id invalid.
    InvalidSignature,
    /// ECIES MAC check failed or ciphertext was structurally invalid.
    DecryptionFailed,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::InvalidSecretKey => write!(f, "invalid secp256k1 secret key"),
            CryptoError::InvalidPublicKey => write!(f, "invalid secp256k1 public key"),
            CryptoError::InvalidSignature => write!(f, "invalid ECDSA signature"),
            CryptoError::DecryptionFailed => write!(f, "ECIES decryption failed"),
        }
    }
}

impl std::error::Error for CryptoError {}
