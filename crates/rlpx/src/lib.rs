//! RLPx: the encrypted, authenticated TCP transport beneath DEVp2p.
//!
//! After discovery finds a peer, the dialer opens TCP and performs the
//! RLPx handshake (EIP-8 framing):
//!
//! 1. initiator → recipient: `auth` — ECIES-encrypted, containing a
//!    signature that proves possession of the static key and transports the
//!    ephemeral public key, plus a 32-byte nonce;
//! 2. recipient → initiator: `ack` — ECIES-encrypted ephemeral key + nonce;
//! 3. both derive the session secrets from the **ephemeral** ECDH secret
//!    and the two nonces, and switch to the framed cipher: AES-256-CTR
//!    payload encryption with a keccak-state MAC per header and frame.
//!
//! Everything is sans-IO: [`Handshake`] consumes and produces byte blobs,
//! [`FrameCodec`] turns messages into frames and back. The caller moves the
//! bytes (over the simulator's TCP streams, or real sockets).
#![forbid(unsafe_code)]
// Unit tests may panic on impossible states; production code may not.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod framing;
mod handshake;

pub use framing::{FrameCodec, FrameError};
pub use handshake::{expected_len, Handshake, HandshakeError, Role, Secrets};
