//! The DEVp2p session ("wire") protocol.
//!
//! Once RLPx encryption is up, peers negotiate an application session:
//! each side sends HELLO (protocol version, client name, capability list,
//! listen port, node id); the intersection of capability lists determines
//! which subprotocols run and how message-ID space above `0x10` is shared
//! between them. DISCONNECT carries one of sixteen reason codes — the
//! paper's Table 1 is a tally of exactly these.
//!
//! The [`Session`] state machine is transport-agnostic: it maps inbound
//! `(msg_id, payload)` pairs to events and produces outbound messages.
#![forbid(unsafe_code)]
// Unit tests may panic on impossible states; production code may not.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod messages;
mod session;

pub use messages::{Capability, DisconnectReason, Hello, Message, MessageError, P2P_VERSION};
pub use session::{Session, SessionError, SessionEvent, SharedCapability, BASE_PROTOCOL_OFFSET};

/// Message-ID space length for well-known capabilities. DEVp2p assigns each
/// negotiated capability a contiguous ID range; its size is fixed by the
/// subprotocol's spec, so both sides must already know it.
pub fn capability_length(name: &str, version: u32) -> usize {
    match (name, version) {
        ("eth", 62) => 8,
        ("eth", 63) => 17,
        ("eth", _) => 17,
        ("les", _) => 21,
        ("pip", _) => 21,
        ("shh", _) => 2,
        ("bzz", _) => 14,
        // Unknown subprotocols get a generous default window; only relative
        // layout matters for the simulation.
        _ => 16,
    }
}
