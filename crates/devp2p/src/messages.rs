//! DEVp2p base-protocol messages: HELLO, DISCONNECT, PING, PONG.

use enode::NodeId;
use rlp::{Rlp, RlpStream};

/// DEVp2p protocol version spoken by 2018-era clients.
pub const P2P_VERSION: u32 = 5;

/// A capability advertisement: subprotocol name + version, e.g. `eth/63`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Capability {
    /// Short ASCII name (`eth`, `les`, `bzz`, `shh`, `pip`, …).
    pub name: String,
    /// Protocol version.
    pub version: u32,
}

obs::snap_struct!(Capability { name, version });

impl Capability {
    /// Convenience constructor.
    pub fn new(name: &str, version: u32) -> Capability {
        Capability {
            name: name.to_string(),
            version,
        }
    }

    /// `eth/63`, the Mainnet workhorse.
    pub fn eth63() -> Capability {
        Capability::new("eth", 63)
    }

    /// `eth/62`.
    pub fn eth62() -> Capability {
        Capability::new("eth", 62)
    }
}

impl std::fmt::Display for Capability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.name, self.version)
    }
}

impl rlp::Encodable for Capability {
    fn rlp_append(&self, s: &mut RlpStream) {
        s.begin_list(2);
        s.append(&self.name);
        s.append(&self.version);
    }
}

impl rlp::Decodable for Capability {
    fn rlp_decode(r: &Rlp<'_>) -> Result<Self, rlp::RlpError> {
        // Lenient-decode policy (EIP-8 style): >= 2 fields, extras
        // tolerated and counted. See DESIGN.md § Wire conformance.
        let count = r.item_count()?;
        if count < 2 {
            return Err(rlp::RlpError::Custom("capability needs >= 2 fields"));
        }
        if count > 2 {
            obs::counter_add("wire.extra.capability", 1);
        }
        Ok(Capability {
            name: r.at(0)?.as_val()?,
            version: r.at(1)?.as_val()?,
        })
    }
}

impl rlp::EncodableListElem for Capability {}
impl rlp::DecodableListElem for Capability {}

/// The HELLO message: the first thing each peer sends (§2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// DEVp2p version.
    pub p2p_version: u32,
    /// Free-form client identifier, e.g. `Geth/v1.8.11-stable/linux-amd64/go1.10`.
    pub client_id: String,
    /// Supported subprotocols.
    pub capabilities: Vec<Capability>,
    /// Advertised listen port (de-facto unused by clients, footnote 2).
    pub listen_port: u16,
    /// The sender's node ID.
    pub node_id: NodeId,
}

obs::snap_struct!(Hello {
    p2p_version,
    client_id,
    capabilities,
    listen_port,
    node_id
});

/// DISCONNECT reason codes (devp2p spec). The paper's Table 1 tallies
/// these from the two case-study nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum DisconnectReason {
    /// 0x00 — Disconnect requested.
    Requested = 0x00,
    /// 0x01 — TCP subsystem error.
    TcpError = 0x01,
    /// 0x02 — Breach of protocol.
    ProtocolBreach = 0x02,
    /// 0x03 — Useless peer (e.g. no shared capabilities).
    UselessPeer = 0x03,
    /// 0x04 — Too many peers: the dominant reason on the 2018 network.
    TooManyPeers = 0x04,
    /// 0x05 — Already connected.
    AlreadyConnected = 0x05,
    /// 0x06 — Incompatible DEVp2p version.
    IncompatibleVersion = 0x06,
    /// 0x07 — Null node identity.
    NullIdentity = 0x07,
    /// 0x08 — Client quitting.
    ClientQuitting = 0x08,
    /// 0x09 — Unexpected identity (dialed ID ≠ handshake ID).
    UnexpectedIdentity = 0x09,
    /// 0x0a — Connected to self.
    SelfConnect = 0x0a,
    /// 0x0b — Read timeout. Parity treats every code above this as
    /// "Unknown" and never sends them (§3 observation 4).
    ReadTimeout = 0x0b,
    /// 0x10 — Subprotocol-specific error (e.g. wrong genesis/network in the
    /// eth STATUS exchange).
    SubprotocolError = 0x10,
}

impl DisconnectReason {
    /// All defined reasons, for tallies.
    pub const ALL: [DisconnectReason; 13] = [
        DisconnectReason::Requested,
        DisconnectReason::TcpError,
        DisconnectReason::ProtocolBreach,
        DisconnectReason::UselessPeer,
        DisconnectReason::TooManyPeers,
        DisconnectReason::AlreadyConnected,
        DisconnectReason::IncompatibleVersion,
        DisconnectReason::NullIdentity,
        DisconnectReason::ClientQuitting,
        DisconnectReason::UnexpectedIdentity,
        DisconnectReason::SelfConnect,
        DisconnectReason::ReadTimeout,
        DisconnectReason::SubprotocolError,
    ];

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<DisconnectReason> {
        Self::ALL.into_iter().find(|r| *r as u8 == code)
    }

    /// Human-readable label matching the paper's Table 1 rows.
    pub fn label(&self) -> &'static str {
        match self {
            DisconnectReason::Requested => "Disconnect requested",
            DisconnectReason::TcpError => "TCP error",
            DisconnectReason::ProtocolBreach => "Breach of protocol",
            DisconnectReason::UselessPeer => "Useless peer",
            DisconnectReason::TooManyPeers => "Too many peers",
            DisconnectReason::AlreadyConnected => "Already connected",
            DisconnectReason::IncompatibleVersion => "Incompatible version",
            DisconnectReason::NullIdentity => "Null identity",
            DisconnectReason::ClientQuitting => "Client quitting",
            DisconnectReason::UnexpectedIdentity => "Unexpected identity",
            DisconnectReason::SelfConnect => "Self connect",
            DisconnectReason::ReadTimeout => "Read timeout",
            DisconnectReason::SubprotocolError => "Subprotocol error",
        }
    }
}

impl std::fmt::Display for DisconnectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Decoded base-protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// `0x00`
    Hello(Hello),
    /// `0x01`
    Disconnect(DisconnectReason),
    /// `0x02` — DEVp2p keepalive (distinct from the discv4 PING).
    Ping,
    /// `0x03`
    Pong,
}

/// Base-protocol codec failures.
#[derive(Debug, Clone, PartialEq)]
pub enum MessageError {
    /// RLP-level failure.
    Rlp(rlp::RlpError),
    /// Unknown base-protocol message id.
    UnknownId(u64),
    /// Unknown disconnect code.
    BadReason(u8),
}

impl std::fmt::Display for MessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageError::Rlp(e) => write!(f, "devp2p rlp error: {e}"),
            MessageError::UnknownId(id) => write!(f, "unknown devp2p message id {id}"),
            MessageError::BadReason(c) => write!(f, "unknown disconnect code {c:#x}"),
        }
    }
}

impl std::error::Error for MessageError {}

impl Message {
    /// Base-protocol message id.
    pub fn msg_id(&self) -> u64 {
        match self {
            Message::Hello(_) => 0x00,
            Message::Disconnect(_) => 0x01,
            Message::Ping => 0x02,
            Message::Pong => 0x03,
        }
    }

    /// Encode the message payload (what follows the id inside the frame).
    pub fn encode_payload(&self) -> Vec<u8> {
        match self {
            Message::Hello(h) => {
                let mut s = RlpStream::new_list(5);
                s.append(&h.p2p_version);
                s.append(&h.client_id);
                s.begin_list(h.capabilities.len());
                for c in &h.capabilities {
                    s.append(c);
                }
                s.append(&h.listen_port);
                s.append(&h.node_id);
                s.out()
            }
            Message::Disconnect(reason) => {
                let mut s = RlpStream::new_list(1);
                s.append(&(*reason as u8));
                s.out()
            }
            // Geth sends ping/pong as empty lists.
            Message::Ping | Message::Pong => {
                let s = RlpStream::new_list(0);
                s.out()
            }
        }
    }

    /// Decode a base-protocol message from `(id, payload)`.
    pub fn decode(msg_id: u64, payload: &[u8]) -> Result<Message, MessageError> {
        let r = Rlp::new(payload);
        match msg_id {
            0x00 => {
                let count = r.item_count().map_err(MessageError::Rlp)?;
                if count < 5 {
                    return Err(MessageError::Rlp(rlp::RlpError::Custom(
                        "hello needs 5 fields",
                    )));
                }
                if count > 5 {
                    obs::counter_add("wire.extra.hello", 1);
                }
                Ok(Message::Hello(Hello {
                    p2p_version: r
                        .at(0)
                        .and_then(|i| i.as_val())
                        .map_err(MessageError::Rlp)?,
                    client_id: r
                        .at(1)
                        .and_then(|i| i.as_val())
                        .map_err(MessageError::Rlp)?,
                    capabilities: r
                        .at(2)
                        .and_then(|i| i.as_list())
                        .map_err(MessageError::Rlp)?,
                    listen_port: r
                        .at(3)
                        .and_then(|i| i.as_val())
                        .map_err(MessageError::Rlp)?,
                    node_id: r
                        .at(4)
                        .and_then(|i| i.as_val())
                        .map_err(MessageError::Rlp)?,
                }))
            }
            0x01 => {
                // Geth occasionally sends the bare integer rather than a
                // one-element list; accept both (the paper's scanner must
                // parse everything the zoo sends).
                let code: u8 = if r.is_list() {
                    if r.item_count().map_err(MessageError::Rlp)? > 1 {
                        obs::counter_add("wire.extra.disconnect", 1);
                    }
                    r.at(0)
                        .and_then(|i| i.as_val())
                        .map_err(MessageError::Rlp)?
                } else {
                    r.as_val().map_err(MessageError::Rlp)?
                };
                let reason =
                    DisconnectReason::from_code(code).ok_or(MessageError::BadReason(code))?;
                Ok(Message::Disconnect(reason))
            }
            0x02 => Ok(Message::Ping),
            0x03 => Ok(Message::Pong),
            other => Err(MessageError::UnknownId(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> Hello {
        Hello {
            p2p_version: P2P_VERSION,
            client_id: "Geth/v1.8.11-stable/linux-amd64/go1.10".into(),
            capabilities: vec![Capability::eth62(), Capability::eth63()],
            listen_port: 30303,
            node_id: NodeId([0x42u8; 64]),
        }
    }

    #[test]
    fn hello_roundtrip() {
        let msg = Message::Hello(hello());
        let payload = msg.encode_payload();
        assert_eq!(Message::decode(0x00, &payload).unwrap(), msg);
    }

    #[test]
    fn disconnect_roundtrip_all_reasons() {
        for reason in DisconnectReason::ALL {
            let msg = Message::Disconnect(reason);
            let payload = msg.encode_payload();
            assert_eq!(Message::decode(0x01, &payload).unwrap(), msg);
        }
    }

    #[test]
    fn disconnect_bare_integer_accepted() {
        let payload = rlp::encode(&0x04u8);
        assert_eq!(
            Message::decode(0x01, &payload).unwrap(),
            Message::Disconnect(DisconnectReason::TooManyPeers)
        );
    }

    #[test]
    fn ping_pong_roundtrip() {
        assert_eq!(
            Message::decode(0x02, &Message::Ping.encode_payload()).unwrap(),
            Message::Ping
        );
        assert_eq!(
            Message::decode(0x03, &Message::Pong.encode_payload()).unwrap(),
            Message::Pong
        );
    }

    #[test]
    fn unknown_id_rejected() {
        assert_eq!(
            Message::decode(0x07, &[0xc0]),
            Err(MessageError::UnknownId(0x07))
        );
    }

    #[test]
    fn unknown_reason_rejected() {
        let payload = rlp::encode(&0x0fu8);
        assert_eq!(
            Message::decode(0x01, &payload),
            Err(MessageError::BadReason(0x0f))
        );
    }

    #[test]
    fn reason_codes_match_spec() {
        assert_eq!(DisconnectReason::TooManyPeers as u8, 0x04);
        assert_eq!(DisconnectReason::SubprotocolError as u8, 0x10);
        assert_eq!(
            DisconnectReason::from_code(0x04),
            Some(DisconnectReason::TooManyPeers)
        );
        assert_eq!(DisconnectReason::from_code(0xff), None);
    }

    #[test]
    fn capability_display() {
        assert_eq!(Capability::eth63().to_string(), "eth/63");
    }

    #[test]
    fn hello_extra_trailing_fields_tolerated_and_counted() {
        // EIP-8-style HELLO: a sixth field from a future DEVp2p version
        // must decode and be counted, not dropped.
        let h = hello();
        let mut s = RlpStream::new_list(6);
        s.append(&h.p2p_version);
        s.append(&h.client_id);
        s.begin_list(h.capabilities.len());
        for c in &h.capabilities {
            s.append(c);
        }
        s.append(&h.listen_port);
        s.append(&h.node_id);
        s.append_bytes(b"from-the-future");
        let payload = s.out();

        let rec = obs::Recorder::new();
        rec.install();
        let decoded = Message::decode(0x00, &payload).unwrap();
        obs::uninstall();
        assert_eq!(decoded, Message::Hello(h));
        assert_eq!(rec.counter("wire.extra.hello"), 1);
    }

    #[test]
    fn capability_extra_field_tolerated_and_counted() {
        let mut s = RlpStream::new_list(3);
        s.append(&"eth");
        s.append(&63u32);
        s.append(&1u8);
        let rec = obs::Recorder::new();
        rec.install();
        let cap = rlp::decode::<Capability>(&s.out()).unwrap();
        obs::uninstall();
        assert_eq!(cap, Capability::eth63());
        assert_eq!(rec.counter("wire.extra.capability"), 1);
    }

    #[test]
    fn disconnect_extra_list_elements_tolerated_and_counted() {
        let mut s = RlpStream::new_list(2);
        s.append(&0x04u8);
        s.append(&"why");
        let rec = obs::Recorder::new();
        rec.install();
        let decoded = Message::decode(0x01, &s.out()).unwrap();
        obs::uninstall();
        assert_eq!(decoded, Message::Disconnect(DisconnectReason::TooManyPeers));
        assert_eq!(rec.counter("wire.extra.disconnect"), 1);
    }

    #[test]
    fn hello_with_exotic_capabilities() {
        let mut h = hello();
        h.capabilities = vec![
            Capability::new("bzz", 1),
            Capability::new("shh", 2),
            Capability::new("istanbul", 64),
            Capability::new("dbix", 62),
        ];
        let msg = Message::Hello(h);
        let payload = msg.encode_payload();
        assert_eq!(Message::decode(0x00, &payload).unwrap(), msg);
    }
}
