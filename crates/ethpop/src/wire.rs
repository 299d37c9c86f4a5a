//! `PeerConn`: drives one RLPx + DEVp2p + eth connection over a simulated
//! TCP stream.
//!
//! Both the behavioral nodes and NodeFinder itself use this driver; policy
//! (when to dial, when to disconnect, what to log) lives with the caller.

use bytes::BytesMut;
use devp2p::{DisconnectReason, Hello, Session, SessionEvent, SharedCapability};
use enode::NodeId;
use ethcrypto::secp256k1::SecretKey;
use ethwire::EthMessage;
use netsim::{ConnId, Snap, SnapError, SnapReader, SnapWriter};
use rlpx::{expected_len, FrameCodec, Handshake, Role};

/// Things a connection surfaces to its owner.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// RLPx handshake finished; DEVp2p HELLO is on its way.
    RlpxEstablished {
        /// Authenticated peer identity.
        peer_id: NodeId,
    },
    /// The peer's HELLO arrived.
    Hello {
        /// The HELLO contents.
        hello: Hello,
        /// Negotiated capabilities (empty ⇒ useless peer).
        shared: Vec<SharedCapability>,
    },
    /// An eth-subprotocol message arrived.
    Eth(EthMessage),
    /// A message for a non-eth capability arrived (counted, not decoded).
    OtherSubprotocol {
        /// Capability name.
        cap: String,
        /// Relative message id.
        msg: u64,
    },
    /// DEVp2p keepalive ping (pong is queued automatically).
    Ping,
    /// DEVp2p keepalive answer.
    Pong,
    /// The peer sent DISCONNECT.
    Disconnected(DisconnectReason),
    /// The peer violated the protocol; the owner should close the socket.
    ProtocolError(&'static str),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Waiting for TCP to come up (dialer only).
    Connecting,
    /// RLPx auth/ack in flight.
    Handshaking,
    /// Framed session running.
    Active,
    /// Terminal.
    Dead,
}

netsim::snap_enum!(Stage { 0 => Connecting, 1 => Handshaking, 2 => Active, 3 => Dead });

/// One peer connection's full protocol state.
///
/// Owners keep these by the thousand in `BTreeMap`s, whose nodes hold
/// eleven values each, so a part only some stages hold is boxed: the
/// handshake until the ack, the codec and session after it.
#[derive(Debug)]
pub struct PeerConn {
    /// Simulator connection id.
    pub conn: ConnId,
    role: Role,
    stage: Stage,
    handshake: Option<Box<Handshake>>,
    remote_id_hint: Option<NodeId>,
    codec: Option<Box<FrameCodec>>,
    session: Option<Box<Session>>,
    /// Our HELLO until the session starts and takes it; the session
    /// holds it from then on (see [`PeerConn::local_hello`]).
    local_hello: Option<Hello>,
    /// Received bytes not yet consumed; unallocated whenever drained.
    inbuf: BytesMut,
    /// Authenticated peer id (after RLPx).
    pub peer_id: Option<NodeId>,
    /// When the dial/accept happened (caller's clock, ms).
    pub opened_at_ms: u64,
}

impl PeerConn {
    /// A connection we are dialing; call [`PeerConn::on_tcp_connected`]
    /// when the simulator reports the socket is up.
    pub fn dialing(conn: ConnId, remote_id: NodeId, local_hello: Hello, now_ms: u64) -> PeerConn {
        PeerConn {
            conn,
            role: Role::Initiator,
            stage: Stage::Connecting,
            handshake: None,
            remote_id_hint: Some(remote_id),
            codec: None,
            session: None,
            local_hello: Some(local_hello),
            inbuf: BytesMut::new(),
            peer_id: None,
            opened_at_ms: now_ms,
        }
    }

    /// A connection a remote opened to us.
    pub fn accepted(conn: ConnId, local_hello: Hello, now_ms: u64) -> PeerConn {
        PeerConn {
            conn,
            role: Role::Recipient,
            stage: Stage::Handshaking,
            handshake: None,
            remote_id_hint: None,
            codec: None,
            session: None,
            local_hello: Some(local_hello),
            inbuf: BytesMut::new(),
            peer_id: None,
            opened_at_ms: now_ms,
        }
    }

    /// Whether the DEVp2p session is active (HELLO exchanged).
    pub fn is_active(&self) -> bool {
        self.stage == Stage::Active
            && self
                .session
                .as_ref()
                .map(|s| s.is_active())
                .unwrap_or(false)
    }

    /// Whether the connection is dead.
    pub fn is_dead(&self) -> bool {
        self.stage == Stage::Dead
    }

    /// Negotiated capabilities (empty before HELLO).
    pub fn shared_capabilities(&self) -> &[SharedCapability] {
        self.session
            .as_ref()
            .map(|s| s.shared_capabilities())
            .unwrap_or(&[])
    }

    /// The peer's HELLO (after the exchange).
    pub fn remote_hello(&self) -> Option<&Hello> {
        self.session.as_ref().and_then(|s| s.remote_hello())
    }

    /// Heap this connection holds outside its own struct: the boxed
    /// handshake, codec and session, and the receive buffer's capacity
    /// (not what those point to in turn).
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.handshake
            .as_ref()
            .map_or(0, |_| size_of::<Handshake>())
            + self.codec.as_ref().map_or(0, |_| size_of::<FrameCodec>())
            + self.session.as_ref().map_or(0, |_| size_of::<Session>())
            + self.inbuf.capacity()
    }

    /// TCP came up (dialer side): start the RLPx handshake. Returns bytes
    /// to send.
    pub fn on_tcp_connected<R: rand::Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        key: &SecretKey,
    ) -> Vec<Vec<u8>> {
        debug_assert_eq!(self.role, Role::Initiator);
        let mut hs = Handshake::new(Role::Initiator, *key, rng);
        let remote = self.remote_id_hint.expect("dialer knows remote id");
        match hs.write_auth(rng, &remote) {
            Ok(auth) => {
                self.handshake = Some(Box::new(hs));
                self.stage = Stage::Handshaking;
                vec![auth]
            }
            Err(_) => {
                // Remote id is not a valid public key (spammer identities):
                // the dial is a dud.
                self.stage = Stage::Dead;
                Vec::new()
            }
        }
    }

    /// Stream bytes arrived. Returns `(events, bytes_to_send)`.
    pub fn on_data<R: rand::Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        key: &SecretKey,
        bytes: &[u8],
    ) -> (Vec<WireEvent>, Vec<Vec<u8>>) {
        let mut events = Vec::new();
        let mut out = Vec::new();
        self.inbuf.extend_from_slice(bytes);
        loop {
            match self.stage {
                Stage::Dead | Stage::Connecting => break,
                Stage::Handshaking => {
                    if self.inbuf.len() < 2 {
                        break;
                    }
                    let prefix = [self.inbuf[0], self.inbuf[1]];
                    let need = expected_len(&prefix);
                    if self.inbuf.len() < need {
                        break;
                    }
                    let msg: Vec<u8> = self.inbuf.split_to(need).to_vec();
                    match self.role {
                        Role::Recipient => {
                            let mut hs = Handshake::new(Role::Recipient, *key, rng);
                            match hs.read_auth(rng, &msg) {
                                Ok(ack) => {
                                    out.push(ack);
                                    self.finish_handshake(&hs, &mut events);
                                }
                                Err(_) => {
                                    self.stage = Stage::Dead;
                                    events.push(WireEvent::ProtocolError("bad auth"));
                                    break;
                                }
                            }
                        }
                        Role::Initiator => {
                            let mut hs = self.handshake.take().expect("auth was sent");
                            match hs.read_ack(&msg) {
                                Ok(()) => self.finish_handshake(&hs, &mut events),
                                Err(_) => {
                                    self.stage = Stage::Dead;
                                    events.push(WireEvent::ProtocolError("bad ack"));
                                    break;
                                }
                            }
                        }
                    }
                    // Our HELLO was queued by the new session: flush it.
                    out.extend(self.flush_session());
                }
                Stage::Active => {
                    let codec = self.codec.as_mut().expect("active implies codec");
                    match codec.read_frame(&mut self.inbuf) {
                        Ok(Some(frame)) => {
                            self.on_frame(&frame, &mut events);
                            out.extend(self.flush_session());
                        }
                        Ok(None) => break,
                        Err(_) => {
                            self.stage = Stage::Dead;
                            events.push(WireEvent::ProtocolError("bad frame"));
                            break;
                        }
                    }
                }
            }
        }
        if self.inbuf.is_empty() {
            // `BytesMut` keeps its capacity when drained; a connection
            // idles far longer than it reads, so give the buffer back.
            self.inbuf = BytesMut::new();
        }
        (events, out)
    }

    fn finish_handshake(&mut self, hs: &Handshake, events: &mut Vec<WireEvent>) {
        match hs.secrets() {
            Ok(secrets) => {
                let peer_id = secrets.peer_id;
                let hello = self
                    .local_hello
                    .take()
                    .expect("no session before the handshake");
                self.peer_id = Some(peer_id);
                self.codec = Some(Box::new(FrameCodec::new(secrets)));
                self.session = Some(Box::new(Session::new(hello)));
                self.stage = Stage::Active;
                events.push(WireEvent::RlpxEstablished { peer_id });
            }
            Err(_) => {
                self.stage = Stage::Dead;
                events.push(WireEvent::ProtocolError("secret derivation"));
            }
        }
    }

    fn on_frame(&mut self, frame: &[u8], events: &mut Vec<WireEvent>) {
        // frame = rlp(msg_id) ‖ payload
        let r = rlp::Rlp::new(frame);
        let Ok(msg_id) = r.as_u64() else {
            events.push(WireEvent::ProtocolError("bad msg id"));
            self.stage = Stage::Dead;
            return;
        };
        let Ok(id_len) = r.item_len() else {
            events.push(WireEvent::ProtocolError("bad msg id len"));
            self.stage = Stage::Dead;
            return;
        };
        let payload = &frame[id_len..];
        let session = self.session.as_mut().expect("active implies session");
        match session.on_message(msg_id, payload) {
            Ok(SessionEvent::HelloReceived { hello, shared }) => {
                events.push(WireEvent::Hello { hello, shared });
            }
            Ok(SessionEvent::Disconnected(reason)) => {
                self.stage = Stage::Dead;
                events.push(WireEvent::Disconnected(reason));
            }
            Ok(SessionEvent::PingReceived) => events.push(WireEvent::Ping),
            Ok(SessionEvent::PongReceived) => events.push(WireEvent::Pong),
            Ok(SessionEvent::Subprotocol {
                cap,
                version: _,
                msg,
                payload,
            }) => {
                if cap == "eth" {
                    match EthMessage::decode(msg, &payload) {
                        Ok(m) => events.push(WireEvent::Eth(m)),
                        Err(_) => events.push(WireEvent::ProtocolError("bad eth message")),
                    }
                } else {
                    events.push(WireEvent::OtherSubprotocol { cap, msg });
                }
            }
            Err(_) => {
                self.stage = Stage::Dead;
                events.push(WireEvent::ProtocolError("session error"));
            }
        }
    }

    /// Frame and return everything the session has queued.
    pub fn flush_session(&mut self) -> Vec<Vec<u8>> {
        let Some(session) = self.session.as_mut() else {
            return Vec::new();
        };
        let Some(codec) = self.codec.as_mut() else {
            return Vec::new();
        };
        session
            .take_outbound()
            .into_iter()
            .map(|(id, payload)| {
                let mut frame = rlp::encode(&id);
                frame.extend_from_slice(&payload);
                codec.write_frame(&frame)
            })
            .collect()
    }

    /// Queue + frame an eth message. Returns wire bytes (empty if the
    /// session is not active or eth was not negotiated).
    pub fn send_eth(&mut self, msg: &EthMessage) -> Vec<Vec<u8>> {
        let Some(session) = self.session.as_mut() else {
            return Vec::new();
        };
        if session
            .send_subprotocol("eth", msg.msg_id(), msg.encode_payload())
            .is_err()
        {
            return Vec::new();
        }
        self.flush_session()
    }

    /// Queue + frame a DISCONNECT, marking the connection dead.
    pub fn send_disconnect(&mut self, reason: DisconnectReason) -> Vec<Vec<u8>> {
        let Some(session) = self.session.as_mut() else {
            self.stage = Stage::Dead;
            return Vec::new();
        };
        session.disconnect(reason);
        let frames = self.flush_session();
        self.stage = Stage::Dead;
        frames
    }

    // ---- checkpoint/restore -------------------------------------------

    /// Our HELLO, wherever it lives: here until the session starts, in
    /// the session after.
    fn local_hello(&self) -> &Hello {
        match (&self.local_hello, &self.session) {
            (Some(hello), _) => hello,
            (None, Some(session)) => session.local_hello(),
            (None, None) => unreachable!("the session takes the HELLO when it starts"),
        }
    }

    /// Append this connection's full protocol state to a snapshot section.
    pub fn snap(&self, w: &mut SnapWriter) {
        self.conn.snap(w);
        self.role.snap(w);
        self.stage.snap(w);
        w.bool(self.handshake.is_some());
        if let Some(hs) = &self.handshake {
            hs.snap(w);
        }
        self.remote_id_hint.snap(w);
        self.codec.snap(w);
        self.session.snap(w);
        self.local_hello().snap(w);
        w.bytes(&self.inbuf);
        self.peer_id.snap(w);
        self.opened_at_ms.snap(w);
    }

    /// Rebuild a connection from [`PeerConn::snap`] output. `static_key`
    /// is the owning node's current identity key (identity rotation kills
    /// every live connection, so one key covers them all).
    ///
    /// The image carries an established connection's HELLO twice, in the
    /// session and after it; one is kept, and two that differ are
    /// `Corrupt`. So is a stage that disagrees with the parts it holds,
    /// which the next read would trip over.
    pub fn restore(r: &mut SnapReader<'_>, static_key: &SecretKey) -> Result<PeerConn, SnapError> {
        let conn = Snap::unsnap(r)?;
        let role = Snap::unsnap(r)?;
        let stage = Snap::unsnap(r)?;
        let handshake = if r.bool()? {
            Some(Box::new(Handshake::restore(r, *static_key)?))
        } else {
            None
        };
        let remote_id_hint: Option<NodeId> = Snap::unsnap(r)?;
        let codec: Option<Box<FrameCodec>> = Snap::unsnap(r)?;
        let session: Option<Box<Session>> = Snap::unsnap(r)?;
        let hello = Hello::unsnap(r)?;
        let established = match (&codec, &session) {
            (Some(_), Some(_)) => true,
            (None, None) => false,
            _ => return Err(SnapError::Corrupt("codec and session not started together")),
        };
        let consistent = match stage {
            Stage::Connecting => !established && handshake.is_none() && remote_id_hint.is_some(),
            Stage::Handshaking => !established && (role == Role::Recipient) == handshake.is_none(),
            Stage::Active => established,
            Stage::Dead => true,
        };
        if !consistent {
            return Err(SnapError::Corrupt(
                "connection stage disagrees with its parts",
            ));
        }
        let local_hello = match &session {
            None => Some(hello),
            Some(session) if *session.local_hello() == hello => None,
            Some(_) => return Err(SnapError::Corrupt("connection and session HELLOs differ")),
        };
        Ok(PeerConn {
            conn,
            role,
            stage,
            handshake,
            remote_id_hint,
            codec,
            session,
            local_hello,
            inbuf: BytesMut::from(r.bytes()?),
            peer_id: Snap::unsnap(r)?,
            opened_at_ms: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use devp2p::Capability;
    use ethwire::{Chain, ChainConfig, Status};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hello_for(key: &SecretKey, client: &str) -> Hello {
        Hello {
            p2p_version: devp2p::P2P_VERSION,
            client_id: client.into(),
            capabilities: vec![Capability::eth63()],
            listen_port: 30303,
            node_id: NodeId::from_secret_key(key),
        }
    }

    /// Full in-memory conversation: dial → handshake → hello → status.
    #[test]
    fn end_to_end_conversation() {
        let mut rng = StdRng::seed_from_u64(5);
        let key_a = SecretKey::from_bytes(&[1u8; 32]).unwrap();
        let key_b = SecretKey::from_bytes(&[2u8; 32]).unwrap();

        let mut a = PeerConn::dialing(
            0,
            NodeId::from_secret_key(&key_b),
            hello_for(&key_a, "Geth/v1.8.11"),
            0,
        );
        let mut b = PeerConn::accepted(0, hello_for(&key_b, "Parity/v1.10.6"), 0);

        // a dials; auth flows to b; ack + hello flows back; etc.
        let mut to_b: Vec<Vec<u8>> = a.on_tcp_connected(&mut rng, &key_a);
        let mut to_a: Vec<Vec<u8>> = Vec::new();
        let mut a_events = Vec::new();
        let mut b_events = Vec::new();
        for _ in 0..10 {
            let mut next_to_a = Vec::new();
            for chunk in to_b.drain(..) {
                let (ev, out) = b.on_data(&mut rng, &key_b, &chunk);
                b_events.extend(ev);
                next_to_a.extend(out);
            }
            to_a.extend(next_to_a);
            let mut next_to_b = Vec::new();
            for chunk in to_a.drain(..) {
                let (ev, out) = a.on_data(&mut rng, &key_a, &chunk);
                a_events.extend(ev);
                next_to_b.extend(out);
            }
            to_b.extend(next_to_b);
            if to_b.is_empty() && to_a.is_empty() {
                break;
            }
        }

        assert!(a_events.iter().any(|e| matches!(e, WireEvent::RlpxEstablished { peer_id } if *peer_id == NodeId::from_secret_key(&key_b))));
        assert!(b_events.iter().any(|e| matches!(e, WireEvent::RlpxEstablished { peer_id } if *peer_id == NodeId::from_secret_key(&key_a))));
        assert!(a_events.iter().any(
            |e| matches!(e, WireEvent::Hello { hello, .. } if hello.client_id == "Parity/v1.10.6")
        ));
        assert!(b_events.iter().any(
            |e| matches!(e, WireEvent::Hello { hello, .. } if hello.client_id == "Geth/v1.8.11")
        ));
        assert!(a.is_active() && b.is_active());

        // Now exchange STATUS.
        let chain = Chain::new(ChainConfig::mainnet(), 1000);
        let status = Status {
            protocol_version: 63,
            network_id: chain.config.network_id,
            total_difficulty: chain.total_difficulty(),
            best_hash: chain.best_hash(),
            genesis_hash: chain.config.genesis_hash,
        };
        let frames = a.send_eth(&EthMessage::Status(status.clone()));
        assert!(!frames.is_empty());
        let mut got_status = false;
        for f in frames {
            let (ev, _) = b.on_data(&mut rng, &key_b, &f);
            for e in ev {
                if let WireEvent::Eth(EthMessage::Status(st)) = e {
                    assert_eq!(st, status);
                    got_status = true;
                }
            }
        }
        assert!(got_status);

        // And a disconnect.
        let frames = b.send_disconnect(DisconnectReason::TooManyPeers);
        let mut got_disc = false;
        for f in frames {
            let (ev, _) = a.on_data(&mut rng, &key_a, &f);
            for e in ev {
                if let WireEvent::Disconnected(r) = e {
                    assert_eq!(r, DisconnectReason::TooManyPeers);
                    got_disc = true;
                }
            }
        }
        assert!(got_disc);
        assert!(a.is_dead() && b.is_dead());
    }

    #[test]
    fn dial_to_invalid_node_id_dies_cleanly() {
        let mut rng = StdRng::seed_from_u64(6);
        let key = SecretKey::from_bytes(&[1u8; 32]).unwrap();
        // A spammer-style random id: not a curve point.
        let mut c = PeerConn::dialing(0, NodeId([0x5au8; 64]), hello_for(&key, "x"), 0);
        let out = c.on_tcp_connected(&mut rng, &key);
        assert!(out.is_empty());
        assert!(c.is_dead());
    }

    #[test]
    fn garbage_bytes_kill_connection() {
        let mut rng = StdRng::seed_from_u64(7);
        let key = SecretKey::from_bytes(&[1u8; 32]).unwrap();
        let mut c = PeerConn::accepted(0, hello_for(&key, "x"), 0);
        // Garbage with a plausible length prefix: fails ECIES, dies.
        let mut garbage = vec![0x00u8, 0x80];
        garbage.extend(vec![0x5au8; 0x80]);
        let (events, out) = c.on_data(&mut rng, &key, &garbage);
        assert!(out.is_empty());
        assert!(events
            .iter()
            .any(|e| matches!(e, WireEvent::ProtocolError(_))));
        assert!(c.is_dead());
    }

    #[test]
    fn garbage_with_huge_length_prefix_just_buffers() {
        // 0xffff length prefix: the conn waits for 65KB that never comes;
        // the owner's probe timeout reaps it. No panic, no events.
        let mut rng = StdRng::seed_from_u64(7);
        let key = SecretKey::from_bytes(&[1u8; 32]).unwrap();
        let mut c = PeerConn::accepted(0, hello_for(&key, "x"), 0);
        let (events, out) = c.on_data(&mut rng, &key, &vec![0xffu8; 600]);
        assert!(out.is_empty());
        assert!(events.is_empty());
        assert!(!c.is_dead());
    }

    #[test]
    fn drip_fed_handshake_works() {
        let mut rng = StdRng::seed_from_u64(8);
        let key_a = SecretKey::from_bytes(&[1u8; 32]).unwrap();
        let key_b = SecretKey::from_bytes(&[2u8; 32]).unwrap();
        let mut a = PeerConn::dialing(
            0,
            NodeId::from_secret_key(&key_b),
            hello_for(&key_a, "a"),
            0,
        );
        let mut b = PeerConn::accepted(0, hello_for(&key_b, "b"), 0);
        let auth = a.on_tcp_connected(&mut rng, &key_a);
        // feed the auth one byte at a time
        let mut acks = Vec::new();
        for byte in auth.iter().flatten() {
            let (_, out) = b.on_data(&mut rng, &key_b, &[*byte]);
            acks.extend(out);
        }
        assert!(!acks.is_empty());
        assert!(b.peer_id.is_some());
    }

    /// Owners keep connections in `BTreeMap`s, whose every node allocates
    /// eleven values: at the 1,920 B this struct had with its handshake,
    /// codec and session inline, a leaf was ≈ 21 kB. The parts only some
    /// stages hold stay boxed.
    #[test]
    fn a_conn_stays_small_inline() {
        let size = std::mem::size_of::<PeerConn>();
        assert!(size <= 512, "PeerConn is {size} B inline");
    }

    /// Most hosts of a large world are not running, and each holds its
    /// `EthNode` whole: what only a running node holds (1,120 B inline
    /// with its discovery engine, connections and counters) stays boxed.
    #[test]
    fn an_idle_node_stays_small() {
        let size = std::mem::size_of::<crate::EthNode>();
        assert!(size <= 320, "EthNode is {size} B inline");
    }

    /// A drained receive buffer gives its allocation back.
    #[test]
    fn a_drained_receive_buffer_is_freed() {
        let mut rng = StdRng::seed_from_u64(9);
        let key_a = SecretKey::from_bytes(&[1u8; 32]).unwrap();
        let key_b = SecretKey::from_bytes(&[2u8; 32]).unwrap();
        let mut a = PeerConn::dialing(
            0,
            NodeId::from_secret_key(&key_b),
            hello_for(&key_a, "a"),
            0,
        );
        let mut b = PeerConn::accepted(0, hello_for(&key_b, "b"), 0);
        let auth: Vec<u8> = a.on_tcp_connected(&mut rng, &key_a).concat();
        let (half, rest) = auth.split_at(auth.len() / 2);
        b.on_data(&mut rng, &key_b, half);
        assert!(b.inbuf.capacity() >= half.len(), "a partial auth is kept");
        let (events, _) = b.on_data(&mut rng, &key_b, rest);
        assert!(matches!(events[0], WireEvent::RlpxEstablished { .. }));
        assert_eq!(b.inbuf.capacity(), 0);
    }

    /// A restored connection is one a run could have left: its stage
    /// agrees with the parts it holds, or restore says `Corrupt`.
    #[test]
    fn restore_refuses_a_stage_its_parts_contradict() {
        let mut rng = StdRng::seed_from_u64(10);
        let key_a = SecretKey::from_bytes(&[1u8; 32]).unwrap();
        let key_b = SecretKey::from_bytes(&[2u8; 32]).unwrap();
        let mut a = PeerConn::dialing(
            0,
            NodeId::from_secret_key(&key_b),
            hello_for(&key_a, "a"),
            0,
        );
        let mut b = PeerConn::accepted(0, hello_for(&key_b, "b"), 0);
        let auth = a.on_tcp_connected(&mut rng, &key_a).concat();
        let image = |pc: &PeerConn| {
            let mut w = SnapWriter::new();
            pc.snap(&mut w);
            w.finish()
        };
        let restore = |bytes: &[u8], key: &SecretKey| {
            PeerConn::restore(&mut SnapReader::new(bytes), key).map(|pc| image(&pc))
        };
        let dialed = image(&a);
        let accepted = image(&b);
        b.on_data(&mut rng, &key_b, &auth);
        let established = image(&b);
        for (bytes, key) in [
            (&dialed, &key_a),
            (&accepted, &key_b),
            (&established, &key_b),
        ] {
            assert_eq!(restore(bytes, key).as_ref(), Ok(bytes));
        }
        // conn id (8), role (1), then the stage byte.
        let stage = |bytes: &[u8], to: u8| {
            let mut bad = bytes.to_vec();
            bad[9] = to;
            bad
        };
        let why = Err(SnapError::Corrupt(
            "connection stage disagrees with its parts",
        ));
        assert_eq!(
            restore(&stage(&dialed, 0), &key_a),
            why,
            "connecting with its auth sent"
        );
        assert_eq!(
            restore(&stage(&accepted, 2), &key_b),
            why,
            "active without a session"
        );
        assert_eq!(
            restore(&stage(&established, 1), &key_b),
            why,
            "session mid-handshake"
        );
        assert!(
            restore(&stage(&established, 3), &key_b).is_ok(),
            "dead holds anything"
        );
    }
}
