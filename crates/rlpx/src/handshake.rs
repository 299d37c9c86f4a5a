//! The RLPx ECIES handshake (EIP-8 message formats).

use enode::NodeId;
use ethcrypto::ecies;
use ethcrypto::keccak::{keccak256, Keccak};
use ethcrypto::secp256k1::{recover, PublicKey, RecoverableSignature, SecretKey};
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use rlp::{Rlp, RlpStream};

/// Which side of the handshake we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// We dialed (send `auth`, expect `ack`).
    Initiator,
    /// We accepted (expect `auth`, send `ack`).
    Recipient,
}

obs::snap_enum!(Role { 0 => Initiator, 1 => Recipient });

/// Why a handshake failed.
#[derive(Debug, Clone, PartialEq)]
pub enum HandshakeError {
    /// ECIES decryption or MAC failure.
    Decrypt,
    /// Structurally invalid auth/ack body.
    BadMessage(&'static str),
    /// Signature or key recovery failed.
    BadCrypto,
    /// API misuse (wrong role / wrong order) — still surfaced as an error
    /// because remote behaviour can trigger it.
    WrongState,
    /// Message shorter than its length prefix promises.
    Truncated,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::Decrypt => write!(f, "ECIES decryption failed"),
            HandshakeError::BadMessage(m) => write!(f, "bad handshake message: {m}"),
            HandshakeError::BadCrypto => write!(f, "signature/key recovery failed"),
            HandshakeError::WrongState => write!(f, "handshake API used out of order"),
            HandshakeError::Truncated => write!(f, "handshake message truncated"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Session secrets derived by both sides at handshake completion.
///
/// `aes` keys a single AES-256-CTR stream per direction; the MAC states are
/// running keccak sponges per the RLPx spec.
pub struct Secrets {
    /// Frame encryption key (AES-256).
    pub aes: [u8; 32],
    /// MAC derivation key.
    pub mac: [u8; 32],
    /// Keccak state MACing what we send.
    pub egress_mac: Keccak,
    /// Keccak state MACing what we receive.
    pub ingress_mac: Keccak,
    /// The peer's node ID, authenticated by the handshake.
    pub peer_id: NodeId,
}

impl std::fmt::Debug for Secrets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Everything but the peer id is key material; never print it.
        f.debug_struct("Secrets")
            .field("peer_id", &self.peer_id)
            .finish_non_exhaustive()
    }
}

const NONCE_LEN: usize = 32;
const AUTH_VSN: u32 = 4;

/// An in-progress handshake. Construct per connection.
pub struct Handshake {
    role: Role,
    static_key: SecretKey,
    ephemeral_key: SecretKey,
    nonce: [u8; 32],
    /// Filled as the exchange progresses.
    remote_static: Option<PublicKey>,
    remote_ephemeral: Option<PublicKey>,
    remote_nonce: Option<[u8; 32]>,
    /// Raw auth/ack messages (size prefix included) — the MAC states are
    /// seeded with them.
    auth_bytes: Option<Vec<u8>>,
    ack_bytes: Option<Vec<u8>>,
}

impl std::fmt::Debug for Handshake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Keys and nonces stay out of logs; show only exchange progress.
        f.debug_struct("Handshake")
            .field("role", &self.role)
            .field("auth_seen", &self.auth_bytes.is_some())
            .field("ack_seen", &self.ack_bytes.is_some())
            .finish_non_exhaustive()
    }
}

impl Handshake {
    /// Create a handshake for `role` using our static identity key.
    pub fn new<R: rand::Rng + ?Sized>(role: Role, static_key: SecretKey, rng: &mut R) -> Handshake {
        let ephemeral_key = SecretKey::random(rng);
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce[..]);
        Handshake {
            role,
            static_key,
            ephemeral_key,
            nonce,
            remote_static: None,
            remote_ephemeral: None,
            remote_nonce: None,
            auth_bytes: None,
            ack_bytes: None,
        }
    }

    /// Initiator step 1: build the `auth` message for `remote_id`.
    pub fn write_auth<R: rand::Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        remote_id: &NodeId,
    ) -> Result<Vec<u8>, HandshakeError> {
        if self.role != Role::Initiator {
            return Err(HandshakeError::WrongState);
        }
        let remote_pub = remote_id.to_public_key().ok_or(HandshakeError::BadCrypto)?;
        self.remote_static = Some(remote_pub);

        // token = static-shared-secret ^ nonce, signed with the ephemeral
        // key; the recipient recovers our ephemeral pubkey from it.
        let static_shared = self
            .static_key
            .ecdh(&remote_pub)
            .map_err(|_| HandshakeError::BadCrypto)?;
        let mut token = [0u8; 32];
        for i in 0..32 {
            token[i] = static_shared[i] ^ self.nonce[i];
        }
        let sig = self.ephemeral_key.sign_recoverable(&token);

        let mut body = RlpStream::new_list(4);
        body.append_bytes(&sig.to_bytes());
        body.append(&NodeId::from_secret_key(&self.static_key));
        body.append_bytes(&self.nonce);
        body.append(&AUTH_VSN);
        let plain = body.out();

        let msg = seal_eip8(rng, &remote_pub, &plain)?;
        self.auth_bytes = Some(msg.clone());
        obs::counter_add("rlpx.auth_written", 1);
        Ok(msg)
    }

    /// Recipient step 1: consume `auth`, produce `ack`.
    ///
    /// `auth` must be the complete prefixed message ([`expected_len`] helps
    /// the caller frame it from a TCP stream).
    pub fn read_auth<R: rand::Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        auth: &[u8],
    ) -> Result<Vec<u8>, HandshakeError> {
        if self.role != Role::Recipient {
            return Err(HandshakeError::WrongState);
        }
        let plain = open_eip8(&self.static_key, auth)?;
        let r = Rlp::new(&plain);
        if !r.is_list() {
            return Err(HandshakeError::BadMessage("auth not a list"));
        }
        // Lenient-decode policy (EIP-8): >= 4 fields (sig, id, nonce, vsn),
        // extras tolerated and counted. See DESIGN.md § Wire conformance.
        let count = r
            .item_count()
            .map_err(|_| HandshakeError::BadMessage("rlp"))?;
        if count < 3 {
            return Err(HandshakeError::BadMessage("auth needs >=3 fields"));
        }
        if count > 4 {
            obs::counter_add("wire.extra.auth", 1);
        }
        let sig_bytes: [u8; 65] = r
            .at(0)
            .and_then(|i| i.as_array())
            .map_err(|_| HandshakeError::BadMessage("auth sig"))?;
        let initiator_id: NodeId = r
            .at(1)
            .and_then(|i| i.as_val())
            .map_err(|_| HandshakeError::BadMessage("auth id"))?;
        let nonce: [u8; 32] = r
            .at(2)
            .and_then(|i| i.as_array())
            .map_err(|_| HandshakeError::BadMessage("auth nonce"))?;

        let initiator_pub = initiator_id
            .to_public_key()
            .ok_or(HandshakeError::BadCrypto)?;
        self.remote_static = Some(initiator_pub);
        self.remote_nonce = Some(nonce);

        // Recover the initiator's ephemeral public key from the signature.
        let static_shared = self
            .static_key
            .ecdh(&initiator_pub)
            .map_err(|_| HandshakeError::BadCrypto)?;
        let mut token = [0u8; 32];
        for i in 0..32 {
            token[i] = static_shared[i] ^ nonce[i];
        }
        let sig =
            RecoverableSignature::from_bytes(&sig_bytes).map_err(|_| HandshakeError::BadCrypto)?;
        let remote_ephemeral = recover(&token, &sig).map_err(|_| HandshakeError::BadCrypto)?;
        self.remote_ephemeral = Some(remote_ephemeral);
        self.auth_bytes = Some(auth.to_vec());

        // Build the ack: [ephemeral-pub, nonce, vsn]
        let mut body = RlpStream::new_list(3);
        body.append(&NodeId::from_secret_key(&self.ephemeral_key));
        body.append_bytes(&self.nonce);
        body.append(&AUTH_VSN);
        let plain = body.out();
        let msg = seal_eip8(rng, &initiator_pub, &plain)?;
        self.ack_bytes = Some(msg.clone());
        obs::counter_add("rlpx.auth_read", 1);
        Ok(msg)
    }

    /// Initiator step 2: consume `ack`.
    pub fn read_ack(&mut self, ack: &[u8]) -> Result<(), HandshakeError> {
        if self.role != Role::Initiator {
            return Err(HandshakeError::WrongState);
        }
        let plain = open_eip8(&self.static_key, ack)?;
        let r = Rlp::new(&plain);
        if !r.is_list() {
            return Err(HandshakeError::BadMessage("ack not a list"));
        }
        // Lenient-decode policy (EIP-8): >= 3 fields (ephemeral, nonce,
        // vsn), extras tolerated and counted.
        let count = r
            .item_count()
            .map_err(|_| HandshakeError::BadMessage("rlp"))?;
        if count < 2 {
            return Err(HandshakeError::BadMessage("ack needs >=2 fields"));
        }
        if count > 3 {
            obs::counter_add("wire.extra.ack", 1);
        }
        let ephemeral_id: NodeId = r
            .at(0)
            .and_then(|i| i.as_val())
            .map_err(|_| HandshakeError::BadMessage("ack ephemeral"))?;
        let nonce: [u8; 32] = r
            .at(1)
            .and_then(|i| i.as_array())
            .map_err(|_| HandshakeError::BadMessage("ack nonce"))?;
        self.remote_ephemeral = Some(
            ephemeral_id
                .to_public_key()
                .ok_or(HandshakeError::BadCrypto)?,
        );
        self.remote_nonce = Some(nonce);
        self.ack_bytes = Some(ack.to_vec());
        obs::counter_add("rlpx.ack_read", 1);
        Ok(())
    }

    /// Final step for both sides: derive the session secrets.
    pub fn secrets(&self) -> Result<Secrets, HandshakeError> {
        let remote_ephemeral = self.remote_ephemeral.ok_or(HandshakeError::WrongState)?;
        let remote_nonce = self.remote_nonce.ok_or(HandshakeError::WrongState)?;
        let remote_static = self.remote_static.ok_or(HandshakeError::WrongState)?;
        let auth = self.auth_bytes.as_ref().ok_or(HandshakeError::WrongState)?;
        let ack = self.ack_bytes.as_ref().ok_or(HandshakeError::WrongState)?;

        let ephemeral_shared = self
            .ephemeral_key
            .ecdh(&remote_ephemeral)
            .map_err(|_| HandshakeError::BadCrypto)?;

        // Nonce ordering is (recipient-nonce ‖ initiator-nonce).
        let (init_nonce, recv_nonce) = match self.role {
            Role::Initiator => (self.nonce, remote_nonce),
            Role::Recipient => (remote_nonce, self.nonce),
        };
        let mut nonce_material = Vec::with_capacity(64);
        nonce_material.extend_from_slice(&recv_nonce);
        nonce_material.extend_from_slice(&init_nonce);
        let h_nonce = keccak256(&nonce_material);

        let shared_secret = keccak_pair(&ephemeral_shared, &h_nonce);
        let aes_secret = keccak_pair(&ephemeral_shared, &shared_secret);
        let mac_secret = keccak_pair(&ephemeral_shared, &aes_secret);

        // egress/ingress MAC seeding:
        //   initiator egress  = keccak(mac ^ recv_nonce ‖ auth)
        //   initiator ingress = keccak(mac ^ init_nonce ‖ ack)
        // and mirrored for the recipient.
        let xor_recv = xor32(&mac_secret, &recv_nonce);
        let xor_init = xor32(&mac_secret, &init_nonce);

        let mut mac_auth = Keccak::v256();
        mac_auth.update(&xor_recv);
        mac_auth.update(auth);
        let mut mac_ack = Keccak::v256();
        mac_ack.update(&xor_init);
        mac_ack.update(ack);

        let (egress_mac, ingress_mac) = match self.role {
            Role::Initiator => (mac_auth, mac_ack),
            Role::Recipient => (mac_ack, mac_auth),
        };

        Ok(Secrets {
            aes: aes_secret,
            mac: mac_secret,
            egress_mac,
            ingress_mac,
            peer_id: NodeId::from_public_key(&remote_static),
        })
    }

    /// Our own node ID.
    pub fn local_id(&self) -> NodeId {
        NodeId::from_secret_key(&self.static_key)
    }

    /// Append the exchange progress to a snapshot. The static identity
    /// key is deliberately absent — the owner persists it with the node
    /// identity and supplies it again to [`Handshake::restore`]. Peer
    /// keys travel as node ids; the image holds live key material.
    pub fn snap(&self, w: &mut SnapWriter) {
        (self.role == Role::Initiator).snap(w);
        self.ephemeral_key.to_bytes().snap(w);
        self.nonce.snap(w);
        let id = |pk: &Option<PublicKey>| pk.as_ref().map(NodeId::from_public_key);
        id(&self.remote_static).snap(w);
        id(&self.remote_ephemeral).snap(w);
        self.remote_nonce.snap(w);
        self.auth_bytes.snap(w);
        self.ack_bytes.snap(w);
    }

    /// Rebuild a handshake mid-exchange from [`Handshake::snap`] output.
    /// A key or node id that does not decode is a corrupt image.
    pub fn restore(r: &mut SnapReader<'_>, static_key: SecretKey) -> Result<Handshake, SnapError> {
        let public_key = |id: Option<NodeId>| {
            id.map(|id| id.to_public_key())
                .map(|pk| pk.ok_or(SnapError::Corrupt("handshake peer id is not a public key")))
                .transpose()
        };
        Ok(Handshake {
            role: if bool::unsnap(r)? {
                Role::Initiator
            } else {
                Role::Recipient
            },
            static_key,
            ephemeral_key: SecretKey::from_bytes(&<[u8; 32]>::unsnap(r)?)
                .map_err(|_| SnapError::Corrupt("handshake ephemeral key does not decode"))?,
            nonce: Snap::unsnap(r)?,
            remote_static: public_key(Snap::unsnap(r)?)?,
            remote_ephemeral: public_key(Snap::unsnap(r)?)?,
            remote_nonce: Snap::unsnap(r)?,
            auth_bytes: Snap::unsnap(r)?,
            ack_bytes: Snap::unsnap(r)?,
        })
    }
}

#[allow(clippy::unwrap_used)]
fn keccak_pair(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut h = Keccak::v256();
    h.update(a);
    h.update(b);
    // detlint: allow(R5) -- keccak-256 digests are always exactly 32 bytes
    h.finalize().try_into().unwrap()
}

fn xor32(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..32 {
        out[i] = a[i] ^ b[i];
    }
    out
}

/// EIP-8 envelope: `size(2, BE) ‖ ECIES ciphertext`, with the size prefix
/// authenticated as ECIES shared MAC data.
fn seal_eip8<R: rand::Rng + ?Sized>(
    rng: &mut R,
    to: &PublicKey,
    plain: &[u8],
) -> Result<Vec<u8>, HandshakeError> {
    let ct_len = plain.len() + ecies::OVERHEAD;
    let prefix = (ct_len as u16).to_be_bytes();
    let ct = ecies::encrypt(rng, to, plain, &prefix).map_err(|_| HandshakeError::BadCrypto)?;
    let mut out = Vec::with_capacity(2 + ct.len());
    out.extend_from_slice(&prefix);
    out.extend_from_slice(&ct);
    Ok(out)
}

fn open_eip8(key: &SecretKey, msg: &[u8]) -> Result<Vec<u8>, HandshakeError> {
    if msg.len() < 2 {
        return Err(HandshakeError::Truncated);
    }
    let size = u16::from_be_bytes([msg[0], msg[1]]) as usize;
    if msg.len() < 2 + size {
        return Err(HandshakeError::Truncated);
    }
    ecies::decrypt(key, &msg[2..2 + size], &msg[..2]).map_err(|_| HandshakeError::Decrypt)
}

/// Length a complete prefixed handshake message will have, given its first
/// two bytes — lets stream drivers know how much to read.
pub fn expected_len(prefix: &[u8; 2]) -> usize {
    2 + u16::from_be_bytes(*prefix) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair() -> (SecretKey, SecretKey) {
        (
            SecretKey::from_bytes(&[0x11u8; 32]).unwrap(),
            SecretKey::from_bytes(&[0x22u8; 32]).unwrap(),
        )
    }

    fn run_handshake() -> (Secrets, Secrets) {
        let mut rng = StdRng::seed_from_u64(42);
        let (ik, rk) = pair();
        let mut init = Handshake::new(Role::Initiator, ik, &mut rng);
        let mut resp = Handshake::new(Role::Recipient, rk, &mut rng);
        let auth = init
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        let ack = resp.read_auth(&mut rng, &auth).unwrap();
        init.read_ack(&ack).unwrap();
        (init.secrets().unwrap(), resp.secrets().unwrap())
    }

    #[test]
    fn both_sides_derive_same_keys() {
        let (si, sr) = run_handshake();
        assert_eq!(si.aes, sr.aes);
        assert_eq!(si.mac, sr.mac);
        // MAC states are crossed: my egress is your ingress.
        let e = si.egress_mac.clone().finalize();
        let i = sr.ingress_mac.clone().finalize();
        assert_eq!(e, i);
        let e2 = sr.egress_mac.clone().finalize();
        let i2 = si.ingress_mac.clone().finalize();
        assert_eq!(e2, i2);
    }

    #[test]
    fn peers_authenticated() {
        let (si, sr) = run_handshake();
        let (ik, rk) = pair();
        assert_eq!(si.peer_id, NodeId::from_secret_key(&rk));
        assert_eq!(sr.peer_id, NodeId::from_secret_key(&ik));
    }

    #[test]
    fn auth_to_wrong_recipient_fails() {
        let mut rng = StdRng::seed_from_u64(7);
        let (ik, rk) = pair();
        let other = SecretKey::from_bytes(&[0x33u8; 32]).unwrap();
        let mut init = Handshake::new(Role::Initiator, ik, &mut rng);
        let mut resp = Handshake::new(Role::Recipient, other, &mut rng);
        let auth = init
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        assert_eq!(
            resp.read_auth(&mut rng, &auth),
            Err(HandshakeError::Decrypt)
        );
    }

    #[test]
    fn tampered_auth_fails() {
        let mut rng = StdRng::seed_from_u64(8);
        let (ik, rk) = pair();
        let mut init = Handshake::new(Role::Initiator, ik, &mut rng);
        let mut resp = Handshake::new(Role::Recipient, rk, &mut rng);
        let mut auth = init
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        auth[50] ^= 1;
        assert!(resp.read_auth(&mut rng, &auth).is_err());
    }

    #[test]
    fn wrong_role_api_use_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let (ik, rk) = pair();
        let mut resp = Handshake::new(Role::Recipient, rk, &mut rng);
        assert_eq!(
            resp.write_auth(&mut rng, &NodeId::from_secret_key(&ik)),
            Err(HandshakeError::WrongState)
        );
        assert_eq!(resp.read_ack(&[0u8; 100]), Err(HandshakeError::WrongState));
        assert!(resp.secrets().is_err());
    }

    #[test]
    fn truncated_messages_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let (ik, rk) = pair();
        let mut init = Handshake::new(Role::Initiator, ik, &mut rng);
        let mut resp = Handshake::new(Role::Recipient, rk, &mut rng);
        let auth = init
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        assert_eq!(
            resp.read_auth(&mut rng, &auth[..auth.len() - 5]),
            Err(HandshakeError::Truncated)
        );
        assert_eq!(
            resp.read_auth(&mut rng, &auth[..1]),
            Err(HandshakeError::Truncated)
        );
    }

    #[test]
    fn expected_len_matches_messages() {
        let mut rng = StdRng::seed_from_u64(11);
        let (ik, rk) = pair();
        let mut init = Handshake::new(Role::Initiator, ik, &mut rng);
        let auth = init
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        let prefix: [u8; 2] = auth[..2].try_into().unwrap();
        assert_eq!(expected_len(&prefix), auth.len());
    }

    #[test]
    fn handshakes_use_fresh_nonces() {
        let mut rng = StdRng::seed_from_u64(12);
        let (ik, rk) = pair();
        let mut h1 = Handshake::new(Role::Initiator, ik, &mut rng);
        let mut h2 = Handshake::new(Role::Initiator, ik, &mut rng);
        let a1 = h1
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        let a2 = h2
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        assert_ne!(a1, a2);
    }
}
