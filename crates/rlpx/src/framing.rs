//! The RLPx frame cipher: AES-256-CTR payload encryption with per-header
//! and per-frame keccak-state MACs.
//!
//! Frame layout on the wire:
//!
//! ```text
//! header-ciphertext(16) ‖ header-mac(16) ‖ frame-ciphertext(pad16(data)) ‖ frame-mac(16)
//! ```
//!
//! The header's first three bytes carry the frame size big-endian; the rest
//! is a static RLP stub (`[0, 0]`) plus zero padding. One CTR stream per
//! direction runs for the connection lifetime (zero IV, never reset).

use crate::handshake::Secrets;
use bytes::{Buf, BytesMut};
use ethcrypto::aes::{Aes, CtrPos};
use ethcrypto::Keccak;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Frame decode/verify failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Header MAC mismatch.
    BadHeaderMac,
    /// Frame MAC mismatch.
    BadFrameMac,
    /// Frame longer than the 16 MiB sanity cap.
    Oversized,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadHeaderMac => write!(f, "rlpx header MAC mismatch"),
            FrameError::BadFrameMac => write!(f, "rlpx frame MAC mismatch"),
            FrameError::Oversized => write!(f, "rlpx frame exceeds size cap"),
        }
    }
}

impl std::error::Error for FrameError {}

const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Symmetric frame codec for one established connection.
pub struct FrameCodec {
    /// The frame key, expanded once for both directions' CTR streams.
    aes: Aes,
    enc: CtrPos,
    dec: CtrPos,
    mac_cipher: Aes,
    egress_mac: Keccak,
    ingress_mac: Keccak,
    /// Each MAC's last tag, while it is still the MAC state's digest: a
    /// frame ends in `update_mac`, whose tag is exactly the digest the
    /// next header's `update_mac` starts from, so that frame skips one
    /// keccak finalization. Taken by the next header; never in the image
    /// (empty after a handshake or a restore, which costs one digest).
    egress_tag: Option<[u8; 16]>,
    ingress_tag: Option<[u8; 16]>,
    /// Decoder state: size parsed from a verified header, awaiting body.
    pending_body: Option<usize>,
    /// Raw session keys, retained so the codec can be checkpointed
    /// (the expanded forms above are one-way).
    aes_key: [u8; 32],
    mac_key: [u8; 32],
}

impl std::fmt::Debug for FrameCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Cipher and MAC state are secrets; show only decoder progress.
        f.debug_struct("FrameCodec")
            .field("pending_body", &self.pending_body)
            .finish_non_exhaustive()
    }
}

/// Image: both session keys, each direction's CTR position and MAC
/// sponge (`to_parts` tuples), and the decoder's pending body size —
/// live key material, so treat a serialized snapshot like a key file.
impl Snap for FrameCodec {
    fn snap(&self, w: &mut SnapWriter) {
        self.aes_key.snap(w);
        self.mac_key.snap(w);
        self.enc.to_parts().snap(w);
        self.dec.to_parts().snap(w);
        self.egress_mac.to_parts().snap(w);
        self.ingress_mac.to_parts().snap(w);
        self.pending_body.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<FrameCodec, SnapError> {
        let aes_key = <[u8; 32]>::unsnap(r)?;
        let mac_key = <[u8; 32]>::unsnap(r)?;
        let mut ctr = || {
            CtrPos::from_parts(Snap::unsnap(r)?)
                .ok_or(SnapError::Corrupt("AES-CTR position out of range"))
        };
        let (enc, dec) = (ctr()?, ctr()?);
        let mut mac = || {
            Keccak::from_parts(Snap::unsnap(r)?)
                .ok_or(SnapError::Corrupt("frame MAC sponge out of range"))
        };
        let (egress_mac, ingress_mac) = (mac()?, mac()?);
        let pending_body = Option::<usize>::unsnap(r)?;
        if pending_body.is_some_and(|size| size >= MAX_FRAME) {
            return Err(SnapError::Corrupt(
                "pending frame body exceeds the size cap",
            ));
        }
        Ok(FrameCodec {
            aes: Aes::new(&aes_key),
            enc,
            dec,
            mac_cipher: Aes::new(&mac_key),
            egress_mac,
            ingress_mac,
            egress_tag: None,
            ingress_tag: None,
            pending_body,
            aes_key,
            mac_key,
        })
    }
}

impl FrameCodec {
    /// Build from handshake secrets.
    pub fn new(secrets: Secrets) -> FrameCodec {
        let zero_iv = [0u8; 16];
        FrameCodec {
            aes: Aes::new(&secrets.aes),
            enc: CtrPos::new(&zero_iv),
            dec: CtrPos::new(&zero_iv),
            mac_cipher: Aes::new(&secrets.mac),
            egress_mac: secrets.egress_mac,
            ingress_mac: secrets.ingress_mac,
            egress_tag: None,
            ingress_tag: None,
            pending_body: None,
            aes_key: secrets.aes,
            mac_key: secrets.mac,
        }
    }

    #[allow(clippy::unwrap_used)]
    fn mac_digest(state: &Keccak) -> [u8; 16] {
        let full = state.clone().finalize();
        // keccak256 output is 32 bytes; `..16` is exact
        full[..16].try_into().unwrap()
    }

    /// The spec's `updateMAC`: mix `seed` into `state` through the MAC
    /// cipher and return the new 16-byte tag. `digest` is
    /// `mac_digest(state)`, which the frame-body caller has already
    /// computed as its seed.
    fn update_mac(
        mac_cipher: &Aes,
        state: &mut Keccak,
        digest: [u8; 16],
        seed: &[u8; 16],
    ) -> [u8; 16] {
        let mut block = digest;
        mac_cipher.encrypt_block(&mut block);
        for i in 0..16 {
            block[i] ^= seed[i];
        }
        state.update(&block);
        Self::mac_digest(state)
    }

    /// Encrypt `data` into one complete wire frame.
    pub fn write_frame(&mut self, data: &[u8]) -> Vec<u8> {
        assert!(data.len() < MAX_FRAME, "frame too large");
        // header: size(3) || rlp stub [0xc2, 0x80, 0x80] || zeros
        let mut header = [0u8; 16];
        header[0] = ((data.len() >> 16) & 0xff) as u8;
        header[1] = ((data.len() >> 8) & 0xff) as u8;
        header[2] = (data.len() & 0xff) as u8;
        header[3] = 0xc2;
        header[4] = 0x80;
        header[5] = 0x80;
        self.enc.apply(&self.aes, &mut header);
        let digest = self
            .egress_tag
            .take()
            .unwrap_or_else(|| Self::mac_digest(&self.egress_mac));
        let header_mac = Self::update_mac(&self.mac_cipher, &mut self.egress_mac, digest, &header);

        let padded_len = data.len().div_ceil(16) * 16;
        let mut body = vec![0u8; padded_len];
        body[..data.len()].copy_from_slice(data);
        self.enc.apply(&self.aes, &mut body);

        self.egress_mac.update(&body);
        let seed = Self::mac_digest(&self.egress_mac);
        let frame_mac = Self::update_mac(&self.mac_cipher, &mut self.egress_mac, seed, &seed);
        self.egress_tag = Some(frame_mac);

        let mut out = Vec::with_capacity(32 + padded_len + 16);
        out.extend_from_slice(&header);
        out.extend_from_slice(&header_mac);
        out.extend_from_slice(&body);
        out.extend_from_slice(&frame_mac);
        obs::counter_add("rlpx.frames_written", 1);
        out
    }

    /// Try to decode one frame from `buf`, consuming its bytes on success.
    /// Returns `Ok(None)` when more bytes are needed.
    pub fn read_frame(&mut self, buf: &mut BytesMut) -> Result<Option<Vec<u8>>, FrameError> {
        // Phase 1: header.
        if self.pending_body.is_none() {
            if buf.len() < 32 {
                return Ok(None);
            }
            #[allow(clippy::unwrap_used)]
            // buf.len() >= 32 checked above; slices are exact
            let header_ct: [u8; 16] = buf[..16].try_into().unwrap();
            #[allow(clippy::unwrap_used)]
            // buf.len() >= 32 checked above; slices are exact
            let claimed_mac: [u8; 16] = buf[16..32].try_into().unwrap();
            let digest = self
                .ingress_tag
                .take()
                .unwrap_or_else(|| Self::mac_digest(&self.ingress_mac));
            let computed =
                Self::update_mac(&self.mac_cipher, &mut self.ingress_mac, digest, &header_ct);
            if computed != claimed_mac {
                obs::counter_add("rlpx.frame_errors", 1);
                return Err(FrameError::BadHeaderMac);
            }
            let mut header = header_ct;
            self.dec.apply(&self.aes, &mut header);
            let size =
                ((header[0] as usize) << 16) | ((header[1] as usize) << 8) | header[2] as usize;
            if size >= MAX_FRAME {
                return Err(FrameError::Oversized);
            }
            buf.advance(32);
            self.pending_body = Some(size);
        }
        // Phase 2: body.
        let Some(size) = self.pending_body else {
            return Ok(None);
        };
        let padded = size.div_ceil(16) * 16;
        if buf.len() < padded + 16 {
            return Ok(None);
        }
        let body_ct = buf[..padded].to_vec();
        #[allow(clippy::unwrap_used)]
        // buf.len() >= padded + 16 checked above; slice is exact
        let claimed_mac: [u8; 16] = buf[padded..padded + 16].try_into().unwrap();
        self.ingress_mac.update(&body_ct);
        let seed = Self::mac_digest(&self.ingress_mac);
        let computed = Self::update_mac(&self.mac_cipher, &mut self.ingress_mac, seed, &seed);
        self.ingress_tag = Some(computed);
        if computed != claimed_mac {
            obs::counter_add("rlpx.frame_errors", 1);
            return Err(FrameError::BadFrameMac);
        }
        buf.advance(padded + 16);
        self.pending_body = None;
        let mut body = body_ct;
        self.dec.apply(&self.aes, &mut body);
        body.truncate(size);
        obs::counter_add("rlpx.frames_read", 1);
        Ok(Some(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{Handshake, Role};
    use enode::NodeId;
    use ethcrypto::aes::AesCtr;
    use ethcrypto::secp256k1::SecretKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn codecs() -> (FrameCodec, FrameCodec) {
        let mut rng = StdRng::seed_from_u64(77);
        let ik = SecretKey::from_bytes(&[0x11u8; 32]).unwrap();
        let rk = SecretKey::from_bytes(&[0x22u8; 32]).unwrap();
        let mut init = Handshake::new(Role::Initiator, ik, &mut rng);
        let mut resp = Handshake::new(Role::Recipient, rk, &mut rng);
        let auth = init
            .write_auth(&mut rng, &NodeId::from_secret_key(&rk))
            .unwrap();
        let ack = resp.read_auth(&mut rng, &auth).unwrap();
        init.read_ack(&ack).unwrap();
        (
            FrameCodec::new(init.secrets().unwrap()),
            FrameCodec::new(resp.secrets().unwrap()),
        )
    }

    /// The frame writer before `update_mac` took its digest in: five
    /// keccak finalizations per frame, the seed's digest computed twice.
    /// Kept as the oracle for the four-finalization sequence.
    struct FiveDigestWriter {
        enc: AesCtr,
        mac_cipher: Aes,
        mac: Keccak,
    }

    impl FiveDigestWriter {
        fn update_mac(&mut self, seed: &[u8; 16]) -> [u8; 16] {
            let mut block = FrameCodec::mac_digest(&self.mac);
            self.mac_cipher.encrypt_block(&mut block);
            for i in 0..16 {
                block[i] ^= seed[i];
            }
            self.mac.update(&block);
            FrameCodec::mac_digest(&self.mac)
        }

        fn write_frame(&mut self, data: &[u8]) -> Vec<u8> {
            let mut header = [0u8; 16];
            header[..3].copy_from_slice(&(data.len() as u32).to_be_bytes()[1..]);
            header[3..6].copy_from_slice(&[0xc2, 0x80, 0x80]);
            self.enc.apply(&mut header);
            let header_mac = self.update_mac(&header);
            let mut body = data.to_vec();
            body.resize(data.len().div_ceil(16) * 16, 0);
            self.enc.apply(&mut body);
            self.mac.update(&body);
            let seed = FrameCodec::mac_digest(&self.mac);
            let frame_mac = self.update_mac(&seed);
            [&header[..], &header_mac, &body, &frame_mac].concat()
        }
    }

    proptest::proptest! {
        /// Frames match the five-digest writer byte for byte, over random
        /// bodies, in both directions of one connection, and read back
        /// whole whatever chunks they arrive in.
        #[test]
        fn frames_match_the_five_digest_sequence(
            bodies in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
                1..8,
            ),
            chunk in 1usize..80,
        ) {
            let (mut a, mut b) = codecs();
            // Each side's oracle starts from that side's fresh egress state.
            let oracle = |c: &FrameCodec| FiveDigestWriter {
                enc: AesCtr::new(&c.aes_key, &[0u8; 16]),
                mac_cipher: Aes::new(&c.mac_key),
                mac: c.egress_mac.clone(),
            };
            let (mut oracle_a, mut oracle_b) = (oracle(&a), oracle(&b));
            let mut wire = Vec::new();
            for body in &bodies {
                let frame = a.write_frame(body);
                proptest::prop_assert_eq!(&frame, &oracle_a.write_frame(body));
                wire.extend_from_slice(&frame);
                proptest::prop_assert_eq!(b.write_frame(body), oracle_b.write_frame(body));
            }
            let mut buf = BytesMut::new();
            let mut read = Vec::new();
            for piece in wire.chunks(chunk) {
                buf.extend_from_slice(piece);
                while let Some(frame) = b.read_frame(&mut buf).unwrap() {
                    read.push(frame);
                }
            }
            proptest::prop_assert_eq!(read, bodies);
        }
    }

    /// Every established connection holds one codec (boxed in its
    /// `PeerConn`), so its size is a per-connection cost: the frame key is
    /// expanded once for both directions, 248 B below two `AesCtr`s.
    #[test]
    fn a_codec_holds_one_expanded_frame_key() {
        assert!(
            std::mem::size_of::<FrameCodec>() <= 1_416,
            "{} B",
            std::mem::size_of::<FrameCodec>()
        );
    }

    fn restored(c: &FrameCodec) -> FrameCodec {
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        let image = w.finish();
        let mut r = SnapReader::new(&image);
        let out = FrameCodec::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        out
    }

    /// The kept tags are not in the image: a codec restored between
    /// frames starts from a recomputed digest and reads and writes on
    /// exactly as the one it was taken from.
    #[test]
    fn frames_continue_across_a_mid_stream_snapshot() {
        let (mut a, mut b) = codecs();
        let mut wire = BytesMut::new();
        for i in 0..4u8 {
            wire.extend_from_slice(&a.write_frame(&[i; 40]));
        }
        assert_eq!(b.read_frame(&mut wire).unwrap().unwrap(), [0; 40]);
        let mut b2 = restored(&b);
        let mut wire2 = wire.clone();
        for i in 1..4u8 {
            assert_eq!(b2.read_frame(&mut wire2).unwrap().unwrap(), [i; 40]);
            assert_eq!(b.read_frame(&mut wire).unwrap().unwrap(), [i; 40]);
        }
        let mut a2 = restored(&a);
        for i in 0..3u8 {
            let frame = a.write_frame(&[i; 20]);
            assert_eq!(a2.write_frame(&[i; 20]), frame);
            wire.extend_from_slice(&frame);
            assert_eq!(b.read_frame(&mut wire).unwrap().unwrap(), [i; 20]);
        }
        // Restored mid-frame, header read and body pending.
        let frame = a.write_frame(b"split");
        let mut buf = BytesMut::from(&frame[..40]);
        assert_eq!(b.read_frame(&mut buf).unwrap(), None);
        let mut b3 = restored(&b);
        buf.extend_from_slice(&frame[40..]);
        assert_eq!(b3.read_frame(&mut buf).unwrap().unwrap(), b"split");
    }

    #[test]
    fn frame_roundtrip() {
        let (mut a, mut b) = codecs();
        let msg = b"hello devp2p world".to_vec();
        let wire = a.write_frame(&msg);
        let mut buf = BytesMut::from(&wire[..]);
        let got = b.read_frame(&mut buf).unwrap().unwrap();
        assert_eq!(got, msg);
        assert!(buf.is_empty());
    }

    #[test]
    fn many_frames_in_sequence() {
        let (mut a, mut b) = codecs();
        let mut buf = BytesMut::new();
        let msgs: Vec<Vec<u8>> = (0..20)
            .map(|i| vec![i as u8; (i * 7 + 1) as usize])
            .collect();
        for m in &msgs {
            buf.extend_from_slice(&a.write_frame(m));
        }
        for m in &msgs {
            let got = b.read_frame(&mut buf).unwrap().unwrap();
            assert_eq!(&got, m);
        }
        assert!(b.read_frame(&mut buf).unwrap().is_none());
    }

    #[test]
    fn partial_delivery_resumes() {
        let (mut a, mut b) = codecs();
        let msg = vec![0x5au8; 100];
        let wire = a.write_frame(&msg);
        let mut buf = BytesMut::new();
        // drip-feed one byte at a time
        let mut got = None;
        for byte in &wire {
            buf.extend_from_slice(&[*byte]);
            if let Some(frame) = b.read_frame(&mut buf).unwrap() {
                got = Some(frame);
            }
        }
        assert_eq!(got.unwrap(), msg);
    }

    #[test]
    fn bidirectional_streams_independent() {
        let (mut a, mut b) = codecs();
        let wire_ab = a.write_frame(b"a->b");
        let wire_ba = b.write_frame(b"b->a");
        let mut buf_b = BytesMut::from(&wire_ab[..]);
        let mut buf_a = BytesMut::from(&wire_ba[..]);
        assert_eq!(b.read_frame(&mut buf_b).unwrap().unwrap(), b"a->b");
        assert_eq!(a.read_frame(&mut buf_a).unwrap().unwrap(), b"b->a");
    }

    #[test]
    fn corrupt_header_mac_detected() {
        let (mut a, mut b) = codecs();
        let mut wire = a.write_frame(b"payload");
        wire[20] ^= 1; // inside header mac
        let mut buf = BytesMut::from(&wire[..]);
        assert_eq!(b.read_frame(&mut buf), Err(FrameError::BadHeaderMac));
    }

    #[test]
    fn corrupt_body_detected() {
        let (mut a, mut b) = codecs();
        let mut wire = a.write_frame(b"payload payload payload");
        let n = wire.len();
        wire[n - 20] ^= 1; // inside body ciphertext
        let mut buf = BytesMut::from(&wire[..]);
        assert_eq!(b.read_frame(&mut buf), Err(FrameError::BadFrameMac));
    }

    #[test]
    fn reordered_frames_detected() {
        // The chained MAC state makes replay/reorder detectable.
        let (mut a, mut b) = codecs();
        let f1 = a.write_frame(b"first");
        let f2 = a.write_frame(b"second");
        let mut buf = BytesMut::from(&f2[..]);
        buf.extend_from_slice(&f1);
        assert!(b.read_frame(&mut buf).is_err());
    }

    #[test]
    fn empty_frame_roundtrip() {
        let (mut a, mut b) = codecs();
        let wire = a.write_frame(b"");
        let mut buf = BytesMut::from(&wire[..]);
        assert_eq!(b.read_frame(&mut buf).unwrap().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn exact_multiple_of_16_no_padding_confusion() {
        let (mut a, mut b) = codecs();
        let msg = vec![0xaau8; 64];
        let wire = a.write_frame(&msg);
        // 32 header + 64 body + 16 mac
        assert_eq!(wire.len(), 32 + 64 + 16);
        let mut buf = BytesMut::from(&wire[..]);
        assert_eq!(b.read_frame(&mut buf).unwrap().unwrap(), msg);
    }
}
