//! Differential drivers: seeded decode→encode→decode harnesses that
//! cross-check independent code paths and fail loudly on any divergence.
//!
//! Three axes, one per layer with two genuinely different implementations:
//!
//! 1. **rlp**: one-shot `rlp::decode` (strict, `ensure_exact`) vs a manual
//!    lazy `Rlp` walk using `item_count`/`at` indexing — different
//!    navigation code over the same bytes.
//! 2. **discv4**: signature recovery through the thread-local sign-time
//!    memo (decoding in the signing thread) vs the full group-arithmetic
//!    recovery (decoding the same datagrams in a fresh thread, whose
//!    memo caches start empty); and ECDH the same way — `a·B` here, by
//!    the comb because this thread derived `B`, vs `b·A` in a fresh thread
//!    that receives `A` as wire bytes, where neither the pair memo nor
//!    the known-discrete-log shortcut can answer.
//! 3. **rlpx**: the frame writer vs the frame reader under every padding
//!    residue, with chained MAC state and randomly chunked delivery.
//!
//! Case counts are capped by default so `cargo test` stays fast; set
//! `CONFORMANCE_FULL=1` for the acceptance-level 10^5-case runs (use
//! `--release`). Failures shrink to a minimal reproducer and print the
//! seed plus the offending bytes as hex.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::BytesMut;
use conformance::hex_encode;
use discv4::{decode_packet, encode_packet, Packet, MAX_NEIGHBORS_PER_PACKET};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::{PublicKey, SecretKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlp::{Rlp, RlpError, RlpStream};
use rlpx::{FrameCodec, Handshake, Role};
use std::net::Ipv4Addr;

fn full_run() -> bool {
    std::env::var("CONFORMANCE_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn case_count(capped: usize) -> usize {
    if full_run() {
        100_000
    } else {
        capped
    }
}

// =====================================================================
// Driver 1: rlp streaming walk vs one-shot decode
// =====================================================================

/// An arbitrary RLP tree: the full value domain of the format.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Bytes(Vec<u8>),
    List(Vec<Value>),
}

impl rlp::Encodable for Value {
    fn rlp_append(&self, s: &mut RlpStream) {
        match self {
            Value::Bytes(b) => {
                s.append_bytes(b);
            }
            Value::List(items) => {
                s.begin_list(items.len());
                for item in items {
                    item.rlp_append(s);
                }
            }
        }
    }
}

impl rlp::Decodable for Value {
    fn rlp_decode(r: &Rlp<'_>) -> Result<Self, RlpError> {
        if r.is_list() {
            let mut items = Vec::new();
            for item in r.iter() {
                items.push(Value::rlp_decode(&item)?);
            }
            Ok(Value::List(items))
        } else {
            Ok(Value::Bytes(r.data()?.to_vec()))
        }
    }
}

/// The independent path: indexed navigation (`item_count` + `at`), never
/// the iterator, never `ensure_exact`.
fn walk_indexed(r: &Rlp<'_>) -> Result<Value, RlpError> {
    if r.is_list() {
        let n = r.item_count()?;
        let mut items = Vec::with_capacity(n);
        for i in 0..n {
            items.push(walk_indexed(&r.at(i)?)?);
        }
        Ok(Value::List(items))
    } else {
        Ok(Value::Bytes(r.data()?.to_vec()))
    }
}

fn arb_value(rng: &mut StdRng, depth: usize) -> Value {
    let make_list = depth > 0 && rng.gen_bool(0.4);
    if make_list {
        let n = rng.gen_range(0..6usize);
        Value::List((0..n).map(|_| arb_value(rng, depth - 1)).collect())
    } else {
        // Mostly short strings, occasionally crossing the 55-byte and
        // one-byte-payload encode boundaries.
        let len = match rng.gen_range(0..10u32) {
            0 => 0,
            1 => 1,
            2 => rng.gen_range(54..58usize),
            3 => rng.gen_range(250..260usize),
            _ => rng.gen_range(0..20usize),
        };
        let mut b = vec![0u8; len];
        for x in b.iter_mut() {
            *x = rng.gen::<u8>();
        }
        Value::Bytes(b)
    }
}

/// Run every cross-check for one value; `None` means all paths agree.
fn rlp_divergence(v: &Value) -> Option<String> {
    let bytes = rlp::encode(v);
    let oneshot: Value = match rlp::decode(&bytes) {
        Ok(x) => x,
        Err(e) => return Some(format!("one-shot decode failed: {e}")),
    };
    let walked = match walk_indexed(&Rlp::new(&bytes)) {
        Ok(x) => x,
        Err(e) => return Some(format!("indexed walk failed: {e}")),
    };
    if &oneshot != v {
        return Some(format!("one-shot decoded {oneshot:?}, expected {v:?}"));
    }
    if walked != oneshot {
        return Some(format!("walk {walked:?} != one-shot {oneshot:?}"));
    }
    let re = rlp::encode(&walked);
    if re != bytes {
        return Some(format!(
            "re-encode diverged: {} != {}",
            hex_encode(&re),
            hex_encode(&bytes)
        ));
    }
    // Policy boundary: one byte of trailing garbage must fail the strict
    // one-shot path while lazy navigation of the first item still works.
    let mut trailing = bytes.clone();
    trailing.push(0x00);
    if rlp::decode::<Value>(&trailing).is_ok() {
        return Some("strict decode accepted trailing garbage".into());
    }
    match walk_indexed(&Rlp::new(&trailing)) {
        Ok(w) if &w == v => {}
        other => return Some(format!("lazy walk with trailing byte: {other:?}")),
    }
    None
}

/// Greedy structural shrink: smallest child or truncation that still
/// diverges, repeated to a fixed point.
fn shrink_value(mut v: Value) -> Value {
    'outer: loop {
        let candidates: Vec<Value> = match &v {
            Value::List(items) => {
                let mut c: Vec<Value> = items.clone();
                for i in 0..items.len() {
                    let mut fewer = items.clone();
                    fewer.remove(i);
                    c.push(Value::List(fewer));
                }
                c
            }
            Value::Bytes(b) if !b.is_empty() => {
                vec![
                    Value::Bytes(Vec::new()),
                    Value::Bytes(b[..b.len() / 2].to_vec()),
                    Value::Bytes(b[..b.len() - 1].to_vec()),
                ]
            }
            _ => Vec::new(),
        };
        for cand in candidates {
            if rlp_divergence(&cand).is_some() {
                v = cand;
                continue 'outer;
            }
        }
        return v;
    }
}

#[test]
fn differential_rlp_streaming_vs_oneshot() {
    const SEED: u64 = 0x1f1f_0001;
    let n = case_count(2_000);
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..n {
        let v = arb_value(&mut rng, 4);
        if let Some(err) = rlp_divergence(&v) {
            let minimal = shrink_value(v);
            let bytes = rlp::encode(&minimal);
            panic!(
                "rlp differential divergence (seed {SEED:#x}, case {case}): {err}\n\
                 minimal reproducer: {minimal:?}\n\
                 encoded: {}",
                hex_encode(&bytes)
            );
        }
    }
}

// =====================================================================
// Driver 2: discv4 memoized vs cold-thread signature recovery
// =====================================================================

fn arb_endpoint(rng: &mut StdRng) -> Endpoint {
    Endpoint {
        ip: Ipv4Addr::new(rng.gen(), rng.gen(), rng.gen(), rng.gen()),
        udp_port: rng.gen(),
        tcp_port: rng.gen(),
    }
}

fn arb_node_id(rng: &mut StdRng) -> NodeId {
    let mut id = [0u8; 64];
    for b in id.iter_mut() {
        *b = rng.gen();
    }
    NodeId(id)
}

fn arb_packet(rng: &mut StdRng) -> Packet {
    match rng.gen_range(0..4u32) {
        0 => Packet::Ping {
            version: rng.gen(),
            from: arb_endpoint(rng),
            to: arb_endpoint(rng),
            expiration: rng.gen(),
        },
        1 => {
            let mut h = [0u8; 32];
            for b in h.iter_mut() {
                *b = rng.gen();
            }
            Packet::Pong {
                to: arb_endpoint(rng),
                ping_hash: h,
                expiration: rng.gen(),
            }
        }
        2 => Packet::FindNode {
            target: arb_node_id(rng),
            expiration: rng.gen(),
        },
        _ => {
            let n = rng.gen_range(0..=MAX_NEIGHBORS_PER_PACKET);
            Packet::Neighbors {
                nodes: (0..n)
                    .map(|_| NodeRecord::new(arb_node_id(rng), arb_endpoint(rng)))
                    .collect(),
                expiration: rng.gen(),
            }
        }
    }
}

type Decoded = Result<(NodeId, Packet, [u8; 32]), String>;

fn decode_str(datagram: &[u8]) -> Decoded {
    decode_packet(datagram).map_err(|e| e.to_string())
}

#[test]
fn differential_discv4_memoized_vs_cold_recovery() {
    const SEED: u64 = 0xd15c_0002;
    const BATCH: usize = 500;
    let n = case_count(1_000);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut done = 0usize;
    while done < n {
        let batch = BATCH.min(n - done);
        let mut datagrams: Vec<Vec<u8>> = Vec::with_capacity(batch);
        let mut warm: Vec<Decoded> = Vec::with_capacity(batch);
        let mut expected: Vec<(NodeId, Packet)> = Vec::with_capacity(batch);
        for _ in 0..batch {
            let key = SecretKey::random(&mut rng);
            let packet = arb_packet(&mut rng);
            let (datagram, _) = encode_packet(&key, &packet);
            // Warm path: this thread just signed, so the (digest, sig)
            // pair sits in the thread-local recovery memo.
            warm.push(decode_str(&datagram));
            expected.push((NodeId::from_secret_key(&key), packet));
            datagrams.push(datagram);
        }
        // Cold path: a fresh thread starts with empty memo caches and
        // must run the full recovery group arithmetic.
        let for_thread = datagrams.clone();
        let cold: Vec<Decoded> =
            std::thread::spawn(move || for_thread.iter().map(|d| decode_str(d)).collect())
                .join()
                .expect("cold decode thread panicked");

        for (i, ((w, c), (id, packet))) in warm.iter().zip(&cold).zip(&expected).enumerate() {
            let case = done + i;
            let reproducer = || {
                format!(
                    "seed {SEED:#x}, case {case}, datagram: {}",
                    hex_encode(&datagrams[i])
                )
            };
            // The minimal reproducer for any divergence is the single
            // datagram — it replays through decode_packet standalone.
            assert_eq!(w, c, "warm/cold recovery diverged ({})", reproducer());
            match w {
                Ok((wid, wpacket, _)) => {
                    assert_eq!(wid, id, "recovered wrong signer ({})", reproducer());
                    assert_eq!(wpacket, packet, "packet mangled ({})", reproducer());
                }
                Err(e) => panic!("decode failed: {e} ({})", reproducer()),
            }
        }
        done += batch;
    }
}

/// `a.ecdh(B)` and `b.ecdh(A)` share one memo slot (the unordered pair of
/// x coordinates), so in one thread the second call never multiplies — and
/// the first is a fixed-base multiplication by `a·b mod n`, because this
/// thread derived `B` from `b`. A fresh thread that is handed `A` as 64
/// wire bytes knows no discrete log of it and runs the variable-base
/// multiplication, on the other scalar and the other point.
#[test]
fn differential_ecdh_warm_vs_cold_thread() {
    const SEED: u64 = 0xd15c_0004;
    let n = case_count(200);
    let mut rng = StdRng::seed_from_u64(SEED);
    let pairs: Vec<(SecretKey, SecretKey)> = (0..n)
        .map(|_| (SecretKey::random(&mut rng), SecretKey::random(&mut rng)))
        .collect();
    let warm: Vec<[u8; 32]> = pairs
        .iter()
        .map(|(a, b)| a.ecdh(&b.public_key()).unwrap())
        .collect();
    let for_thread: Vec<([u8; 64], SecretKey)> = pairs
        .iter()
        .map(|(a, b)| (a.public_key().to_xy_bytes(), *b))
        .collect();
    let cold: Vec<[u8; 32]> = std::thread::spawn(move || {
        for_thread
            .iter()
            .map(|(a_wire, b)| b.ecdh(&PublicKey::from_xy_bytes(a_wire).unwrap()).unwrap())
            .collect()
    })
    .join()
    .expect("cold ecdh thread panicked");
    for (case, ((w, c), (a, b))) in warm.iter().zip(&cold).zip(&pairs).enumerate() {
        assert_eq!(
            w,
            c,
            "a·B != b·A (seed {SEED:#x}, case {case}, a: {}, b: {})",
            hex_encode(&a.to_bytes()),
            hex_encode(&b.to_bytes())
        );
    }
}

// =====================================================================
// Driver 3: rlpx frame writer vs reader across padding residues
// =====================================================================

/// Deterministic handshake (same fixture as the golden vectors) giving a
/// crossed writer/reader codec pair.
fn codec_pair(seed: u64) -> (FrameCodec, FrameCodec) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ik = SecretKey::from_bytes(&[0x11; 32]).unwrap();
    let rk = SecretKey::from_bytes(&[0x22; 32]).unwrap();
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

/// Write one frame, deliver it in random chunks, and check the reader
/// reconstructs the payload exactly. Returns a divergence description.
fn frame_trial(
    writer: &mut FrameCodec,
    reader: &mut FrameCodec,
    buf: &mut BytesMut,
    payload: &[u8],
    rng: &mut StdRng,
) -> Result<(), String> {
    let wire = writer.write_frame(payload);
    let mut offset = 0usize;
    let mut got = None;
    while offset < wire.len() {
        let chunk = rng.gen_range(1..=(wire.len() - offset).min(64));
        buf.extend_from_slice(&wire[offset..offset + chunk]);
        offset += chunk;
        match reader.read_frame(buf) {
            Ok(Some(p)) => {
                if offset < wire.len() {
                    return Err(format!(
                        "reader produced a frame after only {offset}/{} bytes",
                        wire.len()
                    ));
                }
                got = Some(p);
            }
            Ok(None) => {
                if offset == wire.len() {
                    return Err("reader still incomplete after full frame".into());
                }
            }
            Err(e) => return Err(format!("read_frame error at {offset}: {e}")),
        }
    }
    match got {
        Some(p) if p == payload => {
            if buf.is_empty() {
                Ok(())
            } else {
                Err(format!("{} bytes left in reader buffer", buf.len()))
            }
        }
        Some(p) => Err(format!(
            "payload mangled: wrote {} got {}",
            hex_encode(payload),
            hex_encode(&p)
        )),
        None => Err("no frame produced".into()),
    }
}

#[test]
fn differential_rlpx_writer_vs_reader_padding_residues() {
    const SEED: u64 = 0xf4a3_0003;
    let n = case_count(2_000);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut writer, mut reader) = codec_pair(42);
    let mut buf = BytesMut::new();
    for case in 0..n {
        // First 16 trials hit every padding residue deterministically;
        // after that, mix short, block-aligned, and multi-block payloads.
        let len = if case < 16 {
            case
        } else {
            match case % 4 {
                0 => rng.gen_range(0..16usize),
                1 => rng.gen_range(16..64usize),
                2 => 16 * rng.gen_range(1..8usize),
                _ => rng.gen_range(64..600usize),
            }
        };
        let mut payload = vec![0u8; len];
        for b in payload.iter_mut() {
            *b = rng.gen();
        }
        if let Err(err) = frame_trial(&mut writer, &mut reader, &mut buf, &payload, &mut rng) {
            // Minimal reproducer: the same payload through a FRESH codec
            // pair (MAC chain reset). If that also fails, the bug is in
            // the codec itself; if not, it is chain-state dependent.
            let (mut fw, mut fr) = codec_pair(42);
            let mut fresh_buf = BytesMut::new();
            let standalone = frame_trial(&mut fw, &mut fr, &mut fresh_buf, &payload, &mut rng);
            panic!(
                "rlpx frame divergence (seed {SEED:#x}, case {case}, len {len}): {err}\n\
                 standalone replay with fresh codecs: {standalone:?}\n\
                 payload: {}",
                hex_encode(&payload)
            );
        }
    }
}
