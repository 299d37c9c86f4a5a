//! The layer ledger: what one call into each layer costs, timed from
//! outside, in a process of its own.
//!
//! Every figure is the median of [`BATCHES`] batches, each at least
//! [`BATCH_NS`] long, after a warm-up. The `*_miss_*` figures use an input
//! the `ethcrypto` memo caches have never seen for every single call (the
//! cold path a first handshake pays); the `*_hit_*` figures repeat one
//! input (what the Criterion micros in `crates/bench` time without saying
//! so).

use crate::clock::Clock;
use crate::record::Record;
use crate::stats::median;
use bytes::BytesMut;
use devp2p::{Capability, Hello, Message};
use enode::{Endpoint, Interner, NodeId, NodeRecord};
use ethcrypto::aes::AesCtr;
use ethcrypto::secp256k1::{recover, RecoverableSignature, SecretKey};
use ethcrypto::{ecies, keccak256};
use ethwire::{Chain, ChainConfig, EthMessage, Status};
use kad::{Metric, RoutingTable};
use netsim::sched::TimerWheel;
use netsim::{Ctx, Host, HostAddr, HostMeta, NetSim, Payload, SimConfig, TcpEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlpx::{FrameCodec, Handshake, Role};
use std::hint::black_box;
use std::net::Ipv4Addr;

const BATCHES: usize = 31;
const BATCH_NS: u64 = 1_000_000;

/// ns per call of `op`, repeating it: the batch size doubles until one
/// batch takes [`BATCH_NS`] (which is also the warm-up), then the median of
/// [`BATCHES`] batches is taken.
fn per_call(clock: &Clock, mut op: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t0 = clock.ns();
        for _ in 0..iters {
            op();
        }
        if clock.ns() - t0 >= BATCH_NS {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = clock.ns();
            for _ in 0..iters {
                op();
            }
            (clock.ns() - t0) as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// ns per call of `op` when every call gets an input of its own: `inputs`
/// is cut into [`BATCHES`] equal batches and each input is used once.
/// There is no warm-up — first use is what is being priced — so the
/// caller sizes `inputs` to make a batch last [`BATCH_NS`].
fn per_fresh_input<I>(clock: &Clock, inputs: &mut [I], mut op: impl FnMut(&mut I)) -> f64 {
    let batch = inputs.len() / BATCHES;
    assert!(batch > 0, "fewer inputs than batches");
    let samples: Vec<f64> = inputs
        .chunks_exact_mut(batch)
        .map(|chunk| {
            let t0 = clock.ns();
            for input in chunk.iter_mut() {
                op(input);
            }
            (clock.ns() - t0) as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Inputs for one `per_fresh_input` figure: enough for batches of ~1.5 ms
/// at ≥ 40 µs a call.
const FRESH_INPUTS: usize = BATCHES * 40;

fn random_record(rng: &mut StdRng) -> NodeRecord {
    let mut id = [0u8; 64];
    rng.fill(&mut id[..]);
    NodeRecord::new(
        NodeId(id),
        Endpoint::new(Ipv4Addr::new(10, rng.gen(), rng.gen(), rng.gen()), 30303),
    )
}

fn ethcrypto_layer(clock: &Clock, rng: &mut StdRng, rec: &mut Record) {
    let kilobyte = vec![0xabu8; 1024];
    rec.set(
        "ethcrypto.keccak256_1k_ns",
        per_call(clock, || {
            black_box(keccak256(black_box(&kilobyte)));
        }),
    );
    let (key, iv) = ([0x42u8; 32], [0x24u8; 16]);
    rec.set(
        "ethcrypto.aes_ctr_1k_ns",
        per_call(clock, || {
            let mut ctr = AesCtr::new(&key, &iv);
            black_box(ctr.process(black_box(&kilobyte)));
        }),
    );

    let sk = SecretKey::random(rng);
    let digest = keccak256(b"ledger digest");
    rec.set(
        "ethcrypto.sign_ns",
        per_call(clock, || {
            black_box(sk.sign_recoverable(black_box(&digest)));
        }),
    );
    let sig = sk.sign_recoverable(&digest);
    rec.set(
        "ethcrypto.recover_hit_ns",
        per_call(clock, || {
            black_box(recover(black_box(&digest), black_box(&sig)).expect("own signature"));
        }),
    );
    // Signatures made on another thread are in *its* memo, not ours: the
    // wire bytes come back and every recovery here does the group maths.
    let mut foreign: Vec<([u8; 32], RecoverableSignature)> = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                (0..FRESH_INPUTS as u64)
                    .map(|i| {
                        let d = keccak256(&i.to_be_bytes());
                        (d, sk.sign_recoverable(&d))
                    })
                    .collect()
            })
            .join()
            .expect("signing thread does not panic")
    });
    rec.set(
        "ethcrypto.recover_miss_ns",
        per_fresh_input(clock, &mut foreign, |(d, s)| {
            black_box(recover(d, s).expect("valid signature"));
        }),
    );

    let mut keys: Vec<SecretKey> = (0..FRESH_INPUTS).map(|_| SecretKey::random(rng)).collect();
    rec.set(
        "ethcrypto.pubkey_miss_ns",
        per_fresh_input(clock, &mut keys, |k| {
            black_box(k.public_key());
        }),
    );
    let mut peers: Vec<_> = keys.iter().map(SecretKey::public_key).collect();
    rec.set(
        "ethcrypto.ecdh_miss_ns",
        per_fresh_input(clock, &mut peers, |p| {
            black_box(sk.ecdh(p).expect("valid peer key"));
        }),
    );
    rec.set(
        "ethcrypto.ecdh_hit_ns",
        per_call(clock, || {
            black_box(sk.ecdh(black_box(&peers[0])).expect("valid peer key"));
        }),
    );

    let auth_sized = vec![0x55u8; 194];
    let recipient = sk.public_key();
    rec.set(
        "ethcrypto.ecies_encrypt_ns",
        per_call(clock, || {
            black_box(
                ecies::encrypt(rng, &recipient, black_box(&auth_sized), b"").expect("encrypt"),
            );
        }),
    );
    // Priced as the simulation pays it: sender and receiver share a
    // thread, so the ECDH of each ciphertext's ephemeral key was memoized
    // when it was encrypted and decryption hits. Each ciphertext is read
    // once, as on the wire.
    let mut ciphertexts: Vec<Vec<u8>> = (0..FRESH_INPUTS)
        .map(|_| ecies::encrypt(rng, &recipient, &auth_sized, b"").expect("encrypt"))
        .collect();
    rec.set(
        "ethcrypto.ecies_decrypt_ns",
        per_fresh_input(clock, &mut ciphertexts, |ct| {
            black_box(ecies::decrypt(&sk, ct, b"").expect("decrypt"));
        }),
    );
}

fn codec_layers(clock: &Clock, rng: &mut StdRng, rec: &mut Record) {
    let nodes: Vec<NodeRecord> = (0..12).map(|_| random_record(rng)).collect();
    let encoded = rlp::encode_list(&nodes);
    rec.set(
        "rlp.encode_neighbors_ns",
        per_call(clock, || {
            black_box(rlp::encode_list(black_box(&nodes)));
        }),
    );
    rec.set(
        "rlp.decode_neighbors_ns",
        per_call(clock, || {
            black_box(rlp::decode_list::<NodeRecord>(black_box(&encoded)).expect("own encoding"));
        }),
    );

    let key = SecretKey::random(rng);
    let ping = |expiration: u64| discv4::Packet::Ping {
        version: 4,
        from: Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 30303),
        to: Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 30303),
        expiration,
    };
    let one_ping = ping(u64::MAX / 2);
    rec.set(
        "discv4.encode_ping_ns",
        per_call(clock, || {
            black_box(discv4::encode_packet(black_box(&key), black_box(&one_ping)));
        }),
    );
    let (datagram, _) = discv4::encode_packet(&key, &one_ping);
    rec.set(
        "discv4.decode_ping_hit_ns",
        per_call(clock, || {
            black_box(discv4::decode_packet(black_box(&datagram)).expect("own packet"));
        }),
    );
    let mut foreign: Vec<Vec<u8>> = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                (0..FRESH_INPUTS as u64)
                    .map(|i| discv4::encode_packet(&key, &ping(1 << 40 | i)).0)
                    .collect()
            })
            .join()
            .expect("encoding thread does not panic")
    });
    rec.set(
        "discv4.decode_ping_miss_ns",
        per_fresh_input(clock, &mut foreign, |d| {
            black_box(discv4::decode_packet(d).expect("valid packet"));
        }),
    );
    let neighbors = discv4::Packet::Neighbors {
        nodes,
        expiration: u64::MAX / 2,
    };
    rec.set(
        "discv4.encode_neighbors_ns",
        per_call(clock, || {
            black_box(discv4::encode_packet(
                black_box(&key),
                black_box(&neighbors),
            ));
        }),
    );

    let hello = Message::Hello(Hello {
        p2p_version: 5,
        client_id: "Geth/v1.8.11-stable/linux-amd64/go1.10".into(),
        capabilities: vec![Capability::eth62(), Capability::eth63()],
        listen_port: 30303,
        node_id: NodeId([9u8; 64]),
    });
    rec.set(
        "devp2p.hello_roundtrip_ns",
        per_call(clock, || {
            let payload = hello.encode_payload();
            black_box(Message::decode(0x00, &payload).expect("own encoding"));
        }),
    );
    let chain = Chain::new(ChainConfig::mainnet(), 5_000_000);
    let eth_roundtrip = |msg: &EthMessage| {
        let payload = msg.encode_payload();
        black_box(EthMessage::decode(msg.msg_id(), &payload).expect("own encoding"));
    };
    let status = EthMessage::Status(Status {
        protocol_version: 63,
        network_id: 1,
        total_difficulty: chain.total_difficulty(),
        best_hash: chain.best_hash(),
        genesis_hash: chain.config.genesis_hash,
    });
    rec.set(
        "ethwire.status_roundtrip_ns",
        per_call(clock, || eth_roundtrip(&status)),
    );
    let transactions = EthMessage::Transactions((0..4).map(|i| vec![i as u8; 110]).collect());
    rec.set(
        "ethwire.transactions_roundtrip_ns",
        per_call(clock, || eth_roundtrip(&transactions)),
    );
    let headers = EthMessage::BlockHeaders(chain.headers(1_000_000, 32, 0, false));
    rec.set(
        "ethwire.headers32_roundtrip_ns",
        per_call(clock, || eth_roundtrip(&headers)),
    );
}

/// One full RLPx handshake between two fresh identities (auth, ack,
/// secrets on both sides), and the frame codecs it yields.
fn handshake_pair(rng: &mut StdRng) -> (FrameCodec, FrameCodec) {
    let initiator_key = SecretKey::random(rng);
    let recipient_key = SecretKey::random(rng);
    let recipient_id = NodeId::from_secret_key(&recipient_key);
    let mut initiator = Handshake::new(Role::Initiator, initiator_key, rng);
    let mut recipient = Handshake::new(Role::Recipient, recipient_key, rng);
    let auth = initiator.write_auth(rng, &recipient_id).expect("auth");
    let ack = recipient.read_auth(rng, &auth).expect("read auth");
    initiator.read_ack(&ack).expect("read ack");
    (
        FrameCodec::new(initiator.secrets().expect("initiator secrets")),
        FrameCodec::new(recipient.secrets().expect("recipient secrets")),
    )
}

fn rlpx_layer(clock: &Clock, rng: &mut StdRng, rec: &mut Record) {
    rec.set(
        "rlpx.handshake_pair_us",
        per_call(clock, || {
            black_box(handshake_pair(rng));
        }) / 1e3,
    );
    for (size, batch, write_name, read_name) in [
        (
            64usize,
            1024usize,
            "rlpx.frame_write_64_ns",
            "rlpx.frame_read_64_ns",
        ),
        (4096, 128, "rlpx.frame_write_4k_ns", "rlpx.frame_read_4k_ns"),
    ] {
        let body = vec![0x5au8; size];
        let (mut writer, mut reader) = handshake_pair(rng);
        // The reader's MAC state must see the writer's frames in order,
        // each once, so the reads come first, on frames written outside
        // the clock; the writer is then free to write into the void.
        let mut frames: Vec<BytesMut> = (0..BATCHES * batch)
            .map(|_| BytesMut::from(writer.write_frame(&body)))
            .collect();
        rec.set(
            read_name,
            per_fresh_input(clock, &mut frames, |frame| {
                black_box(reader.read_frame(frame).expect("valid frame"));
            }),
        );
        rec.set(
            write_name,
            per_call(clock, || {
                black_box(writer.write_frame(black_box(&body)));
            }),
        );
    }
}

fn kad_enode_layers(clock: &Clock, rng: &mut StdRng, rec: &mut Record) {
    let local = NodeId([0xEEu8; 64]);
    let target = NodeId([0x77u8; 64]).kad_hash();
    for (metric, name) in [
        (Metric::GethLog2, "kad.closest16_geth_ns"),
        (Metric::ParityByteSum, "kad.closest16_parity_ns"),
    ] {
        let mut table = RoutingTable::new(local, metric);
        for _ in 0..500 {
            let _ = table.add(random_record(rng), 0);
        }
        rec.set(
            name,
            per_call(clock, || {
                black_box(table.closest(black_box(&target), 16));
            }),
        );
    }
    let records: Vec<NodeRecord> = (0..500).map(|_| random_record(rng)).collect();
    rec.set(
        "kad.add_ns",
        per_call(clock, || {
            let mut table = RoutingTable::new(local, Metric::GethLog2);
            for (i, r) in records.iter().enumerate() {
                let _ = table.add(*r, i as u64);
            }
            black_box(table.len());
        }) / records.len() as f64,
    );
    rec.set(
        "enode.intern_ns",
        per_call(clock, || {
            let mut interner = Interner::new();
            for r in &records {
                black_box(interner.intern(&r.id));
            }
        }) / records.len() as f64,
    );
}

/// A host that does nothing but keep one kind of event in flight: the
/// engine's own cost per event, with the protocol stack taken away.
struct Bare {
    kind: BareKind,
    peer: HostAddr,
}

#[derive(Clone, Copy)]
enum BareKind {
    Udp,
    Timer,
    Tcp,
}

impl Host for Bare {
    fn on_start(&mut self, ctx: &mut Ctx) {
        match self.kind {
            BareKind::Udp => ctx.send_udp(self.peer, vec![0u8; 64]),
            BareKind::Timer => ctx.set_timer(1, 0),
            BareKind::Tcp => {
                ctx.tcp_connect(self.peer);
            }
        }
    }
    fn on_udp(&mut self, ctx: &mut Ctx, _from: HostAddr, datagram: &[u8]) {
        ctx.send_udp(self.peer, datagram.to_vec());
    }
    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn, .. } => ctx.tcp_send(conn, vec![0u8; 64]),
            TcpEvent::Data { bytes, conn } => ctx.tcp_send(conn, bytes),
            _ => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        ctx.set_timer(1, token);
    }
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// ns per dispatched event of a 64-host ring of [`Bare`] hosts, each
/// forwarding to the next, after one simulated second of warm-up.
fn bare_event_ns(clock: &Clock, kind: BareKind, shards: usize, seed: u64) -> f64 {
    const HOSTS: u8 = 64;
    let mut sim = NetSim::new(SimConfig {
        seed,
        udp_loss: 0.0,
        shards,
        ..SimConfig::default()
    });
    let addr = |i: u8| HostAddr::new(Ipv4Addr::new(10, 9, 0, 1 + i % HOSTS), 30303);
    for i in 0..HOSTS {
        let host = sim.add_host(
            addr(i),
            HostMeta::default_cloud(),
            Box::new(Bare {
                kind,
                peer: addr(i + 1),
            }),
        );
        sim.schedule_start(host, 0);
    }
    sim.run_until(1_000);
    let mut until = 1_000;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let events_before = sim.events_processed();
            let t0 = clock.ns();
            // Windows of simulated time until the batch is long enough.
            while clock.ns() - t0 < BATCH_NS {
                until += 100;
                sim.run_until(until);
            }
            let wall = clock.ns() - t0;
            wall as f64 / (sim.events_processed() - events_before).max(1) as f64
        })
        .collect();
    median(&samples)
}

fn netsim_obs_layers(clock: &Clock, seed: u64, rec: &mut Record) {
    // Push/pop against a wheel holding ~10k pending entries, mostly
    // near-future with an occasional far timer, like a live world's.
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let (mut now, mut seq, mut x) = (0u64, 0u64, 0x2545_F491_4F6C_DD1Du64);
    let mut delay = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x % 64 == 0 {
            600_000 + x % 1_000_000
        } else {
            x % 2_000
        }
    };
    for _ in 0..10_000 {
        seq += 1;
        wheel.push(now + delay(), seq, 0);
    }
    rec.set(
        "netsim.wheel_push_pop_ns",
        per_call(clock, || {
            seq += 1;
            wheel.push(now + delay(), seq, 0);
            if let Some((at, _, item)) = wheel.pop_at_most(u64::MAX / 2) {
                now = at;
                black_box(item);
            }
        }),
    );
    let payload: Payload = vec![0xABu8; 1024].into();
    rec.set(
        "netsim.payload_clone_ns",
        per_call(clock, || {
            black_box(black_box(&payload).clone());
        }),
    );
    rec.set(
        "netsim.bare_udp_event_ns_s1",
        bare_event_ns(clock, BareKind::Udp, 1, seed),
    );
    rec.set(
        "netsim.bare_udp_event_ns_s8",
        bare_event_ns(clock, BareKind::Udp, 8, seed),
    );
    rec.set(
        "netsim.bare_timer_event_ns",
        bare_event_ns(clock, BareKind::Timer, 1, seed),
    );
    rec.set(
        "netsim.bare_tcp_event_ns",
        bare_event_ns(clock, BareKind::Tcp, 1, seed),
    );

    // The recorder is off in every end-to-end run; these two price what
    // the traced repetition adds per counter bump and per trace event.
    let recorder = obs::Recorder::new();
    recorder.install();
    let id = obs::handle("benchmark.ledger.counter");
    rec.set(
        "obs.counter_add_id_ns",
        per_call(clock, || obs::counter_add_id(black_box(id), 1)),
    );
    rec.set(
        "obs.event_emit_ns",
        per_call(clock, || {
            obs::event("benchmark.ledger.event", &[("n", obs::Value::U64(1))]);
        }),
    );
    obs::uninstall();
}

/// Price every layer; `seed` feeds the keys and records the ledger makes
/// up (the costs do not depend on it, the inputs do).
pub fn run(seed: u64) -> Record {
    let clock = Clock::start();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rec = Record::default();
    ethcrypto_layer(&clock, &mut rng, &mut rec);
    codec_layers(&clock, &mut rng, &mut rec);
    rlpx_layer(&clock, &mut rng, &mut rec);
    kad_enode_layers(&clock, &mut rng, &mut rec);
    netsim_obs_layers(&clock, seed, &mut rec);
    rec
}
