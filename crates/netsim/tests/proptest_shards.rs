//! Property tests for the sharded scheduler: for *arbitrary* host→shard
//! assignments, region (latency-matrix) placements, and scripted event
//! interleavings, the sharded dispatch order must equal the single-shard
//! reference order — including same-instant bursts that land exactly on
//! barrier-epoch boundaries (timers at multiples of the 10 ms lookahead).

use netsim::{Ctx, Host, HostAddr, HostMeta, NetSim, Region, SimConfig, TcpEvent};
use proptest::prelude::*;
use rand::Rng;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

type Log = Rc<RefCell<Vec<String>>>;

/// A scripted host that logs every event it observes (with timestamps and
/// an RNG draw, so stream divergence is also caught) and generates a mix
/// of traffic: UDP fan-out bursts from timers, request/reply pairs, and a
/// TCP connect/send/close exchange.
struct ScriptHost {
    peers: Vec<HostAddr>,
    timers: Vec<u64>,
    log: Log,
}

impl ScriptHost {
    fn logit(&self, line: String) {
        self.log.borrow_mut().push(line);
    }
}

impl Host for ScriptHost {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        let id = ctx.host_id();
        self.logit(format!("{} start h{}", ctx.now_ms, id));
        for (i, t) in self.timers.iter().enumerate() {
            ctx.set_timer(*t, i as u64);
        }
        if let Some(first) = self.peers.first().copied() {
            let conn = ctx.tcp_connect(first);
            self.logit(format!("{} dial h{} conn={}", ctx.now_ms, id, conn));
        }
    }

    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        let id = ctx.host_id();
        let draw: u32 = ctx.rng().gen_range(0..1_000);
        self.logit(format!(
            "{} udp h{} from {} len={} draw={}",
            ctx.now_ms,
            id,
            from.ip,
            datagram.len(),
            draw
        ));
        // Reply to 3-byte requests with a 4-byte pong (no further reply,
        // so traffic terminates).
        if datagram.len() == 3 {
            ctx.send_udp(from, vec![0u8; 4]);
        }
    }

    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        let id = ctx.host_id();
        match event {
            TcpEvent::Connected { conn, .. } => {
                self.logit(format!("{} connected h{} conn={}", ctx.now_ms, id, conn));
                ctx.tcp_send(conn, vec![9u8; 16]);
            }
            TcpEvent::ConnectFailed { conn } => {
                self.logit(format!("{} connfail h{} conn={}", ctx.now_ms, id, conn));
            }
            TcpEvent::Incoming { conn, peer } => {
                self.logit(format!(
                    "{} incoming h{} conn={} from {}",
                    ctx.now_ms, id, conn, peer.ip
                ));
            }
            TcpEvent::Data { conn, bytes } => {
                self.logit(format!(
                    "{} data h{} conn={} len={}",
                    ctx.now_ms,
                    id,
                    conn,
                    bytes.len()
                ));
                ctx.tcp_close(conn);
            }
            TcpEvent::Closed { conn } => {
                self.logit(format!("{} closed h{} conn={}", ctx.now_ms, id, conn));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let id = ctx.host_id();
        let draw: u32 = ctx.rng().gen_range(0..1_000);
        self.logit(format!(
            "{} timer h{} tok={} draw={}",
            ctx.now_ms, id, token, draw
        ));
        // Same-instant fan-out burst: every peer gets a request datagram
        // stamped with the same send time.
        for p in &self.peers {
            ctx.send_udp(*p, vec![7u8; 3]);
        }
    }
}

/// Per-host script: (raw shard pick, region index, extra timer delays).
type HostScript = (usize, usize, Vec<u64>);

/// Run the scripted world and return the dispatch log. `assign` applies
/// the arbitrary shard assignment; the reference run leaves every host on
/// the single shard.
fn run_world(seed: u64, hosts: &[HostScript], shards: usize, assign: bool) -> Vec<String> {
    let config = SimConfig {
        seed,
        udp_loss: 0.1,
        jitter_ms: 6,
        shards,
        ..SimConfig::default()
    };
    let mut sim = NetSim::new(config);
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    let addrs: Vec<HostAddr> = (0..hosts.len())
        .map(|i| HostAddr::new(Ipv4Addr::new(10, 0, 0, i as u8 + 1), 30303))
        .collect();
    for (i, (shard_raw, region_idx, extra)) in hosts.iter().enumerate() {
        let peers: Vec<HostAddr> = addrs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, a)| *a)
            .collect();
        let meta = HostMeta {
            country: "US",
            asn: "Test",
            region: Region::ALL[*region_idx % Region::ALL.len()],
            reachable: true,
        };
        // Fixed timers on the 10 ms lookahead grid (barrier boundaries)
        // plus the arbitrary ones.
        let mut timers = vec![10, 20];
        timers.extend(extra.iter().map(|t| 1 + t % 400));
        let host = sim.add_host(
            addrs[i],
            meta,
            Box::new(ScriptHost {
                peers,
                timers,
                log: Rc::clone(&log),
            }),
        );
        if assign {
            sim.set_host_shard(host, shard_raw % shards);
        }
        // Paired start times: hosts i and i+1 come up at the same instant,
        // exercising same-`at` external-event ordering.
        sim.schedule_start(host, (i as u64 / 2) * 6);
    }
    sim.run_until(1_500);
    let lines = log.borrow().clone();
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary shard assignments replay the single-shard reference
    /// exactly, event for event, draw for draw.
    #[test]
    fn sharded_dispatch_equals_single_wheel_reference(
        seed in any::<u64>(),
        shards in 1usize..=4,
        hosts in proptest::collection::vec(
            (0usize..4, 0usize..6, proptest::collection::vec(0u64..400, 0..=3)),
            2..=6,
        ),
    ) {
        let reference = run_world(seed, &hosts, 1, false);
        let sharded = run_world(seed, &hosts, shards, true);
        prop_assert!(!reference.is_empty(), "script produced no events");
        prop_assert_eq!(reference, sharded);
    }
}
