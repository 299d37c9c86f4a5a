//! Engine tests: delivery, NAT, TCP, timers, faults and lifecycle
//! through scripted hosts. [`Probe`] and its world builders serve the
//! connection-table and snapshot tests too.

use super::*;
use crate::faults::{Fault, LinkSelector};
use crate::topology::Region;
use obs::snap::{SnapError, SnapWriter};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

pub(super) type Log = Rc<RefCell<Vec<String>>>;

/// A scriptable host for engine tests.
pub(super) struct Probe {
    log: Log,
    name: &'static str,
    /// Peer to ping over UDP at start.
    pub(super) udp_target: Option<HostAddr>,
    /// Peer to dial over TCP at start.
    pub(super) tcp_target: Option<HostAddr>,
    /// Echo received UDP back to the sender.
    pub(super) echo: bool,
    /// Bytes to send once a TCP conn establishes.
    pub(super) tcp_payload: Option<Vec<u8>>,
}

impl Probe {
    pub(super) fn new(name: &'static str, log: Log) -> Probe {
        Probe {
            log,
            name,
            udp_target: None,
            tcp_target: None,
            echo: false,
            tcp_payload: None,
        }
    }
    fn logit(&self, s: String) {
        // Mirror every callback into the obs trace (no-op without a
        // recorder) so provenance tests see dispatch-stamped events.
        obs::event("probe.cb", &[]);
        self.log.borrow_mut().push(format!("{} {}", self.name, s));
    }
}

impl Host for Probe {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
    fn save_state(&self, _: &mut SnapWriter) -> Result<(), SnapError> {
        Ok(())
    }
    fn load_state(&mut self, _: &[u8]) -> Result<(), SnapError> {
        Ok(())
    }

    fn on_start(&mut self, ctx: &mut Ctx) {
        self.logit(format!("start@{}", ctx.now_ms));
        if let Some(t) = self.udp_target {
            ctx.send_udp(t, b"hello".to_vec());
        }
        if let Some(t) = self.tcp_target {
            let conn = ctx.tcp_connect(t);
            self.logit(format!("dial conn={conn}"));
        }
    }
    fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
        self.logit(format!(
            "udp@{} from {} len={}",
            ctx.now_ms,
            from,
            datagram.len()
        ));
        if self.echo {
            ctx.send_udp(from, datagram.to_vec());
        }
    }
    fn on_tcp(&mut self, ctx: &mut Ctx, event: TcpEvent) {
        match event {
            TcpEvent::Connected { conn, .. } => {
                self.logit(format!("connected@{} rtt={}", ctx.now_ms, ctx.rtt_ms(conn)));
                if let Some(p) = self.tcp_payload.take() {
                    ctx.tcp_send(conn, p);
                }
            }
            TcpEvent::ConnectFailed { .. } => self.logit(format!("connfail@{}", ctx.now_ms)),
            TcpEvent::Incoming { .. } => self.logit(format!("incoming@{}", ctx.now_ms)),
            TcpEvent::Data { bytes, .. } => {
                self.logit(format!("data@{} len={}", ctx.now_ms, bytes.len()))
            }
            TcpEvent::Closed { .. } => self.logit(format!("closed@{}", ctx.now_ms)),
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        self.logit(format!("timer@{} token={token}", ctx.now_ms));
    }
    fn on_stop(&mut self, ctx: &mut Ctx) {
        self.logit(format!("stop@{}", ctx.now_ms));
    }
}

pub(super) fn meta(reachable: bool) -> HostMeta {
    HostMeta {
        country: "US",
        asn: "Test",
        region: Region::NorthAmerica,
        reachable,
    }
}

pub(super) fn addr(last: u8) -> HostAddr {
    HostAddr::new(Ipv4Addr::new(10, 0, 0, last), 30303)
}

pub(super) fn lossless() -> SimConfig {
    SimConfig {
        udp_loss: 0.0,
        jitter_ms: 0,
        ..SimConfig::default()
    }
}

/// `a` at `addr(1)` and `b` at `addr(2)` in a lossless world, reachable
/// as `reachable` says, both started at 0: hosts 0 and 1.
fn pair(a: impl Host + 'static, b: impl Host + 'static, reachable: [bool; 2]) -> NetSim {
    let mut sim = NetSim::new(lossless());
    let hosts: [Box<dyn Host>; 2] = [Box::new(a), Box::new(b)];
    for (i, (host, r)) in hosts.into_iter().zip(reachable).enumerate() {
        let h = sim.add_host(addr(i as u8 + 1), meta(r), host);
        sim.schedule_start(h, 0);
    }
    sim
}

/// Install `fault` on `link` during `[from_ms, until_ms)`.
fn add_fault(sim: &mut NetSim, link: LinkSelector, from_ms: u64, until_ms: u64, fault: Fault) {
    sim.add_fault(FaultWindow {
        link,
        from_ms,
        until_ms,
        fault,
    });
}

#[test]
fn udp_delivery_with_latency() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.udp_target = Some(addr(2));
    let mut b = Probe::new("b", log.clone());
    b.echo = true;
    let mut sim = pair(a, b, [true; 2]);
    sim.run_until(10_000);
    let log = log.borrow();
    // a sends at 0; intra-region base latency is 15ms
    assert!(
        log.iter()
            .any(|l| l == "b udp@15 from 10.0.0.1:30303 len=5"),
        "{log:?}"
    );
    // echo arrives back at 30
    assert!(
        log.iter()
            .any(|l| l == "a udp@30 from 10.0.0.2:30303 len=5"),
        "{log:?}"
    );
}

#[test]
fn udp_to_nated_host_dropped_until_solicited() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.udp_target = Some(addr(2)); // a is NATed and sends first
    let mut b = Probe::new("b", log.clone());
    b.echo = true;
    let mut sim = pair(a, b, [false, true]);
    sim.run_until(10_000);
    // The echo *is* delivered because a's outbound punched a pinhole.
    assert!(log.borrow().iter().any(|l| l.starts_with("a udp@")));

    // Fresh sim: b sends unsolicited to NATed a → dropped.
    let log2: Log = Rc::default();
    let a = Probe::new("a", log2.clone());
    let mut b = Probe::new("b", log2.clone());
    b.udp_target = Some(addr(1));
    let mut sim = pair(a, b, [false, true]);
    sim.run_until(10_000);
    assert!(
        !log2.borrow().iter().any(|l| l.starts_with("a udp@")),
        "{:?}",
        log2.borrow()
    );
    let (_, dropped) = sim.udp_counters();
    assert_eq!(dropped, 1);
}

#[test]
fn tcp_connect_send_close() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.tcp_target = Some(addr(2));
    a.tcp_payload = Some(vec![0u8; 100]);
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    sim.run_until(10_000);
    let log = log.borrow();
    assert!(log.iter().any(|l| l.starts_with("b incoming@")), "{log:?}");
    assert!(log.iter().any(|l| l.starts_with("a connected@")), "{log:?}");
    assert!(
        log.iter()
            .any(|l| l.starts_with("b data@") && l.ends_with("len=100")),
        "{log:?}"
    );
    // RTT is observable and sane (2 × 15ms intra-region)
    assert!(log.iter().any(|l| l.contains("rtt=30")), "{log:?}");
}

#[test]
fn tcp_connect_to_dead_or_unreachable_fails() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.tcp_target = Some(addr(9)); // nobody there
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    sim.run_until(10_000);
    assert!(log.borrow().iter().any(|l| l.starts_with("a connfail@")));

    let log2: Log = Rc::default();
    let mut a = Probe::new("a", log2.clone());
    a.tcp_target = Some(addr(2));
    // b is NATed: no inbound TCP.
    let mut sim = pair(a, Probe::new("b", log2.clone()), [true, false]);
    sim.run_until(10_000);
    assert!(log2.borrow().iter().any(|l| l.starts_with("a connfail@")));
}

#[test]
fn stop_closes_connections_and_drops_timers() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.tcp_target = Some(addr(2));
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    sim.schedule_stop(1, 5_000);
    sim.run_until(20_000);
    let log = log.borrow();
    assert!(log.iter().any(|l| l == "b stop@5000"), "{log:?}");
    assert!(log.iter().any(|l| l.starts_with("a closed@")), "{log:?}");
    assert!(!sim.is_alive(1));
}

#[test]
fn timers_fire_in_order() {
    struct TimerHost {
        log: Log,
    }
    impl Host for TimerHost {
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }

        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(300, 3);
            ctx.set_timer(100, 1);
            ctx.set_timer(200, 2);
        }
        fn on_udp(&mut self, _: &mut Ctx, _: HostAddr, _: &[u8]) {}
        fn on_tcp(&mut self, _: &mut Ctx, _: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            self.log
                .borrow_mut()
                .push(format!("t{token}@{}", ctx.now_ms));
        }
    }
    let log: Log = Rc::default();
    let mut sim = NetSim::new(lossless());
    let h = sim.add_host(
        addr(1),
        meta(true),
        Box::new(TimerHost { log: log.clone() }),
    );
    sim.schedule_start(h, 0);
    sim.run_until(1_000);
    assert_eq!(*log.borrow(), vec!["t1@100", "t2@200", "t3@300"]);
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run(seed: u64) -> (u64, u64, u64) {
        let mut sim = NetSim::new(SimConfig {
            seed,
            udp_loss: 0.3,
            jitter_ms: 10,
            ..SimConfig::default()
        });
        let log: Log = Rc::default();
        let mut hosts = Vec::new();
        for i in 1..=10u8 {
            let mut p = Probe::new("x", log.clone());
            p.echo = true;
            p.udp_target = Some(addr((i % 10) + 1));
            hosts.push(sim.add_host(addr(i), meta(true), Box::new(p)));
        }
        for h in &hosts {
            sim.schedule_start(*h, 0);
        }
        sim.run_until(3_000);
        let (s, d) = sim.udp_counters();
        (sim.events_processed(), s, d)
    }
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8)); // different seed, different loss pattern
}

#[test]
fn duplicate_address_panics() {
    let log: Log = Rc::default();
    let mut sim = NetSim::new(lossless());
    sim.add_host(addr(1), meta(true), Box::new(Probe::new("a", log.clone())));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.add_host(addr(1), meta(true), Box::new(Probe::new("b", log)));
    }));
    assert!(result.is_err());
}

#[test]
fn tcp_counters_track_connects_bytes_and_death_resets() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.tcp_target = Some(addr(2));
    a.tcp_payload = Some(vec![0u8; 100]);
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    sim.run_until(2_000);
    let c = sim.tcp_counters();
    assert_eq!(c.connects, 1);
    assert_eq!(c.bytes, 100);
    assert_eq!(c.resets, 0);
    assert_eq!(c.segments_dropped, 0);
    // Killing b while the connection is up counts as an abortive reset.
    sim.schedule_stop(1, 3_000);
    sim.run_until(5_000);
    assert_eq!(sim.tcp_counters().resets, 1);
}

#[test]
fn udp_burst_loss_window_only_drops_inside_window() {
    // a pings b every 100ms via a timer; a 0.999-loss window covers
    // [1000, 2000). Outside the window everything is delivered.
    struct Pinger {
        log: Log,
        target: HostAddr,
    }
    impl Host for Pinger {
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(100, 1);
        }
        fn on_udp(&mut self, _: &mut Ctx, _: HostAddr, _: &[u8]) {}
        fn on_tcp(&mut self, _: &mut Ctx, _: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _: u64) {
            ctx.send_udp(self.target, b"ping".to_vec());
            ctx.set_timer(100, 1);
        }
        fn on_stop(&mut self, _: &mut Ctx) {
            self.log.borrow_mut().clear();
        }
    }
    let log: Log = Rc::default();
    let a = Pinger {
        log: log.clone(),
        target: addr(2),
    };
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    let link = LinkSelector::Pair(addr(1), addr(2));
    add_fault(&mut sim, link, 1_000, 2_000, Fault::UdpLoss(0.999));
    sim.run_until(3_000);
    let log = log.borrow();
    let arrivals_in = |lo: u64, hi: u64| {
        log.iter()
            .filter(|l| {
                l.starts_with("b udp@")
                    && l.split('@')
                        .nth(1)
                        .and_then(|r| r.split(' ').next())
                        .and_then(|t| t.parse::<u64>().ok())
                        .map(|t| t >= lo && t < hi)
                        .unwrap_or(false)
            })
            .count()
    };
    // ~10 sends per second; the window eats essentially all of them.
    assert!(arrivals_in(0, 1_000) >= 9, "{log:?}");
    assert!(arrivals_in(1_020, 2_000) <= 1, "{log:?}");
    assert!(arrivals_in(2_000, 3_000) >= 9, "{log:?}");
}

#[test]
fn blackhole_fails_tcp_connects_and_reset_kills_streams() {
    // Blackhole window: the dial fails even though b is alive.
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.tcp_target = Some(addr(2));
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    add_fault(
        &mut sim,
        LinkSelector::Host(addr(2)),
        0,
        60_000,
        Fault::Blackhole,
    );
    sim.run_until(5_000);
    assert!(
        log.borrow().iter().any(|l| l.starts_with("a connfail@")),
        "{:?}",
        log.borrow()
    );

    // Reset window: the connection establishes, then the first data
    // segment resets it — both sides observe Closed.
    let log2: Log = Rc::default();
    let mut a = Probe::new("a", log2.clone());
    a.tcp_target = Some(addr(2));
    a.tcp_payload = Some(vec![7u8; 64]);
    let mut sim = pair(a, Probe::new("b", log2.clone()), [true; 2]);
    // TcpReset only affects data segments, not the establishment
    // handshake, so the window can cover the whole run.
    add_fault(&mut sim, LinkSelector::Any, 0, 60_000, Fault::TcpReset);
    sim.run_until(5_000);
    let log2 = log2.borrow();
    assert!(
        log2.iter().any(|l| l.starts_with("a connected@")),
        "{log2:?}"
    );
    assert!(!log2.iter().any(|l| l.starts_with("b data@")), "{log2:?}");
    assert!(log2.iter().any(|l| l.starts_with("a closed@")), "{log2:?}");
    assert!(log2.iter().any(|l| l.starts_with("b closed@")), "{log2:?}");
    assert_eq!(sim.tcp_counters().resets, 1);
}

#[test]
fn truncation_shortens_delivered_segments() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.tcp_target = Some(addr(2));
    a.tcp_payload = Some(vec![7u8; 64]);
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    add_fault(
        &mut sim,
        LinkSelector::Any,
        0,
        60_000,
        Fault::TcpTruncate(16),
    );
    sim.run_until(5_000);
    assert!(
        log.borrow()
            .iter()
            .any(|l| l.starts_with("b data@") && l.ends_with("len=16")),
        "{:?}",
        log.borrow()
    );
    assert_eq!(sim.tcp_counters().bytes, 16);
}

#[test]
fn latency_spike_delays_udp() {
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.udp_target = Some(addr(2));
    let mut sim = pair(a, Probe::new("b", log.clone()), [true; 2]);
    add_fault(
        &mut sim,
        LinkSelector::Any,
        0,
        60_000,
        Fault::LatencySpike(500),
    );
    sim.run_until(5_000);
    // Base intra-region latency is 15ms; the spike pushes it to 515.
    assert!(
        log.borrow().iter().any(|l| l.starts_with("b udp@515 ")),
        "{:?}",
        log.borrow()
    );
}

#[test]
fn nat_flap_toggles_reachability_on_schedule() {
    let log: Log = Rc::default();
    let mut sim = pair(
        Probe::new("a", log.clone()),
        Probe::new("b", log.clone()),
        [true; 2],
    );
    // One flap: unreachable during [1000, 2000).
    sim.nat_flap(0, 1_000, 1_000, 1);
    sim.run_until(500);
    assert!(sim.host_meta(0).reachable);
    sim.run_until(1_500);
    assert!(!sim.host_meta(0).reachable);
    sim.run_until(2_500);
    assert!(sim.host_meta(0).reachable);
}

#[test]
fn churn_burst_takes_hosts_down_together() {
    let log: Log = Rc::default();
    let mut sim = pair(
        Probe::new("a", log.clone()),
        Probe::new("b", log.clone()),
        [true; 2],
    );
    sim.churn_burst(&[0, 1], 1_000, 500);
    sim.run_until(1_200);
    assert!(!sim.is_alive(0) && !sim.is_alive(1));
    sim.run_until(2_000);
    assert!(sim.is_alive(0) && sim.is_alive(1));
    let log = log.borrow();
    assert!(log.iter().any(|l| l == "a stop@1000"), "{log:?}");
    assert!(log.iter().any(|l| l == "a start@1500"), "{log:?}");
}

#[test]
fn queue_depth_peak_export_matches_engine_high_water_mark() {
    // The per-event gauge now flows through an interned MetricId; the
    // exported value must still equal the engine-side high-water mark
    // and keep its exact Prometheus rendering.
    let rec = obs::Recorder::new();
    rec.install();
    let log: Log = Rc::default();
    let mut a = Probe::new("a", log.clone());
    a.udp_target = Some(addr(2));
    a.tcp_target = Some(addr(2));
    a.tcp_payload = Some(vec![7u8; 32]);
    let mut b = Probe::new("b", log.clone());
    b.echo = true;
    let mut sim = pair(a, b, [true; 2]);
    sim.run_until(10_000);

    let peak = sim.queue_depth_peak();
    assert!(peak >= 2, "ping-pong world should stack events, got {peak}");
    assert_eq!(rec.gauge("netsim.queue_depth_peak"), peak);
    assert!(
        rec.prometheus()
            .contains(&format!("netsim_queue_depth_peak {peak}\n")),
        "gauge missing from the Prometheus export"
    );
    obs::uninstall();
}

/// Three lossless probes at `addr(1..=3)`, all started at 0, each
/// given its targets by `aim(i, probe)`.
pub(super) fn probe_world(aim: fn(u8, &mut Probe)) -> NetSim {
    let mut sim = NetSim::new(lossless());
    for i in 1..=3 {
        let mut p = Probe::new("p", Log::default());
        aim(i, &mut p);
        let h = sim.add_host(addr(i), meta(true), Box::new(p));
        sim.schedule_start(h, 0);
    }
    sim
}

#[test]
fn provenance_chains_reach_roots() {
    // Every obs trace event emitted during dispatch must carry a
    // causal chain that walks back to an external root (cause 0).
    let rec = obs::Recorder::new();
    rec.install();
    let log: Log = Rc::default();
    let mut sim = NetSim::new(SimConfig {
        seed: 7,
        ..SimConfig::default()
    });
    let mut hosts = Vec::new();
    for i in 0..4u8 {
        let mut p = Probe::new("p", log.clone());
        p.echo = i % 2 == 0;
        p.udp_target = Some(addr(((i + 1) % 4) + 1));
        p.tcp_target = (i == 1).then(|| addr(((i + 2) % 4) + 1));
        p.tcp_payload = Some(vec![0u8; 16]);
        let m = HostMeta {
            country: "US",
            asn: "Test",
            region: Region::ALL[i as usize],
            reachable: true,
        };
        hosts.push(sim.add_host(addr(i + 1), m, Box::new(p)));
    }
    for &h in &hosts {
        sim.schedule_start(h, 0);
    }
    sim.run_until(4_000);
    let q = rec.query();
    // Dispatch-emitted events carry keys; chains terminate at cause 0
    // without cycling.
    let keyed: Vec<&obs::TraceEvent> = q.events().iter().filter(|e| e.key != 0).collect();
    assert!(!keyed.is_empty(), "no dispatched trace events recorded");
    assert!(!q.roots().is_empty(), "no external roots visible");
    for e in &keyed {
        let chain = q.chain(e.key);
        let last = *chain.last().unwrap();
        assert_eq!(
            q.cause_of(last),
            Some(0),
            "chain from key {} stops at non-root {}",
            e.key,
            last
        );
        assert_eq!(chain.len() as u32, e.depth + 1, "depth mismatch");
    }
    assert!(
        keyed.iter().any(|e| e.depth >= 2),
        "world too shallow: no chains of depth >= 2"
    );
    obs::uninstall();
}

#[test]
fn restart_after_stop_calls_on_start_again() {
    let log: Log = Rc::default();
    let mut sim = NetSim::new(lossless());
    let h = sim.add_host(addr(1), meta(true), Box::new(Probe::new("a", log.clone())));
    sim.schedule_start(h, 0);
    sim.schedule_stop(h, 100);
    sim.schedule_start(h, 200);
    sim.run_until(1_000);
    assert_eq!(
        *log.borrow(),
        vec!["a start@0", "a stop@100", "a start@200"]
    );
}
