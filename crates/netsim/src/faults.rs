//! Deterministic fault injection: per-link fault windows.
//!
//! The paper's crawler ran on the live Internet, where links lose bursts
//! of packets, stall, reset connections mid-stream, and deliver garbage.
//! This module reproduces those conditions inside the simulator so the
//! robustness suite (`tests/robustness.rs`) can prove the crawler
//! degrades gracefully — without giving up determinism: every fault
//! decision draws from the RNG stream of the host whose send it judges
//! (the dispatching host's own stream, as every engine draw does), so
//! it depends on that host's event history alone.
//!
//! A [`FaultWindow`] applies one [`Fault`] to one [`LinkSelector`] during
//! `[from_ms, until_ms)`. Windows are installed via
//! [`SimConfig::faults`](crate::SimConfig) up front or
//! [`NetSim::add_fault`](crate::NetSim::add_fault) after construction
//! (worlds build their own `SimConfig`, so post-construction injection is
//! the common path). Correlated outages and NAT flaps are
//! [`NetSim::churn_burst`](crate::NetSim::churn_burst) and
//! [`NetSim::nat_flap`](crate::NetSim::nat_flap).

use crate::host::{HostAddr, Payload};
use obs::{snap_enum, snap_struct};
use rand::rngs::StdRng;
use rand::Rng;

/// Which link(s) a fault window applies to. Selection is symmetric: a
/// pair matches traffic in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSelector {
    /// Every link in the simulation.
    Any,
    /// Every link with this endpoint on either side.
    Host(HostAddr),
    /// The single link between these two endpoints (either direction).
    Pair(HostAddr, HostAddr),
}

snap_enum!(LinkSelector { 0 => Any, 1 => Host(a), 2 => Pair(a, b) });

impl LinkSelector {
    /// Does traffic between `a` and `b` (either direction) match?
    pub fn matches(&self, a: HostAddr, b: HostAddr) -> bool {
        match *self {
            LinkSelector::Any => true,
            LinkSelector::Host(h) => a == h || b == h,
            LinkSelector::Pair(x, y) => (a == x && b == y) || (a == y && b == x),
        }
    }
}

/// One injectable network pathology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Additional UDP loss probability on the link (burst loss).
    UdpLoss(f64),
    /// Extra one-way latency, ms, on every matching packet/segment.
    LatencySpike(u64),
    /// Total loss: UDP vanishes, TCP connects fail, established-stream
    /// segments are silently dropped (the connection stalls).
    Blackhole,
    /// Established TCP connections carrying a matching segment are reset:
    /// both ends see `Closed` instead of the data.
    TcpReset,
    /// TCP segments longer than the limit are truncated to it — the
    /// stream desynchronizes and the receiver reads garbage.
    TcpTruncate(usize),
    /// One byte of each matching TCP segment (position drawn from the
    /// sending host's RNG stream) is flipped.
    TcpCorrupt,
}

snap_enum!(Fault {
    0 => UdpLoss(p),
    1 => LatencySpike(ms),
    2 => Blackhole,
    3 => TcpReset,
    4 => TcpTruncate(limit),
    5 => TcpCorrupt,
});

/// A [`Fault`] on a [`LinkSelector`] during `[from_ms, until_ms)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Which links.
    pub link: LinkSelector,
    /// Window start (inclusive), ms.
    pub from_ms: u64,
    /// Window end (exclusive), ms.
    pub until_ms: u64,
    /// What goes wrong.
    pub fault: Fault,
}

snap_struct!(FaultWindow {
    link,
    from_ms,
    until_ms,
    fault
});

impl FaultWindow {
    /// Is this window live for traffic between `a` and `b` at `now`?
    pub fn active(&self, now: u64, a: HostAddr, b: HostAddr) -> bool {
        now >= self.from_ms && now < self.until_ms && self.link.matches(a, b)
    }
}

/// What the engine should do with a UDP datagram after fault evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UdpFate {
    /// Deliver, delayed by this many extra ms.
    Deliver {
        /// Additional one-way latency.
        extra_ms: u64,
    },
    /// Silently dropped.
    Drop,
}

/// What the engine should do with a TCP segment after fault evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcpFate {
    /// Deliver (possibly mutated in place), delayed by extra ms.
    Deliver {
        /// Additional one-way latency.
        extra_ms: u64,
    },
    /// Segment silently lost; the stream stalls.
    Drop,
    /// Connection reset: both sides get `Closed`.
    Reset,
}

/// An ordered set of fault windows. Overlapping windows compose: drops
/// and resets short-circuit, latency spikes accumulate, mutations apply
/// in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
}

snap_struct!(FaultSchedule { windows });

impl FaultSchedule {
    /// Install a fault window.
    pub fn push(&mut self, window: FaultWindow) {
        self.windows.push(window);
    }

    /// Evaluate the fate of a UDP datagram on link `a`↔`b` at `now`.
    pub(crate) fn udp_fate(&self, now: u64, a: HostAddr, b: HostAddr, rng: &mut StdRng) -> UdpFate {
        let mut extra_ms = 0u64;
        for (i, w) in self.windows.iter().enumerate() {
            if !w.active(now, a, b) {
                continue;
            }
            // `is_enabled` guard: skip the label format! when no recorder
            // is installed (the counter itself would no-op anyway).
            if obs::is_enabled() {
                obs::counter_add(&format!("netsim.fault.window_{i}.hits"), 1);
            }
            match w.fault {
                Fault::Blackhole => return UdpFate::Drop,
                Fault::UdpLoss(p) => {
                    if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                        return UdpFate::Drop;
                    }
                }
                Fault::LatencySpike(ms) => extra_ms += ms,
                Fault::TcpReset | Fault::TcpTruncate(_) | Fault::TcpCorrupt => {}
            }
        }
        UdpFate::Deliver { extra_ms }
    }

    /// Would a TCP connect (SYN) between `a` and `b` at `now` be
    /// blackholed?
    pub(crate) fn tcp_connect_blocked(&self, now: u64, a: HostAddr, b: HostAddr) -> bool {
        self.windows
            .iter()
            .any(|w| w.active(now, a, b) && w.fault == Fault::Blackhole)
    }

    /// Evaluate the fate of a TCP segment on link `a`↔`b` at `now`,
    /// truncating or corrupting `bytes` in place for those faults.
    pub(crate) fn tcp_fate(
        &self,
        now: u64,
        a: HostAddr,
        b: HostAddr,
        bytes: &mut Payload,
        rng: &mut StdRng,
    ) -> TcpFate {
        let mut extra_ms = 0u64;
        for (i, w) in self.windows.iter().enumerate() {
            if !w.active(now, a, b) {
                continue;
            }
            if obs::is_enabled() {
                obs::counter_add(&format!("netsim.fault.window_{i}.hits"), 1);
            }
            match w.fault {
                Fault::Blackhole => return TcpFate::Drop,
                Fault::TcpReset => return TcpFate::Reset,
                Fault::TcpTruncate(limit) => bytes.truncate(limit),
                Fault::TcpCorrupt => {
                    if !bytes.is_empty() {
                        let i = rng.gen_range(0..bytes.len());
                        bytes[i] ^= 0xA5;
                    }
                }
                Fault::LatencySpike(ms) => extra_ms += ms,
                Fault::UdpLoss(_) => {}
            }
        }
        TcpFate::Deliver { extra_ms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn addr(last: u8) -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, last), 30303)
    }

    #[test]
    fn selector_matching_is_symmetric() {
        let (a, b, c) = (addr(1), addr(2), addr(3));
        assert!(LinkSelector::Any.matches(a, b));
        assert!(LinkSelector::Host(a).matches(a, b));
        assert!(LinkSelector::Host(a).matches(b, a));
        assert!(!LinkSelector::Host(c).matches(a, b));
        assert!(LinkSelector::Pair(a, b).matches(b, a));
        assert!(!LinkSelector::Pair(a, c).matches(a, b));
    }

    #[test]
    fn window_respects_time_bounds() {
        let w = FaultWindow {
            link: LinkSelector::Any,
            from_ms: 100,
            until_ms: 200,
            fault: Fault::Blackhole,
        };
        assert!(!w.active(99, addr(1), addr(2)));
        assert!(w.active(100, addr(1), addr(2)));
        assert!(w.active(199, addr(1), addr(2)));
        assert!(!w.active(200, addr(1), addr(2)));
    }

    #[test]
    fn blackhole_drops_udp_and_blocks_connects() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sched = FaultSchedule::default();
        sched.push(FaultWindow {
            link: LinkSelector::Pair(addr(1), addr(2)),
            from_ms: 0,
            until_ms: 1_000,
            fault: Fault::Blackhole,
        });
        assert_eq!(
            sched.udp_fate(10, addr(1), addr(2), &mut rng),
            UdpFate::Drop
        );
        assert!(sched.tcp_connect_blocked(10, addr(2), addr(1)));
        // Unrelated link untouched.
        assert_eq!(
            sched.udp_fate(10, addr(1), addr(3), &mut rng),
            UdpFate::Deliver { extra_ms: 0 }
        );
        assert!(!sched.tcp_connect_blocked(10, addr(1), addr(3)));
    }

    #[test]
    fn latency_spikes_accumulate() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sched = FaultSchedule::default();
        for ms in [40, 60] {
            sched.push(FaultWindow {
                link: LinkSelector::Any,
                from_ms: 0,
                until_ms: 1_000,
                fault: Fault::LatencySpike(ms),
            });
        }
        assert_eq!(
            sched.udp_fate(10, addr(1), addr(2), &mut rng),
            UdpFate::Deliver { extra_ms: 100 }
        );
        let mut bytes = vec![1, 2, 3];
        assert_eq!(
            sched.tcp_fate(10, addr(1), addr(2), &mut bytes, &mut rng),
            TcpFate::Deliver { extra_ms: 100 }
        );
    }

    #[test]
    fn truncate_and_corrupt_mutate_segments() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sched = FaultSchedule::default();
        sched.push(FaultWindow {
            link: LinkSelector::Any,
            from_ms: 0,
            until_ms: 1_000,
            fault: Fault::TcpTruncate(4),
        });
        let mut bytes = vec![9u8; 10];
        assert_eq!(
            sched.tcp_fate(5, addr(1), addr(2), &mut bytes, &mut rng),
            TcpFate::Deliver { extra_ms: 0 }
        );
        assert_eq!(bytes.len(), 4);

        let mut sched = FaultSchedule::default();
        sched.push(FaultWindow {
            link: LinkSelector::Any,
            from_ms: 0,
            until_ms: 1_000,
            fault: Fault::TcpCorrupt,
        });
        let mut bytes = vec![9u8; 10];
        sched.tcp_fate(5, addr(1), addr(2), &mut bytes, &mut rng);
        assert_eq!(bytes.len(), 10);
        let flipped: Vec<u8> = bytes.iter().filter(|&&b| b != 9).copied().collect();
        assert_eq!(flipped, [9 ^ 0xA5], "exactly one byte must differ");
    }

    #[test]
    fn reset_short_circuits() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sched = FaultSchedule::default();
        sched.push(FaultWindow {
            link: LinkSelector::Host(addr(2)),
            from_ms: 0,
            until_ms: 1_000,
            fault: Fault::TcpReset,
        });
        let mut bytes = vec![1u8; 8];
        assert_eq!(
            sched.tcp_fate(5, addr(1), addr(2), &mut bytes, &mut rng),
            TcpFate::Reset
        );
        // UDP is unaffected by TCP-only faults.
        assert_eq!(
            sched.udp_fate(5, addr(1), addr(2), &mut rng),
            UdpFate::Deliver { extra_ms: 0 }
        );
    }

    #[test]
    fn burst_loss_is_probabilistic_but_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sched = FaultSchedule::default();
            sched.push(FaultWindow {
                link: LinkSelector::Any,
                from_ms: 0,
                until_ms: 1_000,
                fault: Fault::UdpLoss(0.5),
            });
            (0..64)
                .map(|i| sched.udp_fate(i, addr(1), addr(2), &mut rng) == UdpFate::Drop)
                .collect()
        };
        assert_eq!(run(3), run(3));
        let drops = run(3).iter().filter(|d| **d).count();
        assert!(drops > 10 && drops < 54, "loss should be partial: {drops}");
    }
}
