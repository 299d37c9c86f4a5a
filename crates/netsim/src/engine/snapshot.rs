//! [`NetSim::snapshot`] and [`NetSim::restore`]: the engine's dynamic
//! state as one `PSNP` image, and the checks that refuse an image a
//! resumed run could silently diverge on.

use super::conn::{ConnId, ConnTable};
use super::{Ev, NetSim, Prov, SNAP_MAGIC, SNAP_VERSION};
use crate::sched::EventQueue;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use rand::rngs::StdRng;

impl NetSim {
    /// Serialize the engine's complete dynamic state — clock, counters,
    /// fault schedule, connection table, per-host state (RNG stream, NAT
    /// table, liveness, behaviour state via
    /// [`Host::save_state`](crate::Host::save_state)) and every pending
    /// scheduler event with its original key and provenance — into a
    /// versioned byte snapshot.
    ///
    /// Static structure (addresses, non-reachability metadata, the
    /// address index, interned metric handles) is deliberately **not**
    /// serialized: the restore target is a freshly rebuilt *shell* world
    /// containing the same hosts in the same order, and
    /// [`NetSim::restore`] overwrites only the dynamic parts.
    /// Must be called between runs (never from inside a host callback).
    pub fn snapshot(&self) -> Result<Vec<u8>, SnapError> {
        debug_assert_eq!(self.origin, 0, "snapshot during dispatch");
        let mut w = SnapWriter::with_header(SNAP_MAGIC, SNAP_VERSION);
        w.u64(self.now);
        w.u32(self.ext_seq);
        w.u64(self.events_processed);
        w.u64(self.udp_sent);
        w.u64(self.udp_dropped);
        self.tcp.snap(&mut w);
        w.u64(self.queue_depth_peak);
        // Fault windows can be installed mid-run via `add_fault`, so the
        // schedule is state, not rebuildable configuration.
        self.config.faults.snap(&mut w);
        self.conns.snap(&mut w);
        w.usize(self.slots.len());
        for slot in &self.slots {
            w.bool(slot.alive);
            slot.rng.state().snap(&mut w);
            w.u32(slot.next_key);
            w.bool(slot.meta.reachable);
            slot.nat.entries.snap(&mut w);
            slot.live_conns.snap(&mut w);
            w.bool(slot.host.is_some());
            if let Some(h) = &slot.host {
                w.section(|w| h.save_state(w))?;
            }
        }
        // Every pending event, in dispatch order.
        w.usize(self.queue.len());
        for (at, key, (owner, prov, ev)) in self.queue.sorted() {
            w.u64(at);
            w.u64(key);
            w.usize(*owner);
            prov.snap(&mut w);
            ev.snap(&mut w);
        }
        Ok(w.finish())
    }

    /// Restore a [`NetSim::snapshot`] into this simulator.
    ///
    /// `self` must be a freshly rebuilt shell: the same hosts registered
    /// in the same order (same addresses and metadata) with
    /// behaviours re-created from their static configuration, not yet
    /// run. Everything dynamic — clock, counters, RNG streams, the
    /// connection table, pending events (anything the shell's own world
    /// building scheduled is wiped) and behaviour state via
    /// [`Host::load_state`](crate::Host::load_state) — is overwritten
    /// from the snapshot. Events
    /// are re-pushed with their original keys, bypassing key minting
    /// and pending-count accounting (both were already captured, and
    /// are checked against each other), so a resumed run dispatches the
    /// exact sequence the original would have.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, SNAP_MAGIC, SNAP_VERSION)?;
        self.now = r.u64()?;
        self.ext_seq = r.u32()?;
        self.events_processed = r.u64()?;
        self.udp_sent = r.u64()?;
        self.udp_dropped = r.u64()?;
        self.tcp = Snap::unsnap(&mut r)?;
        self.queue_depth_peak = r.u64()?;
        self.config.faults = Snap::unsnap(&mut r)?;
        self.conns = ConnTable::unsnap(&mut r)?;
        let n_slots = self.slots.len();
        if r.usize()? != n_slots {
            return Err(SnapError::Corrupt("host count differs from restore shell"));
        }
        if !self.conns.endpoints_within(n_slots) {
            return Err(SnapError::Corrupt("conn endpoint host out of range"));
        }
        for (host, slot) in self.slots.iter_mut().enumerate() {
            slot.alive = r.bool()?;
            slot.rng = StdRng::from_state(Snap::unsnap(&mut r)?);
            slot.next_key = r.u32()?;
            slot.meta.reachable = r.bool()?;
            slot.nat.entries = Snap::unsnap(&mut r)?;
            if !slot.nat.entries.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(SnapError::Corrupt("NAT table keys not ascending"));
            }
            slot.live_conns = Snap::unsnap(&mut r)?;
            if !slot
                .live_conns
                .iter()
                .all(|&id| self.conns.is_open_at(id, host))
            {
                return Err(SnapError::Corrupt("live conn is not this host's open conn"));
            }
            if r.bool()? {
                let state = r.bytes()?;
                let host = slot.host.as_mut().ok_or(SnapError::Corrupt(
                    "snapshot carries behaviour state for a removed host",
                ))?;
                host.load_state(state)?;
            } else {
                // The original's behaviour had been removed: so is the
                // shell's, or it would run where the original's did not.
                slot.host = None;
            }
        }
        // A pending key must already have been minted, or a resumed run
        // could mint the same `(at, key)` twice.
        let minted = |key: u64| match (key >> 32) as usize {
            0 => key != 0 && key < self.ext_seq as u64,
            origin => origin <= n_slots && (key as u32) < self.slots[origin - 1].next_key,
        };
        // Wipe whatever the shell's world building scheduled; the
        // snapshot's pending events replace it wholesale.
        self.queue = EventQueue::new();
        let mut pins: Vec<ConnId> = Vec::new();
        let mut prev = None;
        for _ in 0..r.usize()? {
            let at = r.u64()?;
            let key = r.u64()?;
            let owner = r.usize()?;
            let prov = Prov::unsnap(&mut r)?;
            let ev = Ev::unsnap(&mut r)?;
            // Dispatch order is the one order a snapshot writes, so a
            // restored image is the one its re-snapshot writes.
            if prev >= Some((at, key)) {
                return Err(SnapError::Corrupt("pending events not in dispatch order"));
            }
            prev = Some((at, key));
            if !minted(key) {
                return Err(SnapError::Corrupt("pending event key was never minted"));
            }
            if owner >= n_slots || ev.host_ref().is_some_and(|h| h >= n_slots) {
                return Err(SnapError::Corrupt("event host out of range"));
            }
            pins.extend(ev.conn_ref());
            self.queue.push(at, key, (owner, prov, ev));
        }
        r.finish()?;
        self.conns.check_pins(pins)?;
        self.origin = 0;
        self.cur_key = 0;
        self.cur_cause = 0;
        self.cur_depth = 0;
        self.action_buf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{addr, meta, probe_world, Log};
    use crate::host::{Ctx, Host, HostAddr, TcpEvent};
    use crate::SimConfig;
    use rand::Rng;
    use std::rc::Rc;

    /// Two hosts ping-pong UDP on jittered timers (exercising the per-host
    /// RNG streams, NAT tables, and the loss coin), with a counter in
    /// behaviour state.
    struct Ticker {
        log: Log,
        name: &'static str,
        count: u32,
        peer: HostAddr,
    }

    impl Ticker {
        fn logit(&self, s: String) {
            self.log.borrow_mut().push(format!("{} {}", self.name, s));
        }
    }

    impl Host for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(100, 1);
        }
        fn on_udp(&mut self, ctx: &mut Ctx, from: HostAddr, datagram: &[u8]) {
            self.logit(format!(
                "udp@{} from {} len={}",
                ctx.now_ms,
                from,
                datagram.len()
            ));
        }
        fn on_tcp(&mut self, _ctx: &mut Ctx, _event: TcpEvent) {}
        fn on_timer(&mut self, ctx: &mut Ctx, _token: u64) {
            self.count += 1;
            self.logit(format!("tick@{} n={}", ctx.now_ms, self.count));
            ctx.send_udp(self.peer, vec![0u8; self.count as usize % 7 + 1]);
            let gap = 90 + ctx.rng().gen_range(0..20) as u64;
            ctx.set_timer(gap, 1);
        }
        fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
            w.u32(self.count);
            Ok(())
        }
        fn load_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
            let mut r = SnapReader::new(bytes);
            self.count = r.u32()?;
            r.finish()
        }
        fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
            self
        }
    }

    /// The two-[`Ticker`] world, both started at 0. Default config:
    /// jitter and UDP loss on, so RNG streams are consulted on every
    /// delivery.
    fn ticker_world(log: &Log) -> NetSim {
        let mut sim = NetSim::new(SimConfig::default());
        for (name, me, peer) in [("a", 1, 2), ("b", 2, 1)] {
            let ticker = Ticker {
                log: log.clone(),
                name,
                count: 0,
                peer: addr(peer),
            };
            let host = sim.add_host(addr(me), meta(true), Box::new(ticker));
            sim.schedule_start(host, 0);
        }
        sim
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        // Running to T, snapshotting, restoring into a fresh shell, and
        // resuming to 2T must replay exactly what an uninterrupted run to
        // 2T does.
        let full_log: Log = Rc::default();
        let mut full = ticker_world(&full_log);
        full.run_until(10_000);

        // Run to T, snapshot, restore into a fresh shell, resume to 2T.
        let first_log: Log = Rc::default();
        let mut first = ticker_world(&first_log);
        first.run_until(5_000);
        let snap = first.snapshot().expect("snapshot");
        let resumed_log: Log = Rc::default();
        let mut resumed = ticker_world(&resumed_log);
        resumed.restore(&snap).expect("restore");
        resumed.run_until(10_000);

        let mut joined = first_log.borrow().clone();
        joined.extend(resumed_log.borrow().iter().cloned());
        assert_eq!(joined, *full_log.borrow());
        assert_eq!(resumed.events_processed(), full.events_processed());
        assert_eq!(resumed.udp_counters(), full.udp_counters());
        assert_eq!(resumed.now_ms(), full.now_ms());
        // A second snapshot of the resumed world equals a snapshot of the
        // uninterrupted world: the dynamic state converged byte-for-byte.
        assert_eq!(
            resumed.snapshot().expect("resnap"),
            full.snapshot().expect("resnap")
        );
    }

    /// Regression: an image whose slot carries no behaviour (it was
    /// removed before the snapshot) used to restore `Ok` and leave the
    /// shell's fresh behaviour in place, so the resumed world ran a host
    /// the original no longer did.
    #[test]
    fn restore_removes_a_behaviour_the_image_says_was_removed() {
        let log: Log = Rc::default();
        let mut original = ticker_world(&log);
        original.run_until(5_000);
        assert!(original.remove_host_behaviour(1).is_some());
        let snap = original.snapshot().expect("snapshot");
        let mut resumed = ticker_world(&log);
        resumed.restore(&snap).expect("restore");
        original.run_until(10_000);
        resumed.run_until(10_000);
        assert_eq!(resumed.events_processed(), original.events_processed());
        assert_eq!(resumed.udp_counters(), original.udp_counters());
        assert_eq!(
            resumed.snapshot().expect("resnap"),
            original.snapshot().expect("resnap")
        );
    }

    #[test]
    fn pending_events_must_be_minted_and_in_dispatch_order() {
        // At 5 ms the queue is three "hello"s due at 15, one sent by each
        // host: 64-byte entries (at, key, owner, prov 12, `Ev::Udp` 28) at
        // the image's tail, keys 1 << 32, 2 << 32, 3 << 32.
        const W: usize = 64;
        let world = || probe_world(|i, p| p.udp_target = Some(addr(i % 3 + 1)));
        let mut sim = world();
        sim.run_until(5);
        let image = sim.snapshot().unwrap();
        let tail = image.len() - 3 * W;
        assert_eq!(image[tail - 8..tail], 3u64.to_le_bytes());
        assert!(world().restore(&image).is_ok());
        let entry = |i: usize| tail + i * W..tail + (i + 1) * W;
        let mut swapped = image.clone();
        swapped[entry(0)].copy_from_slice(&image[entry(1)]);
        swapped[entry(1)].copy_from_slice(&image[entry(0)]);
        let mut duplicated = image.clone();
        duplicated[entry(1)].copy_from_slice(&image[entry(0)]);
        let mut bumped = image.clone(); // host 2 has minted its key 0 only
        bumped[entry(2).start + 8] = 1;
        for (case, img) in [swapped, duplicated, bumped].iter().enumerate() {
            assert!(
                world().restore(img).is_err(),
                "hostile case {case} restored"
            );
        }
    }
}
