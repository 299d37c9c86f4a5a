//! Crawler checkpoint/restore — the `NFND` v1 snapshot section.
//!
//! Like every snapshotting layer in this workspace (netsim `PSNP`, obs
//! `OBSS`, ethpop `ETHN`), the crawler follows the rebuild-shell /
//! restore-state split: the world shell reconstructs the *static*
//! structure (identity key, config, bootstrap list, the chain view) by
//! re-running `NodeFinder::new`, and this module serializes only the
//! *dynamic* state a restore cannot rebuild — the intern table, the
//! discovery service, every pipeline queue and table, the live probe
//! sessions, the per-stage checkpoints, and the accumulated crawl log.
//!
//! Field order (all inside one versioned `obs::snap` section):
//!
//! 1. intern table — `NodeId`s in compact-id order, so re-interning
//!    reproduces identical `CompactId`s and every dense table below can
//!    be restored by index;
//! 2. discovery (`Discv4::snap`: endpoint, then protocol state);
//! 3. the bounded dial queue (records front-to-back + marks);
//! 4. the queued-id set;
//! 5. static nodes, in full-`NodeId` order;
//! 6. the seen table's stamp vector;
//! 7. penalty-box entries + monotone box total;
//! 8. session manager: dial-slot counters, then each live probe in
//!    numeric `ConnId` order (`PeerConn` wire state + the in-progress
//!    `ConnLog` as JSON);
//! 9. scheduler arm flags;
//! 10. the five pipeline [`StageCheckpoint`](crate::stages::StageCheckpoint)s;
//! 11. the crawl log as JSONL.
//!
//! Timers are *not* serialized here: the netsim snapshot owns the timer
//! wheel, and restoring it re-delivers `T_*` tokens at the right instants.

use crate::crawler::{NodeFinder, StaticEntry};
use crate::dense::{conn_index, OrderedDenseMap};
use crate::session::{Probe, SessionManager};
use crate::stages::{BoundedQueue, Stage};
use discv4::{Config as DiscConfig, Discv4};
use enode::NodeRecord;
use kad::Metric;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};

const SNAP_MAGIC: [u8; 4] = *b"NFND";
const SNAP_VERSION: u8 = 1;

/// Upper bound on a restored probe's connection slab index. The probe
/// table is dense over that index, so a corrupt id would size it; netsim
/// recycles slab cells, which bounds an honest index by the peak number
/// of simultaneously open connections in the whole world.
const MAX_PROBE_CONN_INDEX: usize = 1 << 20;

impl NodeFinder {
    /// Serialize every piece of dynamic crawler state (see the module
    /// docs for the exact field order).
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_header(SNAP_MAGIC, SNAP_VERSION);
        // 1. Intern table, in compact-id order.
        self.interner.snap(&mut w);
        // 2. Discovery.
        w.bool(self.disc.is_some());
        if let Some(disc) = &self.disc {
            disc.snap(&mut w);
        }
        // 3. Dial queue (items front to back, then the marks).
        w.usize(self.dial_queue.len());
        for rec in self.dial_queue.iter() {
            rec.snap(&mut w);
        }
        self.dial_queue.high_water().snap(&mut w);
        self.dial_queue.rejected().snap(&mut w);
        // 4. Queued-id set.
        self.queued.snap(&mut w);
        // 5. Static nodes, in full-NodeId order (restore re-sorts
        // identically because the order is a function of the ids).
        w.usize(self.static_nodes.len());
        for (_, e) in self.static_nodes.iter_ordered() {
            e.snap(&mut w);
        }
        // 6. Seen stamps (dense by compact id).
        self.seen.snap(&mut w);
        // 7. Penalty box.
        self.sessions.penalty.export_entries().snap(&mut w);
        self.sessions.penalty.boxed_total().snap(&mut w);
        // 8. Session manager: counters, then live probes in ConnId order.
        self.sessions.dialing().snap(&mut w);
        self.sessions.dialing_underflows().snap(&mut w);
        let ids = self.sessions.conns.ids_sorted();
        w.usize(ids.len());
        for conn in ids {
            let p = self.sessions.conns.get(conn).expect("sorted id is live");
            p.snap(&mut w);
        }
        // 9. Scheduler arm flags (their timers live in the netsim wheel).
        self.poll_armed.snap(&mut w);
        self.dial_armed.snap(&mut w);
        // 10. Pipeline stage checkpoints, with the dial queue's live
        // marks folded in.
        let mut stages = self.stages.clone();
        stages.set_queue(
            Stage::Dial,
            self.dial_queue.len(),
            self.dial_queue.high_water(),
        );
        stages.snap(&mut w);
        // 11. The accumulated crawl log.
        self.log.snap(&mut w);
        w.finish()
    }

    /// Overwrite this (shell-rebuilt) crawler's dynamic state from
    /// [`NodeFinder::encode_state`] output.
    pub(crate) fn apply_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut reader = SnapReader::with_header(bytes, SNAP_MAGIC, SNAP_VERSION)?;
        let r = &mut reader;
        // 1. Intern table: re-interning in stored order reproduces the
        // exact compact ids every dense table below is keyed by.
        self.interner = Snap::unsnap(r)?;
        // 2. Discovery (same config as `on_start` builds).
        self.disc = if r.bool()? {
            let config = DiscConfig {
                metric: Metric::GethLog2,
                ..DiscConfig::default()
            };
            Some(Discv4::restore(r, self.key, config)?)
        } else {
            None
        };
        // 3. Dial queue.
        let items = Vec::<NodeRecord>::unsnap(r)?;
        let high_water = Snap::unsnap(r)?;
        let rejected = Snap::unsnap(r)?;
        self.dial_queue =
            BoundedQueue::from_parts(self.config.dial_queue_cap, items, high_water, rejected);
        // 4. Queued-id set.
        self.queued = Snap::unsnap(r)?;
        // 5. Static nodes.
        let mut static_nodes = OrderedDenseMap::new();
        for _ in 0..r.usize()? {
            let e = StaticEntry::unsnap(r)?;
            static_nodes.insert(self.interner.intern(&e.record.id), e);
        }
        self.static_nodes = static_nodes;
        // 6. Seen stamps.
        self.seen = Snap::unsnap(r)?;
        // 7. Penalty box, into a fresh session manager.
        let mut sessions = SessionManager::new(
            self.config.backoff.clone(),
            self.config.penalty_threshold,
            self.config.penalty_box_ms,
        );
        let entries = Snap::unsnap(r)?;
        let boxed_total = Snap::unsnap(r)?;
        sessions
            .penalty
            .import_entries(&mut self.interner, entries, boxed_total);
        // 8. Session counters + live probes.
        let dialing = Snap::unsnap(r)?;
        let underflows = Snap::unsnap(r)?;
        sessions.restore_counters(dialing, underflows);
        for _ in 0..r.usize()? {
            let probe = Probe::restore(r, &self.key)?;
            let conn = probe.pc.conn;
            if conn_index(conn) > MAX_PROBE_CONN_INDEX || !sessions.conns.is_vacant(conn) {
                return Err(SnapError::Corrupt(
                    "probe connection id out of range or repeated",
                ));
            }
            sessions.conns.insert(conn, probe);
        }
        self.sessions = sessions;
        // 9. Scheduler arm flags.
        self.poll_armed = Snap::unsnap(r)?;
        self.dial_armed = Snap::unsnap(r)?;
        // 10. Pipeline stage checkpoints.
        self.stages = Snap::unsnap(r)?;
        // 11. Crawl log.
        self.log = Snap::unsnap(r)?;
        reader.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::CrawlerConfig;
    use crate::log::{ConnLog, ConnOutcome, ConnType, DialEvent, DialEventKind};
    use enode::{Endpoint, NodeId, NodeRecord};
    use ethcrypto::secp256k1::SecretKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn rec(tag: u8) -> NodeRecord {
        NodeRecord::new(
            NodeId([tag; 64]),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, tag), 30303),
        )
    }

    fn crawler() -> NodeFinder {
        let key = SecretKey::from_bytes(&[0xCB; 32]).expect("valid key");
        NodeFinder::new(key, CrawlerConfig::default(), vec![rec(1)])
    }

    /// Populate a crawler off-sim (no sockets, no discovery) and check
    /// that a shell-rebuilt crawler restored from its snapshot produces a
    /// byte-identical second snapshot. The full in-sim proof (snapshot at
    /// T, resume, identical artifacts at 2T) lives in the workspace
    /// `resume_determinism` suite.
    #[test]
    fn encode_apply_round_trips_bytewise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut nf = crawler();
        for tag in [9u8, 3, 5] {
            let cid = nf.interner.intern(&rec(tag).id);
            nf.seen.note(cid, 1_000 + tag as u64);
            if nf.queued.insert(cid) {
                nf.dial_queue.push_back(rec(tag)).expect("queue has room");
            }
        }
        let boxed = nf.interner.intern(&rec(11).id);
        for t in 0..5u64 {
            nf.sessions
                .penalty
                .record_failure(boxed, rec(11), t * 1_000, &mut rng);
        }
        nf.static_nodes.insert(
            nf.interner.intern(&rec(13).id),
            StaticEntry {
                record: rec(13),
                next_dial_ms: 90_000,
                last_success_ms: 60_000,
            },
        );
        nf.sessions.begin_dial();
        nf.stages.note_entered(Stage::Discover);
        nf.stages.note_completed(Stage::Discover);
        nf.stages.note_entered(Stage::Dial);
        nf.log.conns.push(ConnLog {
            instance: 0,
            ts_ms: 42,
            node_id: Some(rec(9).id),
            ip: Ipv4Addr::new(10, 0, 0, 9),
            port: 30303,
            conn_type: ConnType::DynamicDial,
            latency_ms: 12,
            duration_ms: 340,
            hello: None,
            status: None,
            dao_fork: None,
            outcome: ConnOutcome::DialFailed,
            failure: None,
        });
        nf.log.events.push(DialEvent {
            instance: 0,
            ts_ms: 41,
            node_id: rec(9).id,
            ip: Ipv4Addr::new(10, 0, 0, 9),
            kind: DialEventKind::DiscoverySighting,
        });
        nf.poll_armed = true;

        let snap = nf.encode_state();
        let mut restored = crawler();
        restored.apply_state(&snap).expect("snapshot applies");
        assert_eq!(
            restored.encode_state(),
            snap,
            "second snapshot is byte-identical"
        );
        assert_eq!(restored.sessions.dialing(), 1);
        assert_eq!(restored.dial_queue.len(), nf.dial_queue.len());
        assert_eq!(restored.static_list_len(), nf.static_list_len());
        assert_eq!(
            restored.sessions.penalty.boxed_total(),
            nf.sessions.penalty.boxed_total()
        );
        assert_eq!(restored.log.to_jsonl(), nf.log.to_jsonl());
        assert_eq!(
            restored.stage_checkpoint(Stage::Discover).entered,
            nf.stage_checkpoint(Stage::Discover).entered
        );
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let nf = crawler();
        let mut snap = nf.encode_state();
        let last = snap.len() - 1;
        snap.truncate(last);
        let mut fresh = crawler();
        assert!(fresh.apply_state(&snap).is_err(), "truncated image fails");
        let mut bad_magic = nf.encode_state();
        bad_magic[0] ^= 0xFF;
        assert!(fresh.apply_state(&bad_magic).is_err(), "bad magic fails");
    }
}
