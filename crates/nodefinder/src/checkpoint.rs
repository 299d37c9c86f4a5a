//! Crawler checkpoint/restore — the `NFND` v4 snapshot section.
//!
//! Like every snapshotting layer in this workspace (netsim `PSNP`, obs
//! `OBSS`, ethpop `ETHN`), the crawler follows the rebuild-shell /
//! restore-state split: the world shell reconstructs the *static*
//! structure (identity key, config, bootstrap list, the chain view) by
//! re-running `NodeFinder::new`, and this module serializes only the
//! *dynamic* state a restore cannot rebuild — the discovery service,
//! every pipeline queue and table, the live probe sessions, and the
//! accumulated crawl log.
//!
//! Field order (all inside one versioned `obs::snap` section, written in
//! place into the engine's image; every map and set is written in
//! ascending key order and refused on restore if it is not):
//!
//! 1. discovery (`Discv4::snap`: endpoint, then protocol state — v4 keeps
//!    one bond per peer where v3 kept a bond table and a reverse one);
//! 2. the bounded dial queue (records front-to-back + marks);
//! 3. the queued-id set;
//! 4. static nodes, keyed by `NodeId`;
//! 5. the last-seen stamps, keyed by `NodeId`;
//! 6. penalty-box entries + monotone box total;
//! 7. session manager: dial-slot counters, then each live probe in
//!    numeric `ConnId` order (`PeerConn` wire state + the in-progress
//!    `ConnLog`);
//! 8. scheduler arm flags;
//! 9. the crawl log: its connection records, then its events.
//!
//! No field is text: `CrawlLog::to_jsonl` is the log's export format, not
//! its checkpoint.
//!
//! Timers are *not* serialized here: the netsim snapshot owns the event
//! queue, and restoring it re-delivers `T_*` tokens at the right instants.
//! Nor are the per-stage pipeline counters: they are `obs` counters, and
//! the `OBSS` section carries them.

use crate::crawler::{NodeFinder, StaticEntry, DIAL_QUEUE_CAP};
use crate::session::{Probe, SessionManager};
use crate::stages::BoundedQueue;
use discv4::{Config as DiscConfig, Discv4};
use enode::{NodeId, NodeRecord};
use kad::Metric;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;

const SNAP_MAGIC: [u8; 4] = *b"NFND";
const SNAP_VERSION: u8 = 4;

impl NodeFinder {
    /// Write every piece of dynamic crawler state into `w`, header
    /// first (see the module docs for the exact field order).
    pub(crate) fn encode_state(&self, w: &mut SnapWriter) {
        w.header(SNAP_MAGIC, SNAP_VERSION);
        // 1. Discovery.
        w.bool(self.disc.is_some());
        if let Some(disc) = &self.disc {
            disc.snap(w);
        }
        // 2. Dial queue (items front to back, then the marks).
        w.usize(self.dial_queue.len());
        for rec in self.dial_queue.iter() {
            rec.snap(w);
        }
        self.dial_queue.high_water().snap(w);
        self.dial_queue.rejected().snap(w);
        // 3–5. Queued-id set, static nodes, last-seen stamps.
        self.queued.snap(w);
        self.static_nodes.snap(w);
        self.seen.snap(w);
        // 6. Penalty box.
        self.sessions.penalty.export_entries().snap(w);
        self.sessions.penalty.boxed_total().snap(w);
        // 7. Session manager: counters, then live probes in ConnId order.
        self.sessions.dialing().snap(w);
        self.sessions.dialing_underflows().snap(w);
        w.usize(self.sessions.conns.len());
        for p in self.sessions.conns.values() {
            p.snap(w);
        }
        // 8. Scheduler arm flags (their timers live in the netsim queue).
        self.poll_armed.snap(w);
        self.dial_armed.snap(w);
        // 9. The accumulated crawl log.
        self.log.snap(w);
    }

    /// Overwrite this (shell-rebuilt) crawler's dynamic state from
    /// [`NodeFinder::encode_state`] output.
    pub(crate) fn apply_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut reader = SnapReader::with_header(bytes, SNAP_MAGIC, SNAP_VERSION)?;
        let r = &mut reader;
        // 1. Discovery (same config as `on_start` builds).
        self.disc = if r.bool()? {
            let config = DiscConfig {
                metric: Metric::GethLog2,
                ..DiscConfig::default()
            };
            Some(Discv4::restore(r, self.key, config)?)
        } else {
            None
        };
        // 2. Dial queue.
        let items = Vec::<NodeRecord>::unsnap(r)?;
        let high_water = Snap::unsnap(r)?;
        let rejected = Snap::unsnap(r)?;
        self.dial_queue = BoundedQueue::from_parts(DIAL_QUEUE_CAP, items, high_water, rejected);
        // 3–5. Queued-id set, static nodes, last-seen stamps.
        self.queued = Snap::unsnap(r)?;
        let static_nodes = BTreeMap::<NodeId, StaticEntry>::unsnap(r)?;
        if static_nodes.iter().any(|(id, e)| *id != e.record.id) {
            return Err(SnapError::Corrupt("static node filed under another id"));
        }
        self.static_nodes = static_nodes;
        self.seen = Snap::unsnap(r)?;
        // 6. Penalty box, into a fresh session manager.
        let mut sessions = SessionManager::new(
            self.config.backoff.clone(),
            self.config.penalty_threshold,
            self.config.penalty_box_ms,
        );
        let entries = Snap::unsnap(r)?;
        let boxed_total = Snap::unsnap(r)?;
        sessions.penalty.import_entries(entries, boxed_total);
        // 7. Session counters + live probes.
        let dialing = Snap::unsnap(r)?;
        let underflows = Snap::unsnap(r)?;
        sessions.restore_counters(dialing, underflows);
        for _ in 0..r.usize()? {
            let probe = Probe::restore(r, &self.key)?;
            let conn = probe.pc.conn;
            if sessions
                .conns
                .last_key_value()
                .is_some_and(|(last, _)| *last >= conn)
            {
                return Err(SnapError::Corrupt("probe connection ids not ascending"));
            }
            sessions.conns.insert(conn, probe);
        }
        self.sessions = sessions;
        // 8. Scheduler arm flags.
        self.poll_armed = Snap::unsnap(r)?;
        self.dial_armed = Snap::unsnap(r)?;
        // 9. Crawl log.
        self.log = Snap::unsnap(r)?;
        self.log.check().map_err(SnapError::Corrupt)?;
        reader.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawler::CrawlerConfig;
    use crate::log::{ConnLog, ConnOutcome, ConnType, DialEvent, DialEventKind, FailureClass};
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

    fn static_entry(tag: u8) -> StaticEntry {
        StaticEntry {
            record: rec(tag),
            next_dial_ms: 90_000,
            last_success_ms: 60_000,
        }
    }

    fn crawler() -> NodeFinder {
        let key = SecretKey::from_bytes(&[0xCB; 32]).expect("valid key");
        NodeFinder::new(key, CrawlerConfig::default(), vec![rec(1)])
    }

    /// The crawler's section on its own, as the engine frames it.
    fn image(nf: &NodeFinder) -> Vec<u8> {
        let mut w = SnapWriter::new();
        nf.encode_state(&mut w);
        w.finish()
    }

    /// A crawler populated off-sim (no sockets, no discovery), its log
    /// ending in a failed connection and then a sighting.
    fn populated() -> NodeFinder {
        let mut rng = StdRng::seed_from_u64(7);
        let mut nf = crawler();
        for tag in [9u8, 3, 5] {
            nf.seen.insert(rec(tag).id, 1_000 + tag as u64);
            if nf.queued.insert(rec(tag).id) {
                nf.dial_queue.push_back(rec(tag)).expect("queue has room");
            }
        }
        for t in 0..5u64 {
            nf.sessions
                .penalty
                .record_failure(rec(11), t * 1_000, &mut rng);
        }
        for tag in [13u8, 12] {
            nf.static_nodes.insert(rec(tag).id, static_entry(tag));
        }
        nf.sessions.begin_dial();
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
            failure: Some(FailureClass::ConnectTimeout),
        });
        nf.log.events.push(DialEvent {
            instance: 0,
            ts_ms: 41,
            node_id: rec(9).id,
            ip: Ipv4Addr::new(10, 0, 0, 9),
            kind: DialEventKind::DiscoverySighting,
        });
        nf.poll_armed = true;
        nf
    }

    /// A shell-rebuilt crawler restored from a populated crawler's snapshot
    /// produces a byte-identical second snapshot. The full in-sim proof
    /// (snapshot at T, resume, identical artifacts at 2T) lives in the
    /// workspace `resume_determinism` suite.
    #[test]
    fn encode_apply_round_trips_bytewise() {
        let nf = populated();
        let snap = image(&nf);
        let mut restored = crawler();
        restored.apply_state(&snap).expect("snapshot applies");
        assert_eq!(image(&restored), snap, "second snapshot is byte-identical");
        assert_eq!(restored.sessions.dialing(), 1);
        assert_eq!(restored.dial_queue.len(), nf.dial_queue.len());
        assert_eq!(restored.static_list_len(), nf.static_list_len());
        assert_eq!(
            restored.sessions.penalty.boxed_total(),
            nf.sessions.penalty.boxed_total()
        );
        assert_eq!(restored.log.to_jsonl(), nf.log.to_jsonl());
    }

    #[test]
    fn v3_image_is_a_version_error() {
        assert_eq!(
            crawler().apply_state(b"NFND\x03"),
            Err(SnapError::BadVersion {
                expected: 4,
                found: 3
            })
        );
    }

    /// A v4 image cut short anywhere, or with a tag no variant has in one
    /// of the log's enums, is an `Err`.
    #[test]
    fn truncated_or_bad_tag_images_are_rejected() {
        let nf = populated();
        let snap = image(&nf);
        for len in 0..snap.len() {
            assert!(crawler().apply_state(&snap[..len]).is_err(), "cut to {len}");
        }
        // The image ends with the log: its one connection, then its one
        // event, whose last byte is the kind tag. The connection ends with
        // outcome tag ‖ failure present ‖ failure tag.
        let mut w = SnapWriter::new();
        nf.log.conns[0].snap(&mut w);
        let conn = w.finish();
        let end = snap
            .windows(conn.len())
            .rposition(|w| w == conn)
            .expect("the connection record is in the image")
            + conn.len();
        for (at, tag) in [
            (end - 3, "ConnOutcome tag out of range"),
            (end - 1, "FailureClass tag out of range"),
            (snap.len() - 1, "DialEventKind tag out of range"),
        ] {
            let mut bad = snap.clone();
            bad[at] = 0xFF;
            assert_eq!(crawler().apply_state(&bad), Err(SnapError::Corrupt(tag)));
        }
    }

    /// A map that is not in key order is refused, not silently re-sorted
    /// into a crawler whose next snapshot differs from the one it read.
    #[test]
    fn swapped_static_entries_are_rejected() {
        let mut nf = crawler();
        for tag in [12u8, 13] {
            nf.static_nodes.insert(rec(tag).id, static_entry(tag));
        }
        let snap = image(&nf);
        let entry = |tag: u8| {
            let mut w = SnapWriter::new();
            rec(tag).id.snap(&mut w);
            static_entry(tag).snap(&mut w);
            w.finish()
        };
        let (lo, hi) = (entry(12), entry(13));
        let n = lo.len();
        let at = snap
            .windows(2 * n)
            .position(|w| w[..n] == lo && w[n..] == hi)
            .expect("both entries are in the image, adjacent and in id order");
        let mut swapped = snap.clone();
        swapped[at..at + n].copy_from_slice(&hi);
        swapped[at + n..at + 2 * n].copy_from_slice(&lo);
        assert_eq!(crawler().apply_state(&snap), Ok(()));
        assert!(matches!(
            crawler().apply_state(&swapped),
            Err(SnapError::Corrupt(_))
        ));
    }

    /// The `NFND` reader makes the same check as `CrawlLog::from_jsonl`:
    /// a logged connection ending past `u64::MAX` ms is `Corrupt`.
    #[test]
    fn conn_ending_past_u64_max_is_rejected() {
        let mut nf = populated();
        nf.log.conns[0].ts_ms = u64::MAX;
        assert_eq!(
            crawler().apply_state(&image(&nf)),
            Err(SnapError::Corrupt("connection ends past u64::MAX ms"))
        );
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let nf = crawler();
        let mut snap = image(&nf);
        let last = snap.len() - 1;
        snap.truncate(last);
        let mut fresh = crawler();
        assert!(fresh.apply_state(&snap).is_err(), "truncated image fails");
        let mut bad_magic = image(&nf);
        bad_magic[0] ^= 0xFF;
        assert!(fresh.apply_state(&bad_magic).is_err(), "bad magic fails");
    }
}
