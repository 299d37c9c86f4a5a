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
//! ascending key order and refused on restore if it is not). Each type
//! writes and reads its own span:
//!
//! - field 1, discovery (`Discv4::snap`: endpoint, then protocol state —
//!   v4 keeps one bond per peer where v3 kept a bond table and a reverse
//!   one);
//! - fields 2 to 6 and 7's counters, the dial policy (`DialPolicy::snap`):
//!   the dial queue front to back and its marks, the queued-id set, the
//!   static list, the last-seen stamps, the penalty box
//!   (`PenaltyBox::snap`: entries in id order, each with at least one
//!   failure, then the box total) and the dial-slot counters;
//! - the rest of field 7, each live probe in numeric `ConnId` order
//!   (`Probe::snap`: `PeerConn` wire state + the in-progress `ConnLog`);
//!   the slot count must equal the number of dynamic-dial probes;
//! - field 8, the scheduler arm flags;
//! - field 9, the crawl log: its connection records, then its events.
//!
//! No field is text: `CrawlLog::to_jsonl` is the log's export format, not
//! its checkpoint.
//!
//! Timers are *not* serialized here: the netsim snapshot owns the event
//! queue, and restoring it re-delivers `T_*` tokens at the right instants.
//! Nor are the per-stage pipeline counters: they are `obs` counters, and
//! the `OBSS` section carries them.

use crate::crawler::NodeFinder;
use crate::log::ConnType;
use crate::policy::DialPolicy;
use crate::session::Probe;
use discv4::{Config as DiscConfig, Discv4};
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
        // 2–7a. The dial policy's span: queue, queued set, static nodes,
        // last-seen stamps, penalty box, dial-slot counters.
        self.policy.snap(w);
        // 7b. Live probes in ConnId order.
        w.usize(self.probes.len());
        for p in self.probes.values() {
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
        // 2–7a. The dial policy's span.
        self.policy = DialPolicy::restore(r, &self.config)?;
        // 7b. Live probes; each dynamic one holds one dial slot.
        let mut probes = BTreeMap::new();
        for _ in 0..r.usize()? {
            let probe = Probe::restore(r, &self.key)?;
            let conn = probe.pc.conn;
            if probes
                .last_key_value()
                .is_some_and(|(last, _)| *last >= conn)
            {
                return Err(SnapError::Corrupt("probe connection ids not ascending"));
            }
            probes.insert(conn, probe);
        }
        let dynamic = probes
            .values()
            .filter(|p| p.conn_type == ConnType::DynamicDial)
            .count();
        if self.policy.dialing() != dynamic {
            return Err(SnapError::Corrupt(
                "dial slots differ from live dynamic dials",
            ));
        }
        self.probes = probes;
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
    use crate::log::{ConnLog, ConnOutcome, DialEvent, DialEventKind, FailureClass};
    use enode::{Endpoint, NodeId, NodeRecord};
    use ethcrypto::secp256k1::SecretKey;
    use ethpop::PeerConn;
    use netsim::HostAddr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::net::Ipv4Addr;

    fn rec(tag: u8) -> NodeRecord {
        NodeRecord::new(
            NodeId([tag; 64]),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, tag), 30303),
        )
    }

    /// Where the crawler under test dials from.
    fn local() -> HostAddr {
        HostAddr::new(Ipv4Addr::new(10, 0, 0, 200), 30303)
    }

    /// `tag`'s node answers at `now_ms`, joining the static list.
    fn answered(nf: &mut NodeFinder, tag: u8, now_ms: u64) {
        let mut rng = StdRng::seed_from_u64(0);
        nf.policy
            .on_result(Some(rec(tag)), ConnType::Incoming, true, now_ms, &mut rng);
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
        // `tag` 9 is dialed: a dynamic probe holding its slot. 3 and 5
        // wait in the queue.
        nf.policy.on_sighting(rec(9), 1_009);
        for (record, conn_type) in nf.policy.on_dial_tick(1_500, local()) {
            let peer = HostAddr::new(record.endpoint.ip, record.endpoint.tcp_port);
            let pc = PeerConn::dialing(7, record.id, nf.hello(local()), 1_500);
            let probe = Probe::new(pc, conn_type, 0, Some(record.id), peer, 1_500, 11_500);
            nf.probes.insert(7, probe);
        }
        for tag in [3u8, 5] {
            nf.policy.on_sighting(rec(tag), 1_000 + tag as u64);
        }
        for t in 0..5u64 {
            nf.policy.on_result(
                Some(rec(11)),
                ConnType::StaticDial,
                false,
                t * 1_000,
                &mut rng,
            );
        }
        for tag in [13u8, 12] {
            answered(&mut nf, tag, 60_000);
        }
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
        assert_eq!(restored.policy.dialing(), 1);
        assert_eq!(restored.policy.queue_len(), 2);
        assert_eq!(restored.policy.static_len(), 2);
        assert_eq!(restored.penalty_boxed_total(), nf.penalty_boxed_total());
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
            answered(&mut nf, tag, 60_000);
        }
        let snap = image(&nf);
        // id ‖ record ‖ next dial ‖ last success
        let entry = |tag: u8| {
            let mut w = SnapWriter::new();
            rec(tag).id.snap(&mut w);
            rec(tag).snap(&mut w);
            (60_000 + nf.config.static_redial_interval_ms).snap(&mut w);
            60_000u64.snap(&mut w);
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

    /// A crawler whose penalty box tracks tags 21 and 22 (one failure
    /// each), its image, the offset of tag 21's entry and an entry's
    /// length; the two entries are adjacent.
    fn penalized() -> (Vec<u8>, usize, usize) {
        let mut nf = crawler();
        let mut rng = StdRng::seed_from_u64(7);
        for tag in [21u8, 22] {
            nf.policy
                .on_result(Some(rec(tag)), ConnType::StaticDial, false, 1_000, &mut rng);
        }
        let snap = image(&nf);
        // record ‖ failures, then next allowed `u64` ‖ boxed `bool`
        let mut w = SnapWriter::new();
        rec(21).snap(&mut w);
        1u32.snap(&mut w);
        let head = w.finish();
        let at = snap
            .windows(head.len())
            .position(|w| w == head)
            .expect("tag 21's entry is in the image");
        (snap, at, head.len() + 8 + 1)
    }

    /// Penalty entries no run writes are `Corrupt`: entries swapped or
    /// repeated (ids must read back strictly ascending, as every map in
    /// the image must, not be merged and re-sorted), and an entry with no
    /// failure (`record_failure` always counts one).
    #[test]
    fn penalty_entries_no_run_writes_are_rejected() {
        let (snap, at, n) = penalized();
        assert_eq!(crawler().apply_state(&snap), Ok(()));
        let mut swapped = snap.clone();
        swapped[at..at + n].copy_from_slice(&snap[at + n..at + 2 * n]);
        swapped[at + n..at + 2 * n].copy_from_slice(&snap[at..at + n]);
        let mut repeated = snap.clone();
        repeated[at + n..at + 2 * n].copy_from_slice(&snap[at..at + n]);
        let mut no_failure = snap.clone();
        no_failure[at + n - 13..at + n - 9].copy_from_slice(&[0; 4]);
        for (bad, why) in [
            (swapped, "penalty entry ids not ascending"),
            (repeated, "penalty entry ids not ascending"),
            (no_failure, "penalty entry with no failures"),
        ] {
            assert_eq!(crawler().apply_state(&bad), Err(SnapError::Corrupt(why)));
        }
    }

    /// A dial slot is claimed with its probe and released with it, so an
    /// image whose slot count differs from its live dynamic probes is
    /// `Corrupt`: here the policy dialed and no probe was opened.
    #[test]
    fn a_dial_slot_without_its_probe_is_rejected() {
        let mut nf = crawler();
        nf.policy.on_sighting(rec(23), 0);
        assert_eq!(nf.policy.on_dial_tick(500, local()).len(), 1);
        assert_eq!(
            crawler().apply_state(&image(&nf)),
            Err(SnapError::Corrupt(
                "dial slots differ from live dynamic dials"
            ))
        );
    }
}
