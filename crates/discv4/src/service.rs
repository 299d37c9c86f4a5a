//! The sans-IO discv4 protocol engine.
//!
//! [`Discv4`] owns the routing table, the bond (endpoint-proof) registry,
//! and at most one in-flight iterative lookup. The registry keeps one
//! `Bond` per peer, holding both directions of the proof: when the peer
//! answered our PING (and at which endpoint), and when it last PINGed
//! us. It performs no IO: callers feed datagrams via
//! [`Discv4::on_datagram`], advance time via [`Discv4::poll`], and
//! transmit every returned [`Outgoing`].
//!
//! Time is caller-supplied in **milliseconds** (the simulator's clock);
//! wire expirations are converted to Unix-style seconds.

use crate::packet::{decode_packet, encode_packet, Packet, MAX_NEIGHBORS_PER_PACKET};
use enode::{Endpoint, NodeId, NodeRecord};
use ethcrypto::secp256k1::SecretKey;
use kad::{Lookup, LookupStatus, Metric, RoutingTable};
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;

/// Tunables. Defaults mirror Geth 1.7.3 (the paper's baseline, §4).
#[derive(Debug, Clone)]
pub struct Config {
    /// Distance metric for the routing table (Geth vs Parity).
    pub metric: Metric,
    /// Wire packet expiration window, seconds (Geth: 20s).
    pub packet_expiry_secs: u64,
    /// How long a PING/FINDNODE waits for its reply, ms (Geth: 500ms).
    pub request_timeout_ms: u64,
    /// How long an endpoint proof stays valid, ms (Geth: 24h).
    pub bond_expiry_ms: u64,
    /// Results wanted per FINDNODE (k, Geth: 16).
    pub bucket_results: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            metric: Metric::GethLog2,
            packet_expiry_secs: 20,
            request_timeout_ms: 500,
            bond_expiry_ms: 24 * 3600 * 1000,
            bucket_results: 16,
        }
    }
}

/// A datagram the caller must transmit.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Destination (IP + UDP port).
    pub to: Endpoint,
    /// Serialized, signed packet.
    pub datagram: Vec<u8>,
}

/// Things the engine wants the application layer to know.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A node was observed on the wire (any packet, NEIGHBORS entry, or
    /// incoming PING). This is the crawler's raw "node sighting" feed.
    NodeSeen(NodeRecord),
    /// A node answered our PING: endpoint proof complete.
    NodeVerified(NodeRecord),
    /// The current lookup finished; `all_seen` is every node learned.
    LookupDone {
        /// Nodes learned during this lookup (closest-k plus the rest).
        all_seen: Vec<NodeRecord>,
        /// FINDNODE queries this lookup issued.
        queries: usize,
    },
}

obs::snap_enum!(Event {
    0 => NodeSeen(record),
    1 => NodeVerified(record),
    2 => LookupDone { all_seen, queries },
});

/// A PING awaiting its PONG. Most pending maps hold a handful of these,
/// and a `BTreeMap` allocates eleven values at a time, so the two fields
/// only some pings carry are boxed: 104 B inline instead of 232.
#[derive(Debug)]
struct PendingPing {
    to: NodeRecord,
    deadline_ms: u64,
    /// When the PING left, for the `discv4.ping_rtt_ms` histogram.
    sent_ms: u64,
    /// If this ping is a liveness check for a bucket eviction, the new node
    /// waiting to take the slot.
    eviction_replacement: Option<Box<NodeRecord>>,
    /// FINDNODE target to send once the bond completes.
    queued_findnode: Option<Box<NodeId>>,
}

obs::snap_struct!(PendingPing {
    to,
    deadline_ms,
    sent_ms,
    eviction_replacement,
    queued_findnode
});

#[derive(Debug)]
struct PendingQuery {
    deadline_ms: u64,
    /// When the query was initiated, for `discv4.findnode_rtt_ms`. For
    /// unbonded peers this includes the bonding PING/PONG exchange, so
    /// the histogram measures the full time-to-NEIGHBORS a lookup sees.
    sent_ms: u64,
}

obs::snap_struct!(PendingQuery {
    deadline_ms,
    sent_ms
});

/// Both directions of one peer's endpoint proof. A stamp counts for
/// [`Config::bond_expiry_ms`] after it was set; an entry always has at
/// least one half.
#[derive(Debug, Default)]
struct Bond {
    /// When the peer last answered our PING, and the endpoint that PING
    /// went to — where FINDNODE replies go, whatever the stamp's age.
    verified: Option<(u64, Endpoint)>,
    /// When the peer last PINGed us: enough for it to FINDNODE us.
    pinged: Option<u64>,
}

obs::snap_struct!(Bond { verified, pinged });

/// Counters exposed for the paper's internal-validation figures (Fig 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Lookups started.
    pub lookups_started: u64,
    /// FINDNODE packets sent.
    pub findnodes_sent: u64,
    /// PING packets sent.
    pub pings_sent: u64,
    /// PONG packets received.
    pub pongs_received: u64,
    /// NEIGHBORS packets received.
    pub neighbors_received: u64,
    /// Datagrams dropped (expired, malformed, bad signature).
    pub drops: u64,
    /// Subset of `drops`: packets whose `expiration` predates sim-time —
    /// the spec check a delayed datagram must fail (no PONG for a stale
    /// PING).
    pub expired_drops: u64,
}

obs::snap_struct!(Stats {
    lookups_started,
    findnodes_sent,
    pings_sent,
    pongs_received,
    neighbors_received,
    drops,
    expired_drops
});

/// The discv4 engine for one node.
pub struct Discv4 {
    key: SecretKey,
    id: NodeId,
    endpoint: Endpoint,
    config: Config,
    table: RoutingTable,
    /// ping hash → pending state.
    pending_pings: BTreeMap<[u8; 32], PendingPing>,
    /// node → in-flight FINDNODE (for the active lookup).
    pending_queries: BTreeMap<NodeId, PendingQuery>,
    /// node → its endpoint proof, in either direction.
    bonds: BTreeMap<NodeId, Bond>,
    lookup: Option<Lookup>,
    /// Wire-level target id of the active lookup (the Lookup itself tracks
    /// only the hashed target).
    lookup_target_id: Option<NodeId>,
    events: Vec<Event>,
    stats: Stats,
}

impl std::fmt::Debug for Discv4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The identity key is secret; summarize the engine by its public
        // identity and live protocol state.
        f.debug_struct("Discv4")
            .field("id", &self.id)
            .field("endpoint", &self.endpoint)
            .field("bonds", &self.bonds.len())
            .field("pending_pings", &self.pending_pings.len())
            .field("lookup_active", &self.lookup.is_some())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Discv4 {
    /// Create an engine for `key` listening on `endpoint`.
    pub fn new(key: SecretKey, endpoint: Endpoint, config: Config) -> Discv4 {
        let id = NodeId::from_secret_key(&key);
        Discv4 {
            table: RoutingTable::new(id, config.metric),
            key,
            id,
            endpoint,
            config,
            pending_pings: BTreeMap::new(),
            pending_queries: BTreeMap::new(),
            bonds: BTreeMap::new(),
            lookup: None,
            lookup_target_id: None,
            events: Vec::new(),
            stats: Stats::default(),
        }
    }

    /// Append the engine's endpoint and dynamic protocol state to a
    /// snapshot. The identity key and config are owned by the caller
    /// (they are part of the node identity) and supplied again to
    /// [`Discv4::restore`].
    pub fn snap(&self, w: &mut SnapWriter) {
        self.endpoint.snap(w);
        // The table in `kad::TableEntries`' layout, written from the
        // buckets themselves rather than from a copy of them.
        let buckets = self.table.buckets();
        w.usize(buckets.len());
        for (idx, residents) in buckets {
            idx.snap(w);
            w.usize(residents.len());
            for e in residents {
                e.record.snap(w);
                e.last_seen.snap(w);
            }
        }
        self.pending_pings.snap(w);
        self.pending_queries.snap(w);
        self.bonds.snap(w);
        self.lookup.as_ref().map(Lookup::to_parts).snap(w);
        self.lookup_target_id.snap(w);
        self.events.snap(w);
        self.stats.snap(w);
    }

    /// Rebuild an engine mid-protocol from [`Discv4::snap`] output plus
    /// the caller-held identity (`key`, `config`).
    pub fn restore(
        r: &mut SnapReader<'_>,
        key: SecretKey,
        config: Config,
    ) -> Result<Discv4, SnapError> {
        let id = NodeId::from_secret_key(&key);
        let endpoint = Snap::unsnap(r)?;
        let table = RoutingTable::from_entries(id, config.metric, Snap::unsnap(r)?)
            .map_err(SnapError::Corrupt)?;
        let pending_pings = Snap::unsnap(r)?;
        let pending_queries = Snap::unsnap(r)?;
        let bonds: BTreeMap<NodeId, Bond> = Snap::unsnap(r)?;
        if bonds
            .values()
            .any(|b| b.verified.is_none() && b.pinged.is_none())
        {
            return Err(SnapError::Corrupt("bond with neither half set"));
        }
        Ok(Discv4 {
            table,
            key,
            id,
            endpoint,
            config,
            pending_pings,
            pending_queries,
            bonds,
            lookup: Option::unsnap(r)?
                .map(Lookup::from_parts)
                .transpose()
                .map_err(SnapError::Corrupt)?,
            lookup_target_id: Snap::unsnap(r)?,
            events: Snap::unsnap(r)?,
            stats: Snap::unsnap(r)?,
        })
    }

    /// Immutable access to the routing table.
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// Counters for the validation figures.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Drain accumulated events.
    pub fn take_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// Whether a lookup is currently running.
    pub fn lookup_in_progress(&self) -> bool {
        self.lookup.is_some()
    }

    /// Whether the engine holds any timed state (in-flight pings, queries,
    /// or a lookup) that a future [`Discv4::poll`] must resolve. Drivers
    /// arm their poll timer only while this is true.
    pub fn has_pending(&self) -> bool {
        !self.pending_pings.is_empty() || !self.pending_queries.is_empty() || self.lookup.is_some()
    }

    fn expiry(&self, now_ms: u64) -> u64 {
        now_ms / 1000 + self.config.packet_expiry_secs
    }

    fn is_expired(&self, expiration: u64, now_ms: u64) -> bool {
        expiration < now_ms / 1000
    }

    /// Account a packet dropped by the expiration check (spec: stale
    /// datagrams must not be processed — a delayed PING elicits no PONG).
    fn drop_expired(&mut self) {
        self.stats.drops += 1;
        self.stats.expired_drops += 1;
        obs::counter_add("discv4.expired_dropped", 1);
    }

    fn fresh(&self, stamp: Option<u64>, now_ms: u64) -> bool {
        stamp.is_some_and(|t| now_ms.saturating_sub(t) < self.config.bond_expiry_ms)
    }

    /// Whether `id` answered one of our PINGs recently (endpoint proof).
    fn bonded(&self, id: &NodeId, now_ms: u64) -> bool {
        let verified = self.bonds.get(id).and_then(|b| b.verified);
        self.fresh(verified.map(|(t, _)| t), now_ms)
    }

    /// Send a PING to `node` (bonding and/or liveness probing).
    pub fn ping(&mut self, node: NodeRecord, now_ms: u64) -> Outgoing {
        self.ping_internal(node, now_ms, None, None)
    }

    fn ping_internal(
        &mut self,
        node: NodeRecord,
        now_ms: u64,
        eviction_replacement: Option<NodeRecord>,
        queued_findnode: Option<NodeId>,
    ) -> Outgoing {
        let packet = Packet::Ping {
            version: 4,
            from: self.endpoint,
            to: node.endpoint,
            expiration: self.expiry(now_ms),
        };
        let (datagram, hash) = encode_packet(&self.key, &packet);
        self.pending_pings.insert(
            hash,
            PendingPing {
                to: node,
                deadline_ms: now_ms + self.config.request_timeout_ms,
                sent_ms: now_ms,
                eviction_replacement: eviction_replacement.map(Box::new),
                queued_findnode: queued_findnode.map(Box::new),
            },
        );
        self.stats.pings_sent += 1;
        obs::counter_add("discv4.pings_sent", 1);
        Outgoing {
            to: node.endpoint,
            datagram,
        }
    }

    /// Begin an iterative lookup toward `target` (usually a random ID).
    /// Returns the initial queries; further traffic flows from
    /// [`Discv4::on_datagram`] / [`Discv4::poll`].
    pub fn start_lookup(&mut self, target: NodeId, now_ms: u64) -> Vec<Outgoing> {
        let seeds = self
            .table
            .closest(&target.kad_hash(), self.config.bucket_results);
        let mut lookup = Lookup::new(target.kad_hash(), seeds);
        let first = lookup.next_queries();
        self.lookup = Some(lookup);
        self.lookup_target_id = Some(target);
        self.stats.lookups_started += 1;
        obs::counter_add("discv4.lookups_started", 1);
        let mut out = Vec::new();
        for node in first {
            out.extend(self.send_findnode(node, target, now_ms));
        }
        if out.is_empty() {
            // Empty table: the lookup is trivially done.
            out.extend(self.advance_lookup(now_ms));
        }
        out
    }

    fn send_findnode(&mut self, node: NodeRecord, target: NodeId, now_ms: u64) -> Vec<Outgoing> {
        if self.bonded(&node.id, now_ms) {
            let packet = Packet::FindNode {
                target,
                expiration: self.expiry(now_ms),
            };
            let (datagram, _) = encode_packet(&self.key, &packet);
            self.pending_queries.insert(
                node.id,
                PendingQuery {
                    deadline_ms: now_ms + self.config.request_timeout_ms,
                    sent_ms: now_ms,
                },
            );
            self.stats.findnodes_sent += 1;
            obs::counter_add("discv4.findnodes_sent", 1);
            vec![Outgoing {
                to: node.endpoint,
                datagram,
            }]
        } else {
            // Bond first; the FINDNODE fires when the PONG arrives. The
            // pending-query timeout still applies so the lookup can't hang.
            self.pending_queries.insert(
                node.id,
                PendingQuery {
                    deadline_ms: now_ms + self.config.request_timeout_ms * 2,
                    sent_ms: now_ms,
                },
            );
            vec![self.ping_internal(node, now_ms, None, Some(target))]
        }
    }

    /// Handle one incoming datagram; returns packets to transmit.
    pub fn on_datagram(&mut self, from: Endpoint, datagram: &[u8], now_ms: u64) -> Vec<Outgoing> {
        let Ok((sender_id, packet, hash)) = decode_packet(datagram) else {
            self.stats.drops += 1;
            return Vec::new();
        };
        if sender_id == self.id {
            return Vec::new();
        }
        match packet {
            Packet::Ping {
                from: advertised,
                expiration,
                ..
            } => {
                if self.is_expired(expiration, now_ms) {
                    self.drop_expired();
                    return Vec::new();
                }
                // Real source IP wins over the advertised one (NAT), but the
                // advertised TCP port is taken at face value.
                let record = NodeRecord::new(
                    sender_id,
                    Endpoint {
                        ip: from.ip,
                        udp_port: from.udp_port,
                        tcp_port: advertised.tcp_port,
                    },
                );
                self.events.push(Event::NodeSeen(record));
                self.bonds.entry(sender_id).or_default().pinged = Some(now_ms);
                let mut out = Vec::new();
                // Always answer with PONG.
                let pong = Packet::Pong {
                    to: from,
                    ping_hash: hash,
                    expiration: self.expiry(now_ms),
                };
                let (dg, _) = encode_packet(&self.key, &pong);
                out.push(Outgoing {
                    to: record.endpoint,
                    datagram: dg,
                });
                // Bond back if we don't know them yet (Geth pings back).
                if !self.bonded(&sender_id, now_ms) && !self.has_pending_ping_to(&sender_id) {
                    out.push(self.ping_internal(record, now_ms, None, None));
                }
                self.try_add_to_table(record, now_ms, &mut out);
                out
            }
            Packet::Pong {
                ping_hash,
                expiration,
                ..
            } => {
                if self.is_expired(expiration, now_ms) {
                    self.drop_expired();
                    return Vec::new();
                }
                let Some(pending) = self.pending_pings.remove(&ping_hash) else {
                    // unsolicited pong
                    self.stats.drops += 1;
                    return Vec::new();
                };
                if pending.to.id != sender_id {
                    self.stats.drops += 1;
                    return Vec::new();
                }
                self.stats.pongs_received += 1;
                obs::counter_add("discv4.pongs_received", 1);
                obs::observe_ms("discv4.ping_rtt_ms", now_ms.saturating_sub(pending.sent_ms));
                // `pending.to.id == sender_id`: only the endpoint is new.
                self.bonds.entry(sender_id).or_default().verified =
                    Some((now_ms, pending.to.endpoint));
                self.events.push(Event::NodeVerified(pending.to));
                let mut out = Vec::new();
                // Eviction liveness check passed: keep the old node.
                self.table.confirm_alive(&sender_id, now_ms);
                self.try_add_to_table(pending.to, now_ms, &mut out);
                if let Some(target) = pending.queued_findnode {
                    out.extend(self.send_findnode(pending.to, *target, now_ms));
                }
                out
            }
            Packet::FindNode { target, expiration } => {
                if self.is_expired(expiration, now_ms) {
                    self.drop_expired();
                    return Vec::new();
                }
                // Only answer bonded peers (endpoint proof), in either
                // direction: we verified them, or they pinged us recently.
                let bond = self.bonds.get(&sender_id);
                let verified = bond.and_then(|b| b.verified);
                if !self.fresh(verified.map(|(t, _)| t), now_ms)
                    && !self.fresh(bond.and_then(|b| b.pinged), now_ms)
                {
                    self.stats.drops += 1;
                    return Vec::new();
                }
                let reply_to = verified.map_or(from, |(_, endpoint)| endpoint);
                let closest = self
                    .table
                    .closest(&target.kad_hash(), self.config.bucket_results);
                let mut out = Vec::new();
                for chunk in closest.chunks(MAX_NEIGHBORS_PER_PACKET) {
                    let packet = Packet::Neighbors {
                        nodes: chunk.to_vec(),
                        expiration: self.expiry(now_ms),
                    };
                    let (dg, _) = encode_packet(&self.key, &packet);
                    out.push(Outgoing {
                        to: reply_to,
                        datagram: dg,
                    });
                }
                out
            }
            Packet::Neighbors { nodes, expiration } => {
                if self.is_expired(expiration, now_ms) {
                    self.drop_expired();
                    return Vec::new();
                }
                self.stats.neighbors_received += 1;
                obs::counter_add("discv4.neighbors_received", 1);
                for n in &nodes {
                    self.events.push(Event::NodeSeen(*n));
                }
                let mut out = Vec::new();
                if let Some(q) = self.pending_queries.remove(&sender_id) {
                    obs::observe_ms("discv4.findnode_rtt_ms", now_ms.saturating_sub(q.sent_ms));
                    if let Some(lookup) = self.lookup.as_mut() {
                        lookup.on_response(&sender_id, nodes);
                        out.extend(self.advance_lookup(now_ms));
                    }
                }
                out
            }
        }
    }

    fn has_pending_ping_to(&self, id: &NodeId) -> bool {
        self.pending_pings.values().any(|p| p.to.id == *id)
    }

    fn try_add_to_table(&mut self, record: NodeRecord, now_ms: u64, out: &mut Vec<Outgoing>) {
        if let kad::AddOutcome::BucketFull { candidate } = self.table.add(record, now_ms) {
            // Liveness-check the LRU resident; if it fails, `record` takes
            // the slot (see poll()).
            if !self.has_pending_ping_to(&candidate.id) {
                out.push(self.ping_internal(candidate, now_ms, Some(record), None));
            }
        }
        // World-wide high-water mark: every simulated node's table feeds
        // the same thread-local recorder, so this tracks the best-filled
        // table in the world (the crawler's, in practice).
        obs::gauge_max("discv4.table_size_peak", self.table.len() as u64);
    }

    fn advance_lookup(&mut self, now_ms: u64) -> Vec<Outgoing> {
        let mut out = Vec::new();
        let Some(lookup) = self.lookup.as_mut() else {
            return out;
        };
        let next = lookup.next_queries();
        let target_id = self.lookup_target_id.unwrap_or(NodeId::ZERO);
        for node in next {
            out.extend(self.send_findnode(node, target_id, now_ms));
        }
        let Some(lookup) = self.lookup.as_ref() else {
            return out;
        };
        if lookup.status() == LookupStatus::Done && self.pending_queries.is_empty() {
            if let Some(lookup) = self.lookup.take() {
                let all_seen = lookup.all_seen();
                let queries = lookup.queries_sent();
                obs::event(
                    "discv4.lookup_done",
                    &[
                        ("seen", obs::Value::U64(all_seen.len() as u64)),
                        ("queries", obs::Value::U64(queries as u64)),
                    ],
                );
                self.events.push(Event::LookupDone { all_seen, queries });
            }
            self.lookup_target_id = None;
        }
        out
    }

    /// Advance timers: expire pings (failing evictions and bonds), expire
    /// FINDNODE queries (failing lookup candidates), finish lookups.
    pub fn poll(&mut self, now_ms: u64) -> Vec<Outgoing> {
        let mut out = Vec::new();

        // Expired pings.
        let expired: Vec<[u8; 32]> = self
            .pending_pings
            .iter()
            .filter(|(_, p)| p.deadline_ms <= now_ms)
            .map(|(h, _)| *h)
            .collect();
        for hash in expired {
            let Some(pending) = self.pending_pings.remove(&hash) else {
                continue;
            };
            if let Some(replacement) = pending.eviction_replacement {
                // Old node failed its liveness check: evict and insert new.
                self.table
                    .evict_and_insert(&pending.to.id, *replacement, now_ms);
            }
            if pending.queued_findnode.is_some() {
                // Bond never completed; the queued query fails below via
                // pending_queries timeout (or right here if still present).
                if self.pending_queries.remove(&pending.to.id).is_some() {
                    if let Some(lookup) = self.lookup.as_mut() {
                        lookup.on_failure(&pending.to.id);
                    }
                }
            }
        }

        // Expired FINDNODE queries.
        let expired_q: Vec<NodeId> = self
            .pending_queries
            .iter()
            .filter(|(_, q)| q.deadline_ms <= now_ms)
            .map(|(id, _)| *id)
            .collect();
        for id in expired_q {
            self.pending_queries.remove(&id);
            if let Some(lookup) = self.lookup.as_mut() {
                lookup.on_failure(&id);
            }
        }

        out.extend(self.advance_lookup(now_ms));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn engine(seed: u8) -> Discv4 {
        let key = SecretKey::from_bytes(&[seed; 32]).unwrap();
        let endpoint = Endpoint::new(Ipv4Addr::new(10, 0, 0, seed), 30303);
        Discv4::new(key, endpoint, Config::default())
    }

    fn image(d: &Discv4) -> Vec<u8> {
        let mut w = SnapWriter::new();
        d.snap(&mut w);
        w.finish()
    }

    /// `snap` writes the routing table from its buckets, and the bytes
    /// are those of the `TableEntries` that `restore` reads.
    #[test]
    fn the_table_is_written_in_table_entries_layout() {
        let mut d = engine(1);
        for s in 0..40u8 {
            let id = NodeId([s.wrapping_mul(37).wrapping_add(5); 64]);
            let ep = Endpoint::new(Ipv4Addr::new(10, 1, 0, s), 30303);
            d.table.add(NodeRecord::new(id, ep), u64::from(s));
        }
        let entries: kad::TableEntries = d
            .table
            .buckets()
            .map(|(idx, b)| (idx, b.iter().map(|e| (e.record, e.last_seen)).collect()))
            .collect();
        assert!(entries.iter().map(|(_, b)| b.len()).sum::<usize>() > 1);
        let mut w = SnapWriter::new();
        d.endpoint.snap(&mut w);
        entries.snap(&mut w);
        assert!(image(&d).starts_with(&w.finish()));
    }

    /// Each half of a bond, and both, survive a round trip; a bond with
    /// neither half is refused.
    #[test]
    fn bonds_round_trip_and_an_empty_bond_is_refused() {
        let mut d = engine(2);
        let ep = Endpoint::new(Ipv4Addr::new(10, 2, 0, 1), 30303);
        d.bonds.insert(
            NodeId([1; 64]),
            Bond {
                verified: Some((5, ep)),
                pinged: None,
            },
        );
        d.bonds.insert(
            NodeId([2; 64]),
            Bond {
                verified: None,
                pinged: Some(6),
            },
        );
        d.bonds.insert(
            NodeId([3; 64]),
            Bond {
                verified: Some((7, ep)),
                pinged: Some(8),
            },
        );
        let saved = image(&d);
        let restore = |bytes: &[u8]| {
            let mut r = SnapReader::new(bytes);
            let key = SecretKey::from_bytes(&[2; 32]).unwrap();
            Discv4::restore(&mut r, key, Config::default()).map(|d| image(&d))
        };
        assert_eq!(restore(&saved), Ok(saved.clone()));

        d.bonds.insert(NodeId([4; 64]), Bond::default());
        assert_eq!(
            restore(&image(&d)),
            Err(SnapError::Corrupt("bond with neither half set"))
        );
    }
}
