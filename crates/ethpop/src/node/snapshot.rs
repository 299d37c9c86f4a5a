//! The `ETHN` section: what an [`EthNode`] writes into the world snapshot
//! and reads back over a shell-rebuilt node.

use super::{EthNode, Running};
use crate::stats::{NodeStats, NO_STATS};
use crate::wire::PeerConn;
use discv4::Discv4;
use enode::NodeRecord;
use ethcrypto::secp256k1::SecretKey;
use netsim::{ConnId, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Magic prefixing an [`EthNode`] behaviour-state section.
pub(super) const NODE_SNAP_MAGIC: [u8; 4] = *b"ETHN";
/// Current behaviour-state format version (2: one discv4 bond table).
pub(super) const NODE_SNAP_VERSION: u8 = 2;

impl EthNode {
    /// Serialize every piece of dynamic state a restore cannot rebuild
    /// from the profile. Static structure — the bootstrap flyweight, the
    /// capability list, the chain, the service kind — is deliberately
    /// absent: the world shell reconstructs it, which is what keeps `Rc`
    /// allocations shared after a restore. The section goes straight into
    /// the engine's image `w`, header first.
    pub(super) fn encode_state(&self, w: &mut SnapWriter) {
        let kept = &self.kept;
        w.header(NODE_SNAP_MAGIC, NODE_SNAP_VERSION);
        // Mutable profile slices: rotation rewrites the key, release
        // plans rewrite the client id on (re)start.
        kept.profile.key.to_bytes().snap(w);
        kept.profile.client_id.snap(w);
        // A stopped node writes what a running one holds when empty:
        // no engine, then zero conns, eth-ready ids and candidates.
        let run = self.running.as_deref();
        w.bool(run.is_some());
        match run {
            Some(run) => {
                run.disc.snap(w);
                w.usize(run.conns.len());
                for pc in run.conns.values() {
                    pc.snap(w);
                }
                run.eth_ready.snap(w);
                run.candidates.snap(w);
            }
            None => (0..3).for_each(|_| w.usize(0)),
        }
        kept.known.snap(w);
        run.map_or(0, |run| run.dialing).snap(w);
        run.map_or([false; 3], |run| {
            [run.disc_armed, run.dial_armed, run.poll_armed]
        })
        .snap(w);
        kept.dry_lookups.snap(w);
        kept.next_retry_ms.snap(w);
        kept.sample_peers.snap(w);
        self.stats().snap(w);
    }

    /// Overwrite this (shell-rebuilt) node's dynamic state from
    /// [`EthNode::encode_state`] output; on `Err` nothing is overwritten.
    /// A node without a discovery engine is stopped, and an image that
    /// gives it running state is one no run wrote.
    pub(super) fn apply_state(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::with_header(bytes, NODE_SNAP_MAGIC, NODE_SNAP_VERSION)?;
        let key = SecretKey::from_bytes(&<[u8; 32]>::unsnap(&mut r)?)
            .map_err(|_| SnapError::Corrupt("node identity key does not decode"))?;
        let client_id = String::unsnap(&mut r)?;
        let disc = if r.bool()? {
            Some(Discv4::restore(
                &mut r,
                key,
                self.kept.profile.disc_config(),
            )?)
        } else {
            None
        };
        let mut conns = BTreeMap::new();
        for _ in 0..r.usize()? {
            let pc = PeerConn::restore(&mut r, &key)?;
            if conns.insert(pc.conn, pc).is_some() {
                return Err(SnapError::Corrupt("connection id repeats"));
            }
        }
        let eth_ready: BTreeSet<ConnId> = Snap::unsnap(&mut r)?;
        let candidates: VecDeque<NodeRecord> = Snap::unsnap(&mut r)?;
        let known = Snap::unsnap(&mut r)?;
        let dialing: usize = Snap::unsnap(&mut r)?;
        let [disc_armed, dial_armed, poll_armed]: [bool; 3] = Snap::unsnap(&mut r)?;
        let dry_lookups = Snap::unsnap(&mut r)?;
        let next_retry_ms = Snap::unsnap(&mut r)?;
        let sample_peers = Snap::unsnap(&mut r)?;
        let stats: NodeStats = Snap::unsnap(&mut r)?;
        r.finish()?;
        let running = match disc {
            Some(disc) => Some(Box::new(Running {
                disc,
                active_conns: conns.values().filter(|c| c.is_active()).count(),
                conns,
                eth_ready,
                candidates,
                dialing,
                disc_armed,
                dial_armed,
                poll_armed,
            })),
            None if conns.is_empty()
                && eth_ready.is_empty()
                && candidates.is_empty()
                && dialing == 0
                && !(disc_armed || dial_armed || poll_armed) =>
            {
                None
            }
            None => return Err(SnapError::Corrupt("a stopped node holds running state")),
        };

        let kept = &mut self.kept;
        kept.profile.key = key;
        kept.profile.client_id = client_id;
        kept.known = known;
        kept.dry_lookups = dry_lookups;
        kept.next_retry_ms = next_retry_ms;
        kept.sample_peers = sample_peers;
        kept.stats = (stats != NO_STATS).then(|| Box::new(stats));
        self.running = running;
        Ok(())
    }
}
