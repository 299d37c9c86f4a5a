//! One live probe: a TCP connection the crawler opened or accepted, and
//! the log entry it accumulates until `finish_probe` ingests it.
//!
//! The crawler keeps its probes in a `BTreeMap<ConnId, Probe>`; which
//! node gets a probe, and the dial slots the dynamic ones hold, is the
//! `policy` module's business.

use crate::log::{ConnLog, ConnOutcome, ConnType, FailureClass};
use crate::stages::window_elapsed;
use enode::NodeId;
use ethcrypto::secp256k1::SecretKey;
use ethpop::PeerConn;
use netsim::HostAddr;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// One in-flight probe: the protocol connection plus the log entry being
/// accumulated for it.
#[derive(Debug)]
pub(crate) struct Probe {
    pub(crate) pc: PeerConn,
    pub(crate) conn_type: ConnType,
    pub(crate) record: ConnLog,
    pub(crate) awaiting_dao: bool,
    /// TCP is up (distinguishes ConnectTimeout from later stages).
    pub(crate) connected: bool,
    /// Current-stage deadline; the sweep reaps and classifies past it.
    pub(crate) deadline_ms: u64,
    /// When the current handshake stage began (sim time), for the
    /// per-stage latency spans (connect → auth → HELLO → STATUS).
    pub(crate) stage_start_ms: u64,
}

impl Probe {
    /// A probe of `pc` to or from `peer`, opened at `now_ms`. Its log
    /// entry starts with what is known before the handshake — the peer's
    /// id if we dialed it — and the outcome should nothing more happen.
    pub(crate) fn new(
        pc: PeerConn,
        conn_type: ConnType,
        instance: u32,
        node_id: Option<NodeId>,
        peer: HostAddr,
        now_ms: u64,
        deadline_ms: u64,
    ) -> Probe {
        let incoming = conn_type == ConnType::Incoming;
        Probe {
            pc,
            conn_type,
            record: ConnLog {
                instance,
                ts_ms: now_ms,
                node_id,
                ip: peer.ip,
                port: peer.port,
                conn_type,
                latency_ms: 0,
                duration_ms: 0,
                hello: None,
                status: None,
                dao_fork: None,
                outcome: if incoming {
                    ConnOutcome::HandshakeFailed
                } else {
                    ConnOutcome::DialFailed
                },
                failure: None,
            },
            awaiting_dao: false,
            connected: incoming,
            deadline_ms,
            stage_start_ms: now_ms,
        }
    }

    /// Close the current handshake stage's latency span `span` and begin
    /// the next stage, due by `deadline_ms`.
    pub(crate) fn next_stage(&mut self, span: &str, now_ms: u64, deadline_ms: u64) {
        let conn = obs::Value::U64(self.pc.conn as u64);
        obs::span(span, self.stage_start_ms, &[("conn", conn)]);
        self.stage_start_ms = now_ms;
        self.deadline_ms = deadline_ms;
    }

    /// Why this probe is overdue at `now_ms`, if it is: past its stage
    /// deadline (classified by how far it got) or past `probe_timeout_ms`
    /// in all. Both windows are half-open.
    pub(crate) fn overdue(&self, now_ms: u64, probe_timeout_ms: u64) -> Option<FailureClass> {
        let over_stage = now_ms >= self.deadline_ms;
        if !over_stage && !window_elapsed(now_ms, self.record.ts_ms, probe_timeout_ms) {
            return None;
        }
        Some(if !over_stage {
            FailureClass::ProbeTimeout
        } else if !self.connected {
            FailureClass::ConnectTimeout
        } else if self.pc.peer_id.is_none() {
            FailureClass::HandshakeTimeout
        } else if self.record.hello.is_none() {
            FailureClass::HelloTimeout
        } else {
            FailureClass::StatusTimeout
        })
    }

    /// Append the probe (wire state, then the log entry in progress and
    /// the stage bookkeeping) to a snapshot.
    pub(crate) fn snap(&self, w: &mut SnapWriter) {
        self.pc.snap(w);
        self.conn_type.snap(w);
        self.record.snap(w);
        self.awaiting_dao.snap(w);
        self.connected.snap(w);
        self.deadline_ms.snap(w);
        self.stage_start_ms.snap(w);
    }

    /// Rebuild a probe from [`Probe::snap`] output under the crawler's
    /// identity `key`.
    pub(crate) fn restore(r: &mut SnapReader<'_>, key: &SecretKey) -> Result<Probe, SnapError> {
        Ok(Probe {
            pc: PeerConn::restore(r, key)?,
            conn_type: Snap::unsnap(r)?,
            record: Snap::unsnap(r)?,
            awaiting_dao: Snap::unsnap(r)?,
            connected: Snap::unsnap(r)?,
            deadline_ms: Snap::unsnap(r)?,
            stage_start_ms: Snap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `conns` is a `BTreeMap`, whose every node allocates eleven probes.
    /// A probe is its `PeerConn` (≤ 512 B, the parts only some stages
    /// hold boxed) and the log entry in progress: 656 B, where it was
    /// 2,256 B with the wire state inline.
    #[test]
    fn a_probe_stays_small_inline() {
        let size = std::mem::size_of::<Probe>();
        assert!(size <= 768, "Probe is {size} B inline");
    }
}
