//! Live probe/session ownership and dial-slot accounting.
//!
//! Everything with an open socket lives here: the [`SessionManager`]
//! owns the probe table (one `Probe` per TCP connection, keyed by its
//! `ConnId`), the dynamic dial-slot count that the
//! scheduler budgets against, and the penalty box that decides when a
//! failing endpoint may be dialed again.
//!
//! Centralizing the accounting closes a real bug: the dial-slot count
//! used to be decremented with `saturating_sub`, so a double decrement —
//! say a probe finalized twice on two different code paths — would
//! silently clamp at zero and quietly *raise* effective dial concurrency
//! above `max_active_dials` forever after. [`SessionManager::end_dial`]
//! is now the only decrement site and it is checked: an underflow is
//! counted, exported as the `crawler.dialing_underflow` obs counter, and
//! asserted zero by the tier-1 determinism suites.

use crate::backoff::{BackoffPolicy, PenaltyBox};
use crate::log::{ConnLog, ConnType};
use ethcrypto::secp256k1::SecretKey;
use ethpop::PeerConn;
use netsim::ConnId;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;

/// One in-flight probe: the protocol connection plus the log entry being
/// accumulated for it.
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

/// Owner of all live sessions: probe table, dial slots, penalty box.
pub struct SessionManager {
    pub(crate) conns: BTreeMap<ConnId, Probe>,
    pub(crate) penalty: PenaltyBox,
    dialing: usize,
    underflows: u64,
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("conns", &self.conns.len())
            .field("dialing", &self.dialing)
            .field("underflows", &self.underflows)
            .field("penalty_tracked", &self.penalty.tracked())
            .finish()
    }
}

impl SessionManager {
    /// An empty manager with a penalty box built from the crawler's
    /// backoff policy.
    pub fn new(policy: BackoffPolicy, threshold: u32, box_ms: u64) -> SessionManager {
        SessionManager {
            conns: BTreeMap::new(),
            penalty: PenaltyBox::new(policy, threshold, box_ms),
            dialing: 0,
            underflows: 0,
        }
    }

    /// Claim a dynamic dial slot.
    pub fn begin_dial(&mut self) {
        self.dialing += 1;
    }

    /// Release a dynamic dial slot — checked. An underflow (more releases
    /// than claims) is counted and exported instead of silently clamped,
    /// so a double-finalize bug shows up in every artifact rather than as
    /// a slow concurrency leak.
    pub fn end_dial(&mut self) {
        match self.dialing.checked_sub(1) {
            Some(d) => self.dialing = d,
            None => {
                self.underflows += 1;
                obs::counter_add("crawler.dialing_underflow", 1);
            }
        }
    }

    /// Dynamic dials currently in flight.
    pub fn dialing(&self) -> usize {
        self.dialing
    }

    /// How many dial-slot releases found no slot to release (monotone;
    /// zero in a correct crawler).
    pub fn dialing_underflows(&self) -> u64 {
        self.underflows
    }

    /// Open sessions (live probes).
    pub fn open_conns(&self) -> usize {
        self.conns.len()
    }

    /// Overwrite the slot/underflow counters from a checkpoint.
    pub(crate) fn restore_counters(&mut self, dialing: usize, underflows: u64) {
        self.dialing = dialing;
        self.underflows = underflows;
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

    #[test]
    fn end_dial_underflow_is_counted_not_clamped() {
        let mut s = SessionManager::new(BackoffPolicy::default(), 4, 600_000);
        s.begin_dial();
        s.begin_dial();
        s.end_dial();
        s.end_dial();
        assert_eq!(s.dialing(), 0);
        assert_eq!(s.dialing_underflows(), 0, "balanced pairs are clean");
        s.end_dial();
        assert_eq!(s.dialing(), 0, "count stays at zero");
        assert_eq!(s.dialing_underflows(), 1, "but the underflow is visible");
        s.begin_dial();
        assert_eq!(s.dialing(), 1, "later accounting is unaffected");
    }

    #[test]
    fn restore_counters_round_trip() {
        let mut s = SessionManager::new(BackoffPolicy::default(), 4, 600_000);
        s.restore_counters(3, 1);
        assert_eq!(s.dialing(), 3);
        assert_eq!(s.dialing_underflows(), 1);
    }
}
