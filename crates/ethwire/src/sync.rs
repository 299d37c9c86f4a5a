//! Blockchain synchronization drivers: **full sync** and the eth/63
//! **fast sync** the paper describes in §2.3.
//!
//! Full sync downloads headers + bodies and performs *blockchain state
//! validation* (sequentially executing every transaction) for the whole
//! chain. Fast sync picks a **pivot** close to the head, performs cheap
//! *block header validation* plus receipt retrieval up to the pivot,
//! downloads the state database at the pivot via GET_NODE_DATA, and only
//! fully validates from the pivot onward — "improving syncing times by
//! approximately an order of magnitude" (the paper's reference 54).
//!
//! The driver is sans-IO like the rest of the stack: it emits
//! [`EthMessage`] requests and consumes responses. Validation cost is
//! modeled in abstract *work units* so the full-vs-fast comparison is
//! measurable without executing a real EVM (DESIGN.md's substitution
//! rule), with the unit ratios taken from the paper's narrative: state
//! validation ≫ receipt checking > header checking.

use crate::messages::{BlockId, EthMessage};

/// Work units charged per block for each validation flavour. The absolute
/// numbers are arbitrary; the *ratios* encode "significantly more
/// computation and time" (§2.3).
mod work {
    /// Block header validation (parent hash, number, timestamp, difficulty,
    /// gas limit, PoW check).
    pub const HEADER_CHECK: u64 = 1;
    /// Receipt-based fast validation (gas consumption, logs, status).
    pub const RECEIPT_CHECK: u64 = 2;
    /// Full state validation: execute every transaction, update the state
    /// trie.
    pub const STATE_VALIDATION: u64 = 40;
    /// Downloading one state-trie chunk at the pivot.
    pub const STATE_CHUNK: u64 = 4;
}

/// Sync strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Validate everything from genesis.
    Full,
    /// Header-validate to a pivot, download state there, full-validate the
    /// tail (eth/63).
    Fast,
}

/// Where the driver is in its pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPhase {
    /// Downloading the header chain.
    Headers,
    /// Downloading block bodies.
    Bodies,
    /// (Fast only) downloading receipts up to the pivot.
    Receipts,
    /// (Fast only) downloading the pivot state via GET_NODE_DATA.
    StateDownload,
    /// Fully validating the post-pivot tail (fast) or everything (full).
    Validation,
    /// Synced.
    Done,
}

/// Cumulative effort bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Headers fetched.
    pub headers: u64,
    /// Bodies fetched.
    pub bodies: u64,
    /// Receipt sets fetched.
    pub receipts: u64,
    /// State chunks fetched.
    pub state_chunks: u64,
    /// Request messages emitted.
    pub requests: u64,
    /// Total validation + download work units spent.
    pub work_units: u64,
}

/// A synchronization run toward `target_head`.
#[derive(Debug)]
pub struct SyncDriver {
    mode: SyncMode,
    target_head: u64,
    pivot: u64,
    batch: u64,
    phase: SyncPhase,
    cursor: u64,
    state_chunks_left: u64,
    stats: SyncStats,
}

impl SyncDriver {
    /// Start a sync toward `target_head`. `batch` is the per-request item
    /// count (Geth uses 192 for headers); fast sync puts the pivot
    /// `pivot_distance` blocks before the head (Geth: 64).
    pub fn new(mode: SyncMode, target_head: u64, batch: u64, pivot_distance: u64) -> SyncDriver {
        let pivot = match mode {
            SyncMode::Full => 0,
            SyncMode::Fast => target_head.saturating_sub(pivot_distance),
        };
        // State size grows with chain height; model it coarsely as one
        // chunk per 10k blocks plus a base.
        let state_chunks_left = match mode {
            SyncMode::Full => 0,
            SyncMode::Fast => 16 + pivot / 10_000,
        };
        SyncDriver {
            mode,
            target_head,
            pivot,
            batch: batch.max(1),
            phase: SyncPhase::Headers,
            cursor: 0,
            state_chunks_left,
            stats: SyncStats::default(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> SyncPhase {
        self.phase
    }

    /// Whether the sync completed.
    pub fn is_done(&self) -> bool {
        self.phase == SyncPhase::Done
    }

    /// Effort so far.
    pub fn stats(&self) -> SyncStats {
        self.stats
    }

    /// The pivot block (0 for full sync).
    pub fn pivot(&self) -> u64 {
        self.pivot
    }

    /// Produce the next request to send, if any. One outstanding request
    /// at a time keeps the model simple; concurrency is the transport's
    /// business.
    pub fn next_request(&mut self) -> Option<EthMessage> {
        let req = match self.phase {
            SyncPhase::Headers => Some(EthMessage::GetBlockHeaders {
                start: BlockId::Number(self.cursor),
                max_headers: self.batch.min(self.target_head - self.cursor + 1),
                skip: 0,
                reverse: false,
            }),
            SyncPhase::Bodies => {
                let n = self.batch.min(self.target_head - self.cursor + 1) as usize;
                Some(EthMessage::GetBlockBodies(vec![[0u8; 32]; n]))
            }
            SyncPhase::Receipts => {
                let n = self.batch.min(self.pivot.saturating_sub(self.cursor) + 1) as usize;
                Some(EthMessage::GetReceipts(vec![[0u8; 32]; n.max(1)]))
            }
            SyncPhase::StateDownload => {
                let n = self.batch.min(self.state_chunks_left) as usize;
                Some(EthMessage::GetNodeData(vec![[0u8; 32]; n.max(1)]))
            }
            SyncPhase::Validation | SyncPhase::Done => None,
        };
        if req.is_some() {
            self.stats.requests += 1;
        }
        req
    }

    /// Consume a response; advances phases and charges work units.
    pub fn on_response(&mut self, msg: &EthMessage) {
        match (self.phase, msg) {
            (SyncPhase::Headers, EthMessage::BlockHeaders(headers)) => {
                self.stats.headers += headers.len() as u64;
                // Header validation happens as headers arrive, under both
                // modes (§2.3 block header validation).
                self.stats.work_units += headers.len() as u64 * work::HEADER_CHECK;
                self.cursor += headers.len() as u64;
                if self.cursor > self.target_head || headers.is_empty() {
                    self.cursor = 0;
                    self.phase = SyncPhase::Bodies;
                }
            }
            (SyncPhase::Bodies, EthMessage::BlockBodies(bodies)) => {
                self.stats.bodies += bodies.len() as u64;
                self.cursor += bodies.len() as u64;
                if self.cursor > self.target_head || bodies.is_empty() {
                    self.cursor = 0;
                    self.phase = match self.mode {
                        SyncMode::Full => SyncPhase::Validation,
                        SyncMode::Fast => SyncPhase::Receipts,
                    };
                }
            }
            (SyncPhase::Receipts, EthMessage::Receipts(receipts)) => {
                self.stats.receipts += receipts.len() as u64;
                self.stats.work_units += receipts.len() as u64 * work::RECEIPT_CHECK;
                self.cursor += receipts.len() as u64;
                if self.cursor >= self.pivot || receipts.is_empty() {
                    self.phase = SyncPhase::StateDownload;
                }
            }
            (SyncPhase::StateDownload, EthMessage::NodeData(chunks)) => {
                let got = (chunks.len() as u64).min(self.state_chunks_left);
                self.stats.state_chunks += got;
                self.stats.work_units += got * work::STATE_CHUNK;
                self.state_chunks_left -= got;
                if self.state_chunks_left == 0 {
                    self.phase = SyncPhase::Validation;
                }
            }
            _ => {}
        }
        if self.phase == SyncPhase::Validation {
            // Validation is local; charge it all at once and finish.
            let full_range = match self.mode {
                SyncMode::Full => self.target_head + 1,
                SyncMode::Fast => self.target_head - self.pivot + 1,
            };
            self.stats.work_units += full_range * work::STATE_VALIDATION;
            self.phase = SyncPhase::Done;
        }
    }

    /// Convenience: run the whole sync against a header-serving closure,
    /// returning the final stats. `serve` answers each request like a
    /// well-behaved peer.
    pub fn run_to_completion<F>(&mut self, mut serve: F) -> SyncStats
    where
        F: FnMut(&EthMessage) -> EthMessage,
    {
        let mut guard = 0;
        while !self.is_done() {
            guard += 1;
            assert!(guard < 1_000_000, "sync did not converge");
            match self.next_request() {
                Some(req) => {
                    let resp = serve(&req);
                    self.on_response(&resp);
                }
                None => break,
            }
        }
        self.stats
    }
}

/// A well-behaved serving peer for [`SyncDriver::run_to_completion`],
/// backed by a [`crate::chain::Chain`].
pub fn serve_from_chain(chain: &crate::chain::Chain, req: &EthMessage) -> EthMessage {
    match req {
        EthMessage::GetBlockHeaders {
            start,
            max_headers,
            skip,
            reverse,
        } => {
            let start_num = match start {
                BlockId::Number(n) => *n,
                BlockId::Hash(_) => chain.head,
            };
            EthMessage::BlockHeaders(chain.headers(
                start_num,
                *max_headers as usize,
                *skip,
                *reverse,
            ))
        }
        EthMessage::GetBlockBodies(hashes) => {
            EthMessage::BlockBodies(vec![vec![0u8; 128]; hashes.len()])
        }
        EthMessage::GetReceipts(hashes) => EthMessage::Receipts(vec![vec![0u8; 64]; hashes.len()]),
        EthMessage::GetNodeData(hashes) => EthMessage::NodeData(vec![vec![0u8; 256]; hashes.len()]),
        other => EthMessage::BlockHeaders(Vec::new()).clone_if_needed(other),
    }
}

impl EthMessage {
    // Tiny helper so serve_from_chain stays total without panicking on
    // unexpected requests.
    fn clone_if_needed(self, _other: &EthMessage) -> EthMessage {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{BlockHeader, Chain, ChainConfig};

    fn run(mode: SyncMode, head: u64) -> SyncStats {
        let chain = Chain::new(ChainConfig::mainnet(), head);
        let mut driver = SyncDriver::new(mode, head, 192, 64);
        driver.run_to_completion(|req| serve_from_chain(&chain, req))
    }

    #[test]
    fn full_sync_completes_and_counts() {
        let stats = run(SyncMode::Full, 5_000);
        assert_eq!(stats.headers, 5_001);
        assert_eq!(stats.bodies, 5_001);
        assert_eq!(stats.receipts, 0);
        assert_eq!(stats.state_chunks, 0);
        // all blocks fully validated
        assert!(stats.work_units >= 5_001 * work::STATE_VALIDATION);
    }

    #[test]
    fn fast_sync_completes_with_pivot() {
        let head = 5_000;
        let chain = Chain::new(ChainConfig::mainnet(), head);
        let mut driver = SyncDriver::new(SyncMode::Fast, head, 192, 64);
        assert_eq!(driver.pivot(), head - 64);
        let stats = driver.run_to_completion(|req| serve_from_chain(&chain, req));
        assert!(driver.is_done());
        assert_eq!(stats.headers, head + 1);
        assert!(stats.receipts > 0, "fast sync fetches receipts");
        assert!(stats.state_chunks > 0, "fast sync downloads pivot state");
    }

    #[test]
    fn fast_sync_is_order_of_magnitude_cheaper() {
        // The §2.3 claim: fast sync improves syncing (validation work) by
        // roughly an order of magnitude on a long chain.
        let head = 200_000;
        let full = run(SyncMode::Full, head);
        let fast = run(SyncMode::Fast, head);
        let ratio = full.work_units as f64 / fast.work_units as f64;
        assert!(
            ratio > 8.0,
            "expected ≈10x, got {ratio:.1} (full {} vs fast {})",
            full.work_units,
            fast.work_units
        );
    }

    #[test]
    fn phases_progress_in_order() {
        let head = 1_000;
        let chain = Chain::new(ChainConfig::mainnet(), head);
        let mut driver = SyncDriver::new(SyncMode::Fast, head, 100, 64);
        let mut seen = vec![driver.phase()];
        while !driver.is_done() {
            let req = driver.next_request().expect("request while not done");
            let resp = serve_from_chain(&chain, &req);
            driver.on_response(&resp);
            if seen.last() != Some(&driver.phase()) {
                seen.push(driver.phase());
            }
        }
        assert_eq!(
            seen,
            vec![
                SyncPhase::Headers,
                SyncPhase::Bodies,
                SyncPhase::Receipts,
                SyncPhase::StateDownload,
                SyncPhase::Done
            ]
        );
    }

    /// Whether `headers` is the contiguous run the initial download
    /// (§2.3) asks for.
    fn headers_contiguous(headers: &[BlockHeader]) -> bool {
        headers.windows(2).all(|w| w[1].number == w[0].number + 1)
    }

    #[test]
    fn contiguity_check() {
        let chain = Chain::new(ChainConfig::mainnet(), 100);
        let hs = chain.headers(5, 10, 0, false);
        assert!(headers_contiguous(&hs));
        let gappy = chain.headers(5, 10, 1, false);
        assert!(!headers_contiguous(&gappy));
    }

    #[test]
    fn empty_response_terminates_headers_phase() {
        let mut driver = SyncDriver::new(SyncMode::Full, 1_000, 100, 0);
        let _ = driver.next_request();
        driver.on_response(&EthMessage::BlockHeaders(Vec::new()));
        assert_eq!(driver.phase(), SyncPhase::Bodies);
    }
}
