//! Kademlia-style routing for RLPx node discovery.
//!
//! RLPx adapts Kademlia (Maymounkov & Mazières 2002) for node discovery
//! only (no data storage). The differences the paper highlights (§2.1):
//!
//! 1. no store/retrieve — discovery and routing only;
//! 2. 512-bit node IDs (secp256k1 public keys) instead of 160-bit;
//! 3. IDs double as public keys for the encrypted TCP transport;
//! 4. XOR distance is computed over the **Keccak-256 hash** of the ID;
//! 5. the metric is `⌊log₂(hash(a) ⊕ hash(b))⌋`, giving **257** buckets.
//!
//! This crate implements the routing table, the iterative FIND_NODE lookup,
//! and — crucially for reproducing §6.3 — **both** log-distance metrics
//! found in the wild:
//!
//! * [`Metric::GethLog2`] — the correct `⌊log₂⌋` of the 256-bit XOR;
//! * [`Metric::ParityByteSum`] — Parity's incorrect per-byte bit-length sum
//!   (Appendix A of the paper), which concentrates all random pairs into a
//!   narrow band of "distances" and cripples its usefulness for routing.
#![forbid(unsafe_code)]

mod distance;
mod lookup;
mod table;

pub use distance::{
    log_distance_geth, log_distance_parity, metrics_agree, xor_cmp, Metric, MAX_BUCKETS,
};
pub use lookup::{Lookup, LookupStatus};
pub use table::{AddOutcome, RoutingTable, TableEntries, BUCKET_SIZE};
