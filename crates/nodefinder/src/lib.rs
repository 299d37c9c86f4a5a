//! **NodeFinder** — the measurement crawler from *Measuring Ethereum
//! Network Peers* (IMC 2018), §4.
//!
//! NodeFinder is a modified Ethereum client that trades blockchain syncing
//! for coverage:
//!
//! 1. **No peer limit.** It continuously discovers and accepts every
//!    connection, never sending `Too many peers`.
//! 2. **Probe, then hang up.** A connection lives exactly long enough to
//!    collect the DEVp2p HELLO, the Ethereum STATUS, and the DAO-fork
//!    check (one `GET_BLOCK_HEADERS` for block 1,920,000) — at most three
//!    message exchanges — then disconnects to free the peer's slot.
//! 3. **Static re-dials.** Every node that ever answered a dynamic dial
//!    joins a StaticNodes list re-dialed on a fixed interval (30 minutes
//!    in the paper) to track liveness and churn; stale addresses (no
//!    successful TCP in 24h) are dropped.
//! 4. **Structured logging.** Every connection logs timestamp, node id,
//!    ip/port, connection type (dynamic/static/incoming), socket sRTT,
//!    duration, and the decoded HELLO/STATUS/DISCONNECT payloads.
//! 5. **Degradation hardening.** Per-stage handshake timeouts classify
//!    every failure ([`log::FailureClass`]), and failing endpoints get
//!    capped exponential backoff plus a penalty box ([`PenaltyBox`]) so
//!    the mostly-unresponsive live population (§4.2) can't starve the
//!    dial scheduler.
//!
//! [`fn@sanitize`] implements §5.4's five-step filter that strips
//! abusive node-ID spammers from the dataset.
//!
//! Since the pipeline refactor the crawl is organized as five explicit
//! stages — discover → dial → handshake → status → ingest ([`Stage`]) —
//! with the live sessions owned by `session::SessionManager` and full
//! checkpoint/restore (the `NFND` snapshot section) in `checkpoint`:
//! a run snapshotted at T and resumed produces byte-identical artifacts
//! to one that never stopped.
#![forbid(unsafe_code)]

mod backoff;
mod checkpoint;
mod crawler;
mod datastore;
mod log;
mod sanitize;
mod session;
mod stages;

pub use backoff::{BackoffPolicy, PenaltyBox};
pub use crawler::{CrawlerConfig, NodeFinder};
pub use datastore::DataStore;
pub use log::{
    ConnLog, ConnOutcome, ConnType, CrawlLog, DialEvent, DialEventKind, FailureClass, HelloInfo,
    StatusInfo,
};
pub use sanitize::{sanitize, SanitizeParams, SanitizeReport};
pub use stages::Stage;
