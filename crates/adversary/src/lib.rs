//! Byzantine peers for the deterministic simulator.
//!
//! The paper's NodeFinder ran against the live Ethereum network, where the
//! overwhelming majority of discovered endpoints never complete a
//! handshake, stall mid-session, or speak the wrong protocol (§4.2). This
//! crate reproduces those populations as [`netsim::Host`] implementations
//! so the crawler's degradation behaviour is testable offline:
//!
//! * [`SlowLoris`] — answers the RLPx `auth` with a valid `ack`, then
//!   stalls forever (the crawler's HELLO stage must time out);
//! * [`GarbageHello`] — completes the RLPx handshake, then sends a framed
//!   garbage HELLO (exercises `devp2p::session` error paths);
//! * [`WrongGenesis`] — full honest handshake + HELLO, but its eth STATUS
//!   carries a bogus genesis hash (the paper's "other Ethereum network"
//!   population, §5.1);
//! * [`Tarpit`] — answers discv4 FINDNODE with floods of fake neighbours
//!   (discovery-layer pollution: thousands of dialable-but-dead records);
//! * [`ResetAfterN`] — accepts TCP, then closes abortively once N bytes
//!   have arrived (mid-handshake connection resets).
//!
//! Every behaviour announces itself via `disc::Announcer`, a minimal
//! discv4 responder that bonds with bootstrap nodes so crawlers actually
//! find the adversary. All randomness comes from `Ctx::rng`; nothing here
//! reads a wall clock, so adversarial worlds stay byte-reproducible.
#![forbid(unsafe_code)]

mod disc;
mod hosts;

pub use hosts::{GarbageHello, ResetAfterN, SlowLoris, Tarpit, WrongGenesis};
