//! A deterministic discrete-event network simulator.
//!
//! This crate substitutes for the live Internet in the NodeFinder
//! reproduction (see DESIGN.md). It models:
//!
//! * **UDP datagrams** with per-pair latency, random loss, and NAT
//!   filtering (unreachable hosts receive only solicited traffic);
//! * **TCP connections** with a 1-RTT establishment handshake, ordered
//!   delivery, close events, and an observable smoothed RTT (the paper's
//!   crawler logs connection latency from the socket's sRTT);
//! * **host lifecycle** — churn is expressed by starting/stopping hosts on
//!   a schedule;
//! * **fault injection** — per-link fault windows (burst loss, latency
//!   spikes, blackholes, TCP resets, truncation/corruption), churn bursts,
//!   and NAT flaps, all deterministic (see [`faults`]);
//! * **geography** — every host carries a country/AS label and a region
//!   used by the latency matrix, feeding the paper's Figures 12–13.
//!
//! Determinism: per-host RNG streams derived from one seed, one event
//! queue totally ordered by (time, per-origin key), and no wall-clock
//! access anywhere. Running the same world twice produces identical logs.
//!
//! The design is event-driven in the smoltcp spirit: protocol state
//! machines (discv4, RLPx, DEVp2p) stay sans-IO, and a [`Host`]
//! implementation pumps bytes between them and the simulator.
#![forbid(unsafe_code)]

mod engine;
pub mod faults;
pub mod sched;
mod topology;

pub use engine::{
    ConnId, Ctx, Host, HostAddr, HostId, NetSim, Payload, SimConfig, TcpCounters, TcpEvent,
    SNAP_MAGIC, SNAP_VERSION,
};
pub use faults::{ChurnBurst, Fault, FaultSchedule, FaultWindow, LinkSelector, NatFlap, Scenario};
// The one snapshot codec lives in `obs::snap`; re-exported so host
// crates that implement `Host::save_state` need no direct `obs` edge.
pub use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};
pub use obs::{snap_enum, snap_struct};
pub use topology::{latency_between, HostMeta, Region, COUNTRIES, REGION_OF_COUNTRY};
