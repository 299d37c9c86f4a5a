//! The golden-vector case registries, one module per wire layer.
//!
//! Every case is a pure function of compile-time constants (fixed keys,
//! fixed seeds, RFC 6979 deterministic signing), so the registries build
//! byte-identical vectors on every run — which is what makes the
//! `CONFORMANCE_BLESS=1` regeneration path trustworthy.

mod devp2p_vectors;
mod discv4_vectors;
mod rlp_vectors;
mod rlpx_vectors;

use crate::Case;

/// One wire layer: its vector-file stem, the provenance header written at
/// the top of the file, and the case registry.
#[derive(Debug)]
pub struct Layer {
    /// File stem under `vectors/` (e.g. `rlp` → `vectors/rlp.txt`).
    pub name: &'static str,
    /// Provenance comment rendered at the top of the vector file.
    pub header: &'static str,
    /// The case registry.
    pub build: fn() -> Vec<Case>,
}

/// All layers, in stack order (serialization → discovery → transport →
/// session).
pub fn layers() -> Vec<Layer> {
    vec![
        Layer {
            name: "rlp",
            header: rlp_vectors::HEADER,
            build: rlp_vectors::cases,
        },
        Layer {
            name: "discv4",
            header: discv4_vectors::HEADER,
            build: discv4_vectors::cases,
        },
        Layer {
            name: "rlpx",
            header: rlpx_vectors::HEADER,
            build: rlpx_vectors::cases,
        },
        Layer {
            name: "devp2p",
            header: devp2p_vectors::HEADER,
            build: devp2p_vectors::cases,
        },
    ]
}
