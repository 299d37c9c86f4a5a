//! World-scoped `NodeId` interning.
//!
//! The crawler's universe is millions of observed node IDs, each 64 bytes.
//! Keying per-host tables by the full ID makes every map probe a 64-byte
//! memcmp chain; interning replaces those keys with a dense [`CompactId`]
//! (`u32`) assigned in **insertion order**, so two worlds that observe the
//! same IDs in the same order assign the same compact ids — interning is
//! deterministic by construction.
//!
//! Boundary rule: **wire and exports never see compact ids.** A compact id
//! is an in-memory index; every serialization boundary (DataStore JSON, obs
//! trace, result CSVs, RLP packets) resolves it back to the full [`NodeId`]
//! via [`Interner::resolve`]. Kad XOR distance likewise operates on the
//! full ID's keccak hash, never on the compact id.
//!
//! The reverse lookup (NodeId → CompactId) is an open-addressing table over
//! an 8-byte fingerprint of the ID. It is probed, never iterated, so its
//! layout cannot leak into event ordering or serialized output.

use crate::NodeId;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Dense world-scoped index of an interned [`NodeId`]: the n-th distinct ID
/// handed to [`Interner::intern`] gets `CompactId(n)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CompactId(u32);

impl CompactId {
    /// The value as a `Vec` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slot marker for an empty probe slot.
const EMPTY: u32 = u32::MAX;

/// Append-only intern table: `NodeId` ↔ `CompactId`, ids assigned in
/// insertion order. Never shrinks; dropping the interner drops the world's
/// whole ID universe at once.
#[derive(Debug, Clone)]
pub struct Interner {
    /// CompactId → full NodeId, in insertion order.
    ids: Vec<NodeId>,
    /// Open-addressing probe table holding compact ids; `EMPTY` = free.
    /// Power-of-two length, probed linearly, never iterated.
    slots: Vec<u32>,
}

/// Mix the ID bytes into a 64-bit probe hash. Node IDs are public keys —
/// near-uniform already — but the splitmix64 finalizer also spreads the
/// structured constants tests use (`[7u8; 64]` and friends).
fn probe_hash(id: &NodeId) -> u64 {
    let mut x = 0u64;
    for chunk in id.0.chunks_exact(8) {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        x ^= u64::from_le_bytes(word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = x.rotate_left(23);
    }
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// An empty table. The probe table starts small and doubles on load.
    pub fn new() -> Interner {
        Interner {
            ids: Vec::new(),
            slots: vec![EMPTY; 16],
        }
    }

    /// Number of distinct IDs interned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Intern `id`, returning its compact id; a new ID gets the next rank.
    // One probe per discovered record on the crawl path.
    pub fn intern(&mut self, id: &NodeId) -> CompactId {
        let mask = self.slots.len() - 1;
        let mut slot = (probe_hash(id) as usize) & mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                let rank = self.ids.len() as u32;
                debug_assert!(rank != EMPTY, "interner full");
                self.ids.push(*id);
                self.slots[slot] = rank;
                if (self.ids.len() + 1) * 4 > self.slots.len() * 3 {
                    self.grow();
                }
                return CompactId(rank);
            }
            if self.ids[entry as usize] == *id {
                return CompactId(entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Look up `id` without inserting.
    // Probe-only lookup on the dispatch path.
    pub fn get(&self, id: &NodeId) -> Option<CompactId> {
        let mask = self.slots.len() - 1;
        let mut slot = (probe_hash(id) as usize) & mask;
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return None;
            }
            if self.ids[entry as usize] == *id {
                return Some(CompactId(entry));
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The full ID behind a compact id. Panics on an id from a different
    /// interner (index out of range) — compact ids are world-scoped.
    // One indexed load per export/wire resolution.
    pub fn resolve(&self, id: CompactId) -> &NodeId {
        &self.ids[id.index()]
    }

    /// Cold: double the probe table and re-seat every id.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![EMPTY; new_len];
        for (rank, id) in self.ids.iter().enumerate() {
            let mut slot = (probe_hash(id) as usize) & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = rank as u32;
        }
        self.slots = slots;
    }

    /// Approximate owned heap bytes (intern vector + probe table), for the
    /// benchmark memory proxy.
    pub fn approx_heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

/// Image: the ids in compact-id order, so re-interning them in that
/// order reproduces every `CompactId` and the tables keyed by them can be
/// restored by index.
impl Snap for Interner {
    fn snap(&self, w: &mut SnapWriter) {
        self.ids.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Interner, SnapError> {
        let mut out = Interner::new();
        for rank in 0..r.usize()? {
            if out.intern(&NodeId::unsnap(r)?).index() != rank {
                return Err(SnapError::Corrupt("intern table repeats an id"));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(tag: u8) -> NodeId {
        let mut bytes = [0u8; 64];
        bytes[0] = tag;
        bytes[63] = tag.wrapping_mul(31);
        NodeId(bytes)
    }

    #[test]
    fn ids_are_insertion_order() {
        let mut interner = Interner::new();
        for tag in 0..10u8 {
            let cid = interner.intern(&nid(tag));
            assert_eq!(cid.index(), tag as usize);
        }
        assert_eq!(interner.len(), 10);
    }

    #[test]
    fn reintern_is_idempotent() {
        let mut interner = Interner::new();
        let a = interner.intern(&nid(1));
        let b = interner.intern(&nid(2));
        assert_eq!(interner.intern(&nid(1)), a);
        assert_eq!(interner.intern(&nid(2)), b);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut interner = Interner::new();
        for tag in 0..100u8 {
            let cid = interner.intern(&nid(tag));
            assert_eq!(*interner.resolve(cid), nid(tag));
        }
    }

    #[test]
    fn get_does_not_insert() {
        let mut interner = Interner::new();
        assert_eq!(interner.get(&nid(5)), None);
        let cid = interner.intern(&nid(5));
        assert_eq!(interner.get(&nid(5)), Some(cid));
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut interner = Interner::new();
        let mut cids = Vec::new();
        for i in 0..5000u32 {
            let mut bytes = [0u8; 64];
            bytes[..4].copy_from_slice(&i.to_le_bytes());
            cids.push(interner.intern(&NodeId(bytes)));
        }
        for (i, cid) in cids.iter().enumerate() {
            assert_eq!(cid.index(), i);
            let mut bytes = [0u8; 64];
            bytes[..4].copy_from_slice(&(i as u32).to_le_bytes());
            assert_eq!(*interner.resolve(*cid), NodeId(bytes));
        }
    }

    #[test]
    fn two_fresh_worlds_assign_identical_ids() {
        let build = || {
            let mut interner = Interner::new();
            let order = [3u8, 1, 4, 1, 5, 9, 2, 6, 5, 3];
            order
                .iter()
                .map(|&tag| interner.intern(&nid(tag)).index())
                .collect::<Vec<usize>>()
        };
        assert_eq!(build(), build());
    }
}
