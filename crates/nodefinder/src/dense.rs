//! Dense compact-id-indexed tables for the crawler hot path.
//!
//! The crawler used to key its per-node state (`seen`, `static_nodes`, the
//! penalty box) by the full 64-byte [`NodeId`], so every probe walked a
//! BTreeMap doing 64-byte memcmp chains. With world-scoped interning
//! ([`enode::Interner`]) every id becomes a dense [`CompactId`] (`u32`),
//! and membership/lookup collapses to one or two indexed loads.
//!
//! Three layouts live here:
//!
//! - [`DenseMap`]: `CompactId → V` via a slot vector (4 bytes per interned
//!   id in the world) indirecting into packed storage (one cell per *live*
//!   entry). Packed order is operation-order, **not** key order — callers
//!   must never let it leak into exports.
//! - [`OrderedDenseMap`]: a [`DenseMap`] plus a NodeId-sorted index, for
//!   call sites whose iteration order is observable (static re-dial scans,
//!   penalty-box retry handout). Iterating [`OrderedDenseMap::iter_ordered`]
//!   reproduces `BTreeMap<NodeId, V>` order exactly.
//! - [`ConnTable`]: a generation-checked slab keyed by netsim's packed
//!   `ConnId` (`generation << 32 | idx`); [`ConnTable::ids_sorted`]
//!   reproduces `BTreeMap<ConnId, V>` order for the sweep/flush scans.
//!
//! Plus two trivial dense sets: [`SeenTable`] (last-sighting stamps) and
//! [`IdSet`] (queued-for-dial membership).
//!
//! Boundary rule (see `enode::intern`): compact ids are in-memory only;
//! everything serialized resolves back to the full [`NodeId`].

use enode::{CompactId, NodeId};
use netsim::ConnId;
use obs::snap::{Snap, SnapError, SnapReader, SnapWriter};

/// Slot sentinel: no entry for this compact id.
const EMPTY: u32 = u32::MAX;

/// Values orderable by the node id they track; lets [`OrderedDenseMap`]
/// keep its NodeId-sorted index without a reference to the interner.
pub trait KeyedById {
    /// The full node id this value belongs to.
    fn node_id(&self) -> &NodeId;
}

/// `CompactId → V`: a slot vector indexed by compact id pointing into
/// packed `(cid, value)` storage. O(1) everything; packed iteration order
/// is operation order (deterministic, but not key order).
#[derive(Debug, Clone, Default)]
pub struct DenseMap<V> {
    /// cid → index into `packed`; `EMPTY` = absent. Grows with the world's
    /// interned universe (4 bytes per interned id).
    slots: Vec<u32>,
    /// Live entries, swap-removed on delete.
    packed: Vec<(u32, V)>,
}

impl<V> DenseMap<V> {
    /// An empty map.
    pub fn new() -> DenseMap<V> {
        DenseMap {
            slots: Vec::new(),
            packed: Vec::new(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Whether `cid` has an entry.
    // Membership probe per discovery sighting.
    pub fn contains(&self, cid: CompactId) -> bool {
        self.slots
            .get(cid.index())
            .is_some_and(|&slot| slot != EMPTY)
    }

    /// Borrow the entry for `cid`.
    // Two indexed loads per lookup.
    pub fn get(&self, cid: CompactId) -> Option<&V> {
        let slot = *self.slots.get(cid.index())?;
        if slot == EMPTY {
            return None;
        }
        Some(&self.packed[slot as usize].1)
    }

    /// Mutably borrow the entry for `cid`.
    // Two indexed loads per lookup.
    pub fn get_mut(&mut self, cid: CompactId) -> Option<&mut V> {
        let slot = *self.slots.get(cid.index())?;
        if slot == EMPTY {
            return None;
        }
        Some(&mut self.packed[slot as usize].1)
    }

    /// Insert or replace, returning the previous value if any.
    pub fn insert(&mut self, cid: CompactId, value: V) -> Option<V> {
        if self.slots.len() <= cid.index() {
            self.slots.resize(cid.index() + 1, EMPTY);
        }
        let slot = self.slots[cid.index()];
        if slot != EMPTY {
            return Some(std::mem::replace(&mut self.packed[slot as usize].1, value));
        }
        self.slots[cid.index()] = self.packed.len() as u32;
        self.packed.push((cid.as_u32(), value));
        None
    }

    /// Remove the entry for `cid`, if present.
    pub fn remove(&mut self, cid: CompactId) -> Option<V> {
        let slot = *self.slots.get(cid.index())?;
        if slot == EMPTY {
            return None;
        }
        self.slots[cid.index()] = EMPTY;
        let (_, value) = self.packed.swap_remove(slot as usize);
        if let Some(&(moved_cid, _)) = self.packed.get(slot as usize) {
            self.slots[moved_cid as usize] = slot;
        }
        Some(value)
    }

    /// Iterate live values in **packed (operation) order** — never let
    /// this order reach an export; use [`OrderedDenseMap`] there.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.packed.iter().map(|(_, v)| v)
    }

    /// Approximate owned heap bytes, for the benchmark memory proxy.
    pub fn approx_heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
            + self.packed.capacity() * std::mem::size_of::<(u32, V)>()
    }
}

/// A [`DenseMap`] plus a NodeId-sorted index of live compact ids, for
/// call sites whose iteration order is observable in exports. Insert and
/// remove pay a binary search + memmove; lookups stay O(1).
#[derive(Debug, Clone, Default)]
pub struct OrderedDenseMap<V> {
    map: DenseMap<V>,
    /// Live cids sorted by their full `NodeId` — exactly the order a
    /// `BTreeMap<NodeId, V>` would iterate in.
    order: Vec<u32>,
}

impl<V: KeyedById> OrderedDenseMap<V> {
    /// An empty map.
    pub fn new() -> OrderedDenseMap<V> {
        OrderedDenseMap {
            map: DenseMap::new(),
            order: Vec::new(),
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether `cid` has an entry.
    pub fn contains(&self, cid: CompactId) -> bool {
        self.map.contains(cid)
    }

    /// Borrow the entry for `cid`.
    pub fn get(&self, cid: CompactId) -> Option<&V> {
        self.map.get(cid)
    }

    /// Mutably borrow the entry for `cid`.
    pub fn get_mut(&mut self, cid: CompactId) -> Option<&mut V> {
        self.map.get_mut(cid)
    }

    /// Insert or replace. A replacement keeps the existing order slot (the
    /// node id of a compact id never changes).
    pub fn insert(&mut self, cid: CompactId, value: V) -> Option<V> {
        let id = *value.node_id();
        let prev = self.map.insert(cid, value);
        if prev.is_none() {
            let pos = self
                .order
                .binary_search_by(|&c| {
                    self.map
                        .get(CompactId::from_u32(c))
                        .expect("ordered cid is live")
                        .node_id()
                        .cmp(&id)
                })
                .unwrap_err();
            self.order.insert(pos, cid.as_u32());
        }
        prev
    }

    /// Remove the entry for `cid`, if present.
    pub fn remove(&mut self, cid: CompactId) -> Option<V> {
        let value = self.map.remove(cid)?;
        let pos = self
            .order
            .binary_search_by(|&c| {
                if c == cid.as_u32() {
                    std::cmp::Ordering::Equal
                } else {
                    self.map
                        .get(CompactId::from_u32(c))
                        .expect("ordered cid is live")
                        .node_id()
                        .cmp(value.node_id())
                }
            })
            .expect("removed cid was ordered");
        self.order.remove(pos);
        Some(value)
    }

    /// The i-th live cid in NodeId order (for mutate-while-iterating
    /// loops that can't hold `iter_ordered`'s borrow).
    pub fn cid_at(&self, i: usize) -> CompactId {
        CompactId::from_u32(self.order[i])
    }

    /// Iterate `(cid, value)` in **NodeId order** — byte-identical to the
    /// `BTreeMap<NodeId, V>` iteration it replaces.
    pub fn iter_ordered(&self) -> impl Iterator<Item = (CompactId, &V)> {
        self.order.iter().map(move |&c| {
            let cid = CompactId::from_u32(c);
            (cid, self.map.get(cid).expect("ordered cid is live"))
        })
    }

    /// Iterate live values in packed (operation) order; for order-free
    /// aggregation only.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values()
    }

    /// Approximate owned heap bytes, for the benchmark memory proxy.
    pub fn approx_heap_bytes(&self) -> usize {
        self.map.approx_heap_bytes() + self.order.capacity() * std::mem::size_of::<u32>()
    }
}

/// Last-sighting timestamp per compact id — the crawler's `seen` set.
/// Dense `u64` per interned id; nearly every interned id is sighted, so
/// the sentinel slack is small.
#[derive(Debug, Clone, Default)]
pub struct SeenTable {
    /// cid → last sighting, ms; `u64::MAX` = never seen.
    stamps: Vec<u64>,
    len: usize,
}

impl SeenTable {
    /// An empty table.
    pub fn new() -> SeenTable {
        SeenTable {
            stamps: Vec::new(),
            len: 0,
        }
    }

    /// Distinct ids ever noted.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record a sighting of `cid` at `now_ms` (keeps the latest stamp,
    /// like the `BTreeMap::insert` it replaces).
    // One indexed store per discovery sighting.
    pub fn note(&mut self, cid: CompactId, now_ms: u64) {
        if self.stamps.len() <= cid.index() {
            self.stamps.resize(cid.index() + 1, u64::MAX);
        }
        if self.stamps[cid.index()] == u64::MAX {
            self.len += 1;
        }
        self.stamps[cid.index()] = now_ms;
    }

    /// The last sighting of `cid`, if any.
    pub fn get(&self, cid: CompactId) -> Option<u64> {
        self.stamps
            .get(cid.index())
            .copied()
            .filter(|&ts| ts != u64::MAX)
    }

    /// How many noted ids were seen within `window_ms` of `now_ms`
    /// (the fresh/stale campaign gauge).
    pub fn fresh(&self, now_ms: u64, window_ms: u64) -> usize {
        self.stamps
            .iter()
            .filter(|&&ts| ts != u64::MAX && now_ms.saturating_sub(ts) <= window_ms)
            .count()
    }

    /// Approximate owned heap bytes, for the benchmark memory proxy.
    pub fn approx_heap_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u64>()
    }
}

/// Image: the dense stamp vector (`u64::MAX` = never seen; index =
/// compact id); the live count is derived.
impl Snap for SeenTable {
    fn snap(&self, w: &mut SnapWriter) {
        self.stamps.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<SeenTable, SnapError> {
        let stamps = Vec::<u64>::unsnap(r)?;
        let len = stamps.iter().filter(|&&ts| ts != u64::MAX).count();
        Ok(SeenTable { stamps, len })
    }
}

/// Dense membership set over compact ids — the crawler's queued-for-dial
/// guard. One byte per interned id; probed, never iterated.
#[derive(Debug, Clone, Default)]
pub struct IdSet {
    bits: Vec<bool>,
}

impl IdSet {
    /// An empty set.
    pub fn new() -> IdSet {
        IdSet { bits: Vec::new() }
    }

    /// Insert `cid`; returns `true` if it was not already present
    /// (mirrors `BTreeSet::insert`).
    // One indexed load+store per enqueue check.
    pub fn insert(&mut self, cid: CompactId) -> bool {
        if self.bits.len() <= cid.index() {
            self.bits.resize(cid.index() + 1, false);
        }
        !std::mem::replace(&mut self.bits[cid.index()], true)
    }

    /// Remove `cid`; returns `true` if it was present.
    // One indexed store per dequeue.
    pub fn remove(&mut self, cid: CompactId) -> bool {
        self.bits
            .get_mut(cid.index())
            .is_some_and(|b| std::mem::replace(b, false))
    }

    /// Whether `cid` is present.
    pub fn contains(&self, cid: CompactId) -> bool {
        self.bits.get(cid.index()).copied().unwrap_or(false)
    }

    /// Approximate owned heap bytes, for the benchmark memory proxy.
    pub fn approx_heap_bytes(&self) -> usize {
        self.bits.capacity()
    }
}

obs::snap_struct!(IdSet { bits });

/// How netsim packs a [`ConnId`]: low 32 bits are the slab index (recycled
/// across connections), high bits the generation.
const CONN_IDX_MASK: usize = (1 << 32) - 1;

/// The [`ConnTable`] cell `conn` lives in.
pub(crate) fn conn_index(conn: ConnId) -> usize {
    conn & CONN_IDX_MASK
}

/// Generation-checked slab keyed by netsim's packed [`ConnId`] — the
/// crawler's live-probe table. A cell holds the *full* ConnId it was
/// inserted under, so a stale id from a recycled cell misses instead of
/// aliasing.
#[derive(Debug, Default)]
pub struct ConnTable<V> {
    /// Indexed by `conn & CONN_IDX_MASK`.
    cells: Vec<Option<(ConnId, V)>>,
    len: usize,
}

impl<V> ConnTable<V> {
    /// An empty table.
    pub fn new() -> ConnTable<V> {
        ConnTable {
            cells: Vec::new(),
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `conn` has an entry (generation-checked).
    // One indexed load per TCP event.
    pub fn contains(&self, conn: ConnId) -> bool {
        self.cells
            .get(conn & CONN_IDX_MASK)
            .and_then(|c| c.as_ref())
            .is_some_and(|(stored, _)| *stored == conn)
    }

    /// Borrow the entry for `conn` (generation-checked).
    // One indexed load per TCP event.
    pub fn get(&self, conn: ConnId) -> Option<&V> {
        match self.cells.get(conn & CONN_IDX_MASK)?.as_ref() {
            Some((stored, v)) if *stored == conn => Some(v),
            _ => None,
        }
    }

    /// Mutably borrow the entry for `conn` (generation-checked).
    // One indexed load per TCP event.
    pub fn get_mut(&mut self, conn: ConnId) -> Option<&mut V> {
        match self.cells.get_mut(conn & CONN_IDX_MASK)?.as_mut() {
            Some((stored, v)) if *stored == conn => Some(v),
            _ => None,
        }
    }

    /// Whether `conn`'s cell holds no entry of any generation, i.e.
    /// whether [`ConnTable::insert`]'s precondition holds.
    pub fn is_vacant(&self, conn: ConnId) -> bool {
        self.cells.get(conn_index(conn)).is_none_or(Option::is_none)
    }

    /// Insert the probe for `conn`. The cell must be vacant: netsim only
    /// recycles a connection index after the old connection closed, and
    /// the crawler removes its probe on every close path.
    pub fn insert(&mut self, conn: ConnId, value: V) {
        let idx = conn & CONN_IDX_MASK;
        if self.cells.len() <= idx {
            self.cells.resize_with(idx + 1, || None);
        }
        debug_assert!(
            self.cells[idx].is_none(),
            "probe cell reused while occupied"
        );
        self.cells[idx] = Some((conn, value));
        self.len += 1;
    }

    /// Remove the entry for `conn`, if present (generation-checked).
    pub fn remove(&mut self, conn: ConnId) -> Option<V> {
        let cell = self.cells.get_mut(conn & CONN_IDX_MASK)?;
        match cell {
            Some((stored, _)) if *stored == conn => {
                self.len -= 1;
                cell.take().map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// Live ConnIds in ascending numeric order — byte-identical to the
    /// `BTreeMap<ConnId, V>` key order the sweep/flush scans relied on.
    pub fn ids_sorted(&self) -> Vec<ConnId> {
        let mut ids: Vec<ConnId> = self
            .cells
            .iter()
            .filter_map(|c| c.as_ref().map(|(id, _)| *id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Approximate owned heap bytes, for the benchmark memory proxy.
    pub fn approx_heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Option<(ConnId, V)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(tag: u8) -> NodeId {
        NodeId([tag; 64])
    }

    #[derive(Debug, PartialEq)]
    struct Val {
        id: NodeId,
        n: u32,
    }

    impl KeyedById for Val {
        fn node_id(&self) -> &NodeId {
            &self.id
        }
    }

    #[test]
    fn dense_map_insert_get_remove() {
        let mut m: DenseMap<u32> = DenseMap::new();
        let a = CompactId::from_u32(3);
        let b = CompactId::from_u32(7);
        assert_eq!(m.insert(a, 30), None);
        assert_eq!(m.insert(b, 70), None);
        assert_eq!(m.insert(a, 31), Some(30));
        assert_eq!(m.get(a), Some(&31));
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(a), Some(31));
        assert_eq!(m.get(a), None);
        assert_eq!(m.get(b), Some(&70), "swap_remove patched the moved slot");
        assert_eq!(m.remove(a), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn ordered_map_iterates_in_node_id_order() {
        let mut m: OrderedDenseMap<Val> = OrderedDenseMap::new();
        // Insert in an order hostile to both cid order and NodeId order.
        for (cid, tag) in [(0u32, 9u8), (1, 2), (2, 7), (3, 1)] {
            m.insert(
                CompactId::from_u32(cid),
                Val {
                    id: nid(tag),
                    n: tag as u32,
                },
            );
        }
        let tags: Vec<u32> = m.iter_ordered().map(|(_, v)| v.n).collect();
        assert_eq!(tags, [1, 2, 7, 9], "NodeId order, not insertion order");
        m.remove(CompactId::from_u32(2));
        let tags: Vec<u32> = m.iter_ordered().map(|(_, v)| v.n).collect();
        assert_eq!(tags, [1, 2, 9]);
        assert_eq!(m.cid_at(0).as_u32(), 3);
    }

    #[test]
    fn seen_table_counts_distinct_and_fresh() {
        let mut s = SeenTable::new();
        s.note(CompactId::from_u32(0), 100);
        s.note(CompactId::from_u32(5), 200);
        s.note(CompactId::from_u32(0), 300);
        assert_eq!(s.len(), 2, "re-noting is not a new id");
        assert_eq!(s.get(CompactId::from_u32(0)), Some(300));
        assert_eq!(s.get(CompactId::from_u32(1)), None);
        assert_eq!(s.fresh(350, 100), 1, "only the re-noted id is fresh");
        assert_eq!(s.fresh(350, 1000), 2);
    }

    #[test]
    fn id_set_mirrors_btreeset_semantics() {
        let mut s = IdSet::new();
        let a = CompactId::from_u32(4);
        assert!(s.insert(a));
        assert!(!s.insert(a), "double insert reports already-present");
        assert!(s.contains(a));
        assert!(s.remove(a));
        assert!(!s.remove(a));
        assert!(!s.contains(a));
    }

    #[test]
    fn conn_table_generation_check_rejects_stale_ids() {
        let mut t: ConnTable<&'static str> = ConnTable::new();
        let gen0 = 5usize; // generation 0, idx 5
        let gen1 = (1usize << 32) | 5; // generation 1, same idx
        t.insert(gen0, "old");
        assert_eq!(t.get(gen1), None, "future generation misses");
        assert_eq!(t.remove(gen0), Some("old"));
        t.insert(gen1, "new");
        assert_eq!(t.get(gen0), None, "stale generation misses");
        assert_eq!(t.get(gen1), Some(&"new"));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn conn_table_ids_sorted_is_numeric_connid_order() {
        let mut t: ConnTable<u8> = ConnTable::new();
        // idx 2 at generation 3 packs to a numerically huge ConnId; a
        // BTreeMap<ConnId, _> would order it *after* plain idx 7.
        let high = (3usize << 32) | 2;
        t.insert(high, 1);
        t.insert(7, 2);
        t.insert(4, 3);
        assert_eq!(t.ids_sorted(), [4, 7, high]);
    }
}
