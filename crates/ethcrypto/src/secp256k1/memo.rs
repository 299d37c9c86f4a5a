//! Deterministic memoization of pure public-key operations.
//!
//! A simulated network re-derives the same values constantly: every discv4
//! packet is signed by one of a handful of node keys and recovered once per
//! delivery, every RLPx handshake computes the same static-static ECDH
//! secret from both ends, node IDs are recomputed from secret keys on hot
//! paths, and every routing table and lookup hashes the node IDs it holds
//! — again on each restore. All four are *pure functions*, so caching them
//! cannot change any observable output — a hit returns exactly the value
//! the full computation would, and a miss falls through to the real
//! computation.
//!
//! Invariants that make each table sound:
//! - **pubkey**: keyed by the exact secret scalar bytes; value is `d*G`.
//! - **ECDH**: `a*B` and `b*A` are the same point, so the shared x
//!   coordinate is keyed by the *unordered* pair of public keys; either
//!   side's computation populates it for both. The pair is of **x
//!   coordinates** only: `(x, y)` and `(x, p − y)` are `±P`, `a*(−B)` is
//!   `−(a*B)`, and negation does not change x, the one coordinate ECDH
//!   returns — so y never decides the answer and is not stored.
//! - **signature → signer**: populated only at signing time with the
//!   signer's public key. ECDSA recovery of a well-formed signature over
//!   the digest it was produced for returns the signer's key by
//!   construction of the recovery id, so a hit on the exact
//!   `(digest, r‖s‖v)` bytes is guaranteed to equal what `recover` would
//!   compute.
//! - **known discrete log**: the pubkey table also answers the reverse
//!   question, `x(d*G) → d`, for every entry it holds. A peer key `B` whose
//!   x is found there is `±b'*G`, so `a*B = ±(a*b' mod n)*G` and
//!   `SecretKey::ecdh` gets the shared x from one fixed-base comb
//!   multiplication instead of a variable-base one — the same point up to a
//!   sign that x does not see. `d` and `n − d` share an x; whichever was
//!   inserted last owns the reverse entry, and either is a valid `b'`. The
//!   reverse entry is dropped with the forward entry that owns it, after
//!   which the key is simply one whose secret this thread never saw and
//!   `ecdh` multiplies as before.
//! - **id hash**: keyed by the exact 64 bytes of a node ID, curve point or
//!   not; value is `keccak256` of those bytes.
//!
//! # Layout
//!
//! One thread-local [`Memo`] (the simulator is single-threaded per world)
//! holds the four tables. Each is a [`FlatCache`]: the entries sit in a
//! `Vec` **ring** in insertion order, and an [`Index`] — an open-addressed,
//! linear-probed `Vec<u32>` of ring slots, at most half full — finds a key's
//! slot. The index stores no key and no hash: a probe compares against the
//! key in the ring, and a cell's home is recomputed from 64 bits folded out
//! of that key ([`MemoKey::index_bits`]; scalars, x coordinates, digests,
//! signatures and node IDs are uniform already) and spread by one
//! multiplication. Nothing iterates an index, so probe order can never
//! reach an output. A sender who grinds keys onto one home cell buys longer
//! probes for those keys and nothing else — answers come from the full-key
//! comparison, and the ring turns the entries out after `cap` inserts like
//! any others.
//!
//! The pubkey table's reverse map is a second [`Index`] over the same ring,
//! keyed by the x of each slot's point. A slot leaving the ring takes its
//! reverse cell with it — unless `n − d` in another slot took the cell
//! over, in which case it now names that slot and stays.
//!
//! # FIFO contract
//!
//! Exactly the old `BTreeMap` + `VecDeque` cache's (kept below under
//! `#[cfg(test)]` as the oracle): an entry survives the next `cap − 1`
//! inserts of new keys and is evicted by the one after; re-inserting a held
//! key overwrites its value in place and does not renew it; lookups never
//! reorder. A full ring overwrites its oldest slot, so there is no
//! allocation per insert, and resident memory follows
//! `min(entries inserted, cap)`: the ring's capacity is reserved once but a
//! page is first touched by the entry that lands on it.
//!
//! # Sizing
//!
//! A table must be large enough that an entry survives from the operation
//! that populates it to the operation that reads it back — under FIFO
//! eviction the cap must exceed the number of *inserts* that can land in
//! between. For the first three tables that number scales with the world,
//! so `ethpop::World::build` calls [`fit_memo`] with its host count and
//! each of their caps is `clamp(c · hosts, 4096, the old fixed cap)`
//! ([`Caps::for_hosts`]; grow-only, so a process that builds several
//! worlds keeps the largest fit). The windows, and `c`:
//!
//! - **SIG, c = 4.** Populated at signing, read at delivery — and a
//!   discv4 expiration is in whole seconds, so a host that sends the same
//!   FINDNODE to several peers inside one second signs the same bytes each
//!   time: every re-insert lands on the first one's slot and does not renew
//!   it. The window is therefore one second plus one link latency
//!   (≤ 148 ms) of the world's signatures. Its peak is the join storm, where
//!   it measures 2.3–2.4 inserts per host between the oldest entry still
//!   read and the newest (23,361 at 10,001 hosts, 118,720 at 50,000: `repro
//!   scale`, caps pinned at the ceiling); `c = 4` is that with headroom. A
//!   crawler is a constant on top — 2,501 at 169 hosts — which the floor
//!   covers. [`memo_stats`]'s `sig_evicted_early` counts every signature
//!   this thread produced, lost and then recovered the slow way (the PR 9
//!   regime, where a 16k cap at 250,000 hosts meant *every* delivery did),
//!   and `repro scale` exits non-zero on the first one. The ceiling, 2¹⁸,
//!   is reached at 65,536 hosts; at 250,000 it is `c` ≈ 1.05, so if the
//!   storm's 2.4 holds there its oldest signatures are recovered the slow
//!   way, and the counter says how many.
//! - **PUBKEY, c = 3.** One slot per live signing key, hit once per
//!   signature, plus four ephemeral keys per handshake; with every host in
//!   one handshake at once that is `hosts + 4 · hosts / 2`. A host's key
//!   enters when the host starts: `World::build` derives only the
//!   bootstrap records, and a ground-truth ID only when it is read, so a
//!   host that never runs holds no slot. `repro scale 50000` reads
//!   `53322 of 147054 slots, 485106 hits, 53322 misses`; when the build
//!   derived every host's key it read `100619 of 147054 slots, 486827
//!   hits, 100619 misses`. The ephemerals turn the ring over, so a host
//!   key is eventually pushed out: that costs one comb multiplication
//!   (6.5 µs) at the host's next signature, and an `ecdh` against it in the
//!   meantime takes the variable-base path.
//! - **ECDH, c = 2.** Four pairs per handshake (static–static, each side's
//!   ECIES ephemeral against the other's static key, ephemeral–ephemeral),
//!   each read back by the other side within a round trip: `4 · hosts / 2`.
//!   The old cap also kept a static pair until its redial minutes later;
//!   since PR 18 that miss is the same 6.5 µs comb multiplication and is
//!   not worth a slot (≈ 2 % of ECDH hits on a 169-host crawl).
//! - **ID, the floor, whatever the world.** Populated the first time a
//!   routing table or lookup meets an ID, read back by every later `add` /
//!   `contains` / `remove` of it, every lookup that meets it again and —
//!   the read that matters — every restore and shell build, which re-file
//!   each resident of every table. That window is a whole checkpoint
//!   interval, so the table should hold every ID the world hashes. How many
//!   that is follows how much discovery a world runs, not its host count:
//!   `crawl_steady` hashes 3,633 distinct IDs over 169 hosts, `gossip_heavy`
//!   549 over 168, `scale_ramp` 872 over 10,019, `checkpoint_cycle` 459
//!   over 1,519, and `repro scale 50000` 2,722 over 50,019. All fit the
//!   floor and none evicts, so the cap does not grow with `hosts`. A world
//!   that hashes more evicts (`memo_stats().id_hash.evictions` counts it)
//!   and pays one keccak-f, 0.5–0.7 µs, per ID it hashes again.
//!
//! | hosts   | PUBKEY cap | ECDH cap | SIG cap | ID cap | all four full |
//! |---------|------------|----------|---------|--------|---------------|
//! | 169     | 4,096      | 4,096    | 4,096   | 4,096  | 2.1 MB        |
//! | 10,000  | 30,000     | 20,000   | 40,000  | 4,096  | 13 MB         |
//! | 250,000 | 524,288    | 500,000  | 262,144 | 4,096  | 164 MB        |
//!
//! A full slot is its ring entry plus 8 B in each index over it: 120 B for
//! a pubkey (32 B scalar, 72 B point, two indexes), 104 B for an ECDH pair,
//! 184 B for a signature (97 B key, 72 B point), 104 B for an ID (64 B ID,
//! 32 B hash). The old structure held every key twice, reached ≈ 260 MB
//! before tree overhead at its three fixed caps — and grew towards that in
//! every world, whatever its size.

use super::point::Affine;
use crate::u256::U256;
use std::cell::RefCell;

/// What a [`FlatCache`] key gives its [`Index`].
trait MemoKey: Eq {
    /// 64 bits folded out of the key's own bytes. Equal keys must agree;
    /// unequal keys that agree only lengthen each other's probes.
    fn index_bits(&self) -> u64;
}

/// XOR of the big-endian 8-byte words of `bytes` (a short tail is
/// zero-extended).
fn fold(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0, |acc, word| {
        let mut be = [0u8; 8];
        be[..word.len()].copy_from_slice(word);
        acc ^ u64::from_be_bytes(be)
    })
}

impl<const N: usize> MemoKey for [u8; N] {
    fn index_bits(&self) -> u64 {
        fold(self)
    }
}

impl MemoKey for EcdhPair {
    fn index_bits(&self) -> u64 {
        // Rotated, so a pair and the pair of its two folds swapped differ.
        fold(&self.0) ^ fold(&self.1).rotate_left(32)
    }
}

impl MemoKey for SigKey {
    fn index_bits(&self) -> u64 {
        fold(&self.0) ^ fold(&self.1).rotate_left(32)
    }
}

/// Open-addressed, linear-probed map from a key's folded bits to a ring
/// slot. A cell is `slot + 1`, zero when vacant; the keys live in the ring,
/// so every operation is told how to look at a slot. Never more than half
/// full: every probe ends at a vacant cell.
struct Index {
    cells: Vec<u32>,
    /// `64 − log2(cells.len())`: a home is the top bits of the product.
    shift: u32,
}

impl Index {
    /// An empty index for a ring of `cap` slots. Zeroed, so untouched pages
    /// of a large one are never resident.
    fn new(cap: usize) -> Index {
        let len = (2 * cap).next_power_of_two().max(2);
        assert!(len <= u32::MAX as usize, "ring slots are indexed by u32");
        Index {
            cells: vec![0; len],
            shift: 64 - len.trailing_zeros(),
        }
    }

    /// Fibonacci hashing: the one mixing step, so that keys whose folded
    /// bits differ in a few low bits (test keys, `[0xB0; 32]` with a
    /// counter in the tail) still land cells apart.
    fn home(&self, bits: u64) -> usize {
        (bits.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// `(cell, slot)` of the first entry on `bits`' probe path that `is`
    /// accepts.
    fn find(&self, bits: u64, mut is: impl FnMut(usize) -> bool) -> Option<(usize, usize)> {
        let mask = self.cells.len() - 1;
        let mut cell = self.home(bits);
        loop {
            let slot = (self.cells[cell] as usize).checked_sub(1)?;
            if is(slot) {
                return Some((cell, slot));
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Add `slot` under `bits`; the caller knows it is not there already.
    fn insert(&mut self, bits: u64, slot: usize) {
        let mask = self.cells.len() - 1;
        let mut cell = self.home(bits);
        while self.cells[cell] != 0 {
            cell = (cell + 1) & mask;
        }
        self.cells[cell] = slot as u32 + 1;
    }

    /// Vacate `cell` and close the gap: every later entry of the cluster
    /// whose home is not past the gap moves back into it (`bits_of` reads a
    /// slot's bits out of the ring), so no probe path is cut.
    fn remove(&mut self, cell: usize, bits_of: impl Fn(usize) -> u64) {
        let mask = self.cells.len() - 1;
        let mut gap = cell;
        let mut next = (gap + 1) & mask;
        while let Some(slot) = (self.cells[next] as usize).checked_sub(1) {
            let home = self.home(bits_of(slot));
            if (next.wrapping_sub(home) & mask) >= (next.wrapping_sub(gap) & mask) {
                self.cells[gap] = self.cells[next];
                gap = next;
            }
            next = (next + 1) & mask;
        }
        self.cells[gap] = 0;
    }

    /// The same entries for a ring of `cap` slots whose `len` entries were
    /// just turned left by `turn`: each slot renumbered as the turn moved
    /// it, and hashed by `bits_of` (of the new number).
    fn refit(&self, cap: usize, turn: usize, len: usize, bits_of: impl Fn(usize) -> u64) -> Index {
        let mut out = Index::new(cap);
        for slot in self
            .cells
            .iter()
            .filter_map(|&c| (c as usize).checked_sub(1))
        {
            let slot = (slot + len - turn) % len;
            out.insert(bits_of(slot), slot);
        }
        out
    }
}

/// A bounded map with FIFO eviction (module docs: layout, FIFO contract),
/// counting what [`memo_stats`] reports.
struct FlatCache<K, V> {
    ring: Vec<(K, V)>,
    /// Once the ring is full: its oldest slot, the next one overwritten.
    head: usize,
    cap: usize,
    index: Index,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: MemoKey, V: Clone> FlatCache<K, V> {
    fn new(cap: usize) -> FlatCache<K, V> {
        assert!(cap > 0, "a cache holds at least one entry");
        FlatCache {
            ring: Vec::with_capacity(cap),
            head: 0,
            cap,
            index: Index::new(cap),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn slot_of(&self, k: &K, bits: u64) -> Option<usize> {
        let found = self.index.find(bits, |s| self.ring[s].0 == *k)?;
        Some(found.1)
    }

    fn get(&mut self, k: &K) -> Option<V> {
        let Some(slot) = self.slot_of(k, k.index_bits()) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        Some(self.ring[slot].1.clone())
    }

    /// Returns the entry this insert pushed out, if any.
    fn insert(&mut self, k: K, v: V) -> Option<(K, V)> {
        self.insert_at(k, v).1
    }

    /// [`FlatCache::insert`], and the slot the entry is in — the slot the
    /// evicted entry, if any, was in.
    fn insert_at(&mut self, k: K, v: V) -> (usize, Option<(K, V)>) {
        let bits = k.index_bits();
        if let Some(slot) = self.slot_of(&k, bits) {
            self.ring[slot].1 = v;
            return (slot, None);
        }
        if self.ring.len() < self.cap {
            let slot = self.ring.len();
            self.ring.push((k, v));
            self.index.insert(bits, slot);
            return (slot, None);
        }
        let slot = self.head;
        self.head = (slot + 1) % self.cap;
        self.evictions += 1;
        let ring = &self.ring;
        let (cell, _) = self
            .index
            .find(ring[slot].0.index_bits(), |s| s == slot)
            .expect("every ring slot is indexed");
        self.index.remove(cell, |s| ring[s].0.index_bits());
        let old = std::mem::replace(&mut self.ring[slot], (k, v));
        self.index.insert(bits, slot);
        (slot, Some(old))
    }

    /// Raise the cap to `cap`, keeping every entry and its age; `None` if
    /// that would not raise it. The ring is turned left so its oldest entry
    /// is slot 0 and new slots append behind the newest; returns how far,
    /// for a second index to [`Index::refit`] by.
    fn grow(&mut self, cap: usize) -> Option<usize> {
        if cap <= self.cap {
            return None;
        }
        let turn = std::mem::take(&mut self.head);
        self.ring.rotate_left(turn);
        self.ring.reserve_exact(cap - self.ring.len());
        self.cap = cap;
        let ring = &self.ring;
        self.index = self
            .index
            .refit(cap, turn, ring.len(), |s| ring[s].0.index_bits());
        Some(turn)
    }

    fn stats(&self) -> TableStats {
        TableStats {
            len: self.ring.len(),
            cap: self.cap,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// The pubkey table: `d → d*G` under FIFO eviction, and over exactly the
/// entries it holds the reverse index `x(d*G) → d` (module docs, fourth
/// invariant).
struct PubkeyMemo {
    points: FlatCache<[u8; 32], Affine>,
    /// x of a slot's point → that slot.
    by_x: Index,
}

impl PubkeyMemo {
    fn new(cap: usize) -> PubkeyMemo {
        PubkeyMemo {
            points: FlatCache::new(cap),
            by_x: Index::new(cap),
        }
    }

    fn insert(&mut self, scalar: [u8; 32], point: Affine) {
        let (slot, evicted) = self.points.insert_at(scalar, point);
        let ring = &self.points.ring;
        // `d` and `n − d` share an x: the reverse cell goes only if it
        // still names the evicted entry's slot.
        if let Some((_, old_point)) = &evicted {
            if let Some((cell, _)) = self.by_x.find(x_bits(old_point), |s| s == slot) {
                self.by_x.remove(cell, |s| x_bits(&ring[s].1));
            }
        }
        let Some(x) = x_bytes(&point) else {
            return;
        };
        match self
            .by_x
            .find(x.index_bits(), |s| x_bytes(&ring[s].1) == Some(x))
        {
            Some((_, owner)) if owner == slot => {}
            // Same x, so same home and same probe path: take the cell over.
            Some((cell, _)) => self.by_x.cells[cell] = slot as u32 + 1,
            None => self.by_x.insert(x.index_bits(), slot),
        }
    }

    /// The scalar of the entry that owns `x`'s reverse cell.
    fn log_of_x(&self, x: &[u8; 32]) -> Option<[u8; 32]> {
        let ring = &self.points.ring;
        let found = self
            .by_x
            .find(x.index_bits(), |s| x_bytes(&ring[s].1) == Some(*x))?;
        Some(ring[found.1].0)
    }

    fn grow(&mut self, cap: usize) {
        let Some(turn) = self.points.grow(cap) else {
            return;
        };
        let ring = &self.points.ring;
        self.by_x = self
            .by_x
            .refit(cap, turn, ring.len(), |s| x_bits(&ring[s].1));
    }
}

/// Big-endian x coordinate of a finite point.
pub(crate) fn x_bytes(p: &Affine) -> Option<[u8; 32]> {
    match p {
        Affine::Infinity => None,
        Affine::Point { x, .. } => Some(x.to_be_bytes()),
    }
}

/// Where a point sits in the pubkey table's reverse index. (The point at
/// infinity is never put there; any value will do.)
fn x_bits(p: &Affine) -> u64 {
    x_bytes(p).map_or(0, |x| x.index_bits())
}

/// Canonical unordered (x, x) cache key; see [`ecdh_key`].
type EcdhPair = ([u8; 32], [u8; 32]);
/// (digest, r‖s‖v) cache key.
type SigKey = ([u8; 32], [u8; 65]);

/// The capacities of the three tables sized by host count (module docs,
/// "Sizing"); the ID table's is always [`Caps::FLOOR`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Caps {
    pubkey: usize,
    ecdh: usize,
    sig: usize,
}

impl Caps {
    /// What any world gets: below this a table is a few hundred kB and
    /// sizing it closer buys nothing.
    const FLOOR: usize = 1 << 12;
    /// The fixed caps every world had before [`fit_memo`], sized then for
    /// 250,000 hosts.
    const MAX: Caps = Caps {
        pubkey: 1 << 19,
        ecdh: 1 << 19,
        sig: 1 << 18,
    };

    fn for_hosts(hosts: usize) -> Caps {
        let fit =
            |per_host: usize, max: usize| hosts.saturating_mul(per_host).clamp(Caps::FLOOR, max);
        Caps {
            pubkey: fit(3, Caps::MAX.pubkey),
            ecdh: fit(2, Caps::MAX.ecdh),
            sig: fit(4, Caps::MAX.sig),
        }
    }
}

struct Memo {
    /// secret scalar bytes -> public key point, and its x back to the scalar.
    pubkey: PubkeyMemo,
    /// unordered (pk.x, pk.x) pair -> ECDH shared x coordinate.
    ecdh: FlatCache<EcdhPair, [u8; 32]>,
    /// (digest, r‖s‖v) -> signer public key point.
    sig: FlatCache<SigKey, Affine>,
    /// node ID -> keccak256 of it.
    id_hash: FlatCache<[u8; 64], [u8; 32]>,
    sig_evicted_early: u64,
}

impl Memo {
    fn new(caps: Caps) -> Memo {
        Memo {
            pubkey: PubkeyMemo::new(caps.pubkey),
            ecdh: FlatCache::new(caps.ecdh),
            sig: FlatCache::new(caps.sig),
            id_hash: FlatCache::new(Caps::FLOOR),
            sig_evicted_early: 0,
        }
    }
}

thread_local! {
    // detlint: allow(R8) -- pure-function memo cache: hit or miss changes speed, never results
    static MEMO: RefCell<Memo> = RefCell::new(Memo::new(Caps::for_hosts(0)));
}

fn with_memo<T>(f: impl FnOnce(&mut Memo) -> T) -> T {
    MEMO.with(|m| f(&mut m.borrow_mut()))
}

/// One table of [`MemoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Entries held.
    pub len: usize,
    /// Entries it can hold before each insert evicts the oldest.
    pub cap: usize,
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that fell through to the computation.
    pub misses: u64,
    /// Entries pushed out by an insert.
    pub evictions: u64,
}

/// What [`memo_stats`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// secret scalar → public key.
    pub pubkey: TableStats,
    /// public key pair → ECDH shared x.
    pub ecdh: TableStats,
    /// (digest, signature) → signer.
    pub sig: TableStats,
    /// node ID → its keccak256.
    pub id_hash: TableStats,
    /// Recoveries that took the slow path and arrived at a key whose secret
    /// this thread holds: a signature produced here and evicted before its
    /// last read. A world that counts any has a `sig` table smaller than
    /// its survival window, and those deliveries paid the full recovery.
    pub sig_evicted_early: u64,
}

/// This thread's memo tables since the thread started: sizes and counters,
/// nothing a simulated host can read.
pub fn memo_stats() -> MemoStats {
    with_memo(|m| MemoStats {
        pubkey: m.pubkey.points.stats(),
        ecdh: m.ecdh.stats(),
        sig: m.sig.stats(),
        id_hash: m.id_hash.stats(),
        sig_evicted_early: m.sig_evicted_early,
    })
}

/// Size this thread's memo tables for a world of `hosts` hosts (module
/// docs, "Sizing"). Grow-only and idempotent: entries, their ages and the
/// counters are kept, and a smaller world after a larger one changes
/// nothing. Results never depend on it.
pub fn fit_memo(hosts: usize) {
    let caps = Caps::for_hosts(hosts);
    with_memo(|m| {
        m.pubkey.grow(caps.pubkey);
        m.ecdh.grow(caps.ecdh);
        m.sig.grow(caps.sig);
    });
}

/// `keccak256(id)` of a 64-byte node ID — the value discovery's distance
/// metric is computed over — through the ID table.
pub fn id_hash(id: &[u8; 64]) -> [u8; 32] {
    with_memo(|m| {
        m.id_hash.get(id).unwrap_or_else(|| {
            let hash = crate::keccak256(id);
            m.id_hash.insert(*id, hash);
            hash
        })
    })
}

/// A scalar `d` with `x(d*G) == x`, if the pubkey table holds one.
pub(crate) fn pubkey_log(x: &[u8; 32]) -> Option<U256> {
    with_memo(|m| m.pubkey.log_of_x(x)).map(|d| U256::from_be_bytes(&d))
}

/// `scalar * G` through the pubkey table.
pub(crate) fn public_point(scalar: &U256) -> Affine {
    let bytes = scalar.to_be_bytes();
    if let Some(p) = with_memo(|m| m.pubkey.points.get(&bytes)) {
        return p;
    }
    let p = super::point::scalar_mul_generator(scalar);
    with_memo(|m| m.pubkey.insert(bytes, p));
    p
}

/// Canonical unordered key for an ECDH pair, from the two keys' x bytes.
pub(crate) fn ecdh_key(a: [u8; 32], b: [u8; 32]) -> EcdhPair {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

pub(crate) fn ecdh_get(key: &EcdhPair) -> Option<[u8; 32]> {
    with_memo(|m| m.ecdh.get(key))
}

pub(crate) fn ecdh_put(key: EcdhPair, shared: [u8; 32]) {
    with_memo(|m| m.ecdh.insert(key, shared));
}

pub(crate) fn sig_get(digest: &[u8; 32], sig: &[u8; 65]) -> Option<Affine> {
    with_memo(|m| m.sig.get(&(*digest, *sig)))
}

pub(crate) fn sig_put(digest: [u8; 32], sig: [u8; 65], signer: Affine) {
    with_memo(|m| m.sig.insert((digest, sig), signer));
}

/// [`sig_put`] for a signer the slow path just recovered: one whose secret
/// the pubkey table holds was signed here and lost on the way
/// ([`MemoStats::sig_evicted_early`]).
pub(crate) fn sig_put_recovered(digest: [u8; 32], sig: [u8; 65], signer: Affine) {
    with_memo(|m| {
        let known = x_bytes(&signer).is_some_and(|x| m.pubkey.log_of_x(&x).is_some());
        m.sig_evicted_early += u64::from(known);
        m.sig.insert((digest, sig), signer);
    });
}

#[cfg(test)]
mod tests {
    use super::super::point::{scalar_mul_generator, N};
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, VecDeque};

    /// The cache this module used to be, kept as [`FlatCache`]'s oracle.
    struct FifoCache<K: Ord + Clone, V> {
        map: BTreeMap<K, V>,
        order: VecDeque<K>,
        cap: usize,
    }

    impl<K: Ord + Clone, V: Clone> FifoCache<K, V> {
        fn new(cap: usize) -> FifoCache<K, V> {
            FifoCache {
                map: BTreeMap::new(),
                order: VecDeque::new(),
                cap,
            }
        }

        fn get(&self, k: &K) -> Option<V> {
            self.map.get(k).cloned()
        }

        fn insert(&mut self, k: K, v: V) -> Option<(K, V)> {
            if self.map.insert(k.clone(), v).is_some() {
                return None;
            }
            self.order.push_back(k);
            if self.order.len() <= self.cap {
                return None;
            }
            let old = self.order.pop_front()?;
            self.map.remove_entry(&old)
        }
    }

    /// A key that chooses its own index bits: `spread` false puts every key
    /// on one home cell.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct TestKey {
        id: u8,
        spread: bool,
    }

    impl MemoKey for TestKey {
        fn index_bits(&self) -> u64 {
            if self.spread {
                u64::from(self.id)
            } else {
                7
            }
        }
    }

    impl MemoKey for u32 {
        fn index_bits(&self) -> u64 {
            u64::from(*self)
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Insert(u8, u16),
        Get(u8),
        /// Raise the cap by this much (the oracle's is a plain field).
        Grow(u8),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Ids from a small range, so re-inserts, evictions and lookups of
        // evicted keys are all common.
        prop_oneof![
            (0u8..12, any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u8..12, any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
            (0u8..12).prop_map(Op::Get),
            (0u8..40).prop_map(|by| Op::Grow(by.saturating_sub(36))),
        ]
    }

    proptest! {
        #[test]
        fn flat_cache_is_the_fifo_cache(
            cap in prop_oneof![Just(1usize), Just(2), Just(3), Just(64)],
            spread in any::<bool>(),
            ops in proptest::collection::vec(arb_op(), 0..200),
        ) {
            let key = |id| TestKey { id, spread };
            let mut flat: FlatCache<TestKey, u16> = FlatCache::new(cap);
            let mut fifo: FifoCache<TestKey, u16> = FifoCache::new(cap);
            for op in ops {
                match op {
                    Op::Insert(id, v) => {
                        prop_assert_eq!(flat.insert(key(id), v), fifo.insert(key(id), v));
                    }
                    Op::Get(id) => prop_assert_eq!(flat.get(&key(id)), fifo.get(&key(id))),
                    Op::Grow(by) => {
                        flat.grow(flat.cap + by as usize);
                        fifo.cap = flat.cap;
                    }
                }
                prop_assert_eq!(flat.ring.len(), fifo.map.len());
            }
            for id in 0..12 {
                prop_assert_eq!(flat.get(&key(id)), fifo.get(&key(id)));
            }
        }
    }

    #[test]
    fn fifo_evicts_oldest_first() {
        let mut c: FlatCache<u32, u32> = FlatCache::new(3);
        for i in 0..5u32 {
            let evicted = c.insert(i, i * 10);
            assert_eq!(evicted, i.checked_sub(3).map(|old| (old, old * 10)));
        }
        assert_eq!(c.ring.len(), 3);
        assert_eq!(c.get(&0), None);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&4), Some(40));
    }

    #[test]
    fn fifo_reinsert_does_not_duplicate_order() {
        let mut c: FlatCache<u32, u32> = FlatCache::new(2);
        c.insert(1, 1);
        assert_eq!(c.insert(1, 2), None); // overwrite, not a new FIFO slot
        c.insert(2, 2);
        assert_eq!(c.ring.len(), 2);
        assert_eq!(c.get(&1), Some(2));
        c.insert(3, 3); // evicts 1 (oldest), not 2
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(2));
    }

    #[test]
    fn growing_a_wrapped_ring_keeps_every_age() {
        let mut c: FlatCache<u32, u32> = FlatCache::new(3);
        for i in 0..5 {
            c.insert(i, i);
        }
        c.grow(5); // holds 2, 3, 4 — oldest first — and room for two more
        assert_eq!(c.insert(5, 5), None);
        assert_eq!(c.insert(6, 6), None);
        assert_eq!(c.insert(7, 7), Some((2, 2)));
        assert_eq!(c.insert(8, 8), Some((3, 3)));
        c.grow(4); // never shrinks
        assert_eq!(c.ring.len(), 5);
    }

    #[test]
    fn caps_follow_the_host_count_between_floor_and_ceiling() {
        let floor = Caps {
            pubkey: 4096,
            ecdh: 4096,
            sig: 4096,
        };
        assert_eq!(Caps::for_hosts(0), floor);
        assert_eq!(Caps::for_hosts(169), floor);
        let ramp = Caps::for_hosts(10_019);
        assert_eq!((ramp.pubkey, ramp.ecdh, ramp.sig), (30_057, 20_038, 40_076));
        let largest = Caps::for_hosts(250_000);
        assert_eq!(
            (largest.pubkey, largest.ecdh, largest.sig),
            (1 << 19, 500_000, 1 << 18)
        );
        assert_eq!(Caps::for_hosts(usize::MAX), Caps::MAX);
    }

    #[test]
    fn the_id_table_stays_at_the_floor_in_any_world() {
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(memo_stats().id_hash.cap, Caps::FLOOR);
                fit_memo(250_000);
                assert_eq!(memo_stats().id_hash.cap, Caps::FLOOR);
            });
        });
    }

    #[test]
    fn ecdh_key_is_symmetric() {
        let a = [1u8; 32];
        let b = [2u8; 32];
        assert_eq!(ecdh_key(a, b), ecdh_key(b, a));
    }

    fn entry(d: &U256) -> ([u8; 32], Affine, [u8; 32]) {
        let point = scalar_mul_generator(d);
        (d.to_be_bytes(), point, x_bytes(&point).unwrap())
    }

    /// Reverse cells in use.
    fn reverse_len(memo: &PubkeyMemo) -> usize {
        memo.by_x.cells.iter().filter(|&&c| c != 0).count()
    }

    #[test]
    fn reverse_index_evicts_in_lockstep() {
        const CAP: usize = 4;
        const EXTRA: usize = 3;
        let mut memo = PubkeyMemo::new(CAP);
        let entries: Vec<_> = (1..=(CAP + EXTRA) as u64)
            .map(|d| entry(&U256::from_u64(d)))
            .collect();
        for (d, point, _) in &entries {
            memo.insert(*d, *point);
            assert_eq!(reverse_len(&memo), memo.points.ring.len());
        }
        assert_eq!(memo.points.ring.len(), CAP);
        for (i, (d, point, x)) in entries.iter().enumerate() {
            let held = i >= EXTRA;
            assert_eq!(memo.points.get(d), held.then_some(*point), "scalar {i}");
            assert_eq!(memo.log_of_x(x), held.then_some(*d), "scalar {i}");
        }
        // Growing renumbers the ring's slots; the reverse cells follow.
        memo.grow(CAP + 1);
        for (d, _, x) in &entries[EXTRA..] {
            assert_eq!(memo.log_of_x(x), Some(*d));
        }
    }

    #[test]
    fn evicting_d_keeps_the_reverse_entry_n_minus_d_took_over() {
        let five = U256::from_u64(5);
        let (d, point, x) = entry(&five);
        let (neg_d, neg_point, neg_x) = entry(&N.wrapping_sub(&five));
        assert_eq!(x, neg_x);
        let mut memo = PubkeyMemo::new(2);
        memo.insert(d, point);
        memo.insert(neg_d, neg_point);
        assert_eq!(memo.log_of_x(&x), Some(neg_d));
        assert_eq!(reverse_len(&memo), 1);
        let (other, other_point, _) = entry(&U256::from_u64(7));
        memo.insert(other, other_point); // evicts d
        assert_eq!(memo.points.get(&d), None);
        assert_eq!(memo.log_of_x(&x), Some(neg_d));
        let (last, last_point, _) = entry(&U256::from_u64(9));
        memo.insert(last, last_point); // evicts n − d
        assert_eq!(memo.points.get(&neg_d), None);
        assert_eq!(memo.log_of_x(&x), None);
        assert_eq!(reverse_len(&memo), memo.points.ring.len());
    }

    #[test]
    fn reinserting_d_takes_the_reverse_entry_back() {
        let five = U256::from_u64(5);
        let (d, point, x) = entry(&five);
        let (neg_d, neg_point, _) = entry(&N.wrapping_sub(&five));
        let mut memo = PubkeyMemo::new(2);
        memo.insert(d, point);
        memo.insert(neg_d, neg_point);
        memo.insert(d, point); // in place: d stays the oldest
        assert_eq!(memo.log_of_x(&x), Some(d));
        let (other, other_point, _) = entry(&U256::from_u64(7));
        memo.insert(other, other_point); // evicts d, and the cell it owns
        assert_eq!(memo.log_of_x(&x), None);
        assert_eq!(memo.points.get(&neg_d), Some(neg_point));
        assert_eq!(reverse_len(&memo), 1);
    }

    #[test]
    fn a_lost_signature_is_counted_and_a_foreign_one_is_not() {
        std::thread::scope(|s| {
            s.spawn(|| {
                let point = scalar_mul_generator(&U256::from_u64(11));
                let foreign = scalar_mul_generator(&U256::from_u64(12));
                assert_eq!(public_point(&U256::from_u64(11)), point);
                sig_put_recovered([1; 32], [2; 65], foreign);
                assert_eq!(memo_stats().sig_evicted_early, 0);
                sig_put_recovered([3; 32], [4; 65], point);
                let stats = memo_stats();
                assert_eq!(stats.sig_evicted_early, 1);
                assert_eq!((stats.sig.len, stats.sig.cap), (2, Caps::FLOOR));
                assert_eq!(sig_get(&[3; 32], &[4; 65]), Some(point));
                assert_eq!(sig_get(&[3; 32], &[5; 65]), None);
                let stats = memo_stats();
                assert_eq!((stats.sig.hits, stats.sig.misses), (1, 1));
                fit_memo(10_019);
                fit_memo(169);
                let stats = memo_stats();
                assert_eq!((stats.sig.len, stats.sig.cap), (2, 40_076));
                assert_eq!(sig_get(&[3; 32], &[4; 65]), Some(point));
            });
        });
    }
}
