//! Deterministic memoization of pure public-key operations.
//!
//! A simulated network re-derives the same values constantly: every discv4
//! packet is signed by one of a handful of node keys and recovered once per
//! delivery, every RLPx handshake computes the same static-static ECDH
//! secret from both ends, and node IDs are recomputed from secret keys on
//! hot paths. All three are *pure functions*, so caching them cannot change
//! any observable output — a hit returns exactly the value the full
//! computation would, and a miss falls through to the real computation.
//!
//! Caches are thread-local (the simulator is single-threaded per world),
//! BTreeMap-backed (no hash-order nondeterminism), and bounded by FIFO
//! eviction so memory stays flat over arbitrarily long runs.
//!
//! Invariants that make each cache sound:
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
//! - **known discrete log**: the pubkey memo also answers the reverse
//!   question, `x(d*G) → d`, for every entry it holds. A peer key `B` whose
//!   x is found there is `±b'*G`, so `a*B = ±(a*b' mod n)*G` and
//!   `SecretKey::ecdh` gets the shared x from one fixed-base comb
//!   multiplication instead of a variable-base one — the same point up to a
//!   sign that x does not see. `d` and `n − d` share an x; whichever was
//!   inserted last owns the reverse entry, and either is a valid `b'`. The
//!   reverse entry is dropped with the forward entry that owns it (lockstep
//!   eviction: no cap or queue of its own), after which the key is simply
//!   one whose secret this thread never saw and `ecdh` multiplies as
//!   before.

use super::point::Affine;
use crate::u256::U256;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

/// A bounded map with FIFO eviction (insertion order, not LRU, so lookup
/// never mutates and the structure stays allocation-light).
pub(crate) struct FifoCache<K: Ord + Clone, V> {
    map: BTreeMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Ord + Clone, V: Clone> FifoCache<K, V> {
    pub(crate) fn new(cap: usize) -> FifoCache<K, V> {
        FifoCache {
            map: BTreeMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    pub(crate) fn get(&self, k: &K) -> Option<V> {
        self.map.get(k).cloned()
    }

    /// Returns the entry this insert pushed out, if any.
    pub(crate) fn insert(&mut self, k: K, v: V) -> Option<(K, V)> {
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

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

/// The pubkey memo: `d → d*G` under FIFO eviction, and over exactly the
/// entries it holds the reverse index `x(d*G) → d` (module docs, fourth
/// invariant).
struct PubkeyMemo {
    points: FifoCache<[u8; 32], Affine>,
    log_of_x: BTreeMap<[u8; 32], [u8; 32]>,
}

impl PubkeyMemo {
    fn new(cap: usize) -> PubkeyMemo {
        PubkeyMemo {
            points: FifoCache::new(cap),
            log_of_x: BTreeMap::new(),
        }
    }

    fn insert(&mut self, scalar: [u8; 32], point: Affine) {
        if let Some(x) = x_bytes(&point) {
            self.log_of_x.insert(x, scalar);
        }
        let Some((old, old_point)) = self.points.insert(scalar, point) else {
            return;
        };
        // `d` and `n − d` share an x: the reverse entry goes only if it
        // still names the evicted scalar.
        if let Some(x) = x_bytes(&old_point) {
            if self.log_of_x.get(&x) == Some(&old) {
                self.log_of_x.remove(&x);
            }
        }
    }
}

/// Big-endian x coordinate of a finite point.
pub(crate) fn x_bytes(p: &Affine) -> Option<[u8; 32]> {
    match p {
        Affine::Infinity => None,
        Affine::Point { x, .. } => Some(x.to_be_bytes()),
    }
}

/// Canonical unordered (x, x) cache key; see [`ecdh_key`].
type EcdhPair = ([u8; 32], [u8; 32]);
/// (digest, r‖s‖v) cache key.
type SigKey = ([u8; 32], [u8; 65]);

// Capacity sizing: each cache must be large enough that an entry survives
// from the operation that populates it to the operation that reads it back
// — under FIFO eviction that means the cap must exceed the number of
// *inserts* that can land in between. The signature cache is populated at
// signing time and read at delivery, so its survival window is one network
// latency's worth of signed packets: at 250,000 hosts the simulator signs
// tens of thousands of packets per 300 simulated ms, and a 16k cap meant
// every entry was evicted before its datagram arrived — recovery paid the
// full scalar-mul at exactly the scales where it mattered most. The pubkey
// cache is keyed by signing secret and hit once per signature, so it wants
// one slot per live host key. A full slot holds its key twice (map and
// FIFO queue) and its value: 160 B for an ECDH pair, 200 B for a pubkey
// with its reverse entry, 266 B for a signature — ≈ 260 MB across all three
// before tree overhead, reached only by the 250k-host worlds that need
// them.

/// One slot per live signing key: ≥ the largest world's host count.
const PUBKEY_CACHE_CAP: usize = 1 << 19;
/// Static-static pairs must survive from a pair's *first* handshake to
/// its redials minutes later — the cap has to cover every distinct peer
/// pair a large world forms, not just one round trip's ephemerals.
const ECDH_CACHE_CAP: usize = 1 << 19;
/// Signed-packet survival window: signatures produced between a packet's
/// signing and its delivery, with headroom for the 250k-host join storm.
const SIG_CACHE_CAP: usize = 1 << 18;

thread_local! {
    /// secret scalar bytes -> public key point, and its x back to the scalar.
    // detlint: allow(R8) -- pure-function memo cache: hit or miss changes speed, never results
    static PUBKEY: RefCell<PubkeyMemo> = RefCell::new(PubkeyMemo::new(PUBKEY_CACHE_CAP));
    /// unordered (pk.x, pk.x) pair -> ECDH shared x coordinate.
    // detlint: allow(R8) -- pure-function memo cache: hit or miss changes speed, never results
    static ECDH: RefCell<FifoCache<EcdhPair, [u8; 32]>> =
        RefCell::new(FifoCache::new(ECDH_CACHE_CAP));
    /// (digest, r‖s‖v) -> signer public key point.
    // detlint: allow(R8) -- pure-function memo cache: hit or miss changes speed, never results
    static SIG: RefCell<FifoCache<SigKey, Affine>> =
        RefCell::new(FifoCache::new(SIG_CACHE_CAP));
}

pub(crate) fn pubkey_get(scalar: &[u8; 32]) -> Option<Affine> {
    PUBKEY.with(|c| c.borrow().points.get(scalar))
}

pub(crate) fn pubkey_put(scalar: [u8; 32], point: Affine) {
    PUBKEY.with(|c| c.borrow_mut().insert(scalar, point));
}

/// A scalar `d` with `x(d*G) == x`, if the pubkey memo holds one.
pub(crate) fn pubkey_log(x: &[u8; 32]) -> Option<U256> {
    PUBKEY.with(|c| c.borrow().log_of_x.get(x).map(U256::from_be_bytes))
}

/// `scalar * G` through the pubkey cache.
pub(crate) fn public_point(scalar: &U256) -> Affine {
    let bytes = scalar.to_be_bytes();
    if let Some(p) = pubkey_get(&bytes) {
        return p;
    }
    let p = super::point::scalar_mul_generator(scalar);
    pubkey_put(bytes, p);
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
    ECDH.with(|c| c.borrow().get(key))
}

pub(crate) fn ecdh_put(key: EcdhPair, shared: [u8; 32]) {
    ECDH.with(|c| c.borrow_mut().insert(key, shared));
}

pub(crate) fn sig_get(digest: &[u8; 32], sig: &[u8; 65]) -> Option<Affine> {
    SIG.with(|c| c.borrow().get(&(*digest, *sig)))
}

pub(crate) fn sig_put(digest: [u8; 32], sig: [u8; 65], signer: Affine) {
    SIG.with(|c| c.borrow_mut().insert((digest, sig), signer));
}

#[cfg(test)]
mod tests {
    use super::super::point::{scalar_mul_generator, N};
    use super::*;

    #[test]
    fn fifo_evicts_oldest_first() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(3);
        for i in 0..5u32 {
            let evicted = c.insert(i, i * 10);
            assert_eq!(evicted, i.checked_sub(3).map(|old| (old, old * 10)));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(&0), None);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
        assert_eq!(c.get(&4), Some(40));
    }

    #[test]
    fn fifo_reinsert_does_not_duplicate_order() {
        let mut c: FifoCache<u32, u32> = FifoCache::new(2);
        c.insert(1, 1);
        assert_eq!(c.insert(1, 2), None); // overwrite, not a new FIFO slot
        c.insert(2, 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(2));
        c.insert(3, 3); // evicts 1 (oldest), not 2
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(2));
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
            assert_eq!(memo.log_of_x.len(), memo.points.len());
        }
        assert_eq!(memo.points.len(), CAP);
        for (i, (d, point, x)) in entries.iter().enumerate() {
            let held = i >= EXTRA;
            assert_eq!(memo.points.get(d), held.then_some(*point), "scalar {i}");
            assert_eq!(memo.log_of_x.get(x), held.then_some(d), "scalar {i}");
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
        assert_eq!(memo.log_of_x.get(&x), Some(&neg_d));
        let (other, other_point, _) = entry(&U256::from_u64(7));
        memo.insert(other, other_point); // evicts d
        assert_eq!(memo.points.get(&d), None);
        assert_eq!(memo.log_of_x.get(&x), Some(&neg_d));
        let (last, last_point, _) = entry(&U256::from_u64(9));
        memo.insert(last, last_point); // evicts n − d
        assert_eq!(memo.points.get(&neg_d), None);
        assert_eq!(memo.log_of_x.get(&x), None);
        assert_eq!(memo.log_of_x.len(), memo.points.len());
    }
}
