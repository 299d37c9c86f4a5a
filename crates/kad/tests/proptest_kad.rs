//! Property tests for the Kademlia substrate: metric laws, ordering, and
//! routing-table invariants.

use enode::{Endpoint, NodeId, NodeRecord};
use kad::{
    log_distance_geth, log_distance_parity, metrics_agree, xor_cmp, Metric, RoutingTable,
    BUCKET_SIZE, MAX_BUCKETS,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_hash() -> impl Strategy<Value = [u8; 32]> {
    proptest::array::uniform32(any::<u8>())
}

proptest! {
    /// Both metrics are symmetric and zero iff the hashes are equal.
    #[test]
    fn metric_laws(a in arb_hash(), b in arb_hash()) {
        prop_assert_eq!(log_distance_geth(&a, &b), log_distance_geth(&b, &a));
        prop_assert_eq!(log_distance_parity(&a, &b), log_distance_parity(&b, &a));
        prop_assert_eq!(log_distance_geth(&a, &a), 0);
        prop_assert_eq!(log_distance_parity(&a, &a), 0);
        if a != b {
            prop_assert!(log_distance_geth(&a, &b) > 0);
            prop_assert!(log_distance_parity(&a, &b) > 0);
        }
        // range bounds: both fit the 257-bucket table
        prop_assert!((log_distance_geth(&a, &b) as usize) < MAX_BUCKETS);
        prop_assert!((log_distance_parity(&a, &b) as usize) < MAX_BUCKETS);
    }

    /// Geth's metric equals the bit length of the XOR; Parity's equals the
    /// sum of per-byte bit lengths, counted the way Parity's own code did
    /// (shift until zero) — definitional cross-checks.
    #[test]
    fn metric_definitions(a in arb_hash(), b in arb_hash()) {
        let mut bitlen = 0u32;
        let mut bytesum = 0u32;
        for i in 0..32 {
            let x = a[i] ^ b[i];
            if x != 0 && bitlen == 0 {
                bitlen = ((31 - i) * 8) as u32 + (8 - x.leading_zeros());
            }
            let mut v = x;
            while v != 0 {
                v >>= 1;
                bytesum += 1;
            }
        }
        prop_assert_eq!(log_distance_geth(&a, &b), bitlen);
        prop_assert_eq!(log_distance_parity(&a, &b), bytesum);
    }

    /// Equation 1: the metrics agree exactly when the XOR's set bits form
    /// a suffix (XOR = 2^k − 1).
    #[test]
    fn equation_one(a in arb_hash(), b in arb_hash()) {
        let mut xor = [0u8; 32];
        for i in 0..32 {
            xor[i] = a[i] ^ b[i];
        }
        // is xor of the form 2^k - 1? (big-endian all-ones suffix)
        let mut val: Option<u128> = None;
        // walk bytes big-endian building the value only when small enough
        if xor.iter().take(16).all(|&b| b == 0) {
            let mut v: u128 = 0;
            for &byte in &xor[16..] {
                v = (v << 8) | byte as u128;
            }
            val = Some(v);
        }
        if let Some(v) = val {
            let form = v != 0 && (v & (v + 1)) == 0; // 2^k - 1 test
            prop_assert_eq!(metrics_agree(&a, &b), form || v == 0 && a == b);
        } else {
            // top half nonzero: XOR >= 2^128, can only be 2^k-1 if ALL
            // lower bits are ones — verify via the byte pattern directly.
            let mut seen_partial = false;
            let mut ok = true;
            for &byte in xor.iter() {
                if seen_partial {
                    if byte != 0xff {
                        ok = false;
                        break;
                    }
                } else if byte != 0 {
                    // first nonzero byte must be of form 2^j - 1
                    let b = byte as u16;
                    if (b & (b + 1)) != 0 {
                        ok = false;
                        break;
                    }
                    seen_partial = true;
                }
            }
            prop_assert_eq!(metrics_agree(&a, &b), ok && seen_partial);
        }
    }

    /// xor_cmp is a total order consistent with equality.
    #[test]
    fn xor_cmp_order(t in arb_hash(), a in arb_hash(), b in arb_hash(), c in arb_hash()) {
        use std::cmp::Ordering;
        prop_assert_eq!(xor_cmp(&t, &a, &a), Ordering::Equal);
        prop_assert_eq!(xor_cmp(&t, &a, &b), xor_cmp(&t, &b, &a).reverse());
        // transitivity on a sorted triple
        let mut v = [a, b, c];
        v.sort_by(|x, y| xor_cmp(&t, x, y));
        prop_assert_ne!(xor_cmp(&t, &v[0], &v[1]), Ordering::Greater);
        prop_assert_ne!(xor_cmp(&t, &v[1], &v[2]), Ordering::Greater);
        prop_assert_ne!(xor_cmp(&t, &v[0], &v[2]), Ordering::Greater);
    }
}

fn arb_record() -> impl Strategy<Value = NodeRecord> {
    (proptest::array::uniform32(any::<u8>()), any::<u8>()).prop_map(|(half, last)| {
        let mut id = [0u8; 64];
        id[..32].copy_from_slice(&half);
        id[32] = last;
        NodeRecord::new(
            NodeId(id),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, last), 30303),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Table invariants: size bounds, no self, contains-after-add,
    /// closest() sorted by the active metric.
    #[test]
    fn table_invariants(records in proptest::collection::vec(arb_record(), 1..120),
                        metric_geth in any::<bool>(),
                        target in arb_hash()) {
        let metric = if metric_geth { Metric::GethLog2 } else { Metric::ParityByteSum };
        let local = NodeId([0xEEu8; 64]);
        let mut table = RoutingTable::new(local, metric);
        for (i, r) in records.iter().enumerate() {
            let _ = table.add(*r, i as u64);
        }
        prop_assert!(table.len() <= records.len());
        prop_assert!(table.len() <= MAX_BUCKETS * BUCKET_SIZE);
        prop_assert!(!table.contains(&local));
        for size in table.bucket_sizes() {
            prop_assert!(size <= BUCKET_SIZE);
        }
        let closest = table.closest(&target, 16);
        prop_assert!(closest.len() <= 16);
        for w in closest.windows(2) {
            let da = metric.distance(&target, &w[0].id.kad_hash());
            let db = metric.distance(&target, &w[1].id.kad_hash());
            prop_assert!(da <= db, "closest() not sorted under {metric:?}");
        }
        // remove everything we inserted; table drains
        for r in &records {
            table.remove(&r.id);
        }
        prop_assert!(table.is_empty());
    }
}
