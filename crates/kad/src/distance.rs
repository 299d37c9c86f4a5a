//! The two node-distance metrics observed on the 2018 Ethereum network.

/// Number of distinct bucket indices under the correct metric: distances
/// run 0 (identical hash) through 256, inclusive.
pub const MAX_BUCKETS: usize = 257;

/// Which log-distance implementation a node runs (§6.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Geth's correct metric: `⌊log₂(H(a) ⊕ H(b))⌋ + 1` expressed as
    /// "bit length of the XOR", i.e. `256 - leading_zeros`. Identical
    /// hashes give 0.
    GethLog2,
    /// Parity's incorrect metric (pre-fix): the **sum over all 32 bytes** of
    /// each XOR byte's bit length. Under it a random pair lands near 224
    /// with tiny variance, so bucket indices stop reflecting prefix
    /// closeness at all.
    ParityByteSum,
}

impl Metric {
    /// Compute this metric between two 32-byte hashes.
    pub fn distance(&self, a: &[u8; 32], b: &[u8; 32]) -> u32 {
        match self {
            Metric::GethLog2 => log_distance_geth(a, b),
            Metric::ParityByteSum => log_distance_parity(a, b),
        }
    }
}

/// Geth's log-distance: the bit length of `a ⊕ b` (0 when equal, 256 when
/// the top bit differs).
pub fn log_distance_geth(a: &[u8; 32], b: &[u8; 32]) -> u32 {
    for i in 0..32 {
        let x = a[i] ^ b[i];
        if x != 0 {
            let bits_below = ((31 - i) * 8) as u32;
            return bits_below + (8 - x.leading_zeros());
        }
    }
    0
}

/// Parity's buggy distance (paper Appendix A): sum of per-byte bit lengths
/// of the XOR.
pub fn log_distance_parity(a: &[u8; 32], b: &[u8; 32]) -> u32 {
    (0..32).map(|i| 8 - (a[i] ^ b[i]).leading_zeros()).sum()
}

/// Compare two hashes by raw XOR distance to a target (the tiebreaker used
/// when sorting lookup results — log distance alone is too coarse).
pub fn xor_cmp(target: &[u8; 32], a: &[u8; 32], b: &[u8; 32]) -> std::cmp::Ordering {
    for i in 0..32 {
        let da = target[i] ^ a[i];
        let db = target[i] ^ b[i];
        if da != db {
            return da.cmp(&db);
        }
    }
    std::cmp::Ordering::Equal
}

/// The paper's Equation (1): the two metrics agree exactly when the XOR
/// value is of the form 2^k − 1 (all set bits contiguous from the bottom).
/// Exposed for tests and the Fig 11 experiment.
pub fn metrics_agree(a: &[u8; 32], b: &[u8; 32]) -> bool {
    log_distance_geth(a, b) == log_distance_parity(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(byte_idx: usize, value: u8) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[byte_idx] = value;
        out
    }

    #[test]
    fn geth_distance_zero_for_equal() {
        let a = [0xabu8; 32];
        assert_eq!(log_distance_geth(&a, &a), 0);
        assert_eq!(log_distance_parity(&a, &a), 0);
    }

    #[test]
    fn geth_distance_top_bit() {
        let zero = [0u8; 32];
        assert_eq!(log_distance_geth(&zero, &h(0, 0x80)), 256);
        assert_eq!(log_distance_geth(&zero, &h(0, 0x01)), 249);
        assert_eq!(log_distance_geth(&zero, &h(31, 0x01)), 1);
        assert_eq!(log_distance_geth(&zero, &h(31, 0x02)), 2);
    }

    #[test]
    fn parity_distance_sums_bytes() {
        let zero = [0u8; 32];
        // one byte 0xff -> bit length 8
        assert_eq!(log_distance_parity(&zero, &h(5, 0xff)), 8);
        // two bytes: 0x80 (8) + 0x01 (1) = 9
        let mut b = [0u8; 32];
        b[0] = 0x80;
        b[31] = 0x01;
        assert_eq!(log_distance_parity(&zero, &b), 9);
        // all bytes 0xff -> 256
        assert_eq!(log_distance_parity(&zero, &[0xffu8; 32]), 256);
    }

    /// Parity's own loop (Appendix A), kept as the oracle for the
    /// `leading_zeros` form: every value a byte of the XOR can take, alone
    /// and summed with a second non-zero byte.
    #[test]
    fn parity_distance_matches_the_shift_loop_on_every_byte() {
        let zero = [0u8; 32];
        for value in 0..=255u8 {
            let mut v = value;
            let mut bit_len = 0;
            while v != 0 {
                v >>= 1;
                bit_len += 1;
            }
            for byte_idx in [0, 13, 31] {
                let mut x = h(byte_idx, value);
                assert_eq!(log_distance_parity(&zero, &x), bit_len, "{value:#04x}");
                x[7] = 0x10;
                assert_eq!(log_distance_parity(&x, &zero), bit_len + 5, "{value:#04x}");
            }
        }
    }

    #[test]
    fn equation_one_agreement_condition() {
        let zero = [0u8; 32];
        // XOR = 2^k - 1 patterns agree...
        let mut x = [0u8; 32];
        x[31] = 0x0f; // 2^4 - 1
        assert!(metrics_agree(&zero, &x));
        let mut y = [0u8; 32];
        y[30] = 0xff;
        y[31] = 0xff; // 2^16 - 1
        assert!(metrics_agree(&zero, &y));
        // ...everything else disagrees
        let mut z = [0u8; 32];
        z[31] = 0x05; // 0b101: geth 3, parity 3 — wait, bitlen(0b101)=3 both!
                      // single-byte XOR always agrees because bitlen == log2+1 there; the
                      // divergence needs multiple nonzero bytes:
        assert!(metrics_agree(&zero, &z));
        let mut w = [0u8; 32];
        w[0] = 0x01; // geth: 249
        w[31] = 0x01; // parity adds 1 more
        assert!(!metrics_agree(&zero, &w));
    }

    #[test]
    fn parity_random_pairs_concentrate_near_224() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut sum = 0u64;
        let trials = 2000;
        for _ in 0..trials {
            let a: [u8; 32] = rng.gen();
            let b: [u8; 32] = rng.gen();
            sum += log_distance_parity(&a, &b) as u64;
        }
        let mean = sum as f64 / trials as f64;
        // E[bitlen(uniform byte)] = 1793/256 ≈ 7.0039; ×32 ≈ 224.1
        assert!((mean - 224.1).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn geth_random_pairs_concentrate_at_top() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let mut at_256 = 0;
        let trials = 2000;
        for _ in 0..trials {
            let a: [u8; 32] = rng.gen();
            let b: [u8; 32] = rng.gen();
            if log_distance_geth(&a, &b) == 256 {
                at_256 += 1;
            }
        }
        // Half of random pairs differ in the top bit.
        let frac = at_256 as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn xor_cmp_orders_by_closeness() {
        let target = [0u8; 32];
        let near = h(31, 0x01);
        let far = h(0, 0x01);
        assert_eq!(xor_cmp(&target, &near, &far), std::cmp::Ordering::Less);
        assert_eq!(xor_cmp(&target, &far, &near), std::cmp::Ordering::Greater);
        assert_eq!(xor_cmp(&target, &near, &near), std::cmp::Ordering::Equal);
    }

    #[test]
    fn metric_enum_dispatch() {
        let zero = [0u8; 32];
        let x = h(0, 0x80);
        assert_eq!(Metric::GethLog2.distance(&zero, &x), 256);
        assert_eq!(Metric::ParityByteSum.distance(&zero, &x), 8);
    }
}
