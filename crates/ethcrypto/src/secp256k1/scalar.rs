//! Fast arithmetic modulo the curve order n.
//!
//! The generic [`U256::reduce512`] walks all 512 product bits and costs
//! microseconds per multiplication; every ECDSA sign/verify/recover pays it
//! several times. Like the base field, the scalar field admits a folding
//! reduction: 2^256 ≡ c (mod n) with c = 2^256 - n (a 129-bit constant), so
//! a 512-bit product collapses in a handful of 256-bit multiply-adds.

use super::point::N;
use crate::u256::U256;

/// c = 2^256 mod n = 2^256 - n (129 bits).
const C_N: U256 = U256([0x402DA1732FC9BEBF, 0x4551231950B75FC4, 1, 0]);

/// Reduce a 512-bit value modulo n by repeated folding of the high half.
///
/// Each fold replaces `hi·2^256` with `hi·c`, shrinking the high half by
/// ~127 bits, so the loop runs at most four times.
pub fn reduce_wide_n(wide: &[u64; 8]) -> U256 {
    let mut lo = U256([wide[0], wide[1], wide[2], wide[3]]);
    let mut hi = U256([wide[4], wide[5], wide[6], wide[7]]);
    while !hi.is_zero() {
        let prod = hi.widening_mul(&C_N); // <= 385 bits
        let (sum, carry) = lo.overflowing_add(&U256([prod[0], prod[1], prod[2], prod[3]]));
        lo = sum;
        hi = U256([prod[4], prod[5], prod[6], prod[7]]);
        if carry {
            // prod's high half is far below 2^256 - 1, so this cannot wrap.
            hi = hi.overflowing_add(&U256::ONE).0;
        }
    }
    while lo.ge(&N) {
        lo = lo.wrapping_sub(&N);
    }
    lo
}

/// `(a * b) mod n` with the folding reduction.
pub fn mul_mod_n(a: &U256, b: &U256) -> U256 {
    let wide = a.widening_mul(b);
    reduce_wide_n(&wide)
}

/// λ, a primitive cube root of unity mod n: `λ·(x, y) = (β·x, y)` for every
/// curve point (β is `point::BETA`).
pub(crate) const LAMBDA: U256 = U256([
    0xDF02967C1B23BD72,
    0x122E22EA20816678,
    0xA5261C028812645A,
    0x5363AD4CC05C30E0,
]);

// The lattice {(a, b) : a + b·λ ≡ 0 (mod n)} has the short basis
// (a1, b1), (a2, b2) with every entry < 2^129; these are libsecp256k1's
// constants for rounding k onto it: g1 = round(2^384·b2/n),
// g2 = round(2^384·(−b1)/n).
const G1: U256 = U256([
    0xE893209A45DBB031,
    0x3DAA8A1471E8CA7F,
    0xE86C90E49284EB15,
    0x3086D221A7D46BCD,
]);
const G2: U256 = U256([
    0x1571B4AE8AC47F71,
    0x221208AC9DF506C6,
    0x6F547FA90ABFE4C4,
    0xE4437ED6010E8828,
]);
const MINUS_B1: U256 = U256([0x6F547FA90ABFE4C3, 0xE4437ED6010E8828, 0, 0]);
const MINUS_B2: U256 = U256([
    0xD765CDA83DB1562C,
    0x8A280AC50774346D,
    0xFFFFFFFFFFFFFFFE,
    0xFFFFFFFFFFFFFFFF,
]);

/// `round(a·b / 2^384)`.
fn mul_shift_384(a: &U256, b: &U256) -> U256 {
    let wide = a.widening_mul(b);
    let (lo, carry) = wide[6].overflowing_add(wide[5] >> 63);
    U256([lo, wide[7] + carry as u64, 0, 0])
}

/// One half of a GLV split: a magnitude below 2^128 and its sign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HalfScalar {
    pub(crate) abs: u128,
    pub(crate) neg: bool,
}

impl HalfScalar {
    /// From a residue mod n that is within 2^128 of 0 on either side.
    fn from_residue(r: &U256) -> HalfScalar {
        let neg = r.0[2] != 0 || r.0[3] != 0;
        let m = if neg { N.wrapping_sub(r) } else { *r };
        assert!(m.0[2] == 0 && m.0[3] == 0, "GLV half exceeds 128 bits");
        HalfScalar {
            abs: (m.0[1] as u128) << 64 | m.0[0] as u128,
            neg,
        }
    }
}

/// GLV decomposition: `(k1, k2)` with `k1 + k2·λ ≡ k (mod n)` and
/// `|kᵢ| < 2^128`, for `k < n` (libsecp256k1's `scalar_split_lambda`).
pub(crate) fn split_lambda(k: &U256) -> (HalfScalar, HalfScalar) {
    debug_assert!(k.lt(&N));
    let c1 = mul_mod_n(&mul_shift_384(k, &G1), &MINUS_B1);
    let c2 = mul_mod_n(&mul_shift_384(k, &G2), &MINUS_B2);
    let r2 = c1.add_mod(&c2, &N);
    let r1 = k.sub_mod(&mul_mod_n(&r2, &LAMBDA), &N);
    (HalfScalar::from_residue(&r1), HalfScalar::from_residue(&r2))
}

/// Scalars that corner the GLV split — either half zero (1, λ and their
/// negatives), both halves negative (2^128 ± 1), the sign change at n/2 —
/// shared by the split tests here and the multiplication tests in `point`.
#[cfg(test)]
pub(crate) fn glv_edge_scalars() -> [U256; 10] {
    let half = N.shr1(); // (n-1)/2
    let two128 = U256([0, 0, 1, 0]);
    [
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        LAMBDA,
        N.wrapping_sub(&LAMBDA),
        half,
        half.overflowing_add(&U256::ONE).0,
        two128.wrapping_sub(&U256::ONE),
        two128.overflowing_add(&U256::ONE).0,
        N.wrapping_sub(&U256::ONE),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c_n_constant_is_correct() {
        // n + c == 2^256
        let (sum, carry) = N.overflowing_add(&C_N);
        assert!(carry);
        assert!(sum.is_zero());
    }

    #[test]
    fn matches_generic_reduction() {
        let samples = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(0xdeadbeef),
            N.wrapping_sub(&U256::ONE),
            U256([u64::MAX; 4]),
            U256([0x1234567890abcdef, 0xfedcba0987654321, 0x1111, 0x2222]),
            C_N,
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(mul_mod_n(a, b), a.mul_mod(b, &N), "a={a:?} b={b:?}");
            }
        }
    }

    fn half_to_residue(h: &HalfScalar) -> U256 {
        let m = U256([h.abs as u64, (h.abs >> 64) as u64, 0, 0]);
        if h.neg {
            U256::ZERO.sub_mod(&m, &N)
        } else {
            m
        }
    }

    fn check_split(k: &U256) -> (HalfScalar, HalfScalar) {
        let (k1, k2) = split_lambda(k);
        let back = half_to_residue(&k1).add_mod(&mul_mod_n(&half_to_residue(&k2), &LAMBDA), &N);
        assert_eq!(back, *k, "k1 + k2·λ != k for {k:?}");
        (k1, k2)
    }

    #[test]
    fn lambda_is_a_cube_root_of_unity() {
        assert_ne!(LAMBDA, U256::ONE);
        assert_eq!(mul_mod_n(&mul_mod_n(&LAMBDA, &LAMBDA), &LAMBDA), U256::ONE);
    }

    #[test]
    fn split_lambda_recombines_on_edge_scalars() {
        for k in glv_edge_scalars() {
            check_split(&k);
        }
        // The set covers a zero and a negative value in each half.
        let zero = HalfScalar { abs: 0, neg: false };
        assert_eq!(
            check_split(&U256::ONE),
            (HalfScalar { abs: 1, neg: false }, zero)
        );
        assert_eq!(
            check_split(&LAMBDA),
            (zero, HalfScalar { abs: 1, neg: false })
        );
        assert_eq!(
            check_split(&N.wrapping_sub(&U256::ONE)).0,
            HalfScalar { abs: 1, neg: true }
        );
        assert_eq!(
            check_split(&N.wrapping_sub(&LAMBDA)).1,
            HalfScalar { abs: 1, neg: true }
        );
    }

    #[test]
    fn split_lambda_recombines_on_pseudorandom_scalars() {
        let mut s: u64 = 0xA0761D6478BD642F;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..2_000 {
            let k = U256([next(), next(), next(), next()]);
            let k = if k.ge(&N) { k.wrapping_sub(&N) } else { k };
            check_split(&k);
        }
    }

    #[test]
    fn matches_generic_on_pseudorandom_inputs() {
        // Deterministic xorshift walk over limb patterns.
        let mut s: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..64 {
            let a = U256([next(), next(), next(), next()]);
            let b = U256([next(), next(), next(), next()]);
            assert_eq!(mul_mod_n(&a, &b), a.mul_mod(&b, &N));
        }
    }
}
