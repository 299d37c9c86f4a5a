//! Arithmetic in the secp256k1 base field GF(p), p = 2^256 - 2^32 - 977.
//!
//! Uses the special prime form for fast reduction: 2^256 ≡ c (mod p) with
//! c = 2^32 + 977, so a 512-bit product folds to 256 bits in two passes and
//! subtracting p is adding c and dropping the carry. Elements stay canonical
//! (`< p`), so equality, parity and serialization read the limbs directly.

use crate::u256::U256;

/// The field prime p = 2^256 - 2^32 - 977.
pub const P: U256 = U256([
    0xFFFFFFFEFFFFFC2F,
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFF,
    0xFFFFFFFFFFFFFFFF,
]);

/// c = 2^256 mod p = 2^32 + 977.
const C: u64 = 0x1_000003D1;

/// An element of GF(p); invariant: value < p.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fe(pub U256);

impl Fe {
    /// Additive identity.
    pub const ZERO: Fe = Fe(U256::ZERO);
    /// Multiplicative identity.
    pub const ONE: Fe = Fe(U256::ONE);

    /// From a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe(U256::from_u64(v))
    }

    /// From 32 big-endian bytes, reducing mod p if necessary.
    pub fn from_be_bytes_reduced(b: &[u8; 32]) -> Fe {
        let v = U256::from_be_bytes(b);
        if v.ge(&P) {
            Fe(v.wrapping_sub(&P))
        } else {
            Fe(v)
        }
    }

    /// From 32 big-endian bytes; `None` if the value is >= p (strict parsing
    /// for public key coordinates).
    pub fn from_be_bytes(b: &[u8; 32]) -> Option<Fe> {
        let v = U256::from_be_bytes(b);
        if v.ge(&P) {
            None
        } else {
            Some(Fe(v))
        }
    }

    /// Serialize to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// Whether this is 0.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Whether the canonical representative is odd (used for point
    /// compression and the ECDSA recovery id).
    pub fn is_odd(&self) -> bool {
        self.0.is_odd()
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, other: &Fe) -> Fe {
        let (sum, carry) = self.0.overflowing_add(&other.0);
        // a + b < 2p, and ≥ p for half of all operand pairs: select the
        // reduced form with a mask, not a coin-flip branch.
        let (reduced, over) = sum.overflowing_add(&MINUS_P);
        debug_assert!(!(carry && over));
        let mask = ((carry | over) as u64).wrapping_neg();
        Fe(U256(std::array::from_fn(|i| {
            (reduced.0[i] & mask) | (sum.0[i] & !mask)
        })))
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, other: &Fe) -> Fe {
        let (diff, borrow) = self.0.overflowing_sub(&other.0);
        // On borrow the limbs hold a − b + 2^256 and the answer is
        // a − b + p = that − C; it is ≥ 2^256 − p + 1 > C, so no second borrow.
        let c = U256::from_u64(C & (borrow as u64).wrapping_neg());
        let (diff, borrow) = diff.overflowing_sub(&c);
        debug_assert!(!borrow);
        Fe(diff)
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication with the fast special-prime reduction.
    #[inline]
    pub fn mul(&self, other: &Fe) -> Fe {
        Fe(reduce_wide(self.0.widening_mul(&other.0)))
    }

    /// Field squaring.
    #[inline]
    pub fn square(&self) -> Fe {
        Fe(reduce_wide(self.0.widening_square()))
    }

    /// Double the element (cheap addition, not a multiplication).
    pub fn double_fe(&self) -> Fe {
        self.add(self)
    }

    /// Multiply by a small constant via an addition chain — the point
    /// formulas use ×2/×3/×4/×8 constantly and a full field mul there
    /// roughly doubles scalar-mul cost.
    pub fn mul_small(&self, k: u64) -> Fe {
        match k {
            0 => Fe::ZERO,
            1 => *self,
            2 => self.double_fe(),
            3 => self.double_fe().add(self),
            4 => self.double_fe().double_fe(),
            8 => self.double_fe().double_fe().double_fe(),
            _ => self.mul(&Fe::from_u64(k)),
        }
    }

    /// Multiplicative inverse; `None` for zero.
    pub fn inv(&self) -> Option<Fe> {
        self.0.inv_mod(&P).map(Fe)
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, exp: &U256) -> Fe {
        let mut result = Fe::ONE;
        let Some(top) = exp.highest_bit() else {
            return Fe::ONE;
        };
        for i in (0..=top).rev() {
            result = result.square();
            if exp.bit(i) {
                result = result.mul(self);
            }
        }
        result
    }

    /// Square root via x^((p+1)/4) (valid because p ≡ 3 mod 4). Returns
    /// `None` if the input is a quadratic non-residue.
    pub fn sqrt(&self) -> Option<Fe> {
        // (p+1)/4
        const EXP: U256 = U256([
            0xFFFFFFFFBFFFFF0C,
            0xFFFFFFFFFFFFFFFF,
            0xFFFFFFFFFFFFFFFF,
            0x3FFFFFFFFFFFFFFF,
        ]);
        let root = self.pow(&EXP);
        if root.square() == *self {
            Some(root)
        } else {
            None
        }
    }
}

/// 2^256 − p. For `v = limbs + carry·2^256 < 2p`, `v − p = v + C − 2^256`,
/// so `v ≥ p` exactly when `v + C` reaches 2^256 — `carry` is already set or
/// `limbs + MINUS_P` carries out (never both) — and then the canonical form
/// of `v` is the low 256 bits of that sum.
const MINUS_P: U256 = U256([C, 0, 0, 0]);

/// Reduce a 512-bit product modulo p using 2^256 ≡ c.
#[inline]
fn reduce_wide(wide: [u64; 8]) -> U256 {
    // First fold: lo + hi·C. The four products are independent; each is
    // < 2^98, so a column sum of two halves, a limb and a carry fits u128.
    let m = [
        wide[4] as u128 * C as u128,
        wide[5] as u128 * C as u128,
        wide[6] as u128 * C as u128,
        wide[7] as u128 * C as u128,
    ];
    let mut acc = [0u64; 4];
    let mut t = wide[0] as u128 + (m[0] as u64) as u128;
    acc[0] = t as u64;
    for i in 1..4 {
        t = wide[i] as u128 + (m[i - 1] >> 64) + (m[i] as u64) as u128 + (t >> 64);
        acc[i] = t as u64;
    }
    let top = (m[3] >> 64) + (t >> 64); // < 2^34

    // Second fold: top·C < 2^68 into the low limbs. If that carries out, the
    // limbs wrapped to < 2^68 and the value is 2^256 + limbs < 2p.
    let extra = top * C as u128;
    let (acc, carry) = U256(acc).overflowing_add(&U256([extra as u64, (extra >> 64) as u64, 0, 0]));
    // Below 2p either way, and ≥ p about once in 2^188 products: a branch
    // the predictor never misses beats a select on the dependency chain.
    let (reduced, over) = acc.overflowing_add(&MINUS_P);
    debug_assert!(!(carry && over));
    if carry | over {
        reduced
    } else {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_constant_is_correct() {
        // p + c == 2^256  (i.e. p = 2^256 - c)
        let (sum, carry) = P.overflowing_add(&U256([C, 0, 0, 0]));
        assert!(carry);
        assert!(sum.is_zero());
    }

    #[test]
    fn mul_matches_generic_reduction() {
        let a = Fe(U256([
            0x1234567890abcdef,
            0xfedcba0987654321,
            0x1111,
            0x2222,
        ]));
        let b = Fe(U256([
            0xdeadbeefcafebabe,
            0x0123456789abcdef,
            0x3333,
            0x4444,
        ]));
        let fast = a.mul(&b);
        let slow = a.0.mul_mod(&b.0, &P);
        assert_eq!(fast.0, slow);
    }

    /// Every kernel against the bitwise `U256::reduce512` path.
    fn check_against_generic(a: &Fe, b: &Fe) {
        assert_eq!(a.add(b).0, a.0.add_mod(&b.0, &P), "add {a:?} {b:?}");
        assert_eq!(a.sub(b).0, a.0.sub_mod(&b.0, &P), "sub {a:?} {b:?}");
        assert_eq!(a.neg().0, U256::ZERO.sub_mod(&a.0, &P), "neg {a:?}");
        assert_eq!(a.mul(b).0, a.0.mul_mod(&b.0, &P), "mul {a:?} {b:?}");
        assert_eq!(a.square().0, a.0.mul_mod(&a.0, &P), "square {a:?}");
        assert_eq!(a.0.widening_square(), a.0.widening_mul(&a.0));
    }

    #[test]
    fn kernels_match_generic_on_edge_values() {
        let c = U256::from_u64(C);
        let mut edges = vec![
            Fe::ZERO,
            Fe::ONE,
            Fe(c.wrapping_sub(&U256::ONE)),
            Fe(c),
            Fe(P.wrapping_sub(&c)),
            Fe(P.wrapping_sub(&U256::ONE)),
            Fe(U256([0, 0, 0, 1 << 63])),
            Fe::from_be_bytes_reduced(&[0xff; 32]),
        ];
        // one limb of all-ones at a time, and all but the top bit
        for i in 0..4 {
            let mut limbs = [0u64; 4];
            limbs[i] = u64::MAX;
            edges.push(Fe::from_be_bytes_reduced(&U256(limbs).to_be_bytes()));
        }
        edges.push(Fe(U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX >> 1])));
        for a in &edges {
            assert!(a.0.lt(&P));
            for b in &edges {
                check_against_generic(a, b);
            }
        }
    }

    #[test]
    fn kernels_match_generic_on_pseudorandom_pairs() {
        let mut s: u64 = 0x2545F4914F6CDD1D;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..10_000 {
            let a =
                Fe::from_be_bytes_reduced(&U256([next(), next(), next(), next()]).to_be_bytes());
            let b =
                Fe::from_be_bytes_reduced(&U256([next(), next(), next(), next()]).to_be_bytes());
            check_against_generic(&a, &b);
        }
    }

    #[test]
    fn mul_near_p() {
        let pm1 = Fe(P.wrapping_sub(&U256::ONE));
        // (p-1)^2 mod p = 1
        assert_eq!(pm1.mul(&pm1), Fe::ONE);
        assert_eq!(pm1.add(&Fe::ONE), Fe::ZERO);
        assert_eq!(Fe::ZERO.sub(&Fe::ONE), pm1);
    }

    #[test]
    fn inverse_roundtrip() {
        for v in [1u64, 2, 3, 997, 0xffffffff] {
            let fe = Fe::from_u64(v);
            assert_eq!(fe.mul(&fe.inv().unwrap()), Fe::ONE);
        }
        assert!(Fe::ZERO.inv().is_none());
    }

    #[test]
    fn sqrt_roundtrip() {
        for v in [4u64, 9, 16, 12345 * 12345] {
            let fe = Fe::from_u64(v);
            let r = fe.sqrt().unwrap();
            assert_eq!(r.square(), fe);
        }
    }

    #[test]
    fn sqrt_of_nonresidue_fails() {
        // 7 happens to be a residue mod p (y^2 = x^3 + 7 at x=... anyway);
        // find a non-residue by testing: for p ≡ 3 mod 4, -1 is a
        // non-residue when the Legendre symbol says so; -1 is a non-residue
        // iff p ≡ 3 mod 4, which holds.
        let minus_one = Fe::ZERO.sub(&Fe::ONE);
        assert!(minus_one.sqrt().is_none());
    }

    #[test]
    fn pow_small() {
        let three = Fe::from_u64(3);
        assert_eq!(three.pow(&U256::from_u64(4)), Fe::from_u64(81));
        assert_eq!(three.pow(&U256::ZERO), Fe::ONE);
    }
}
