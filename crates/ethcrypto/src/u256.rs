//! Minimal 256-bit unsigned integer arithmetic.
//!
//! Four little-endian `u64` limbs, with exactly the operations the
//! secp256k1 implementation needs: comparison, add/sub with carry, widening
//! multiplication to 512 bits, bit access, and a generic (slow, bitwise)
//! 512-bit modular reduction used for the scalar field. The prime field uses
//! a dedicated fast reduction in `secp256k1::field` instead.

// Limb arithmetic reads more clearly with explicit indices than with
// iterator adapters; silence the pedantic loop lint for this module.
#![allow(clippy::needless_range_loop)]

/// A 256-bit unsigned integer; limbs are little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value 0.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Construct from 32 big-endian bytes.
    pub fn from_be_bytes(b: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut v = 0u64;
            for j in 0..8 {
                v = (v << 8) | b[i * 8 + j] as u64;
            }
            limbs[3 - i] = v;
        }
        U256(limbs)
    }

    /// Serialize to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.0[3 - i].to_be_bytes());
        }
        out
    }

    /// Construct from a small value.
    pub fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Whether the low bit is set.
    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// The `i`-th bit (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<usize> {
        for limb in (0..4).rev() {
            if self.0[limb] != 0 {
                return Some(limb * 64 + 63 - self.0[limb].leading_zeros() as usize);
            }
        }
        None
    }

    /// Three-way comparison.
    pub fn cmp_u(&self, other: &U256) -> std::cmp::Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                std::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        std::cmp::Ordering::Equal
    }

    /// `self < other`.
    pub fn lt(&self, other: &U256) -> bool {
        self.cmp_u(other) == std::cmp::Ordering::Less
    }

    /// `self >= other`.
    pub fn ge(&self, other: &U256) -> bool {
        !self.lt(other)
    }

    /// Addition returning (sum, carry).
    #[inline]
    pub fn overflowing_add(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let t = self.0[i] as u128 + other.0[i] as u128 + carry as u128;
            out[i] = t as u64;
            carry = (t >> 64) as u64;
        }
        (U256(out), carry != 0)
    }

    /// Subtraction returning (difference, borrow).
    #[inline]
    pub fn overflowing_sub(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(other.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Wrapping subtraction (caller has checked `self >= other`).
    pub fn wrapping_sub(&self, other: &U256) -> U256 {
        self.overflowing_sub(other).0
    }

    /// Shift left by one bit returning (value, carried-out bit).
    pub fn shl1(&self) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            out[i] = (self.0[i] << 1) | carry;
            carry = self.0[i] >> 63;
        }
        (U256(out), carry != 0)
    }

    /// Shift right by one bit.
    pub fn shr1(&self) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in (0..4).rev() {
            out[i] = (self.0[i] >> 1) | (carry << 63);
            carry = self.0[i] & 1;
        }
        U256(out)
    }

    /// Full 256×256 → 512-bit product, little-endian limbs.
    ///
    /// Fixed-trip schoolbook: row `i` leaves its carry in `out[i + 4]`, which
    /// no earlier row has written, so there is no carry-propagation loop.
    #[inline]
    pub fn widening_mul(&self, other: &U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                // (2^64-1)^2 + 2·(2^64-1) = 2^128 - 1: cannot overflow.
                let acc = out[i + j] as u128 + self.0[i] as u128 * other.0[j] as u128 + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        out
    }

    /// `self²` as a 512-bit value: the six cross products once, doubled,
    /// plus the four squares — 10 limb products instead of 16.
    #[inline]
    pub(crate) fn widening_square(&self) -> [u64; 8] {
        let a = &self.0;
        let mut out = [0u64; 8];
        // Σ_{i<j} a_i·a_j·2^(64(i+j)), rows as in `widening_mul`.
        for i in 0..3 {
            let mut carry = 0u128;
            for j in i + 1..4 {
                let acc = out[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            out[i + 4] = carry as u64;
        }
        // The cross sum is < 2^448 (out[7] is still 0): doubling shifts nothing out.
        for i in (1..8).rev() {
            out[i] = (out[i] << 1) | (out[i - 1] >> 63);
        }
        let mut carry = 0u128;
        for i in 0..4 {
            let sq = a[i] as u128 * a[i] as u128;
            let lo = out[2 * i] as u128 + (sq as u64) as u128 + carry;
            out[2 * i] = lo as u64;
            let hi = out[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
            out[2 * i + 1] = hi as u64;
            carry = hi >> 64;
        }
        debug_assert_eq!(carry, 0, "a² < 2^512");
        out
    }

    /// Reduce a 512-bit value modulo `m` (generic bitwise algorithm).
    ///
    /// Requires `m > 2^255` (true for both secp256k1 moduli), which
    /// guarantees that after a shift a single conditional subtraction
    /// restores the invariant `r < m`.
    pub fn reduce512(wide: &[u64; 8], m: &U256) -> U256 {
        debug_assert!(
            m.0[3] >> 63 == 1 || m.0[3] >= 1 << 62,
            "modulus too small for reduce512"
        );
        let mut r = U256::ZERO;
        for bit in (0..512).rev() {
            let (shifted, carry) = r.shl1();
            r = shifted;
            let b = (wide[bit / 64] >> (bit % 64)) & 1;
            if b == 1 {
                r.0[0] |= 1;
            }
            if carry || r.ge(m) {
                r = r.wrapping_sub(m);
            }
        }
        r
    }

    /// `(self * other) mod m` via [`U256::reduce512`].
    pub fn mul_mod(&self, other: &U256, m: &U256) -> U256 {
        let wide = self.widening_mul(other);
        Self::reduce512(&wide, m)
    }

    /// `(self + other) mod m`, assuming both inputs are already `< m`.
    pub fn add_mod(&self, other: &U256, m: &U256) -> U256 {
        let (sum, carry) = self.overflowing_add(other);
        if carry || sum.ge(m) {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    /// `(self - other) mod m`, assuming both inputs are already `< m`.
    pub fn sub_mod(&self, other: &U256, m: &U256) -> U256 {
        let (diff, borrow) = self.overflowing_sub(other);
        if borrow {
            diff.overflowing_add(m).0
        } else {
            diff
        }
    }

    /// Modular inverse (returns `None` for 0 or non-coprime input; `m` must
    /// be odd, which both curve moduli are).
    ///
    /// Implemented with batched division steps (`crate::modinv`); the
    /// differential oracle against the classic binary extended GCD lives in
    /// that module's tests.
    pub fn inv_mod(&self, m: &U256) -> Option<U256> {
        crate::modinv::inv_mod_odd(&self.0, &m.0).map(U256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn be_bytes_roundtrip() {
        let mut b = [0u8; 32];
        for (i, x) in b.iter_mut().enumerate() {
            *x = i as u8;
        }
        let v = U256::from_be_bytes(&b);
        assert_eq!(v.to_be_bytes(), b);
    }

    #[test]
    fn add_sub_inverse() {
        let a = U256([u64::MAX, 5, 0, 7]);
        let b = U256([3, u64::MAX, 1, 0]);
        let (s, _) = a.overflowing_add(&b);
        let (d, borrow) = s.overflowing_sub(&b);
        assert!(!borrow);
        assert_eq!(d, a);
    }

    #[test]
    fn widening_mul_small() {
        let a = n(0xffff_ffff);
        let b = n(0xffff_ffff);
        let w = a.widening_mul(&b);
        assert_eq!(w[0], 0xffff_fffe_0000_0001);
        assert!(w[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn mul_mod_matches_u128() {
        let m = U256([0xffff_ffff_ffff_ff43, u64::MAX, u64::MAX, u64::MAX]);
        for (a, b) in [(3u64, 5u64), (u64::MAX, u64::MAX), (12345, 99999)] {
            let got = n(a).mul_mod(&n(b), &m);
            let want = (a as u128) * (b as u128);
            assert_eq!(got.0[0], want as u64);
            assert_eq!(got.0[1], (want >> 64) as u64);
        }
    }

    #[test]
    fn inv_mod_small() {
        // modulus = secp256k1 order-like large odd number; check a*a^-1 = 1
        let m = U256([
            0xBFD25E8CD0364141,
            0xBAAEDCE6AF48A03B,
            0xFFFFFFFFFFFFFFFE,
            0xFFFFFFFFFFFFFFFF,
        ]);
        for a in [1u64, 2, 3, 12345, 0xdeadbeef] {
            let a = n(a);
            let inv = a.inv_mod(&m).unwrap();
            assert_eq!(a.mul_mod(&inv, &m), U256::ONE);
        }
        assert!(U256::ZERO.inv_mod(&m).is_none());
    }

    #[test]
    fn shifts() {
        let v = U256([1, 0, 0, 0x8000_0000_0000_0000]);
        let (s, carry) = v.shl1();
        assert!(carry);
        assert_eq!(s.0[0], 2);
        assert_eq!(v.shr1().0[3], 0x4000_0000_0000_0000);
    }

    #[test]
    fn bit_access() {
        let v = U256([0b1010, 0, 1, 0]);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(v.bit(128));
        assert_eq!(v.highest_bit(), Some(128));
        assert_eq!(U256::ZERO.highest_bit(), None);
    }
}
