//! Group arithmetic on the secp256k1 curve y² = x³ + 7 over GF(p).
//!
//! Points are manipulated in Jacobian coordinates (X, Y, Z) with
//! x = X/Z², y = Y/Z³ so that additions and doublings need no field
//! inversions; a single inversion converts back to affine at the end.

use super::field::Fe;
use super::scalar::split_lambda;
use crate::u256::U256;

/// The curve order n (number of points / order of the generator).
pub const N: U256 = U256([
    0xBFD25E8CD0364141,
    0xBAAEDCE6AF48A03B,
    0xFFFFFFFFFFFFFFFE,
    0xFFFFFFFFFFFFFFFF,
]);

/// Generator x coordinate.
pub const GX: U256 = U256([
    0x59F2815B16F81798,
    0x029BFCDB2DCE28D9,
    0x55A06295CE870B07,
    0x79BE667EF9DCBBAC,
]);

/// Generator y coordinate.
pub const GY: U256 = U256([
    0x9C47D08FFB10D4B8,
    0xFD17B448A6855419,
    0x5DA4FBFC0E1108A8,
    0x483ADA7726A3C465,
]);

/// β, a primitive cube root of unity mod p: `(x, y) ↦ (β·x, y)` is the curve
/// endomorphism that multiplies by `scalar::LAMBDA`.
const BETA: Fe = Fe(U256([
    0xC1396C28719501EE,
    0x9CF0497512F58995,
    0x6E64479EAC3434E9,
    0x7AE96A2B657C0710,
]));

/// A point in affine coordinates, or infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Affine {
    /// The point at infinity (group identity).
    Infinity,
    /// A finite point (x, y).
    Point {
        /// x coordinate.
        x: Fe,
        /// y coordinate.
        y: Fe,
    },
}

impl Affine {
    /// The curve generator G.
    pub fn generator() -> Affine {
        Affine::Point {
            x: Fe(GX),
            y: Fe(GY),
        }
    }

    /// Construct from coordinates, verifying the curve equation.
    pub fn new_checked(x: Fe, y: Fe) -> Option<Affine> {
        let lhs = y.square();
        let rhs = x.square().mul(&x).add(&Fe::from_u64(7));
        if lhs == rhs {
            Some(Affine::Point { x, y })
        } else {
            None
        }
    }

    /// Recover a point from an x coordinate and the parity of y.
    pub fn from_x(x: Fe, y_odd: bool) -> Option<Affine> {
        let rhs = x.square().mul(&x).add(&Fe::from_u64(7));
        let mut y = rhs.sqrt()?;
        if y.is_odd() != y_odd {
            y = y.neg();
        }
        Some(Affine::Point { x, y })
    }

    /// Whether this is the identity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Affine::Infinity)
    }

    /// Negate (reflect across the x axis).
    pub fn neg(&self) -> Affine {
        match self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point { x: *x, y: y.neg() },
        }
    }

    /// Serialize as the 64-byte uncompressed `x || y` used for DEVp2p node
    /// IDs (no 0x04 prefix).
    pub fn to_xy_bytes(&self) -> Option<[u8; 64]> {
        match self {
            Affine::Infinity => None,
            Affine::Point { x, y } => {
                let mut out = [0u8; 64];
                out[..32].copy_from_slice(&x.to_be_bytes());
                out[32..].copy_from_slice(&y.to_be_bytes());
                Some(out)
            }
        }
    }

    /// Parse a 64-byte `x || y` public key.
    pub fn from_xy_bytes(b: &[u8; 64]) -> Option<Affine> {
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&b[..32]);
        yb.copy_from_slice(&b[32..]);
        let x = Fe::from_be_bytes(&xb)?;
        let y = Fe::from_be_bytes(&yb)?;
        Affine::new_checked(x, y)
    }
}

/// A point in Jacobian coordinates. Z = 0 encodes infinity.
#[derive(Debug, Clone, Copy)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Jacobian {
    /// The identity element.
    pub fn infinity() -> Jacobian {
        Jacobian {
            x: Fe::ONE,
            y: Fe::ONE,
            z: Fe::ZERO,
        }
    }

    /// Lift an affine point.
    pub fn from_affine(p: &Affine) -> Jacobian {
        match p {
            Affine::Infinity => Jacobian::infinity(),
            Affine::Point { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: Fe::ONE,
            },
        }
    }

    /// Whether this is the identity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Convert back to affine coordinates (one field inversion).
    pub fn to_affine(self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let zinv = self.z.inv().expect("nonzero z");
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        Affine::Point {
            x: self.x.mul(&zinv2),
            y: self.y.mul(&zinv3),
        }
    }

    /// Point doubling (dbl-2007-a formulas, a = 0 case).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::infinity();
        }
        let a = self.x.square(); // X²
        let b = self.y.square(); // Y²
        let c = b.square(); // Y⁴
                            // D = 2*((X+B)² - A - C)
        let d = self.x.add(&b).square().sub(&a).sub(&c).mul_small(2);
        let e = a.mul_small(3); // 3X²
        let f = e.square();
        let x3 = f.sub(&d.mul_small(2));
        let y3 = e.mul(&d.sub(&x3)).sub(&c.mul_small(8));
        let z3 = self.y.mul(&self.z).mul_small(2);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (add-2007-bl with Z2 = 1).
    pub fn add_affine(&self, other: &Affine) -> Jacobian {
        match other {
            Affine::Infinity => *self,
            Affine::Point { x, y } => self.add_xy(x, y),
        }
    }

    /// Mixed addition with the finite affine point `(x2, y2)`.
    fn add_xy(&self, x2: &Fe, y2: &Fe) -> Jacobian {
        if self.is_infinity() {
            return Jacobian {
                x: *x2,
                y: *y2,
                z: Fe::ONE,
            };
        }
        let z1z1 = self.z.square();
        let u2 = x2.mul(&z1z1);
        let s2 = y2.mul(&self.z).mul(&z1z1);
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Jacobian::infinity();
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.mul_small(4);
        let j = h.mul(&i);
        let r = s2.sub(&self.y).mul_small(2);
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.mul_small(2));
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).mul_small(2));
        let z3 = self.z.add(&h).square().sub(&z1z1).sub(&hh);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian + Jacobian addition.
    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = other.x.mul(&z1z1);
        let s1 = self.y.mul(&other.z).mul(&z2z2);
        let s2 = other.y.mul(&self.z).mul(&z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::infinity();
        }
        let h = u2.sub(&u1);
        let i = h.mul_small(2).square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).mul_small(2);
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.mul_small(2));
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).mul_small(2));
        let z3 = self.z.add(&other.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }
}

/// A finite affine point as the lookup tables store it: 64 bytes on one
/// cache line (an `Affine` is 72 and straddles two).
#[derive(Clone, Copy)]
#[repr(align(64))]
struct TableEntry {
    x: Fe,
    y: Fe,
}

impl TableEntry {
    const ZERO: TableEntry = TableEntry {
        x: Fe::ZERO,
        y: Fe::ZERO,
    };
}

/// Convert a batch of finite Jacobian points to affine with a single field
/// inversion (Montgomery's trick). All inputs must have nonzero Z.
fn batch_to_affine(pts: &[Jacobian], out: &mut [TableEntry]) {
    assert_eq!(pts.len(), out.len());
    // Until its entry is written, out[i].x holds the prefix product z_0·…·z_i.
    let mut acc = Fe::ONE;
    for (p, o) in pts.iter().zip(out.iter_mut()) {
        acc = acc.mul(&p.z);
        o.x = acc;
    }
    let mut inv = acc.inv().expect("all Z coordinates nonzero");
    for i in (0..pts.len()).rev() {
        let zinv = if i == 0 { inv } else { inv.mul(&out[i - 1].x) };
        inv = inv.mul(&pts[i].z);
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(&zinv);
        out[i] = TableEntry {
            x: pts[i].x.mul(&zinv2),
            y: pts[i].y.mul(&zinv3),
        };
    }
}

/// Width-5 wNAF digits of one GLV half, least-significant first. Nonzero
/// digits are odd and in `[-15, 15]`; returns the digit array and its length.
fn wnaf5(mut d: u128) -> ([i8; 130], usize) {
    let mut digits = [0i8; 130];
    let mut i = 0;
    while d != 0 {
        if d & 1 == 1 {
            let low = (d & 31) as i8; // d mod 32, odd
            let digit = if low >= 16 { low - 32 } else { low };
            digits[i] = digit;
            if digit > 0 {
                d -= digit as u128;
            } else {
                // |kᵢ| < 0.64·2^128 out of `split_lambda`: adding at most
                // 15 cannot wrap.
                d += (-digit) as u128;
            }
        }
        d >>= 1;
        i += 1;
    }
    (digits, i)
}

/// `k * P` in Jacobian form, for any `k` (reduced mod n on entry).
///
/// GLV: `k = k1 + k2·λ (mod n)` with 128-bit halves, and `λ·P` costs one
/// field multiplication per table entry, so `k·P = k1·P + k2·(λP)` is an
/// interleaved width-5 wNAF over two affine odd-multiples tables — 128
/// doublings and ~43 mixed additions instead of 256 and ~43 full ones.
pub(crate) fn scalar_mul_jac(k: &U256, p: &Affine) -> Jacobian {
    let k = if k.ge(&N) { k.wrapping_sub(&N) } else { *k };
    if k.is_zero() || p.is_infinity() {
        return Jacobian::infinity();
    }
    // P, 3P, …, 15P. None is infinity: the group order is an odd prime.
    let p_jac = Jacobian::from_affine(p);
    let two_p = p_jac.double();
    let mut jac = [p_jac; 8];
    for i in 1..8 {
        jac[i] = jac[i - 1].add(&two_p);
    }
    let mut tbl = [TableEntry::ZERO; 8];
    batch_to_affine(&jac, &mut tbl);
    let mut tbl_lam = tbl;
    for e in &mut tbl_lam {
        e.x = e.x.mul(&BETA);
    }

    let (k1, k2) = split_lambda(&k);
    let (d1, len1) = wnaf5(k1.abs);
    let (d2, len2) = wnaf5(k2.abs);
    let mut acc = Jacobian::infinity();
    for i in (0..len1.max(len2)).rev() {
        acc = acc.double();
        acc = add_digit(acc, &tbl, d1[i], k1.neg);
        acc = add_digit(acc, &tbl_lam, d2[i], k2.neg);
    }
    acc
}

/// `acc ± tbl[|digit| / 2]` for a nonzero wNAF digit; `flip` negates it.
#[inline]
fn add_digit(acc: Jacobian, tbl: &[TableEntry; 8], digit: i8, flip: bool) -> Jacobian {
    if digit == 0 {
        return acc;
    }
    let e = &tbl[digit.unsigned_abs() as usize / 2];
    if (digit < 0) != flip {
        acc.add_xy(&e.x, &e.y.neg())
    } else {
        acc.add_xy(&e.x, &e.y)
    }
}

/// Scalar multiplication `k * P`.
pub fn scalar_mul(k: &U256, p: &Affine) -> Affine {
    scalar_mul_jac(k, p).to_affine()
}

/// Precomputed table of G, 2G, 4G, … 2^255·G for fast generator
/// multiplication (built lazily once per process).
struct GenTable {
    powers: Vec<Affine>,
}

impl GenTable {
    fn build() -> GenTable {
        let mut powers = Vec::with_capacity(256);
        let mut p = Jacobian::from_affine(&Affine::generator());
        for _ in 0..256 {
            powers.push(p.to_affine());
            p = p.double();
        }
        GenTable { powers }
    }
}

fn gen_table() -> &'static GenTable {
    use std::sync::OnceLock;
    // detlint: allow(R8) -- write-once table of curve constants; every init computes the same value
    static TABLE: OnceLock<GenTable> = OnceLock::new();
    TABLE.get_or_init(GenTable::build)
}

/// Fixed-base comb table: one 8-bit window per scalar byte,
/// `entries[w * 255 + (d - 1)] = d * 2^(8w) * G` for `d` in `1..=255`.
/// Generator multiplication becomes at most 32 mixed additions with no
/// doublings at all.
struct GenCombTable {
    entries: Vec<TableEntry>,
}

impl GenCombTable {
    fn build() -> GenCombTable {
        let powers = &gen_table().powers;
        let mut jac: Vec<Jacobian> = Vec::with_capacity(32 * 255);
        for w in 0..32 {
            let base = &powers[8 * w];
            let mut acc = Jacobian::from_affine(base);
            for _d in 1..=255 {
                jac.push(acc);
                acc = acc.add_affine(base);
            }
        }
        let mut entries = vec![TableEntry::ZERO; jac.len()];
        batch_to_affine(&jac, &mut entries);
        GenCombTable { entries }
    }
}

fn comb_table() -> &'static GenCombTable {
    use std::sync::OnceLock;
    // detlint: allow(R8) -- write-once table of curve constants; every init computes the same value
    static TABLE: OnceLock<GenCombTable> = OnceLock::new();
    TABLE.get_or_init(GenCombTable::build)
}

/// `k * G` in Jacobian form via the comb table (≤ 32 mixed additions).
pub(crate) fn scalar_mul_generator_jac(k: &U256) -> Jacobian {
    if k.is_zero() {
        return Jacobian::infinity();
    }
    let table = comb_table();
    let mut acc = Jacobian::infinity();
    for w in 0..32 {
        let d = (k.0[w / 8] >> (8 * (w % 8))) & 0xff;
        if d != 0 {
            let e = &table.entries[w * 255 + d as usize - 1];
            acc = acc.add_xy(&e.x, &e.y);
        }
    }
    acc
}

/// Fast `k * G` using the precomputed comb table.
pub fn scalar_mul_generator(k: &U256) -> Affine {
    scalar_mul_generator_jac(k).to_affine()
}

/// Double-scalar multiplication `a*G + b*P`, the core of ECDSA verification
/// and public-key recovery. Both halves stay in Jacobian coordinates so the
/// whole computation costs a single field inversion.
pub fn double_scalar_mul(a: &U256, b: &U256, p: &Affine) -> Affine {
    scalar_mul_generator_jac(a)
        .add(&scalar_mul_jac(b, p))
        .to_affine()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_on_curve() {
        let g = Affine::generator();
        let Affine::Point { x, y } = g else { panic!() };
        assert!(Affine::new_checked(x, y).is_some());
    }

    #[test]
    fn two_g_known_value() {
        // 2G, a standard test vector.
        let two_g = scalar_mul(&U256::from_u64(2), &Affine::generator());
        let Affine::Point { x, y } = two_g else {
            panic!()
        };
        assert_eq!(
            x.to_be_bytes(),
            hex32("C6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5")
        );
        assert_eq!(
            y.to_be_bytes(),
            hex32("1AE168FEA63DC339A3C58419466CEAEEF7F632653266D0E1236431A950CFE52A")
        );
    }

    #[test]
    fn small_multiples_consistent() {
        let g = Affine::generator();
        // 5G computed two ways: scalar mul and repeated additions
        let five = scalar_mul(&U256::from_u64(5), &g);
        let mut acc = Jacobian::infinity();
        for _ in 0..5 {
            acc = acc.add_affine(&g);
        }
        assert_eq!(five, acc.to_affine());
    }

    #[test]
    fn generator_table_matches_generic() {
        for k in [1u64, 2, 3, 7, 0xffff, 0x1234_5678_9abc_def0] {
            let k = U256::from_u64(k);
            assert_eq!(
                scalar_mul_generator(&k),
                scalar_mul(&k, &Affine::generator())
            );
        }
    }

    #[test]
    fn order_times_generator_is_infinity() {
        assert!(scalar_mul_generator(&N).is_infinity());
        // (n-1)G = -G
        let nm1 = N.wrapping_sub(&U256::ONE);
        assert_eq!(scalar_mul_generator(&nm1), Affine::generator().neg());
    }

    #[test]
    fn add_inverse_is_infinity() {
        let g = Affine::generator();
        let j = Jacobian::from_affine(&g).add_affine(&g.neg());
        assert!(j.is_infinity());
    }

    #[test]
    fn from_x_recovers_generator() {
        let Affine::Point { x, y } = Affine::generator() else {
            panic!()
        };
        let p = Affine::from_x(x, y.is_odd()).unwrap();
        assert_eq!(p, Affine::generator());
        let p2 = Affine::from_x(x, !y.is_odd()).unwrap();
        assert_eq!(p2, Affine::generator().neg());
    }

    #[test]
    fn xy_bytes_roundtrip() {
        let p = scalar_mul(&U256::from_u64(12345), &Affine::generator());
        let bytes = p.to_xy_bytes().unwrap();
        assert_eq!(Affine::from_xy_bytes(&bytes).unwrap(), p);
        // corrupting y must fail validation
        let mut bad = bytes;
        bad[63] ^= 1;
        assert!(Affine::from_xy_bytes(&bad).is_none());
    }

    #[test]
    fn double_scalar_mul_matches() {
        let g = Affine::generator();
        let p = scalar_mul(&U256::from_u64(99), &g);
        // 3G + 4*(99G) = 399G
        let got = double_scalar_mul(&U256::from_u64(3), &U256::from_u64(4), &p);
        let want = scalar_mul(&U256::from_u64(399), &g);
        assert_eq!(got, want);
    }

    /// Reference double-and-add, MSB first — the pre-wNAF implementation.
    fn scalar_mul_reference(k: &U256, p: &Affine) -> Affine {
        let mut acc = Jacobian::infinity();
        let Some(top) = k.highest_bit() else {
            return Affine::Infinity;
        };
        for i in (0..=top).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add_affine(p);
            }
        }
        acc.to_affine()
    }

    #[test]
    fn wnaf_matches_reference_on_pseudorandom_scalars() {
        let mut s: u64 = 0xD1B54A32D192ED03;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let p = scalar_mul(&U256::from_u64(7777), &Affine::generator());
        for _ in 0..16 {
            let k = U256([next(), next(), next(), next()]);
            assert_eq!(scalar_mul(&k, &p), scalar_mul_reference(&k, &p));
            assert_eq!(
                scalar_mul_generator(&k),
                scalar_mul_reference(&k, &Affine::generator())
            );
        }
    }

    #[test]
    fn endomorphism_multiplies_by_lambda() {
        use crate::secp256k1::scalar::LAMBDA;
        let g = Affine::generator();
        let want = Affine::Point {
            x: Fe(GX).mul(&BETA),
            y: Fe(GY),
        };
        assert_eq!(scalar_mul_reference(&LAMBDA, &g), want);
        assert_eq!(BETA.square().mul(&BETA), Fe::ONE);
    }

    #[test]
    fn glv_matches_reference_on_edge_scalars() {
        let g = Affine::generator();
        let p = scalar_mul_reference(&U256::from_u64(7777), &g);
        for k in crate::secp256k1::scalar::glv_edge_scalars() {
            assert_eq!(scalar_mul(&k, &p), scalar_mul_reference(&k, &p), "k={k:?}");
            assert_eq!(scalar_mul(&k, &g), scalar_mul_reference(&k, &g), "k={k:?}");
        }
        assert!(scalar_mul(&U256::ONE, &Affine::Infinity).is_infinity());
    }

    /// Scalars at and above n: the wNAF recoding is only sound below n, so
    /// `scalar_mul` reduces first (2^256 − 1 used to come back as −P).
    #[test]
    fn scalar_mul_reduces_scalars_at_and_above_the_order() {
        let g = Affine::generator();
        let p = scalar_mul_reference(&U256::from_u64(7777), &g);
        let max = U256([u64::MAX; 4]);
        for k in [
            N.wrapping_sub(&U256::ONE),
            N,
            N.overflowing_add(&U256::ONE).0,
            max.wrapping_sub(&U256::from_u64(15)),
            max,
        ] {
            assert_eq!(scalar_mul(&k, &p), scalar_mul_reference(&k, &p), "k={k:?}");
            assert_eq!(scalar_mul(&k, &g), scalar_mul_generator(&k), "k={k:?}");
        }
    }

    #[test]
    fn comb_covers_boundary_scalars() {
        for k in [
            U256::ONE,
            U256::from_u64(255),
            U256::from_u64(256),
            U256([0xFF; 4].map(|_| u64::MAX)),
            N.wrapping_sub(&U256::ONE),
            N,
        ] {
            assert_eq!(
                scalar_mul_generator(&k),
                scalar_mul_reference(&k, &Affine::generator()),
                "k={k:?}"
            );
        }
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let g = Affine::generator();
        let mut pts = Vec::new();
        let mut acc = Jacobian::from_affine(&g);
        for _ in 0..7 {
            pts.push(acc);
            acc = acc.add_affine(&g);
        }
        let mut batched = [TableEntry::ZERO; 7];
        batch_to_affine(&pts, &mut batched);
        for (j, e) in pts.iter().zip(&batched) {
            assert_eq!(j.to_affine(), Affine::Point { x: e.x, y: e.y });
        }
        batch_to_affine(&[], &mut []);
    }

    pub(crate) fn hex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }
}
