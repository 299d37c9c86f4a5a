//! Property-based tests across the crypto primitives.

use ethcrypto::aes::AesCtr;
use ethcrypto::secp256k1::point::N;
use ethcrypto::secp256k1::{recover, scalar_mul, scalar_mul_generator, PublicKey, SecretKey};
use ethcrypto::{ecies, keccak256, sha256, Keccak, U256};
use proptest::prelude::*;

fn arb_secret() -> impl Strategy<Value = SecretKey> {
    proptest::array::uniform32(any::<u8>())
        .prop_filter_map("valid scalar", |b| SecretKey::from_bytes(&b).ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sign_recover_roundtrip(sk in arb_secret(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let digest = keccak256(&msg);
        let sig = sk.sign_recoverable(&digest);
        let pk = recover(&digest, &sig).unwrap();
        prop_assert_eq!(pk, sk.public_key());
        prop_assert!(pk.verify(&digest, &sig.sig));
    }

    #[test]
    fn public_key_bytes_roundtrip(sk in arb_secret()) {
        let pk = sk.public_key();
        prop_assert_eq!(PublicKey::from_xy_bytes(&pk.to_xy_bytes()).unwrap(), pk);
    }

    #[test]
    fn ecdh_commutes(a in arb_secret(), b in arb_secret()) {
        prop_assert_eq!(a.ecdh(&b.public_key()).unwrap(), b.ecdh(&a.public_key()).unwrap());
    }

    /// `ecdh_commutes` above answers its second half from the memo the first
    /// half filled; this one runs the variable-base multiplication twice, on
    /// different scalars and points, and checks both against the comb.
    #[test]
    fn scalar_mul_commutes(a in arb_secret(), b in arb_secret()) {
        let a = U256::from_be_bytes(&a.to_bytes());
        let b = U256::from_be_bytes(&b.to_bytes());
        let ab_g = scalar_mul(&a, &scalar_mul_generator(&b));
        prop_assert_eq!(ab_g, scalar_mul(&b, &scalar_mul_generator(&a)));
        prop_assert_eq!(ab_g, scalar_mul_generator(&a.mul_mod(&b, &N)));
    }

    #[test]
    fn ecies_roundtrip(sk in arb_secret(), msg in proptest::collection::vec(any::<u8>(), 0..512), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ct = ecies::encrypt(&mut rng, &sk.public_key(), &msg, b"hs").unwrap();
        prop_assert_eq!(ecies::decrypt(&sk, &ct, b"hs").unwrap(), msg);
    }
}

proptest! {
    #[test]
    fn aes_ctr_involutive(key in proptest::array::uniform32(any::<u8>()),
                          iv in proptest::array::uniform16(any::<u8>()),
                          data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let mut enc = AesCtr::new(&key, &iv);
        let ct = enc.process(&data);
        let mut dec = AesCtr::new(&key, &iv);
        prop_assert_eq!(dec.process(&ct), data);
    }

    #[test]
    fn keccak_incremental_agrees(data in proptest::collection::vec(any::<u8>(), 0..700), split in 0usize..700) {
        let split = split.min(data.len());
        let mut h = Keccak::v256();
        h.update(&data[..split]);
        h.update(&data[split..]);
        let incr: [u8; 32] = h.finalize().try_into().unwrap();
        prop_assert_eq!(incr, keccak256(&data));
    }

    #[test]
    fn sha256_never_collides_on_small_perturbation(data in proptest::collection::vec(any::<u8>(), 1..128), idx in any::<usize>()) {
        let mut other = data.clone();
        let i = idx % other.len();
        other[i] ^= 0x01;
        prop_assert_ne!(sha256(&data), sha256(&other));
    }

    #[test]
    fn u256_add_mod_sub_mod_inverse(a in proptest::array::uniform32(any::<u8>()), b in proptest::array::uniform32(any::<u8>())) {
        // modulus: secp256k1 order (any large odd modulus works)
        let m = ethcrypto::secp256k1::point::N;
        let a = {
            let v = U256::from_be_bytes(&a);
            if v.ge(&m) { v.wrapping_sub(&m) } else { v }
        };
        let b = {
            let v = U256::from_be_bytes(&b);
            if v.ge(&m) { v.wrapping_sub(&m) } else { v }
        };
        let sum = a.add_mod(&b, &m);
        prop_assert_eq!(sum.sub_mod(&b, &m), a);
    }

    #[test]
    fn u256_mul_mod_inverse(a in proptest::array::uniform32(any::<u8>())) {
        let m = ethcrypto::secp256k1::point::N;
        let v = {
            let v = U256::from_be_bytes(&a);
            if v.ge(&m) { v.wrapping_sub(&m) } else { v }
        };
        if !v.is_zero() {
            let inv = v.inv_mod(&m).unwrap();
            prop_assert_eq!(v.mul_mod(&inv, &m), U256::ONE);
        }
    }
}
