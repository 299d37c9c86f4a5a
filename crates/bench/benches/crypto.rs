//! Criterion benches for the from-scratch crypto substrate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ethcrypto::aes::AesCtr;
use ethcrypto::secp256k1::{recover, scalar_mul, scalar_mul_generator, Fe, PublicKey, SecretKey};
use ethcrypto::{ecies, keccak256, sha256, U256};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_hashes(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    let data = vec![0xabu8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("keccak256_1k", |b| {
        b.iter(|| keccak256(std::hint::black_box(&data)))
    });
    group.bench_function("sha256_1k", |b| {
        b.iter(|| sha256(std::hint::black_box(&data)))
    });
    group.finish();
}

fn bench_aes(c: &mut Criterion) {
    let mut group = c.benchmark_group("aes");
    let key = [0x42u8; 32];
    let iv = [0x24u8; 16];
    let data = vec![0u8; 4096];
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("ctr_4k", |b| {
        b.iter(|| {
            let mut ctr = AesCtr::new(&key, &iv);
            ctr.process(std::hint::black_box(&data))
        })
    });
    let kilobyte = vec![0u8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("ctr_1k", |b| {
        b.iter(|| {
            let mut ctr = AesCtr::new(&key, &iv);
            ctr.process(std::hint::black_box(&kilobyte))
        })
    });
    group.finish();
}

/// Field kernels are tens of nanoseconds, below what one `Instant` pair
/// resolves: an iteration is a dependent chain of this many.
const FIELD_CHAIN: u64 = 1000;

fn bench_field(c: &mut Criterion) {
    let mut group = c.benchmark_group("secp256k1_field");
    group.throughput(Throughput::Elements(FIELD_CHAIN));
    let x = Fe::from_be_bytes_reduced(&keccak256(b"field x"));
    let y = Fe::from_be_bytes_reduced(&keccak256(b"field y"));
    group.bench_function("field_mul", |b| {
        b.iter(|| {
            let mut acc = std::hint::black_box(x);
            for _ in 0..FIELD_CHAIN {
                acc = acc.mul(&y);
            }
            acc
        })
    });
    group.bench_function("field_square", |b| {
        b.iter(|| {
            let mut acc = std::hint::black_box(x);
            for _ in 0..FIELD_CHAIN {
                acc = acc.square();
            }
            acc
        })
    });
    group.finish();
}

/// The `_miss`/`_fresh` benches need an input no earlier iteration has
/// seen: one per sample plus the warm-up, handed out in order.
const SAMPLES: usize = 20;

fn fresh<T>(make: impl Fn(u64) -> T) -> impl FnMut() -> T {
    let mut inputs: Vec<T> = (0..=SAMPLES as u64).map(make).collect();
    move || inputs.pop().expect("one input per sample")
}

fn fresh_secret(tag: &[u8]) -> impl Fn(u64) -> SecretKey + '_ {
    move |i| {
        let seed = keccak256(&[tag, &i.to_be_bytes()[..]].concat());
        SecretKey::from_bytes(&seed).expect("a hash is a valid scalar")
    }
}

fn bench_secp(c: &mut Criterion) {
    let mut group = c.benchmark_group("secp256k1");
    group.sample_size(SAMPLES);
    let sk = SecretKey::from_bytes(&[7u8; 32]).unwrap();
    let peer = SecretKey::from_bytes(&[9u8; 32]).unwrap().public_key();
    let digest = keccak256(b"bench digest");
    group.bench_function("sign", |b| {
        b.iter(|| sk.sign_recoverable(std::hint::black_box(&digest)))
    });
    let sig = sk.sign_recoverable(&digest);
    // Memo hits (tens of nanoseconds): what a same-thread receiver pays.
    group.bench_function("recover_hit", |b| {
        b.iter(|| recover(std::hint::black_box(&digest), std::hint::black_box(&sig)).unwrap())
    });
    group.bench_function("ecdh_hit", |b| {
        b.iter(|| sk.ecdh(std::hint::black_box(&peer)).unwrap())
    });
    // Memo misses: the group arithmetic itself. A signature recovers to
    // *some* key under any digest, and the memo is keyed on the pair.
    let mut digests = fresh(|i| keccak256(&i.to_be_bytes()));
    group.bench_function("recover_miss", |b| {
        b.iter(|| recover(&digests(), std::hint::black_box(&sig)).unwrap())
    });
    // An ECDH miss on a peer key this thread derived — every key a
    // simulated world holds — is one comb multiplication by `a·b mod n`;
    // a peer whose secret the pubkey memo never saw (built here without
    // it, as a key off the wire is) pays the variable-base one.
    let mut peers = fresh(|i| fresh_secret(b"peer")(i).public_key());
    group.bench_function("ecdh_known", |b| b.iter(|| sk.ecdh(&peers()).unwrap()));
    let mut peers = fresh(|i| {
        let d = U256::from_be_bytes(&fresh_secret(b"foreign")(i).to_bytes());
        let wire = scalar_mul_generator(&d).to_xy_bytes().unwrap();
        PublicKey::from_xy_bytes(&wire).unwrap()
    });
    group.bench_function("ecdh_foreign", |b| b.iter(|| sk.ecdh(&peers()).unwrap()));
    // The two multiplications underneath, with no memo in the way.
    let point = *peer.point();
    let mut scalars = fresh(|i| U256::from_be_bytes(&fresh_secret(b"var")(i).to_bytes()));
    group.bench_function("scalar_mul_var", |b| {
        b.iter(|| scalar_mul(&scalars(), std::hint::black_box(&point)))
    });
    let mut scalars = fresh(|i| U256::from_be_bytes(&fresh_secret(b"gen")(i).to_bytes()));
    group.bench_function("scalar_mul_gen_fresh", |b| {
        b.iter(|| scalar_mul_generator(&scalars()))
    });
    group.finish();
}

/// What the memo costs a datagram: one new `(digest, signature)` entry
/// put at signing (evicting the oldest once the table is full) and one
/// lookup at recovery. The public API has no put without its `sign`, so an
/// iteration is `sign` + `recover` over digests the table has never seen —
/// a fresh batch per sample — and `sign` above (one digest re-signed: an
/// overwrite in place) is the figure to subtract.
fn bench_memo(c: &mut Criterion) {
    const DATAGRAMS: u64 = 1000;
    let mut group = c.benchmark_group("memo");
    group.sample_size(SAMPLES);
    group.throughput(Throughput::Elements(DATAGRAMS));
    let sk = SecretKey::from_bytes(&[7u8; 32]).unwrap();
    let mut batches = fresh(|sample| -> Vec<[u8; 32]> {
        (0..DATAGRAMS)
            .map(|i| keccak256(&[sample.to_be_bytes(), i.to_be_bytes()].concat()))
            .collect()
    });
    group.bench_function("sig_put_get", |b| {
        b.iter(|| {
            for digest in &batches() {
                let sig = sk.sign_recoverable(digest);
                std::hint::black_box(recover(digest, &sig).unwrap());
            }
        })
    });
    group.finish();
}

fn bench_ecies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecies");
    group.sample_size(20);
    let sk = SecretKey::from_bytes(&[7u8; 32]).unwrap();
    let msg = vec![0x55u8; 194]; // auth-body-sized
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("encrypt_auth_sized", |b| {
        b.iter(|| {
            ecies::encrypt(&mut rng, &sk.public_key(), std::hint::black_box(&msg), b"").unwrap()
        })
    });
    let ct = ecies::encrypt(&mut rng, &sk.public_key(), &msg, b"").unwrap();
    group.bench_function("decrypt_auth_sized", |b| {
        b.iter(|| ecies::decrypt(&sk, std::hint::black_box(&ct), b"").unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hashes,
    bench_aes,
    bench_field,
    bench_secp,
    bench_memo,
    bench_ecies
);
criterion_main!(benches);
