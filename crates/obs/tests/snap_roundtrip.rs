//! Property test for the snapshot codec: for every `Snap` impl kind —
//! primitives, containers, and `snap_struct!`/`snap_enum!`-generated
//! impls — `unsnap(snap(x)) == x` and the reader is fully consumed, and
//! no truncation of a valid image reads back as a value.

use obs::snap::{Snap, SnapReader, SnapWriter};
use obs::{snap_enum, snap_struct};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::Ipv4Addr;

/// A record shaped like the protocol crates' (id, endpoint, counters,
/// optional parts, nested lists).
#[derive(Debug, Clone, PartialEq)]
struct Record {
    id: [u8; 32],
    ip: Ipv4Addr,
    port: u16,
    name: String,
    seen: Option<u64>,
    weights: Vec<(u32, bool)>,
    lanes: [u64; 5],
}

snap_struct!(Record {
    id,
    ip,
    port,
    name,
    seen,
    weights,
    lanes
});

/// One variant of each shape `snap_enum!` accepts.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Idle,
    Seen(Record),
    Pair(u8, i64),
    Done {
        all_seen: Vec<Record>,
        queries: usize,
    },
}

snap_enum!(Event {
    0 => Idle,
    1 => Seen(record),
    2 => Pair(a, b),
    7 => Done { all_seen, queries },
});

/// Every container the images use, around the generated impls.
#[derive(Debug, Clone, PartialEq)]
struct World {
    ratio: f64,
    usable: bool,
    events: VecDeque<Event>,
    by_key: BTreeMap<u16, Record>,
    known: BTreeSet<u64>,
}

snap_struct!(World {
    ratio,
    usable,
    events,
    by_key,
    known
});

fn record() -> impl Strategy<Value = Record> {
    (
        (any::<[u8; 32]>(), any::<u32>(), any::<u16>(), ".{0,24}"),
        proptest::collection::vec(any::<u64>(), 0..2),
        proptest::collection::vec((any::<u32>(), any::<bool>()), 0..6),
        any::<[u64; 5]>(),
    )
        .prop_map(|((id, ip, port, name), seen, weights, lanes)| Record {
            id,
            ip: Ipv4Addr::from(ip),
            port,
            name,
            seen: seen.first().copied(),
            weights,
            lanes,
        })
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::Idle),
        record().prop_map(Event::Seen),
        (any::<u8>(), any::<u64>()).prop_map(|(a, b)| Event::Pair(a, b as i64)),
        (proptest::collection::vec(record(), 0..4), any::<u32>()).prop_map(|(all_seen, q)| {
            Event::Done {
                all_seen,
                queries: q as usize,
            }
        }),
    ]
}

fn world() -> impl Strategy<Value = World> {
    (
        (any::<u64>(), any::<bool>()),
        proptest::collection::vec(event(), 0..6),
        proptest::collection::vec((any::<u16>(), record()), 0..6),
        proptest::collection::vec(any::<u64>(), 0..12),
    )
        .prop_map(|((bits, usable), events, by_key, known)| World {
            // Any bit pattern, NaNs included: the image is the bits.
            ratio: f64::from_bits(bits),
            usable,
            events: events.into(),
            by_key: by_key.into_iter().collect(),
            known: known.into_iter().collect(),
        })
}

fn image(x: &impl Snap) -> Vec<u8> {
    let mut w = SnapWriter::new();
    x.snap(&mut w);
    w.finish()
}

proptest! {
    #[test]
    fn unsnap_inverts_snap_and_consumes_every_byte(x in world()) {
        let bytes = image(&x);
        let mut r = SnapReader::new(&bytes);
        let back = World::unsnap(&mut r).unwrap();
        prop_assert!(r.finish().is_ok());
        // Compare images, not values: `ratio` may be a NaN.
        prop_assert_eq!(image(&back), bytes);
        prop_assert_eq!((&back.events, &back.by_key, &back.known),
                        (&x.events, &x.by_key, &x.known));
    }

    #[test]
    fn no_proper_prefix_of_an_image_is_an_image(x in event(), cut in any::<u32>()) {
        let bytes = image(&x);
        let cut = cut as usize % bytes.len();
        let mut r = SnapReader::new(&bytes[..cut]);
        prop_assert!(Event::unsnap(&mut r).and_then(|_| r.finish()).is_err());
    }
}

#[test]
fn out_of_range_tags_bools_and_unsorted_keys_are_corrupt() {
    // Tag 3 is not an `Event` variant; 2 is not a bool byte.
    assert!(Event::unsnap(&mut SnapReader::new(&[3])).is_err());
    assert!(<Option<u8>>::unsnap(&mut SnapReader::new(&[2, 0])).is_err());
    // A set listing 5 then 4 (or 5 twice) is not what `snap` writes.
    let unsorted = image(&vec![5u64, 4]);
    assert!(BTreeSet::<u64>::unsnap(&mut SnapReader::new(&unsorted)).is_err());
    let repeated = image(&vec![(5u16, 0u8), (5, 1)]);
    assert!(BTreeMap::<u16, u8>::unsnap(&mut SnapReader::new(&repeated)).is_err());
    // A hostile length cannot make `Vec` reserve past the buffer.
    let huge = image(&u64::MAX);
    assert!(Vec::<u8>::unsnap(&mut SnapReader::new(&huge)).is_err());
}
