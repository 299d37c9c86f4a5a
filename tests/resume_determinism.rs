//! Checkpoint/restore determinism, end to end: a crawl snapshotted at T
//! and resumed into a freshly built shell must export byte-identical
//! artifacts — DataStore JSON, obs JSONL trace, Prometheus snapshot — to
//! a run that never stopped. This is the proof obligation for the staged
//! pipeline's checkpointing: a snapshot is a pure representation change,
//! never a semantic one.
//!
//! The split run exercises the full restore stack: the netsim engine
//! image (event queue, per-host RNGs, TCP state), the crawler's `NFND`
//! section (interner, dial queue, penalty box, live probes, stage
//! checkpoints, crawl log), and the obs recorder image (metrics
//! registry, trace ring, sequence counter). The world here is honest
//! hosts plus the identity-rotating spammer — the adversary crate's
//! hosts deliberately do not implement `save_state`, so a snapshot of a
//! world containing them fails `Unsupported` by design.
//!
//! The same world pins the snapshot *format* (keccak-256 of the images
//! at T, so an accidental byte change cannot ride in under one version)
//! and feeds the hostile-input sweep: truncated, overlong and bit-flipped
//! images must restore to `Ok` or `Err`, never a panic.

use ethereum_p2p::prelude::*;
use std::net::Ipv4Addr;
use std::ops::Range;

/// Snapshot point. The crawl is well underway: discovery has fanned
/// out, dynamic dials and static re-dials are in flight, and probes are
/// mid-handshake — exactly the state a checkpoint must capture.
const T_MS: u64 = 2 * 60_000;
/// Uninterrupted-run horizon (and the resumed run's target).
const FULL_MS: u64 = 4 * 60_000;

/// Everything a crawl externalizes, captured as bytes, plus the
/// accounting the bugfix sweep asserts on.
struct Artifacts {
    store_json: String,
    trace_jsonl: String,
    prometheus: String,
    events: u64,
    dialing_underflows: u64,
}

fn world_config() -> WorldConfig {
    WorldConfig {
        seed: 4242,
        n_nodes: 24,
        duration_ms: FULL_MS,
        always_on_fraction: 0.5,
        spammer_ips: 1,
        udp_loss: 0.05,
        ..WorldConfig::default()
    }
}

/// Build the crawl world: the honest/spammer population from
/// `World::build` plus the NodeFinder. Identical config ⇒ identical
/// static structure, so the same builder serves both the uninterrupted
/// run and the restore shell.
fn build_crawl_world() -> (World, netsim::HostId) {
    let mut world = World::build(world_config());
    let crawler_key = SecretKey::from_bytes(&[0xCB; 32]).unwrap();
    let crawler = NodeFinder::new(
        crawler_key,
        CrawlerConfig {
            static_redial_interval_ms: 60_000,
            stale_after_ms: FULL_MS,
            probe_timeout_ms: 30_000,
            penalty_threshold: 3,
            penalty_box_ms: 2 * 60_000,
            ..CrawlerConfig::default()
        },
        world.bootstrap.clone(),
    );
    let host = world.sim.add_host(
        HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303),
        HostMeta::default_cloud(),
        Box::new(crawler),
    );
    world.sim.schedule_start(host, 0);
    (world, host)
}

/// Pull the artifacts out of a finished world and uninstall its
/// recorder.
fn extract(mut world: World, host: netsim::HostId, recorder: &obs::Recorder) -> Artifacts {
    let events = world.sim.events_processed();
    let crawler = world
        .sim
        .remove_host_behaviour(host)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let dialing_underflows = crawler.dialing_underflows();
    let store = DataStore::from_log(&crawler.log);
    obs::uninstall();
    Artifacts {
        store_json: store.to_json(),
        trace_jsonl: recorder.export_jsonl(),
        prometheus: recorder.prometheus(),
        events,
        dialing_underflows,
    }
}

/// The reference: run straight to 2T with no interruption.
fn uninterrupted_run() -> Artifacts {
    let recorder = obs::Recorder::new();
    recorder.install();
    let (mut world, host) = build_crawl_world();
    world.sim.run_until(FULL_MS);
    extract(world, host, &recorder)
}

/// The subject: run to T, snapshot the engine and the recorder, tear
/// everything down, rebuild the shell from config, restore both images,
/// and continue to 2T.
fn split_run() -> Artifacts {
    // First half: 0 → T.
    let recorder = obs::Recorder::new();
    recorder.install();
    let (mut world, _host) = build_crawl_world();
    world.sim.run_until(T_MS);
    let events_at_t = world.sim.events_processed();
    let sim_snap = world.sim.snapshot().expect("engine snapshot at T");
    let obs_snap = recorder.snapshot_state();
    obs::uninstall();
    drop(world);

    // Second half: fresh shell, restore, T → 2T. The recorder image
    // overwrites whatever the shell build emitted, exactly as those
    // emissions are already folded into the first half's image.
    let recorder = obs::Recorder::new();
    recorder.install();
    let (mut world, host) = build_crawl_world();
    recorder
        .restore_state(&obs_snap)
        .expect("recorder restore at T");
    world.sim.restore(&sim_snap).expect("engine restore at T");
    assert!(
        world.sim.snapshot().expect("re-snapshot at T") == sim_snap,
        "the image a restore accepts must be the one its re-snapshot writes"
    );
    assert_eq!(
        world.sim.events_processed(),
        events_at_t,
        "restore must resume the event count, not reset it"
    );
    world.sim.run_until(FULL_MS);
    assert!(
        world.sim.events_processed() > events_at_t,
        "resumed run did no work after T"
    );
    extract(world, host, &recorder)
}

fn assert_identical(base: &Artifacts, other: &Artifacts) {
    assert_eq!(
        base.store_json, other.store_json,
        "DataStore diverged after resume"
    );
    assert_eq!(
        base.trace_jsonl, other.trace_jsonl,
        "obs JSONL trace diverged after resume"
    );
    assert_eq!(
        base.prometheus, other.prometheus,
        "Prometheus snapshot diverged after resume"
    );
    assert_eq!(
        base.events, other.events,
        "event totals diverged after resume"
    );
}

/// Assert the dial-slot accounting stayed clean: the checked decrement
/// never fired its underflow path, neither live nor in any export.
fn assert_accounting_clean(a: &Artifacts, label: &str) {
    assert_eq!(
        a.dialing_underflows, 0,
        "{label}: dialing underflow counter fired"
    );
    assert!(
        !a.prometheus.contains("dialing_underflow"),
        "{label}: underflow counter leaked into the Prometheus export"
    );
    assert!(
        !a.trace_jsonl.contains("dialing_underflow"),
        "{label}: underflow counter leaked into the trace"
    );
}

/// Snapshot-at-T / resume-to-2T is byte-identical to never stopping, and
/// the crawl-accounting fixes hold throughout.
#[test]
fn resume_exports_are_byte_identical() {
    let full = uninterrupted_run();
    assert!(full.events > 1_000, "world too quiet to prove anything");
    assert!(
        !full.store_json.is_empty() && !full.trace_jsonl.is_empty(),
        "exports must be non-trivial"
    );
    let resumed = split_run();
    assert_identical(&full, &resumed);
    assert_accounting_clean(&full, "uninterrupted");
    assert_accounting_clean(&resumed, "resumed");
}

/// The stage pipeline actually saw traffic: the checkpointed crawl must
/// show stage counters in its Prometheus export, proving the pipeline
/// instrumentation survives a snapshot/restore cycle rather than being
/// reset by it.
#[test]
fn resumed_run_reports_pipeline_progress() {
    let resumed = split_run();
    for stage in ["discover", "dial", "handshake", "ingest"] {
        assert!(
            resumed
                .prometheus
                .contains(&format!("crawler_stage_{stage}_entered")),
            "missing {stage} stage counter in resumed export"
        );
    }
}

/// Run the crawl world to T and capture the engine image (`PSNP`, with
/// its embedded `ETHN`/`NFND` host sections) and the recorder image
/// (`OBSS`).
fn images_at_t() -> (Vec<u8>, Vec<u8>) {
    let recorder = obs::Recorder::new();
    recorder.install();
    let (mut world, _host) = build_crawl_world();
    world.sim.run_until(T_MS);
    let sim_snap = world.sim.snapshot().expect("engine snapshot at T");
    let obs_snap = recorder.snapshot_state();
    obs::uninstall();
    (sim_snap, obs_snap)
}

fn keccak_hex(bytes: &[u8]) -> String {
    ethereum_p2p::ethcrypto::keccak::keccak256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Format pin: `(PSNP digest, OBSS digest)` — keccak-256 of both images
/// at T. First computed at 8e4f1ef, the last commit with hand-written
/// per-type codecs, which the `obs::snap` refactor had to reproduce; the
/// `PSNP` digest moved when its embedded crawler section became `NFND`
/// v2, again when `PSNP` itself became v2 (pending events in dispatch
/// order), again at `NFND` v3 (the crawl log written through `Snap`, not
/// as JSON), again at `ETHN` v2 / `NFND` v4 (one discv4 bond per peer
/// instead of a bond table and a reverse-bond table; writing the host
/// sections in place kept their framing) and again at `PSNP` v3 (one
/// event queue: no per-slot shard id, no per-shard sections). `OBSS` is
/// still v1; its digest moved by content when the recorder stopped
/// holding a per-queue depth gauge. A change that moves one of these
/// digests changed the byte format and must bump that section's version
/// byte (and re-pin). A change to the crawl world or the crawler's
/// behaviour moves them too — re-pin then, after checking the resume
/// suite above.
const PINNED_DIGESTS: (&str, &str) = (
    "1be93475a955ba7c693fd1257d0d622f76e30e6f68bc7f15bb97c7a9b0a8ac57",
    "e19115169eceac688d9725dff415be35847e3e3c61fbfe7a2c284d714d670cc0",
);

#[test]
fn snapshot_images_match_pinned_digests() {
    let (sim_snap, obs_snap) = images_at_t();
    assert_eq!(
        keccak_hex(&sim_snap),
        PINNED_DIGESTS.0,
        "PSNP image bytes changed"
    );
    assert_eq!(
        keccak_hex(&obs_snap),
        PINNED_DIGESTS.1,
        "OBSS image bytes changed"
    );
}

/// Names the hostile case on stderr if restoring it panics.
struct Case(String);

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("hostile snapshot case panicked: {}", self.0);
        }
    }
}

/// Restore a (possibly hostile) engine image into a freshly built shell.
/// `Ok` and `Err` are both acceptable outcomes; returning at all is the
/// property under test.
fn restore_sim(image: &[u8], case: String) -> Result<(), netsim::SnapError> {
    let _case = Case(case);
    let (mut world, _host) = build_crawl_world();
    world.sim.restore(image)
}

/// Same, for the recorder image.
fn restore_obs(image: &[u8], case: String) -> Result<(), netsim::SnapError> {
    let _case = Case(case);
    obs::Recorder::new().restore_state(image)
}

fn u64_at(image: &[u8], pos: usize) -> usize {
    u64::from_le_bytes(image[pos..pos + 8].try_into().expect("8 bytes")) as usize
}

/// What a `PSNP` v3 restore reads, by byte offset.
struct Walk {
    /// Every `u64` length prefix before the first host section: fault
    /// windows, conn slab (walked entry by entry — the optional acceptor
    /// makes them variable width), conn free list, host count, then the
    /// first slot's NAT table, live-conn list and embedded section.
    to_first_section: Vec<usize>,
    /// Past every slot, the pending-event count.
    pending_count: usize,
    /// Each slot's embedded section, magic first; its `u64` length is the
    /// 8 bytes before it.
    sections: Vec<Range<usize>>,
}

fn walk(image: &[u8]) -> Walk {
    // magic(4) version(1) now(8) ext_seq(4) three counters(24)
    // tcp counters(32) queue_depth_peak(8)
    let mut pos = 81;
    let mut out = vec![pos];
    assert_eq!(
        u64_at(image, pos),
        0,
        "the crawl world installs no fault windows"
    );
    pos += 8;
    out.push(pos);
    let n_conns = u64_at(image, pos);
    pos += 8;
    for _ in 0..n_conns {
        pos += 4 + 4 + 8; // generation, pending, initiator
        pos += 1 + 8 * image[pos] as usize; // acceptor
        pos += 6 + 6 + 1 + 4; // remote addr, local addr, state, rtt
    }
    out.push(pos);
    pos += 8 + 4 * u64_at(image, pos); // free list of u32
    out.push(pos);
    let n_slots = u64_at(image, pos);
    pos += 8;
    let mut sections = Vec::new();
    for slot in 0..n_slots {
        pos += 1 + 32 + 4 + 1; // alive, rng, next_key, reachable
        let nat = pos;
        pos += 8 + 16 * u64_at(image, pos); // NAT entries
        let live = pos;
        pos += 8 + 8 * u64_at(image, pos); // live conns
        let has_section = image[pos] == 1;
        pos += 1;
        if slot == 0 {
            assert!(has_section, "first slot carries a behaviour section");
            assert_eq!(
                &image[pos + 8..pos + 12],
                b"ETHN",
                "walk reached the section"
            );
            out.extend([nat, live, pos]);
        }
        if has_section {
            let len = u64_at(image, pos);
            sections.push(pos + 8..pos + 8 + len);
            pos += 8 + len;
        }
    }
    // The first pending event (at, key, ...) is due at or after T.
    assert!(
        u64_at(image, pos) > 0 && u64_at(image, pos + 8) >= T_MS as usize,
        "walk reached the pending events"
    );
    Walk {
        to_first_section: out,
        pending_count: pos,
        sections,
    }
}

/// Where one `Discv4::snap` image inside a host section keeps its routing
/// table and its lookup, by absolute byte offset. [`discs`] walks that
/// image in `Discv4::snap`'s field order — endpoint, table entries, pending
/// pings, pending queries, bonds, lookup — and must change with it.
struct Disc {
    /// The host section it is in.
    section: Range<usize>,
    /// Each bucket: its `u16` index, then each resident's 80 bytes
    /// (`NodeRecord`, last seen).
    buckets: Vec<(usize, Vec<usize>)>,
    /// Each bond: its 64-byte id, then its value, which runs to the next
    /// range's start (optional stamp and endpoint, optional stamp).
    bonds: Vec<Range<usize>>,
    /// The lookup in flight, if any: each candidate's 74 bytes
    /// (`NodeRecord`, queried, failed), in frontier order.
    candidates: Option<Vec<usize>>,
}

/// Every discovery image in a `PSNP` image: each population host's
/// (`ETHN`: key, client id, then the presence byte) and the crawler's
/// (`NFND`: the presence byte first). The crawler's is last.
fn discs(image: &[u8]) -> Vec<Disc> {
    let mut out = Vec::new();
    for section in walk(image).sections {
        let at = section.start;
        let mut pos = match &image[at..at + 5] {
            b"ETHN\x02" => at + 45 + u64_at(image, at + 37),
            b"NFND\x04" => at + 5,
            other => panic!("unexpected host section header {other:?}"),
        };
        if image[pos] == 0 {
            continue;
        }
        pos += 1 + 8; // presence, endpoint
        let n_buckets = u64_at(image, pos);
        pos += 8;
        let mut buckets = Vec::new();
        for _ in 0..n_buckets {
            let residents = u64_at(image, pos + 2);
            buckets.push((pos, (0..residents).map(|i| pos + 10 + 80 * i).collect()));
            pos += 10 + 80 * residents;
        }
        // Pending pings: hash, record, deadline, sent, then an optional
        // record and an optional id.
        let n_pings = u64_at(image, pos);
        pos += 8;
        for _ in 0..n_pings {
            pos += 32 + 72 + 16;
            pos += 1 + 72 * image[pos] as usize;
            pos += 1 + 64 * image[pos] as usize;
        }
        pos += 8 + 80 * u64_at(image, pos); // pending queries: id, deadline, sent

        // Bonds: id, then an optional (stamp, endpoint) and an optional
        // stamp.
        let n_bonds = u64_at(image, pos);
        pos += 8;
        let mut bonds = Vec::new();
        for _ in 0..n_bonds {
            let start = pos;
            pos += 64;
            pos += 1 + 16 * image[pos] as usize;
            pos += 1 + 8 * image[pos] as usize;
            bonds.push(start..pos);
        }

        // The lookup: presence, target hash, candidates, two counters.
        let candidates = (image[pos] == 1).then(|| {
            (0..u64_at(image, pos + 33))
                .map(|i| pos + 41 + 74 * i)
                .collect()
        });
        out.push(Disc {
            section,
            buckets,
            bonds,
            candidates,
        });
    }
    out
}

/// Regression: an empty world's image with the conn-slab length (offset
/// 89) overwritten used to reach `Vec::with_capacity(n)` unchecked and
/// die with "capacity overflow".
#[test]
fn huge_conn_slab_length_is_an_error_not_a_panic() {
    let mut image = NetSim::new(SimConfig::default()).snapshot().unwrap();
    image[89..97].copy_from_slice(&(u64::MAX >> 1).to_le_bytes());
    assert!(NetSim::new(SimConfig::default()).restore(&image).is_err());
}

/// Hostile-input sweep, part 1: every truncation, every hostile length
/// prefix on the way to the first host section and a hostile pending-event
/// count are rejected with `Err`.
#[test]
fn truncated_and_overlong_images_are_rejected() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_0001);
    let (sim_image, obs_image) = images_at_t();
    restore_sim(&sim_image, "intact PSNP".into()).expect("intact image restores");
    restore_obs(&obs_image, "intact OBSS".into()).expect("intact image restores");

    for (name, image, restore) in [
        ("PSNP", &sim_image, restore_sim as fn(&[u8], String) -> _),
        ("OBSS", &obs_image, restore_obs),
    ] {
        let seeded = (0..256).map(|_| rng.gen_range(513..image.len()));
        for len in (0..=512).chain(seeded) {
            let out = restore(&image[..len], format!("{name} truncated to {len}"));
            assert!(out.is_err(), "{name} truncated to {len} bytes restored");
        }
    }
    let walk = walk(&sim_image);
    for pos in walk
        .to_first_section
        .into_iter()
        .chain([walk.pending_count])
    {
        let mut image = sim_image.clone();
        image[pos..pos + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let out = restore_sim(&image, format!("PSNP length at {pos} = u64::MAX"));
        assert!(
            out.is_err(),
            "length prefix at {pos} set to u64::MAX restored"
        );
    }
}

/// Regression: an image whose free list names one slab cell twice used to
/// restore `Ok`, and two later dials then shared that cell — a silently
/// divergent run. A free-list entry must be distinct, and `Closed` with
/// nothing in flight.
#[test]
fn aliased_free_list_cell_is_rejected() {
    let (sim_image, _) = images_at_t();
    let free = walk(&sim_image).to_first_section[2];
    let n_free = u64::from_le_bytes(sim_image[free..free + 8].try_into().unwrap());
    assert!(n_free >= 2, "world has too few free cells: {n_free}");
    let mut image = sim_image.clone();
    image.copy_within(free + 8..free + 12, free + 12);
    let out = restore_sim(&image, "PSNP free-list entry 0 copied over entry 1".into());
    assert!(out.is_err(), "a free list naming one cell twice restored");
}

/// The length of the `Hello` image at `at`: p2p version, client id,
/// capabilities (name, version), listen port, node id.
fn hello_len(image: &[u8], at: usize) -> usize {
    let mut pos = at + 4;
    pos += 8 + u64_at(image, pos);
    let caps = u64_at(image, pos);
    pos += 8;
    for _ in 0..caps {
        pos += 8 + u64_at(image, pos) + 4;
    }
    pos + 2 + 64 - at
}

/// An established connection's image carries its node's HELLO twice: in
/// its session, right after the session's presence byte, and in
/// `PeerConn`'s own field after the session. Restore keeps one, so two
/// that differ must be refused; before, the field's copy was kept
/// unchecked.
#[test]
fn a_connection_hello_unlike_its_session_is_rejected() {
    let (image, _) = images_at_t();
    let (session_copy, field_copy) = walk(&image)
        .sections
        .into_iter()
        .filter(|s| image[s.clone()].starts_with(b"ETHN"))
        .find_map(|s| {
            // ETHN: magic, version, key, then the node's client id.
            let id_at = s.start + 37;
            let id = &image[id_at..id_at + 8 + u64_at(&image, id_at)];
            let past_header = id_at + id.len();
            // The first copy of it behind a presence byte is a session's
            // (a pre-session connection's field follows a `None`).
            let session = (past_header..s.end - id.len())
                .find(|&at| image[at - 5] == 1 && &image[at..at + id.len()] == id)?
                - 4;
            let hello = &image[session..session + hello_len(&image, session)];
            // The next copy of the whole HELLO is the field's: the peer's
            // HELLO in between names another node.
            let field = (session + hello.len()..s.end - hello.len())
                .find(|&at| &image[at..at + hello.len()] == hello)?;
            Some((session, field))
        })
        .expect("an established connection at T");
    assert!(field_copy > session_copy);
    let mut bad = image.clone();
    bad[field_copy + 12] ^= 0x20; // the client id's first byte
    assert_eq!(
        restore_sim(&bad, "connection's HELLO differs from its session's".into()),
        Err(netsim::SnapError::Corrupt(
            "connection and session HELLOs differ"
        ))
    );
}

fn crawler_id() -> NodeId {
    NodeId::from_secret_key(&SecretKey::from_bytes(&[0xCB; 32]).unwrap())
}

/// `image` with the `len` bytes at `a` and at `b` swapped.
fn swapped(image: &[u8], a: usize, b: usize, len: usize) -> Vec<u8> {
    let mut out = image.to_vec();
    out[a..a + len].copy_from_slice(&image[b..b + len]);
    out[b..b + len].copy_from_slice(&image[a..a + len]);
    out
}

/// `image` with the `len` bytes at `from` copied over those at `to`.
fn copied(image: &[u8], from: usize, to: usize, len: usize) -> Vec<u8> {
    let mut out = image.to_vec();
    out.copy_within(from..from + len, to);
    out
}

/// Regression: each hostile table or lookup below restored `Ok` before
/// restore checked a table's and a lookup's order, and the resumed run
/// then diverged without a word. Each must now be refused as `Corrupt`
/// for the reason given. (The rules themselves are unit-tested in `kad`;
/// this shows `Discv4::restore` refuses the images they reject.) A
/// resident is 80 bytes, a lookup candidate 74 ([`Disc`]).
#[test]
fn misordered_tables_and_lookups_are_rejected() {
    let (image, _) = images_at_t();
    let discs = discs(&image);
    // The crawler's is the discovery image whose local id the test knows.
    let crawler = discs.last().expect("the crawler runs discovery");
    assert_eq!(
        &image[crawler.section.start..crawler.section.start + 4],
        b"NFND"
    );
    let filled: Vec<&[usize]> = crawler
        .buckets
        .iter()
        .map(|(_, r)| &r[..])
        .filter(|r| !r.is_empty())
        .collect();
    let pair = filled
        .iter()
        .find(|r| r.len() >= 2)
        .expect("a bucket with two residents");
    // The first lookup in flight with two or more candidates, in any host.
    let lookup = discs
        .iter()
        .filter_map(|d| d.candidates.as_deref())
        .find(|c| c.len() >= 2)
        .expect("a lookup with two candidates in flight at T");
    let mut self_resident = image.clone();
    self_resident[filled[0][0]..filled[0][0] + 64].copy_from_slice(&crawler_id().0);
    let unsorted = "lookup candidates not strictly ascending by XOR distance";
    let bonds = &crawler.bonds;
    assert!(bonds.len() >= 2, "the crawler holds two bonds at T");

    let cases = [
        (
            // Both are then filed where `contains` and `remove` never look.
            "crawler residents swapped across buckets",
            swapped(&image, filled[0][0], filled[1][0], 80),
            "routing-table resident in the wrong bucket",
        ),
        (
            "crawler's fullest bucket grown past 16",
            bucket_over_sixteen(&image, crawler),
            "routing-table bucket over its size",
        ),
        (
            // `remove` would then take out both copies.
            "crawler resident copied over its neighbour",
            copied(&image, pair[0], pair[1], 80),
            "routing-table resident stored twice",
        ),
        (
            // `add` never stores the local node.
            "crawler id written over a resident",
            self_resident,
            "routing table holds the local node",
        ),
        (
            // `insert`'s binary search then files later candidates wrongly.
            "first two lookup candidates swapped",
            swapped(&image, lookup[0], lookup[1], 74),
            unsorted,
        ),
        (
            // The lookup may then query it twice.
            "first lookup candidate copied over the second",
            copied(&image, lookup[0], lookup[1], 74),
            unsorted,
        ),
        (
            // No write could leave an entry that proves nothing.
            "crawler's first bond emptied of both halves",
            spliced(&image, crawler, bonds[0].start + 64..bonds[0].end, &[0, 0]),
            "bond with neither half set",
        ),
        (
            // Read into a map, the two entries would collapse into one.
            "crawler's first bond id copied over the second",
            copied(&image, bonds[0].start, bonds[1].start, 64),
            "set or map keys not strictly ascending",
        ),
    ];
    for (case, bad, why) in cases {
        assert_eq!(
            restore_sim(&bad, case.into()),
            Err(netsim::SnapError::Corrupt(why)),
            "{case}"
        );
    }
}

/// `image` with the crawler's fullest bucket filled past 16 with ids that
/// belong in it, and the bucket's and the section's lengths to match.
fn bucket_over_sixteen(image: &[u8], disc: &Disc) -> Vec<u8> {
    let (idx_at, residents) = disc.buckets.iter().max_by_key(|(_, r)| r.len()).unwrap();
    let idx = u16::from_le_bytes([image[*idx_at], image[idx_at + 1]]) as usize;
    let table = RoutingTable::new(crawler_id(), Metric::GethLog2);
    let held: Vec<&[u8]> = residents.iter().map(|&r| &image[r..r + 64]).collect();
    let mut extra = netsim::SnapWriter::new();
    let (mut added, mut n) = (0, 0u64);
    while residents.len() + added <= kad::BUCKET_SIZE {
        let mut id = [0x3c; 64];
        id[..8].copy_from_slice(&n.to_be_bytes());
        n += 1;
        if table.bucket_index(&NodeId(id)) == idx && !held.contains(&&id[..]) {
            let record =
                NodeRecord::new(NodeId(id), Endpoint::new(Ipv4Addr::new(10, 9, 9, 9), 30303));
            netsim::Snap::snap(&(record, 0u64), &mut extra);
            added += 1;
        }
    }
    let count_at = idx_at + 2;
    let end = count_at + 8 + 80 * residents.len();
    let mut bad = spliced(image, disc, end..end, &extra.finish());
    let count = (residents.len() + added) as u64;
    bad[count_at..count_at + 8].copy_from_slice(&count.to_le_bytes());
    bad
}

/// `image` with `range`, inside `disc`'s host section, replaced by
/// `with`, and the section's length prefix to match.
fn spliced(image: &[u8], disc: &Disc, range: Range<usize>, with: &[u8]) -> Vec<u8> {
    let len = (disc.section.len() + with.len() - range.len()) as u64;
    let mut out = [&image[..range.start], with, &image[range.end..]].concat();
    let len_at = disc.section.start - 8;
    out[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    out
}

/// Hostile-input sweep, part 2: seeded single-byte flips anywhere in
/// either image restore as `Ok` or `Err`, never a panic or an abort.
/// 1,024 flips per image: one `PSNP` restore costs ~10 ms in the test
/// profile, which is what bounds this file's runtime.
#[test]
fn flipped_bytes_never_panic() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED_0002);
    let (mut sim_image, mut obs_image) = images_at_t();
    for (name, image, restore) in [
        (
            "PSNP",
            &mut sim_image,
            restore_sim as fn(&[u8], String) -> _,
        ),
        ("OBSS", &mut obs_image, restore_obs),
    ] {
        let mut rejected = 0;
        for _ in 0..1_024 {
            let pos = rng.gen_range(0..image.len());
            let bit = 1u8 << rng.gen_range(0..8);
            image[pos] ^= bit;
            rejected += restore(image, format!("{name} byte {pos} ^ {bit:#04x}")).is_err() as u32;
            image[pos] ^= bit;
        }
        assert!(rejected > 0, "no {name} flip was detected at all");
    }
}
