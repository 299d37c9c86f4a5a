//! Observability guarantees, end to end: same-seed crawls export
//! byte-identical traces, and installing the recorder never perturbs the
//! simulation (zero observer effect).

use ethereum_p2p::prelude::*;
use std::net::Ipv4Addr;

const SIM_MS: u64 = 2 * 60_000;

/// A small always-on world crawled start to finish, optionally under the
/// obs recorder and/or the self-profiler. Returns the
/// aggregated store's JSON plus the recorder.
fn crawl(instrument: bool, profile: bool) -> (String, Option<obs::Recorder>) {
    let recorder = if instrument {
        let r = obs::Recorder::new();
        r.install();
        Some(r)
    } else {
        None
    };
    if profile {
        obs::profile::install();
    }
    let config = WorldConfig {
        seed: 77,
        n_nodes: 12,
        duration_ms: SIM_MS,
        always_on_fraction: 1.0,
        spammer_ips: 0,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let mut world = World::build(config);
    let key = SecretKey::from_bytes(&[0xCB; 32]).unwrap();
    let crawler = NodeFinder::new(key, CrawlerConfig::default(), world.bootstrap.clone());
    let host = world.sim.add_host(
        HostAddr::new(Ipv4Addr::new(192, 17, 100, 1), 30303),
        HostMeta::default_cloud(),
        Box::new(crawler),
    );
    world.sim.schedule_start(host, 0);
    world.sim.run_until(SIM_MS);
    let crawler = world
        .sim
        .remove_host_behaviour(host)
        .unwrap()
        .into_any()
        .downcast::<NodeFinder>()
        .unwrap();
    let store = DataStore::from_log(&crawler.log);
    if profile {
        assert!(
            obs::profile::export_json().is_some(),
            "profiler was installed but produced no export"
        );
        obs::profile::uninstall();
    }
    obs::uninstall();
    (store.to_json(), recorder)
}

/// Two fresh same-seed runs must export byte-identical JSONL traces and
/// Prometheus snapshots — the replay guarantee the flight recorder is
/// built on.
#[test]
fn trace_export_is_byte_identical_across_same_seed_runs() {
    let (store_a, rec_a) = crawl(true, false);
    let (store_b, rec_b) = crawl(true, false);
    let rec_a = rec_a.unwrap();
    let rec_b = rec_b.unwrap();
    assert!(rec_a.event_count() > 0, "trace must not be empty");
    assert_eq!(rec_a.export_jsonl(), rec_b.export_jsonl());
    assert_eq!(rec_a.prometheus(), rec_b.prometheus());
    assert_eq!(store_a, store_b);
}

/// Installing the recorder must not change a single byte of the
/// resulting DataStore: obs never touches the sim RNG or schedules
/// events, so the instrumented world replays the uninstrumented one.
#[test]
fn recorder_has_zero_observer_effect() {
    let (instrumented, _rec) = crawl(true, false);
    let (bare, _) = crawl(false, false);
    assert_eq!(instrumented, bare);
}

/// Every instrumented layer shows up in the metrics: discovery traffic,
/// RLPx frames, DEVp2p HELLOs, crawler funnel counters, engine totals.
#[test]
fn all_layers_report_metrics() {
    let (_store, rec) = crawl(true, false);
    let rec = rec.unwrap();
    for counter in [
        "netsim.events_total",
        "netsim.udp_sent",
        "discv4.pings_sent",
        "discv4.pongs_received",
        "discv4.findnodes_sent",
        "discv4.neighbors_received",
        "rlpx.auth_written",
        "rlpx.frames_written",
        "devp2p.hello_sent",
        "devp2p.hello_received",
        "crawler.funnel.sightings",
        "crawler.funnel.responded",
        "crawler.funnel.hello",
        "crawler.funnel.status",
    ] {
        assert!(
            rec.counter(counter) > 0,
            "counter {counter} never incremented"
        );
    }
    assert!(rec.gauge("netsim.queue_depth_peak") > 0);
    assert!(rec.gauge("discv4.table_size_peak") > 0);
    assert!(rec.gauge("crawler.cfg.probe_timeout_ms") > 0);
}

/// The TraceQuery API answers per-stage latency questions directly from
/// the flight recorder, without touching the DataStore.
#[test]
fn trace_query_exposes_stage_latencies() {
    let (_store, rec) = crawl(true, false);
    let rec = rec.unwrap();
    let q = rec.query();
    for stage in [
        "crawler.stage.connect_ms",
        "crawler.stage.auth_ms",
        "crawler.stage.hello_ms",
        "crawler.stage.status_ms",
    ] {
        let p99 = q.span_quantile_ms(stage, 0.99);
        assert!(p99.is_some(), "no {stage} spans recorded");
        assert!(
            p99.unwrap() < 30_000,
            "{stage} p99 {p99:?} exceeds the probe timeout"
        );
    }
    // Probe completions carry their connection type and outcome.
    let done = q.named("crawler.probe.done");
    assert!(!done.is_empty());
    assert!(done.iter().any(|e| e.field("responded").is_some()));
}

/// The wall-clock self-profiler is quarantined: running the same seed
/// with profiling on must leave every exported byte — trace, metrics,
/// DataStore — identical to a run with profiling off. Wall time may only
/// ever surface in the profiler's own report.
#[test]
fn profiler_has_zero_observer_effect() {
    let (store_prof, rec_prof) = crawl(true, true);
    let (store_bare, rec_bare) = crawl(true, false);
    let rec_prof = rec_prof.unwrap();
    let rec_bare = rec_bare.unwrap();
    assert_eq!(
        rec_prof.export_jsonl(),
        rec_bare.export_jsonl(),
        "profiler perturbed the JSONL trace"
    );
    assert_eq!(
        rec_prof.prometheus(),
        rec_bare.prometheus(),
        "profiler perturbed the Prometheus snapshot"
    );
    assert_eq!(store_prof, store_bare, "profiler perturbed the DataStore");
}

/// Causal provenance end to end: a completed STATUS handshake's trace
/// event chains back through the handshake stages of the same connection
/// to an external root, with depth matching the chain length exactly.
///
/// The peer pipelines its responses: the RLPx ack and its HELLO both
/// answer the crawler's auth (sent during the connect dispatch), and
/// its STATUS answers the crawler's HELLO (sent during the auth
/// dispatch). So the recorded causal forest for one connection is
/// connect → {auth, hello} and auth → status — the STATUS receipt
/// chains status → auth → connect, with the hello receipt a sibling
/// branch off the same connect root.
#[test]
fn status_span_chains_back_through_the_handshake_to_a_root() {
    let (_store, rec) = crawl(true, false);
    let rec = rec.unwrap();
    let q = rec.query();

    let status = q.named("crawler.stage.status_ms");
    assert!(!status.is_empty(), "no STATUS spans recorded");
    // Join the four stages of one connection via the conn field each
    // stage span carries. Not every probed connection walks all four
    // stages (a probe can ride an already-established connection), so
    // pick the first STATUS completion whose conn has the full set.
    let stage_key = |name: &str, conn: &obs::Value| {
        q.named(name)
            .into_iter()
            .find(|e| e.field("conn") == Some(conn))
            .map(|e| e.key)
    };
    let (status_ev, hello_key, auth_key, connect_key) = status
        .iter()
        .find_map(|ev| {
            let conn = ev.field("conn")?;
            Some((
                ev,
                stage_key("crawler.stage.hello_ms", conn)?,
                stage_key("crawler.stage.auth_ms", conn)?,
                stage_key("crawler.stage.connect_ms", conn)?,
            ))
        })
        .expect("no connection completed all four handshake stages");
    assert_ne!(status_ev.key, 0, "stage span missing its dispatch key");

    let chain = q.chain(status_ev.key);
    assert_eq!(chain[0], status_ev.key);
    // The chain visits the earlier stages in reverse causal order.
    let pos = |key: u64| {
        chain
            .iter()
            .position(|&k| k == key)
            .unwrap_or_else(|| panic!("key {key} not on the causal chain {chain:?}"))
    };
    assert!(
        pos(auth_key) < pos(connect_key),
        "auth must be causally downstream of connect in {chain:?}"
    );
    // The pipelined hello receipt branches off the same connect root.
    let hello_chain = q.chain(hello_key);
    assert_eq!(
        hello_chain.get(1),
        Some(&connect_key),
        "hello's causal parent must be the connect stage"
    );
    // Both chains terminate at an external root (cause 0), and depth
    // counts the links exactly.
    for (chain, ev_depth) in [
        (&chain, status_ev.depth),
        (&hello_chain, q.events_for_key(hello_key)[0].depth),
    ] {
        let root = *chain.last().unwrap();
        assert_eq!(q.cause_of(root), Some(0), "chain did not reach a root");
        assert_eq!(
            chain.len(),
            ev_depth as usize + 1,
            "depth must equal the number of causal links"
        );
    }
}
