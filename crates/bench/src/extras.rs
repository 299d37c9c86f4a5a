//! Entries beyond the paper's own tables and figures: the §4/§5.4/§6.3
//! ablations, the two extensions, and the `obs` reference crawl. Each
//! builds its own worlds; none has an EXPERIMENTS.md row.

use crate::registry::{Entry, Generator, Output};
use crate::{
    crawl_world, crawler_key, mixed_world, sim_sanitize_params, start_host, take_host,
    trace_report, CrawlRun, Overrides, Scale, UIUC,
};
use ethcrypto::secp256k1::SecretKey;
use ethpop::world::{TruthKind, World, WorldConfig};
use ethpop::{EthNode, NodeProfile};
use ethwire::{Chain, ChainConfig, SyncDriver, SyncMode, SNAPSHOT_HEAD};
use nodefinder::{sanitize, CrawlerConfig, DataStore, SanitizeParams};
use std::collections::BTreeSet;

/// The single-crawler ablations run the snapshot-scale world without
/// spammers.
fn ablation_world(ov: &Overrides) -> WorldConfig {
    let scale = ov.apply(Scale::snapshot());
    WorldConfig {
        seed: scale.seed,
        n_nodes: scale.n_nodes,
        day_ms: scale.day_ms,
        duration_ms: scale.run_ms(),
        spammer_ips: 0,
        ..WorldConfig::default()
    }
}

fn ablation_crawler(world: &WorldConfig) -> CrawlerConfig {
    CrawlerConfig {
        static_redial_interval_ms: world.day_ms / 48,
        stale_after_ms: world.day_ms,
        probe_timeout_ms: 30_000,
        ..CrawlerConfig::default()
    }
}

/// Ablation (§4 design choice): static re-dials on vs off. Without the
/// 30-minute static re-dial loop, NodeFinder still *finds* nodes through
/// discovery, but it loses the longitudinal signal: repeat observations
/// per node collapse, so liveness/churn tracking (and the Fig 8 pattern)
/// disappears.
pub(crate) const ABLATION_STATIC_DIALS: Entry = Entry {
    name: "ablation_static_dials",
    files: &["ablation_static_dials.csv"],
    rows: &[],
    generate: Generator::Own(ablation_static_dials),
};

fn ablation_static_dials(ov: &Overrides) -> Output {
    let variant = |static_dials: bool| -> (usize, f64, usize) {
        let world = ablation_world(ov);
        let mut crawler = ablation_crawler(&world);
        if !static_dials {
            crawler.static_redial_interval_ms = u64::MAX / 4;
        }
        let (_, crawler) = crawl_world(world, crawler_key(0), crawler);
        let store = DataStore::from_log(&crawler.log);
        let total = store.total_ids();
        let dials = store.nodes.values().map(|o| o.dials_attempted);
        let repeat_contacted = dials.clone().filter(|&d| d >= 3).count();
        let mean_dials = dials.map(|d| d as f64).sum::<f64>() / total.max(1) as f64;
        (total, mean_dials, repeat_contacted)
    };
    let (ids_w, mean_w, repeat_w) = variant(true);
    let (ids_wo, mean_wo, repeat_wo) = variant(false);
    let text = format!(
        "Ablation — static re-dials (§4)\n\n\
         {:<38} {:>10} {:>10}\n\
         {:<38} {ids_w:>10} {ids_wo:>10}\n\
         {:<38} {mean_w:>10.2} {mean_wo:>10.2}\n\
         {:<38} {repeat_w:>10} {repeat_wo:>10}\n\n\
         expectation: similar unique coverage, but repeat observations (the churn/liveness \
         signal) collapse without the static loop.\n",
        "metric",
        "with",
        "without",
        "unique node IDs",
        "mean dials per node",
        "nodes dialed ≥3 times"
    );
    let csv = format!(
        "variant,ids,mean_dials,repeat_nodes\nwith,{ids_w},{mean_w:.2},{repeat_w}\n\
         without,{ids_wo},{mean_wo:.2},{repeat_wo}\n"
    );
    Output::new(vec![csv], text, Vec::new())
}

/// Ablation (§4 design choice): probe-and-disconnect vs holding
/// connections open like a normal syncing client. The paper argues
/// NodeFinder must disconnect after its three message exchanges: holding
/// every connection while ignoring the peer limit would pin thousands of
/// sockets and occupy remote peer slots. The held-connection count grows
/// monotonically while coverage gains nothing.
pub(crate) const ABLATION_HOLD_CONNS: Entry = Entry {
    name: "ablation_hold_conns",
    files: &["ablation_hold_conns.csv"],
    rows: &[],
    generate: Generator::Own(ablation_hold_conns),
};

fn ablation_hold_conns(ov: &Overrides) -> Output {
    let variant = |hold: bool| -> (usize, usize, usize) {
        let world = ablation_world(ov);
        let crawler = CrawlerConfig {
            hold_connections: hold,
            ..ablation_crawler(&world)
        };
        let key = SecretKey::from_bytes(&[0xCD; 32]).expect("valid key");
        let (_, crawler) = crawl_world(world, key, crawler);
        let store = DataStore::from_log(&crawler.log);
        (
            store.mainnet_nodes().count(),
            store.total_ids(),
            crawler.open_conns(),
        )
    };
    let (mainnet_probe, ids_probe, open_probe) = variant(false);
    let (mainnet_hold, ids_hold, open_hold) = variant(true);
    let text = format!(
        "Ablation — hold connections (§4)\n\n\
         {:<38} {:>12} {:>12}\n\
         {:<38} {mainnet_probe:>12} {mainnet_hold:>12}\n\
         {:<38} {ids_probe:>12} {ids_hold:>12}\n\
         {:<38} {open_probe:>12} {open_hold:>12}\n\n\
         expectation: equal-or-better coverage when disconnecting, while the hold variant \
         accumulates open sockets (the paper: impractical at 30k-node scale, and it burns \
         the remote side's scarce peer slots).\n",
        "metric",
        "disconnect",
        "hold",
        "Mainnet nodes classified",
        "unique node IDs",
        "connections still open at end"
    );
    let csv = format!(
        "variant,mainnet,ids,open_conns\ndisconnect,{mainnet_probe},{ids_probe},{open_probe}\n\
         hold,{mainnet_hold},{ids_hold},{open_hold}\n"
    );
    Output::new(vec![csv], text, Vec::new())
}

/// Ablation (§6.3): what if Parity's XOR metric were correct? Runs the
/// same snapshot world twice — once with Parity's buggy per-byte distance,
/// once with the fixed metric — and compares crawler coverage speed and
/// lookup productivity. The paper argues the bug makes Parity peers
/// "effectively useless during Geth's recursive FIND_NODE process".
pub(crate) const ABLATION_PARITY_XOR: Entry = Entry {
    name: "ablation_parity_xor",
    files: &["ablation_parity_xor.csv"],
    rows: &[],
    generate: Generator::Own(ablation_parity_xor),
};

fn ablation_parity_xor(ov: &Overrides) -> Output {
    let variant = |fixed: bool| -> (usize, u64, Vec<usize>) {
        let world = WorldConfig {
            parity_metric_fixed: fixed,
            ..ablation_world(ov)
        };
        let run_ms = world.duration_ms;
        let crawler = ablation_crawler(&world);
        let key = SecretKey::from_bytes(&[0xAB; 32]).expect("valid key");
        let (_, crawler) = crawl_world(world, key, crawler);
        // Coverage over time: unique node ids known by each fifth of the run.
        let coverage = (1..=5u64)
            .map(|fifth| {
                let seen = crawler.log.events.iter();
                seen.filter(|e| e.ts_ms <= run_ms * fifth / 5)
                    .map(|e| e.node_id)
                    .collect::<BTreeSet<_>>()
                    .len()
            })
            .collect();
        let store = DataStore::from_log(&crawler.log);
        let sightings = store.nodes.values().map(|o| o.discovery_sightings).sum();
        (store.total_ids(), sightings, coverage)
    };
    let (ids_buggy, sightings_buggy, cov_buggy) = variant(false);
    let (ids_fixed, sightings_fixed, cov_fixed) = variant(true);
    let mut text = format!(
        "Ablation — Parity XOR metric (§6.3)\n\n\
         {:<34} {:>12} {:>12}\n\
         {:<34} {ids_buggy:>12} {ids_fixed:>12}\n\
         {:<34} {sightings_buggy:>12} {sightings_fixed:>12}\n",
        "metric", "buggy", "fixed", "unique node IDs discovered", "discovery sightings"
    );
    for (i, (b, f)) in cov_buggy.iter().zip(&cov_fixed).enumerate() {
        let label = format!("coverage at {}/5 of run", i + 1);
        text += &format!("{label:<34} {b:>12} {f:>12}\n");
    }
    text += "\nexpectation: with the fix, Parity NEIGHBORS responses carry genuinely-close \
             nodes, so discovery converges at least as fast; the buggy world wastes FINDNODE \
             budget.\n";
    let csv = format!(
        "variant,ids,sightings\nbuggy,{ids_buggy},{sightings_buggy}\n\
         fixed,{ids_fixed},{sightings_fixed}\n"
    );
    Output::new(vec![csv], text, Vec::new())
}

/// Ablation (§5.4): sensitivity of the sanitization thresholds. Sweeps the
/// short-lived window and the generation-rate threshold around the paper's
/// values and reports, against ground truth, how many spammer identities
/// each setting removes (true positives) and how many legitimate nodes it
/// takes with them (false positives).
pub(crate) const ABLATION_SANITIZE: Entry = Entry {
    name: "ablation_sanitize",
    files: &["ablation_sanitize.csv"],
    rows: &[],
    generate: Generator::Ecosystem(ablation_sanitize),
};

fn ablation_sanitize(run: &CrawlRun) -> Output {
    let (spammers, honest): (Vec<_>, Vec<_>) = run
        .world
        .nodes
        .iter()
        .partition(|n| n.kind == TruthKind::Spammer);
    let spam_ips: BTreeSet<_> = spammers.iter().map(|n| n.addr.ip).collect();
    let legit: BTreeSet<_> = honest.iter().map(|n| n.initial_id).collect();
    let base = sim_sanitize_params();
    let mut text = format!(
        "Ablation — §5.4 threshold sweep (base: short-lived {}ms, rate {}ms)\n\n\
         {:>8} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
        base.short_lived_ms,
        base.max_generation_interval_ms,
        "x_short",
        "x_rate",
        "flagged_ips",
        "removed",
        "spam_hit",
        "legit_lost"
    );
    let mut csv = String::from("x_short,x_rate,flagged_ips,removed,spam_ips_hit,legit_removed\n");
    for xs in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        for xr in [0.5f64, 1.0, 2.0] {
            let params = SanitizeParams {
                short_lived_ms: ((base.short_lived_ms as f64 * xs) as u64).max(1),
                min_nodes_per_ip: base.min_nodes_per_ip,
                max_generation_interval_ms: ((base.max_generation_interval_ms as f64 * xr) as u64)
                    .max(1),
            };
            let (_, report) = sanitize(&run.store, params);
            let (flagged, removed) = (report.abusive_ips.len(), report.removed_nodes.len());
            let spam_hit = report.abusive_ips.intersection(&spam_ips).count();
            let legit_lost = report.removed_nodes.intersection(&legit).count();
            text += &format!(
                "{xs:>8} {xr:>8} {flagged:>12} {removed:>12} {spam_hit:>9}/{:<2} {legit_lost:>12}\n",
                spam_ips.len()
            );
            csv += &format!("{xs},{xr},{flagged},{removed},{spam_hit},{legit_lost}\n");
        }
    }
    text += "\nexpectation: the paper's setting (1.0, 1.0) catches the spammer IPs with few or \
             no legitimate casualties; very wide windows start flagging churny-but-honest IPs.\n";
    Output::new(vec![csv], text, Vec::new())
}

/// Extension (§2.3): full sync vs eth/63 fast sync. The paper describes
/// fast sync as "improving syncing times by approximately an order of
/// magnitude" [54]. Drives both [`SyncDriver`] modes against the same
/// chain and reports validation work, message counts, and the crossover
/// behaviour as chains grow.
pub(crate) const EXTENSION_FASTSYNC: Entry = Entry {
    name: "extension_fastsync",
    files: &["extension_fastsync.csv"],
    rows: &[],
    generate: Generator::None(extension_fastsync),
};

fn extension_fastsync(_: &Overrides) -> Output {
    let sync = |mode: SyncMode, head: u64| {
        let chain = Chain::new(ChainConfig::mainnet(), head);
        let mut driver = SyncDriver::new(mode, head, 192, 64);
        driver.run_to_completion(|req| ethwire::serve_from_chain(&chain, req))
    };
    let mut text = format!(
        "Extension — full sync vs fast sync (§2.3)\n\n{:>10} {:>14} {:>14} {:>8} {:>10} {:>10}\n",
        "head", "full_work", "fast_work", "ratio", "full_msgs", "fast_msgs"
    );
    let mut csv = String::from("head,full_work,fast_work,ratio,full_msgs,fast_msgs\n");
    for head in [10_000u64, 50_000, 200_000, 1_000_000, 5_460_000] {
        let full = sync(SyncMode::Full, head);
        let fast = sync(SyncMode::Fast, head);
        let ratio = full.work_units as f64 / fast.work_units as f64;
        text += &format!(
            "{head:>10} {:>14} {:>14} {ratio:>7.1}x {:>10} {:>10}\n",
            full.work_units, fast.work_units, full.requests, fast.requests
        );
        csv += &format!(
            "{head},{},{},{ratio:.2},{},{}\n",
            full.work_units, fast.work_units, full.requests, fast.requests
        );
    }
    text += "\nexpectation: the work ratio approaches the state-validation/receipt-check cost \
             ratio (~13x here) as the chain grows — 'approximately an order of magnitude' \
             (paper §2.3, [54]).\n";
    Output::new(vec![csv], text, Vec::new())
}

/// Extension (§6.3): the "unintentional eclipse attack". The paper argues
/// that a Geth node whose RLPx table is saturated with Parity peers could
/// fail to discover new nodes, because Parity's broken distance metric
/// means its NEIGHBORS responses never contain nodes that are actually
/// close to Geth's lookup targets. The authors couldn't verify it in the
/// wild (no topology view); in the simulator we can: saturate a world with
/// Parity nodes and watch a fresh Geth node's discovery coverage with the
/// buggy vs corrected metric.
pub(crate) const EXTENSION_ECLIPSE: Entry = Entry {
    name: "extension_eclipse",
    files: &["extension_eclipse.csv"],
    rows: &[],
    generate: Generator::Own(extension_eclipse),
};

fn extension_eclipse(ov: &Overrides) -> Output {
    let scale = ov.apply(Scale::snapshot());
    let variant = |parity_share: f64, fixed_metric: bool| -> (usize, usize, usize) {
        let mut world = World::build(WorldConfig {
            seed: scale.seed,
            n_nodes: scale.n_nodes.min(120),
            day_ms: scale.day_ms,
            duration_ms: scale.run_ms(),
            spammer_ips: 0,
            udp_loss: 0.0,
            always_on_fraction: 0.9,
            parity_share: Some(parity_share),
            parity_metric_fixed: fixed_metric,
            ..WorldConfig::default()
        });
        // The observer: a fresh, correct Geth node joining the network.
        let profile = NodeProfile::geth(
            SecretKey::from_bytes(&[0xEC; 32]).expect("valid key"),
            "Geth/v1.8.11-observer".into(),
            Chain::new(ChainConfig::mainnet(), SNAPSHOT_HEAD),
        );
        let observer = Box::new(EthNode::new(profile, world.bootstrap.clone()));
        let host = start_host(&mut world, [192, 17, 90, 9], UIUC, observer);
        world.sim.run_until(scale.run_ms());
        let observer: EthNode = take_host(&mut world, host);
        (
            observer.known_count(),
            observer.table_size(),
            world.nodes.len(),
        )
    };
    let mut text = format!(
        "Extension — the §6.3 unintentional eclipse\n\n{:<28} {:>12} {:>12} {:>12}\n",
        "world", "known_nodes", "table_size", "population"
    );
    let mut csv = String::from("parity_share,metric,known,table,population\n");
    for (share, label) in [(0.17f64, "17% parity"), (0.85, "85% parity")] {
        for (fixed, metric) in [(false, "buggy"), (true, "fixed")] {
            let (known, table, population) = variant(share, fixed);
            let world = format!("{label}, {metric} metric");
            text += &format!("{world:<28} {known:>12} {table:>12} {population:>12}\n");
            csv += &format!("{share},{metric},{known},{table},{population}\n");
        }
    }
    text += "\nexpectation: at 17% Parity the metrics barely differ; at 85% the buggy-metric \
             world leaves the Geth observer knowing fewer peers (Parity NEIGHBORS answers are \
             useless to its lookups) — the paper's naturally-arising eclipse.\n";
    Output::new(vec![csv], text, Vec::new())
}

/// The instrumented reference crawl: the `tests/full_stack.rs`
/// mixed-population world (36 behavioural nodes + 4 Byzantine hosts, seed
/// 4242, 10 simulated minutes) under the `obs` recorder and self-profiler.
/// `obs_trace.jsonl` and `obs_metrics.prom` are deterministic and feed
/// `repro chain` and `repro campaign`; `obsctl_campaign.json` is the
/// campaign report read back from those two exports, so `--check` also
/// proves the readers read what the writers wrote. The profiler table is
/// printed, and `obs_profile.json` written locally: both are wall-clock.
pub(crate) const OBS: Entry = Entry {
    name: "obs",
    files: &[
        "obs_trace.jsonl",
        "obs_metrics.prom",
        "obsctl_campaign.json",
    ],
    rows: &[],
    generate: Generator::Own(obs_reference),
};

fn obs_reference(_: &Overrides) -> Output {
    const SIM_MS: u64 = 10 * 60_000;
    let recorder = obs::Recorder::new();
    recorder.install();
    obs::profile::install();
    let config = WorldConfig {
        seed: 4242,
        n_nodes: 36,
        duration_ms: SIM_MS,
        always_on_fraction: 1.0,
        spammer_ips: 0,
        udp_loss: 0.0,
        ..WorldConfig::default()
    };
    let crawler = CrawlerConfig {
        static_redial_interval_ms: 60_000,
        stale_after_ms: SIM_MS,
        probe_timeout_ms: 30_000,
        penalty_threshold: 3,
        penalty_box_ms: 2 * 60_000,
        ..CrawlerConfig::default()
    };
    let mut world = mixed_world(config, 4, crawler);
    world.sim.run_until(SIM_MS);
    let summary = obs::profile::summary().expect("profiler installed above");
    let profile = obs::profile::export_json().expect("profiler installed above");
    obs::profile::uninstall();
    obs::uninstall();
    let text = format!(
        "obs reference crawl: {} sim events, peak queue depth {}, {} trace events recorded, \
         {} dropped\n\n{}",
        recorder.counter("netsim.events_total"),
        recorder.gauge("netsim.queue_depth_peak"),
        recorder.event_count(),
        recorder.dropped_events(),
        trace_report::profile_table(&summary)
    );
    let (trace, prom) = (recorder.export_jsonl(), recorder.prometheus());
    let campaign = trace_report::campaign(
        &trace_report::parse_trace("obs_trace.jsonl", &trace).expect("trace reads back"),
        &trace_report::parse_prom("obs_metrics.prom", &prom).expect("metrics read back"),
    );
    let mut out = Output::new(vec![trace, prom, campaign.json], text, Vec::new());
    out.local.push(("obs_profile.json", profile));
    out
}
