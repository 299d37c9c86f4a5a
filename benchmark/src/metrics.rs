//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` is generated from this file (`--describe`) and
//! `--smoke` fails if the two have drifted apart.

use crate::worlds::WORKLOADS;

/// What one run of the benchmark measures for, in seconds
/// (`BENCHMARK.json`'s `run_seconds`; `Spec::reps` is sized for it).
pub const RUN_SECONDS: u64 = 30;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. Each is at least three
    /// times the spread (quartile distance over median) seen across ten
    /// seeds on the 2-core reference box; see README.md, "Bounds".
    pub bound: f64,
}

/// Every workload reports every one of these, with tracing off. Rates are
/// per dispatched event wherever that is what a change to the code moves:
/// events per simulated second are fixed by the seed (and differ from seed
/// to seed with the world's make-up), host time per event is the program's.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s_per_sim_s",
        unit: "s/s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_wall_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "ramp_events_per_wall_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "event_cost_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "event_cost_us_p90",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Engine event kinds the profiler attributes cost to, in the order the
/// catalogue lists them.
pub const DISPATCH_KINDS: [&str; 7] = [
    "udp",
    "tcp_data",
    "tcp_establish",
    "timer",
    "tcp_syn",
    "tcp_close",
    "start_host",
];

/// Every workload's traced run reports every one of these; a metric a
/// workload has no use for (crawler counters without a crawler, snapshot
/// throughput without a checkpoint) reads 0 there.
pub const PER_LAYER: [PerLayer; 99] = [
    // Traced repetition: the profiler's per-kind roll-up.
    layer("netsim.dispatch.udp.count", "count", "lower"),
    layer("netsim.dispatch.udp.busy_ms", "ms", "lower"),
    layer("netsim.dispatch.tcp_data.count", "count", "lower"),
    layer("netsim.dispatch.tcp_data.busy_ms", "ms", "lower"),
    layer("netsim.dispatch.tcp_establish.count", "count", "lower"),
    layer("netsim.dispatch.tcp_establish.busy_ms", "ms", "lower"),
    layer("netsim.dispatch.timer.count", "count", "lower"),
    layer("netsim.dispatch.timer.busy_ms", "ms", "lower"),
    layer("netsim.dispatch.tcp_syn.count", "count", "lower"),
    layer("netsim.dispatch.tcp_syn.busy_ms", "ms", "lower"),
    layer("netsim.dispatch.tcp_close.count", "count", "lower"),
    layer("netsim.dispatch.tcp_close.busy_ms", "ms", "lower"),
    layer("netsim.dispatch.start_host.count", "count", "lower"),
    layer("netsim.dispatch.start_host.busy_ms", "ms", "lower"),
    layer("netsim.busy_ms", "ms", "lower"),
    layer("netsim.queue_depth_peak", "count", "lower"),
    layer("netsim.shard_utilization_min", "ratio", "higher"),
    layer("netsim.shard_imbalance", "ratio", "lower"),
    layer("netsim.rss_kb_per_host", "kB", "lower"),
    layer("netsim.host_count", "count", "higher"),
    layer("netsim.active_hosts", "count", "higher"),
    layer("netsim.sim_events", "count", "lower"),
    // Who pays: the profiler's archetype roll-up, folded per crate.
    layer("ethpop.busy_ms", "ms", "lower"),
    layer("ethpop.events", "count", "lower"),
    layer("nodefinder.busy_ms", "ms", "lower"),
    layer("nodefinder.events", "count", "lower"),
    layer("adversary.busy_ms", "ms", "lower"),
    // Work done, exact per seed: the recorder's own counters.
    layer("discv4.packets_sent", "count", "lower"),
    layer("rlpx.auth_written", "count", "lower"),
    layer("rlpx.auth_read", "count", "lower"),
    layer("rlpx.ack_read", "count", "lower"),
    layer("rlpx.frames_written", "count", "lower"),
    layer("rlpx.frames_read", "count", "lower"),
    layer("nodefinder.dial_entered", "count", "higher"),
    layer("nodefinder.handshake_completed", "count", "higher"),
    layer("nodefinder.status_completed", "count", "higher"),
    layer("nodefinder.ingest_completed", "count", "higher"),
    layer("nodefinder.useful_ratio", "ratio", "higher"),
    layer("nodefinder.dial_queue_high_water", "count", "lower"),
    layer("nodefinder.dialing_underflow", "count", "lower"),
    // Counts times ledger unit costs: labelled estimates.
    layer("est.ethcrypto.sign_ms", "ms", "lower"),
    layer("est.ethcrypto.ecies_ms", "ms", "lower"),
    layer("est.rlpx.framing_ms", "ms", "lower"),
    layer("est.unattributed_ms", "ms", "lower"),
    // The cost of looking, and whether the repetition had a core to itself.
    layer("obs.overhead_pct", "%", "lower"),
    layer("obs.trace_events_recorded", "count", "lower"),
    layer("obs.trace_events_dropped", "count", "lower"),
    layer("proc.cpu_s", "s", "lower"),
    layer("proc.cpu_util", "ratio", "higher"),
    layer("proc.keccak256_per_ms", "1/ms", "higher"),
    // The checkpoint split by direction (0 where windows do not checkpoint).
    layer("netsim.snapshot_ms_p50", "ms", "lower"),
    layer("netsim.restore_call_ms_p50", "ms", "lower"),
    layer("ethpop.shell_build_ms_p50", "ms", "lower"),
    layer("netsim.snapshot_mb", "MB", "lower"),
    layer("netsim.snapshot_mb_per_s", "MB/s", "higher"),
    layer("netsim.restore_mb_per_s", "MB/s", "higher"),
    // The crawler's offline stages, on the repetition's own log.
    layer("nodefinder.datastore_from_log_ms", "ms", "lower"),
    layer("nodefinder.log_jsonl_roundtrip_ms", "ms", "lower"),
    layer("nodefinder.sanitize_ms", "ms", "lower"),
    // The layer ledger.
    layer("ethcrypto.keccak256_1k_ns", "ns", "lower"),
    layer("ethcrypto.aes_ctr_1k_ns", "ns", "lower"),
    layer("ethcrypto.sign_ns", "ns", "lower"),
    layer("ethcrypto.recover_hit_ns", "ns", "lower"),
    layer("ethcrypto.recover_miss_ns", "ns", "lower"),
    layer("ethcrypto.pubkey_miss_ns", "ns", "lower"),
    layer("ethcrypto.ecdh_hit_ns", "ns", "lower"),
    layer("ethcrypto.ecdh_miss_ns", "ns", "lower"),
    layer("ethcrypto.ecies_encrypt_ns", "ns", "lower"),
    layer("ethcrypto.ecies_decrypt_ns", "ns", "lower"),
    layer("rlp.encode_neighbors_ns", "ns", "lower"),
    layer("rlp.decode_neighbors_ns", "ns", "lower"),
    layer("discv4.encode_ping_ns", "ns", "lower"),
    layer("discv4.decode_ping_hit_ns", "ns", "lower"),
    layer("discv4.decode_ping_miss_ns", "ns", "lower"),
    layer("discv4.encode_neighbors_ns", "ns", "lower"),
    layer("rlpx.handshake_pair_us", "us", "lower"),
    layer("rlpx.frame_write_64_ns", "ns", "lower"),
    layer("rlpx.frame_read_64_ns", "ns", "lower"),
    layer("rlpx.frame_write_4k_ns", "ns", "lower"),
    layer("rlpx.frame_read_4k_ns", "ns", "lower"),
    layer("devp2p.hello_roundtrip_ns", "ns", "lower"),
    layer("ethwire.status_roundtrip_ns", "ns", "lower"),
    layer("ethwire.transactions_roundtrip_ns", "ns", "lower"),
    layer("ethwire.headers32_roundtrip_ns", "ns", "lower"),
    layer("kad.closest16_geth_ns", "ns", "lower"),
    layer("kad.closest16_parity_ns", "ns", "lower"),
    layer("kad.add_ns", "ns", "lower"),
    layer("enode.intern_ns", "ns", "lower"),
    layer("netsim.wheel_push_pop_ns", "ns", "lower"),
    layer("netsim.payload_clone_ns", "ns", "lower"),
    layer("netsim.bare_udp_event_ns_s1", "ns", "lower"),
    layer("netsim.bare_udp_event_ns_s8", "ns", "lower"),
    layer("netsim.bare_timer_event_ns", "ns", "lower"),
    layer("netsim.bare_tcp_event_ns", "ns", "lower"),
    layer("obs.counter_add_id_ns", "ns", "lower"),
    layer("obs.event_emit_ns", "ns", "lower"),
    // How many samples stand behind the figures above.
    layer("proc.reps", "count", "higher"),
    layer("proc.setup_samples", "count", "higher"),
    layer("proc.window_samples", "count", "higher"),
];

/// The text of `BENCHMARK.json`.
pub fn describe() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
