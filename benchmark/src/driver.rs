//! One run of one workload: spawn the worker processes one at a time,
//! check what they produced, and turn their records into metrics.

use crate::metrics::{DISPATCH_KINDS, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::record::Record;
use crate::stats::{median, percentile_or_max, window_median_sum};
use crate::worlds::Spec;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Set-up-only processes before each repetition and after the last:
/// `setup_s` is a few milliseconds for the small worlds, so it is the
/// median of many cold processes or it is noise, and the box's cold-start
/// cost wanders on a scale of seconds, so they are spread over the run.
const SETUP_PROBES: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// `(name, value, unit)` in catalogue order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

pub struct Outcome {
    pub workload: &'static str,
    /// From the untraced repetitions; every run has them.
    pub end_to_end: Metrics,
    /// From the traced repetition and the ledger; empty with tracing off.
    pub per_layer: Metrics,
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    pub sim_events: u64,
    pub sim_digest: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The contract's result line: the per-layer metrics of a traced run,
    /// the end-to-end metrics otherwise.
    pub fn json(&self) -> String {
        let metrics = if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        };
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }

    /// Every metric by name and unit, then the notes.
    pub fn report(&self) -> String {
        let mut out = format!(
            "== {} sim_events={} sim_digest={}\n",
            self.workload, self.sim_events, self.sim_digest
        );
        for (name, value, unit) in self.end_to_end.iter().chain(&self.per_layer) {
            out.push_str(&format!("{name:<40} {value:>16.4} {unit}\n"));
        }
        for note in self.notes.iter().chain(&self.failures) {
            out.push_str(&format!("  {note}\n"));
        }
        out
    }
}

/// Run this binary again as a worker and read its record back. One
/// process at a time: `output()` waits for the child to end.
fn spawn(args: &[String]) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("worker did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker {args:?} ended with {}", out.status));
    }
    Ok(Record::from_lines(&String::from_utf8_lossy(&out.stdout)))
}

fn worker_args(spec: &Spec, opts: &Options, mode: &str) -> Vec<String> {
    let mut args = vec![
        "--worker".to_string(),
        spec.name.to_string(),
        "--world-seed".to_string(),
        spec.world_seed(opts.seed).to_string(),
        "--mode".to_string(),
        mode.to_string(),
    ];
    if opts.smoke {
        args.push("--smoke".to_string());
    }
    args
}

fn lists(reps: &[&Record], key: &str) -> Vec<Vec<u64>> {
    reps.iter().map(|r| r.list(key)).collect()
}

/// One list field of every repetition, pooled, in milliseconds.
fn pooled_ms(reps: &[&Record], key: &str) -> Vec<f64> {
    reps.iter()
        .flat_map(|r| r.list(key))
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

fn median_of(reps: &[&Record], key: &str) -> f64 {
    let values: Vec<f64> = reps.iter().map(|r| r.num(key)).collect();
    median(&values)
}

/// Collects values by name and hands them back in catalogue order.
#[derive(Default)]
struct Values(BTreeMap<String, f64>);

impl Values {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Price every layer in a process of its own.
pub fn run_ledger(seed: u64) -> Result<Record, String> {
    spawn(&["--ledger".to_string(), seed.to_string()])
}

/// One run: set-up probes and the untraced repetitions, then, with
/// `opts.trace`, a traced repetition and the ledger (`ledger` if the
/// caller already has one, else a fresh one).
pub fn run_workload(
    spec: &Spec,
    opts: &Options,
    ledger: Option<&Record>,
) -> Result<Outcome, String> {
    let spec = if opts.smoke { spec.smoke() } else { *spec };
    let (probes, untraced_reps) = if opts.smoke {
        (1, 1)
    } else {
        let reps = (spec.reps as u64 * opts.seconds / RUN_SECONDS).max(2);
        (SETUP_PROBES, reps as usize)
    };
    // Operations: one per process, plus one per checkpoint in it.
    let checkpoints = match spec.timed {
        Some(phase) if spec.checkpointed => phase.windows as u64 + 1,
        _ => 0,
    };

    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut launch = |mode: &str| -> Option<Record> {
        let runs_the_world = matches!(mode, "untraced" | "traced");
        attempted += 1 + if runs_the_world { checkpoints } else { 0 };
        let result = match mode {
            "ledger" => run_ledger(opts.seed),
            _ => spawn(&worker_args(&spec, opts, mode)),
        };
        match result {
            Ok(rec) => match rec.failure() {
                Some(why) => {
                    failures.push(format!("{} {mode} repetition: {why}", spec.name));
                    None
                }
                None => Some(rec),
            },
            Err(why) => {
                failures.push(why);
                None
            }
        }
    };

    let mut setup_ns: Vec<f64> = Vec::new();
    let mut untraced: Vec<Record> = Vec::new();
    for rep in 0..=untraced_reps {
        for _ in 0..probes {
            setup_ns.extend(launch("setup").map(|rec| rec.num("setup_ns")));
        }
        if rep < untraced_reps {
            untraced.extend(launch("untraced"));
        }
    }
    let traced = if opts.trace { launch("traced") } else { None };
    let own_ledger = if opts.trace && ledger.is_none() {
        launch("ledger")
    } else {
        None
    };

    let first = untraced.first().ok_or_else(|| {
        format!(
            "no untraced repetition of {} survived: {failures:?}",
            spec.name
        )
    })?;
    let sim_events = first.num("sim_events") as u64;
    let sim_digest = first.text("sim_digest").unwrap_or("").to_string();
    // Same seed, same bytes — across repetitions, and with the recorder and
    // profiler installed (observer effect).
    for (which, rep) in untraced
        .iter()
        .skip(1)
        .map(|r| ("untraced", r))
        .chain(traced.iter().map(|r| ("traced", r)))
    {
        if rep.text("sim_digest") != Some(&sim_digest) || rep.num("sim_events") as u64 != sim_events
        {
            failures.push(format!(
                "{}: a {which} repetition simulated something else: sim_events {} sim_digest {}",
                spec.name,
                rep.num("sim_events"),
                rep.text("sim_digest").unwrap_or("-")
            ));
        }
    }

    let reps: Vec<&Record> = untraced.iter().collect();
    setup_ns.extend(reps.iter().map(|r| r.num("setup_ns")));
    let timed_start_ms = if spec.timed.is_some() {
        spec.ramp.end_ms
    } else {
        0
    };
    let timed_sim_s = (spec.end_ms() - timed_start_ms) as f64 / 1e3;
    let timed_wall = lists(&reps, "timed_wall_ns");
    let timed_wall_s = window_median_sum(&timed_wall) / 1e9;
    let timed_events = first.list("timed_events");
    let ramp_wall = lists(&reps, "ramp_wall_ns");
    let ramp_events: u64 = first.list("ramp_events").iter().sum();
    // Host time per dispatched event, window by window: the median across
    // repetitions of each window's wall time over that window's events.
    let cost_us: Vec<f64> = (0..timed_events.len())
        .filter(|&w| timed_events[w] > 0)
        .map(|w| {
            let column: Vec<f64> = timed_wall.iter().map(|r| r[w] as f64).collect();
            median(&column) / 1e3 / timed_events[w] as f64
        })
        .collect();
    let (cost_p50, _) = percentile_or_max(&cost_us, 0.50);
    let (cost_p90, p90_ok) = percentile_or_max(&cost_us, 0.90);
    if !p90_ok {
        notes.push(format!(
            "event_cost_us_p90 refused on {} windows (needs 100): reporting the maximum",
            cost_us.len()
        ));
    }
    for (name, walls) in [("timed", &timed_wall), ("ramp", &ramp_wall)] {
        let totals: Vec<f64> = walls
            .iter()
            .map(|w| w.iter().sum::<u64>() as f64 / 1e9)
            .collect();
        notes.push(format!(
            "{name} phase wall per repetition: min {:.4} s, max {:.4} s over {} repetitions",
            totals.iter().copied().fold(f64::MAX, f64::min),
            totals.iter().copied().fold(f64::MIN, f64::max),
            totals.len()
        ));
    }

    let mut v = Values::default();
    v.set("setup_s", median(&setup_ns) / 1e9);
    v.set("wall_s_per_sim_s", timed_wall_s / timed_sim_s);
    v.set(
        "events_per_wall_s",
        timed_events.iter().sum::<u64>() as f64 / timed_wall_s,
    );
    v.set(
        "ramp_events_per_wall_s",
        ramp_events as f64 / (window_median_sum(&ramp_wall) / 1e9),
    );
    v.set("event_cost_us_p50", cost_p50);
    v.set("event_cost_us_p90", cost_p90);
    v.set("peak_rss_mb", median_of(&reps, "peak_rss_kb") / 1024.0);
    let end_to_end = END_TO_END
        .iter()
        .map(|m| (m.name, v.get(m.name), m.unit))
        .collect();

    let mut per_layer_metrics = Vec::new();
    if opts.trace {
        let empty = Record::default();
        let t = traced.as_ref().unwrap_or(&empty);
        let l = ledger.or(own_ledger.as_ref()).unwrap_or(&empty);
        per_layer(&mut v, &spec, &reps, t, l);
        v.set("proc.reps", reps.len() as f64);
        v.set("proc.setup_samples", setup_ns.len() as f64);
        v.set("proc.window_samples", cost_us.len() as f64);
        let dispatch_ms: f64 = DISPATCH_KINDS
            .iter()
            .map(|k| t.num(&format!("kind.{k}.busy_ms")))
            .sum();
        notes.push(format!(
            "sum of netsim.dispatch.*.busy_ms = {dispatch_ms} ms of netsim.busy_ms = {} ms",
            v.get("netsim.busy_ms")
        ));
        notes.push(format!(
            "active_hosts {} of host_count {} by the end of the ramp (sim {} ms)",
            v.get("netsim.active_hosts"),
            v.get("netsim.host_count"),
            spec.ramp.end_ms
        ));
        per_layer_metrics = PER_LAYER
            .iter()
            .map(|m| (m.name, v.get(m.name), m.unit))
            .collect();
    }
    let mut end_to_end: Metrics = end_to_end;
    for (name, value, _) in end_to_end.iter_mut().chain(&mut per_layer_metrics) {
        if !value.is_finite() {
            failures.push(format!("{}: {name} came out as {value}", spec.name));
            *value = 0.0;
        }
    }
    Ok(Outcome {
        workload: spec.name,
        end_to_end,
        per_layer: per_layer_metrics,
        attempted,
        failures,
        notes,
        sim_events,
        sim_digest,
    })
}

/// Fill in every per-layer metric from the traced repetition `t`, the
/// untraced repetitions and the ledger `l`.
fn per_layer(v: &mut Values, spec: &Spec, reps: &[&Record], t: &Record, l: &Record) {
    let first = reps[0];
    for m in PER_LAYER.iter() {
        // netsim.dispatch.<kind>.<count|busy_ms> <- kind.<kind>.<...>
        if let Some(rest) = m.name.strip_prefix("netsim.dispatch.") {
            v.set(m.name, t.num(&format!("kind.{rest}")));
        }
        // The ledger's names are the catalogue's.
        if l.text(m.name).is_some() {
            v.set(m.name, l.num(m.name));
        }
    }
    let busy_ms = t.num("busy_ms");
    v.set("netsim.busy_ms", busy_ms);
    v.set("netsim.queue_depth_peak", first.num("queue_depth_peak"));
    v.set(
        "netsim.shard_utilization_min",
        t.num("shard_utilization_min"),
    );
    v.set("netsim.shard_imbalance", t.num("shard_imbalance"));
    let host_count = first.num("host_count");
    v.set(
        "netsim.rss_kb_per_host",
        median_of(reps, "peak_rss_kb") / host_count,
    );
    v.set("netsim.host_count", host_count);
    v.set("netsim.active_hosts", t.num("active_hosts"));
    v.set("netsim.sim_events", first.num("sim_events"));

    for (label, fields) in t.with_prefix("arch.") {
        let parts: Vec<f64> = fields.split(',').filter_map(|p| p.parse().ok()).collect();
        let (events, ms) = (parts[1], parts[2]);
        let (events_key, ms_key) = match label {
            "crawler" => ("nodefinder.events", "nodefinder.busy_ms"),
            "SlowLoris" | "GarbageHello" | "Tarpit" | "ResetAfterN" => ("", "adversary.busy_ms"),
            _ => ("ethpop.events", "ethpop.busy_ms"),
        };
        v.add(ms_key, ms);
        if !events_key.is_empty() {
            v.add(events_key, events);
        }
    }

    let counter = |name: &str| t.num(&format!("counter.{name}"));
    // Every datagram in these worlds is a signed discv4 packet.
    v.set("discv4.packets_sent", counter("netsim.udp_sent"));
    for name in [
        "rlpx.auth_written",
        "rlpx.auth_read",
        "rlpx.ack_read",
        "rlpx.frames_written",
        "rlpx.frames_read",
    ] {
        v.set(name, counter(name));
    }
    let dials = counter("crawler.stage.dial.entered");
    let status = counter("crawler.stage.status.completed");
    v.set("nodefinder.dial_entered", dials);
    v.set(
        "nodefinder.handshake_completed",
        counter("crawler.stage.handshake.completed"),
    );
    v.set("nodefinder.status_completed", status);
    v.set(
        "nodefinder.ingest_completed",
        counter("crawler.stage.ingest.completed"),
    );
    v.set(
        "nodefinder.useful_ratio",
        if dials > 0.0 { status / dials } else { 0.0 },
    );
    v.set(
        "nodefinder.dial_queue_high_water",
        first.num("dial_queue_high_water"),
    );
    v.set(
        "nodefinder.dialing_underflow",
        counter("crawler.dialing_underflow"),
    );

    // Estimates: exact counts times the ledger's unit costs. Every auth
    // read is answered by one ack, so acks written = auths read.
    let sign_ms = (v.get("discv4.packets_sent") + v.get("rlpx.auth_written"))
        * v.get("ethcrypto.sign_ns")
        / 1e6;
    let ecies_ms = ((v.get("rlpx.auth_written") + v.get("rlpx.auth_read"))
        * v.get("ethcrypto.ecies_encrypt_ns")
        + (v.get("rlpx.auth_read") + v.get("rlpx.ack_read")) * v.get("ethcrypto.ecies_decrypt_ns"))
        / 1e6;
    let framing_ms = (v.get("rlpx.frames_written") * v.get("rlpx.frame_write_64_ns")
        + v.get("rlpx.frames_read") * v.get("rlpx.frame_read_64_ns"))
        / 1e6;
    v.set("est.ethcrypto.sign_ms", sign_ms);
    v.set("est.ethcrypto.ecies_ms", ecies_ms);
    v.set("est.rlpx.framing_ms", framing_ms);
    v.set(
        "est.unattributed_ms",
        busy_ms - sign_ms - ecies_ms - framing_ms,
    );

    // Window by window against the untraced median, so a stall in either
    // process moves one ratio, not the answer.
    let untraced_walls = lists(reps, "timed_wall_ns");
    let ratios: Vec<f64> = t
        .list("timed_wall_ns")
        .iter()
        .enumerate()
        .map(|(w, &traced_ns)| {
            let column: Vec<f64> = untraced_walls.iter().map(|r| r[w] as f64).collect();
            traced_ns as f64 / median(&column)
        })
        .collect();
    if !ratios.is_empty() {
        v.set("obs.overhead_pct", (median(&ratios) - 1.0) * 100.0);
    }
    v.set("obs.trace_events_recorded", t.num("trace_events_recorded"));
    v.set("obs.trace_events_dropped", t.num("trace_events_dropped"));
    v.set("proc.cpu_s", median_of(reps, "cpu_ns") / 1e9);
    let util: Vec<f64> = reps
        .iter()
        .map(|r| r.num("cpu_ns") / r.num("run_wall_ns"))
        .collect();
    v.set("proc.cpu_util", median(&util));
    v.set("proc.keccak256_per_ms", median_of(reps, "keccak256_per_ms"));

    if spec.checkpointed {
        let p50 = |key: &str| percentile_or_max(&pooled_ms(reps, key), 0.50).0;
        let (snapshot_ms, restore_ms) = (p50("snapshot_ns"), p50("restore_ns"));
        let mb = first.num("snapshot_bytes") / 1e6;
        v.set("netsim.snapshot_ms_p50", snapshot_ms);
        v.set("netsim.restore_call_ms_p50", restore_ms);
        v.set("ethpop.shell_build_ms_p50", p50("shell_build_ns"));
        v.set("netsim.snapshot_mb", mb);
        v.set("netsim.snapshot_mb_per_s", mb / (snapshot_ms / 1e3));
        v.set("netsim.restore_mb_per_s", mb / (restore_ms / 1e3));
    }
    if spec.crawler {
        v.set(
            "nodefinder.datastore_from_log_ms",
            median_of(reps, "datastore_from_log_ns") / 1e6,
        );
        v.set(
            "nodefinder.log_jsonl_roundtrip_ms",
            median_of(reps, "log_jsonl_roundtrip_ns") / 1e6,
        );
        v.set(
            "nodefinder.sanitize_ms",
            median_of(reps, "sanitize_ns") / 1e6,
        );
    }
}
