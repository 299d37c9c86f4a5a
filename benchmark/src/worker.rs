//! One repetition of one workload, in a process of its own.
//!
//! A repetition must be a fresh process: the `ethcrypto` memo caches are
//! thread-local and live as long as the process, so a second same-seed
//! world in one process hits on every signature and measures a different
//! program. The worker sets the world up, runs it window by window, and
//! prints what it saw as `key=value` lines; the parent aggregates.

use crate::clock::Clock;
use crate::record::Record;
use crate::trace::Spans;
use crate::worlds::{self, Built, Phase, Spec};
use nodefinder::{CrawlLog, DataStore, NodeFinder, SanitizeParams};

/// `VmRSS` / `VmHWM` from `/proc/self/status`, in kB (0 where there is no
/// procfs; the workspace forbids `unsafe`, so no counting allocator).
fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds this process has spent on a CPU, all threads
/// (`/proc/self/schedstat`, first field).
fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

const CPU_WARM_NS: u64 = 100_000_000;
const SPEED_PROBE_NS: u64 = 20_000_000;

/// Keep this thread busy for `ns`, hashing a 32-byte block over and over;
/// returns how many hashes that was. Hashing touches none of the memo
/// caches, so it leaves the process as cold as the program can tell.
fn hash_for(clock: &Clock, ns: u64) -> u64 {
    let until = clock.ns() + ns;
    let (mut block, mut hashes) = ([0u8; 32], 0u64);
    while clock.ns() < until {
        block = ethcrypto::keccak256(&block);
        hashes += 1;
    }
    std::hint::black_box(block);
    hashes
}

/// Per-window wall time and dispatched events of one phase, and — where
/// every window ends in a checkpoint — the parts of each window's wall.
#[derive(Default)]
struct Windows {
    wall_ns: Vec<u64>,
    events: Vec<u64>,
    snapshot_ns: Vec<u64>,
    shell_build_ns: Vec<u64>,
    restore_ns: Vec<u64>,
    snapshot_bytes: usize,
}

/// What a phase needs besides the world it runs.
struct Harness<'a> {
    spec: &'a Spec,
    world_seed: u64,
    clock: Clock,
    spans: Spans,
}

/// Serialize `built`, build a fresh shell from the same config (memo-warm
/// after this process's first build; the cold build is `setup_ns`) and
/// restore into it: from a running world to a resumed one, as a campaign
/// that checkpoints and picks up again pays it. Returns the shell.
fn checkpoint(h: &mut Harness, built: &Built, out: &mut Windows) -> Result<Built, String> {
    let t0 = h.clock.ns();
    let snap = built.world.sim.snapshot();
    let t1 = h.clock.ns();
    let snap = snap.map_err(|e| format!("snapshot failed: {e}"))?;
    let mut shell = worlds::build(h.spec, h.world_seed);
    let t2 = h.clock.ns();
    let restored = shell.world.sim.restore(&snap);
    let t3 = h.clock.ns();
    h.spans.leaf("snapshot", t0, t1);
    h.spans.leaf("shell_build", t1, t2);
    h.spans.leaf("restore", t2, t3);
    restored.map_err(|e| format!("restore failed: {e}"))?;
    out.snapshot_ns.push(t1 - t0);
    out.shell_build_ns.push(t2 - t1);
    out.restore_ns.push(t3 - t2);
    out.snapshot_bytes = snap.len();
    Ok(shell)
}

/// Run `built` from where it stands to `phase.end_ms`, one window at a
/// time. With `checkpointed`, every window ends by checkpointing the world
/// and carrying on in the restored shell, so `built` is a chain of resumes
/// by the end of the phase.
fn run_phase(
    h: &mut Harness,
    built: &mut Built,
    phase: Phase,
    name: &'static str,
    checkpointed: bool,
) -> Result<Windows, String> {
    let start_ms = built.world.sim.now_ms();
    let len = phase.end_ms - start_ms;
    let span = h.spans.open(name, h.clock.ns());
    let mut out = Windows::default();
    for w in 1..=phase.windows as u64 {
        let until = start_ms + len * w / phase.windows as u64;
        let events_before = built.world.sim.events_processed();
        let window = h.spans.open("window", h.clock.ns());
        let t0 = h.clock.ns();
        built.world.sim.run_until(until);
        out.events
            .push(built.world.sim.events_processed() - events_before);
        // The world a resume leaves behind is dropped after the clock
        // stops: a real resume is a new process and frees nothing.
        let left_behind = if checkpointed {
            let t1 = h.clock.ns();
            h.spans.leaf("run", t0, t1);
            let shell = checkpoint(h, built, &mut out)?;
            Some(std::mem::replace(built, shell))
        } else {
            None
        };
        let t1 = h.clock.ns();
        out.wall_ns.push(t1 - t0);
        h.spans.close(window, t1);
        drop(left_behind);
    }
    h.spans.close(span, h.clock.ns());
    Ok(out)
}

/// Hosts that have had at least one event dispatched. Read off the
/// profiler before any host is labelled: an unlabelled host enters the
/// archetype roll-up only once it has an event.
fn active_hosts() -> u64 {
    obs::profile::summary().map_or(0, |s| s.archetypes.iter().map(|a| a.1).sum())
}

fn digest_hex(parts: &[&[u8]]) -> String {
    let mut bytes = Vec::new();
    for p in parts {
        bytes.extend_from_slice(p);
    }
    ethcrypto::keccak256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// What a finished world leaves behind: the digest input and the crawler.
struct Finished {
    events: u64,
    /// `DataStore::to_json()` where there is a crawler, else the engine's
    /// udp/tcp counters.
    artifact: String,
    crawler: Option<Box<NodeFinder>>,
}

fn finish(mut built: Built) -> Finished {
    let sim = &mut built.world.sim;
    let events = sim.events_processed();
    let crawler = built.crawler.map(|host| {
        sim.remove_host_behaviour(host)
            .expect("crawler host keeps its behaviour")
            .into_any()
            .downcast::<NodeFinder>()
            .expect("crawler host is a NodeFinder")
    });
    let artifact = match &crawler {
        Some(c) => DataStore::from_log(&c.log).to_json(),
        None => format!("{:?} {:?}", sim.udp_counters(), sim.tcp_counters()),
    };
    Finished {
        events,
        artifact,
        crawler,
    }
}

/// Time the crawler's offline stages on this repetition's own log: what
/// every one of the repro binaries pays per run, outside any timed phase.
fn ingest(log: &CrawlLog, day_ms: u64, h: &mut Harness, rec: &mut Record) {
    let clock = h.clock;
    let span = h.spans.open("ingest", clock.ns());
    let t0 = clock.ns();
    let store = DataStore::from_log(log);
    let t1 = clock.ns();
    let text = log.to_jsonl();
    let back = CrawlLog::from_jsonl(&text);
    let t2 = clock.ns();
    let (clean, _report) = nodefinder::sanitize(&store, SanitizeParams::scaled(day_ms));
    let t3 = clock.ns();
    h.spans.close(span, t3);
    match back {
        Ok(back)
            if back.conns.len() == log.conns.len() && back.events.len() == log.events.len() => {}
        Ok(_) => rec.fail("crawl log changed size across a JSONL round trip"),
        Err(e) => rec.fail(&format!("crawl log JSONL does not parse back: {e}")),
    }
    std::hint::black_box(clean);
    rec.set("datastore_from_log_ns", t1 - t0);
    rec.set("log_jsonl_roundtrip_ns", t2 - t1);
    rec.set("sanitize_ns", t3 - t2);
}

/// The traced repetition's extra reads: profiler roll-ups and recorder
/// counters, as the program already exports them.
fn read_trace(
    built_labels: &[(netsim::HostId, &'static str)],
    recorder: &obs::Recorder,
    rec: &mut Record,
) {
    for &(host, label) in built_labels {
        obs::profile::host_label(host as u64, label);
    }
    if let Some(s) = obs::profile::summary() {
        for (name, count, busy_ms) in &s.kinds {
            rec.set(&format!("kind.{name}.count"), count);
            rec.set(&format!("kind.{name}.busy_ms"), busy_ms);
        }
        for (label, hosts, events, busy_ms) in &s.archetypes {
            rec.set(
                &format!("arch.{label}"),
                format!("{hosts},{events},{busy_ms}"),
            );
        }
        let busy_ms: u64 = s.shards.iter().map(|sh| sh.1).sum();
        rec.set("busy_ms", busy_ms);
        let util_min = s.shards.iter().map(|sh| sh.3).fold(f64::MAX, f64::min);
        rec.set("shard_utilization_min", util_min);
        rec.set("shard_imbalance", s.imbalance_ratio);
    }
    for name in [
        "netsim.udp_sent",
        "rlpx.auth_written",
        "rlpx.auth_read",
        "rlpx.ack_read",
        "rlpx.frames_written",
        "rlpx.frames_read",
        "crawler.stage.dial.entered",
        "crawler.stage.handshake.completed",
        "crawler.stage.status.completed",
        "crawler.stage.ingest.completed",
        "crawler.dialing_underflow",
    ] {
        rec.set(&format!("counter.{name}"), recorder.counter(name));
    }
    rec.set("trace_events_recorded", recorder.event_count());
    rec.set("trace_events_dropped", recorder.dropped_events());
}

/// Run one repetition and return its record. `setup_only` stops after the
/// world is built: a cold-process set-up sample and nothing else.
pub fn run(spec: &Spec, world_seed: u64, traced: bool, setup_only: bool) -> Record {
    let mut rec = Record::default();
    let mut h = Harness {
        spec,
        world_seed,
        clock: Clock::start(),
        spans: Spans::default(),
    };
    let rss_start_kb = status_kb("VmRSS");
    let recorder = traced.then(|| {
        let recorder = obs::Recorder::new();
        recorder.install();
        obs::profile::install();
        recorder
    });

    // A fresh process on an idle box starts at whatever clock the host's
    // governor left the core at: set-up measured straight after a
    // one-second pause reads twice what it reads after a busy spell.
    hash_for(&h.clock, CPU_WARM_NS);
    let t0 = h.clock.ns();
    let mut built = worlds::build(spec, world_seed);
    let t1 = h.clock.ns();
    h.spans.leaf("setup", t0, t1);
    rec.set("setup_ns", t1 - t0);
    rec.set("host_count", built.world.sim.host_count());
    if setup_only {
        return rec;
    }

    if let Err(why) = run_phases(&mut h, &mut built, traced, &mut rec) {
        rec.fail(&why);
        return rec;
    }
    rec.set("cpu_ns", cpu_ns());
    rec.set("run_wall_ns", h.clock.ns());
    // How fast the box was for this repetition, in a unit that depends on
    // no code under test: the first thing to read when a number moved.
    rec.set(
        "keccak256_per_ms",
        hash_for(&h.clock, SPEED_PROBE_NS) as f64 / (SPEED_PROBE_NS as f64 / 1e6),
    );
    rec.set("queue_depth_peak", built.world.sim.queue_depth_peak());
    rec.set(
        "peak_rss_kb",
        status_kb("VmHWM").saturating_sub(rss_start_kb),
    );
    if let Some(recorder) = &recorder {
        read_trace(&built.labels, recorder, &mut rec);
    }

    let day_ms = built.world.config.day_ms;
    let outcome = finish(built);
    rec.set("sim_events", outcome.events);
    rec.set(
        "sim_digest",
        digest_hex(&[&outcome.events.to_be_bytes(), outcome.artifact.as_bytes()]),
    );
    if let Some(crawler) = &outcome.crawler {
        if crawler.dialing_underflows() != 0 {
            rec.fail(&format!(
                "NodeFinder::dialing_underflows() = {}",
                crawler.dialing_underflows()
            ));
        }
        rec.set("dial_queue_high_water", crawler.dial_queue_high_water());
        ingest(&crawler.log, day_ms, &mut h, &mut rec);
    }

    if recorder.is_some() {
        obs::profile::uninstall();
        obs::uninstall();
        if let Err(e) = h.spans.write(spec.name) {
            rec.fail(&format!("trace file not written: {e}"));
        }
    }
    rec
}

/// Ramp, then the timed phase. In a checkpointed workload the world that
/// finished the ramp also runs on uninterrupted (untimed), and the chain of
/// resumes must end exactly where it does.
fn run_phases(
    h: &mut Harness,
    built: &mut Built,
    traced: bool,
    rec: &mut Record,
) -> Result<(), String> {
    let spec = h.spec;
    let ramp = run_phase(h, built, spec.ramp, "ramp", false)?;
    rec.set_list("ramp_wall_ns", &ramp.wall_ns);
    rec.set_list("ramp_events", &ramp.events);
    if traced {
        rec.set("active_hosts", active_hosts());
    }
    let Some(phase) = spec.timed else {
        // The ramp is the timed phase.
        rec.set_list("timed_wall_ns", &ramp.wall_ns);
        rec.set_list("timed_events", &ramp.events);
        return Ok(());
    };

    let reference = if spec.checkpointed {
        let mut first = Windows::default();
        let shell = checkpoint(h, built, &mut first)?;
        Some(std::mem::replace(built, shell))
    } else {
        None
    };
    let timed = run_phase(h, built, phase, "timed", spec.checkpointed)?;
    rec.set_list("timed_wall_ns", &timed.wall_ns);
    rec.set_list("timed_events", &timed.events);
    if let Some(mut reference) = reference {
        rec.set_list("snapshot_ns", &timed.snapshot_ns);
        rec.set_list("shell_build_ns", &timed.shell_build_ns);
        rec.set_list("restore_ns", &timed.restore_ns);
        rec.set("snapshot_bytes", timed.snapshot_bytes);
        reference.world.sim.run_until(phase.end_ms);
        let same_events =
            reference.world.sim.events_processed() == built.world.sim.events_processed();
        let same_state = matches!(
            (reference.world.sim.snapshot(), built.world.sim.snapshot()),
            (Ok(a), Ok(b)) if a == b
        );
        if !(same_events && same_state) {
            return Err("the chain of resumes diverged from the uninterrupted world".into());
        }
    }
    Ok(())
}
