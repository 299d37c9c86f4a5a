//! `repro` — regenerate the paper's tables and figures from the registry.
//!
//! ```text
//! repro list              entry names, campaigns, files, rows
//! repro <name>…           regenerate those entries' files under results/
//! repro all               every entry + EXPERIMENTS.md
//! repro all --check       regenerate in memory, byte-compare with the
//!                         committed results/ and EXPERIMENTS.md, exit 1
//!                         naming every file that differs
//! repro scale <hosts>     build-and-run smoke of a large world
//! repro chain <key>       walk the causal chain of scheduler key <key>
//!                         through the trace: every dispatch from the key
//!                         back to its external root (cause 0), with the
//!                         events each dispatch recorded
//! repro campaign          crawl-campaign progress from the trace and the
//!                         metrics export: dial funnel totals, fresh vs
//!                         stale nodes, events per sim-hour
//! ```
//!
//! `SEED` / `NODES` / `DAYS` / `CRAWLERS` rescale the campaigns; such a run
//! writes under `results/override/` and cannot be `--check`ed.
//!
//! `chain` and `campaign` read the `obs` entry's committed exports, or
//! the files `--trace <path>` (default `results/obs_trace.jsonl`) and
//! `--prom <path>` (default `results/obs_metrics.prom`) name, and exit 1
//! naming the file and line they cannot read. The trace is a bounded
//! flight recorder: the ring keeps the newest `trace_capacity` events
//! (default 65536) and evicts the oldest, counting drops per event kind.
//! A chain that stops short of a root may simply have had its older links
//! evicted — check the recorder's drop counters before concluding the
//! provenance is broken.

use bench::{
    campaign, chain, check_files, experiments_md, mixed_world, parse_prom, parse_trace, Campaigns,
    Entry, Overrides, REGISTRY,
};
use ethpop::world::WorldConfig;
use nodefinder::CrawlerConfig;
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let overrides = Overrides::from_env().unwrap_or_else(|err| {
        eprintln!("repro: {err}");
        exit(2)
    });
    match args.as_slice() {
        ["list"] => list(),
        ["scale", hosts] => match hosts.parse() {
            Ok(hosts) => scale(hosts),
            Err(_) => usage(),
        },
        ["all"] => write(&generate(REGISTRY, overrides, true)),
        ["all", "--check"] if overrides.any() => {
            eprintln!(
                "repro: --check compares default-scale output; unset SEED/NODES/DAYS/CRAWLERS"
            );
            exit(2)
        }
        ["all", "--check"] => check(&generate(REGISTRY, overrides, true)),
        ["chain", key, flags @ ..] => match (key.parse(), paths(flags, [("--trace", TRACE)])) {
            (Ok(key), Some([trace])) => print!("{}", chain(load(trace, parse_trace), key)),
            _ => usage(),
        },
        ["campaign", flags @ ..] => match paths(flags, [("--trace", TRACE), ("--prom", PROM)]) {
            Some([trace, prom]) => {
                let report = campaign(&load(trace, parse_trace), &load(prom, parse_prom)).report;
                print!("{report}")
            }
            None => usage(),
        },
        [] => usage(),
        names => {
            let find = |name: &&str| REGISTRY.iter().copied().find(|e| e.name == *name);
            match names.iter().map(find).collect::<Option<Vec<&Entry>>>() {
                Some(entries) => write(&generate(&entries, overrides, false)),
                None => usage(),
            }
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repro list | all [--check] | scale <hosts> | chain <key> [--trace <path>] \
         | campaign [--trace <path>] [--prom <path>] | <name>…   (names: repro list)"
    );
    exit(2)
}

/// The `obs` entry's exports, which `chain` and `campaign` read by default.
const TRACE: &str = "results/obs_trace.jsonl";
const PROM: &str = "results/obs_metrics.prom";

/// The paths that `--<flag> <path>` pairs in `flags` give, each defaulting
/// to its entry in `defaults`; `None` on any other argument.
fn paths<'a, const N: usize>(
    flags: &[&'a str],
    defaults: [(&str, &'a str); N],
) -> Option<[&'a str; N]> {
    let mut paths = defaults.map(|(_, path)| path);
    for pair in flags.chunks(2) {
        let [flag, path] = pair else { return None };
        let at = defaults.iter().position(|(name, _)| name == flag)?;
        paths[at] = path;
    }
    Some(paths)
}

/// Read `path` with `parse`, or exit 1 naming the file, and the line
/// where it is damaged.
fn load<T>(path: &str, parse: fn(&str, &str) -> Result<T, String>) -> T {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    text.and_then(|text| parse(path, &text))
        .unwrap_or_else(|err| {
            eprintln!("repro: {err}");
            exit(1)
        })
}

fn list() {
    for entry in REGISTRY {
        println!("{:<26} campaign: {}", entry.name, entry.generate.campaign());
        for file in entry.files {
            println!("    results/{file}");
        }
        for (artifact, paper) in entry.rows {
            println!("    row: {artifact} — {paper}");
        }
    }
}

/// Run `entries`, print their reports and write their local outputs;
/// returns every (path, contents) they own, plus EXPERIMENTS.md when
/// `entries` is the whole registry (`with_md`).
fn generate(entries: &[&Entry], overrides: Overrides, with_md: bool) -> Vec<(String, String)> {
    let dir = if overrides.any() {
        "results/override"
    } else {
        "results"
    };
    std::fs::create_dir_all(dir).expect("create output directory");
    let mut campaigns = Campaigns::new(overrides);
    let mut generated = Vec::new();
    let mut rows = Vec::new();
    for entry in entries {
        eprintln!("== {} ==", entry.name);
        let out = campaigns.generate(entry);
        println!("{}", out.text);
        for ((artifact, paper), row) in entry.rows.iter().zip(&out.rows) {
            println!(
                "{} {artifact}: {} (paper: {paper})",
                row.glyph(),
                row.measured
            );
        }
        println!();
        for (name, contents) in out.local {
            std::fs::write(Path::new(dir).join(name), contents).expect("write local output");
        }
        let paths = entry.files.iter().map(|name| format!("{dir}/{name}"));
        generated.extend(paths.zip(out.files));
        rows.push(out.rows);
    }
    if with_md {
        // The default-scale file sits at the repository root.
        let md = if dir == "results" {
            "EXPERIMENTS.md".to_string()
        } else {
            format!("{dir}/EXPERIMENTS.md")
        };
        generated.push((md, experiments_md(&rows)));
    }
    generated
}

fn write(generated: &[(String, String)]) {
    for (path, contents) in generated {
        std::fs::write(path, contents).expect("write artifact");
        eprintln!("wrote {path}");
    }
}

fn check(generated: &[(String, String)]) {
    let report = check_files(generated, |path| std::fs::read(path).ok());
    for line in &report {
        eprintln!("repro: {line}");
    }
    if !report.is_empty() {
        eprintln!("repro: --check FAILED; `repro all` rewrites the files if the change is meant");
        exit(1);
    }
    eprintln!("repro: {} files match what is committed", generated.len());
}

/// Does a `hosts`-host world (2% Byzantine, one crawler) build
/// and run? Two simulated seconds; fails if nothing was dispatched, or if
/// the `ethcrypto` memo sized for this world lost a signature between its
/// signing and its delivery (the survival-window rule in
/// `ethcrypto/src/secp256k1/memo.rs`). Speed and memory are `benchmark/`'s
/// to judge — the numbers printed here are for eyeballing a 50k or 250k run.
fn scale(hosts: usize) {
    const SIM_MS: u64 = 2_000;
    let byzantine = (hosts / 50).max(4);
    let config = WorldConfig {
        seed: 9000 + hosts as u64,
        n_nodes: hosts.saturating_sub(byzantine),
        duration_ms: SIM_MS,
        tx_interval_ms: 20_000,
        // Bootstrap hosts absorb the population's initial ping storm.
        n_bootstrap: 16,
        ..WorldConfig::default()
    };
    let crawler = CrawlerConfig {
        static_redial_interval_ms: 30_000,
        stale_after_ms: SIM_MS,
        probe_timeout_ms: 30_000,
        ..CrawlerConfig::default()
    };
    let mut world = mixed_world(config, byzantine, crawler);
    world.sim.run_until(SIM_MS);
    let events = world.sim.events_processed();
    // `VmHWM` is the process's peak resident set, in kB (0 off-Linux).
    let peak_kb: u64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0);
    // Per host of the world as built: `hosts` leaves out the bootstrap
    // and spammer hosts and the crawler.
    let built = world.sim.host_count();
    println!(
        "scale {hosts}: {built} hosts, {events} events in {SIM_MS} sim-ms, \
         peak queue depth {}, VmHWM {peak_kb} kB ({:.1} kB/host)",
        world.sim.queue_depth_peak(),
        peak_kb as f64 / built as f64
    );
    let memo = ethcrypto::secp256k1::memo_stats();
    for (name, t) in [
        ("pubkey", memo.pubkey),
        ("ecdh", memo.ecdh),
        ("sig", memo.sig),
        ("id", memo.id_hash),
    ] {
        println!(
            "memo {name}: {} of {} slots, {} hits, {} misses, {} evictions",
            t.len, t.cap, t.hits, t.misses, t.evictions
        );
    }
    println!("memo sig_evicted_early: {}", memo.sig_evicted_early);
    if events == 0 {
        eprintln!("repro: scale {hosts} dispatched no events");
        exit(1);
    }
    if memo.sig_evicted_early > 0 {
        eprintln!(
            "repro: scale {hosts} evicted {} signatures before their delivery",
            memo.sig_evicted_early
        );
        exit(1);
    }
}
