//! `repro` — regenerate the paper's tables and figures from the registry.
//!
//! ```text
//! repro list              entry names, campaigns, files, rows
//! repro <name>…           regenerate those entries' files under results/
//! repro all               every entry + EXPERIMENTS.md
//! repro all --check       regenerate in memory, byte-compare with the
//!                         committed results/ and EXPERIMENTS.md, exit 1
//!                         naming every file that differs
//! repro scale <hosts>     build-and-run smoke of a large sharded world
//! ```
//!
//! `SEED` / `NODES` / `DAYS` / `CRAWLERS` rescale the campaigns; such a run
//! writes under `results/override/` and cannot be `--check`ed.

use bench::registry::{check_files, experiments_md, Campaigns, Entry, REGISTRY};
use bench::{mixed_world, Overrides};
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
    eprintln!("usage: repro list | all [--check] | scale <hosts> | <name>…   (names: repro list)");
    exit(2)
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

/// Does a `hosts`-host world (2% Byzantine, one crawler, 8 shards) build
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
        shards: 8,
        // Bootstrap hosts absorb the population's initial ping storm and
        // get the lowest host ids: two per shard keeps the load even.
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
        "scale {hosts}: {built} hosts, {events} events in {SIM_MS} sim-ms over {} shards {:?}, \
         peak queue depth {}, VmHWM {peak_kb} kB ({} kB/host)",
        world.sim.shard_count(),
        world.sim.shard_event_counts(),
        world.sim.queue_depth_peak(),
        peak_kb / built as u64
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
