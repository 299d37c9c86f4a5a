//! Benchmark of the crawl simulator: four workloads, end-to-end and
//! per-layer numbers, one command (`benchmark/run.sh`). See README.md.

#![forbid(unsafe_code)]

mod clock;
mod driver;
mod ledger;
mod metrics;
mod record;
mod stats;
mod trace;
mod worker;
mod worlds;

use driver::{Options, Outcome};
use worlds::{Spec, WORKLOADS};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last stdout line is the result
  benchmark [--seed <n>]            the full set: every workload, end-to-end and per-layer
  benchmark --smoke [--seed <n>]    the full set at one-tenth size, correctness and metric names only
  benchmark --check [--seed <n>]    the full set twice; set 2 must agree with set 1 within the bounds
  benchmark --describe              print BENCHMARK.json";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> u64 {
    match flag(args, name) {
        None => default,
        Some(text) => text.parse().unwrap_or_else(|_| {
            eprintln!("{name} wants a whole number, got {text:?}\n{USAGE}");
            std::process::exit(2);
        }),
    }
}

fn workload(name: &str) -> Spec {
    Spec::by_name(name).unwrap_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; the workloads are {names:?}");
        std::process::exit(2);
    })
}

/// A run that could not measure at all ends the process, without a result.
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|why| {
        eprintln!("benchmark: {why}");
        std::process::exit(1);
    })
}

fn run_or_exit(spec: &Spec, opts: &Options, ledger: Option<&record::Record>) -> Outcome {
    let outcome = or_exit(driver::run_workload(spec, opts, ledger));
    print!("{}", outcome.report());
    outcome
}

/// Every workload, end-to-end and per-layer, against one ledger. Returns
/// the outcomes and whether every operation succeeded.
fn full_set(seed: u64, smoke: bool) -> (Vec<Outcome>, bool) {
    let opts = Options {
        seed,
        seconds: metrics::RUN_SECONDS,
        trace: true,
        smoke,
    };
    let ledger = or_exit(driver::run_ledger(seed));
    let outcomes: Vec<Outcome> = WORKLOADS
        .iter()
        .map(|spec| run_or_exit(spec, &opts, Some(&ledger)))
        .collect();
    let ok = outcomes.iter().all(Outcome::correct);
    (outcomes, ok)
}

/// `--smoke`: every catalogued metric came out as a number, and the
/// catalogue is what `BENCHMARK.json` says.
fn smoke(seed: u64) -> bool {
    let (outcomes, mut ok) = full_set(seed, true);
    for o in &outcomes {
        for (name, value, _) in o.end_to_end.iter().chain(&o.per_layer) {
            if !value.is_finite() {
                eprintln!("smoke: {} {name} is {value}", o.workload);
                ok = false;
            }
        }
    }
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == metrics::describe() => {}
        Ok(_) => {
            eprintln!("smoke: BENCHMARK.json differs from `benchmark/run.sh --describe`");
            ok = false;
        }
        Err(e) => {
            eprintln!("smoke: BENCHMARK.json: {e}");
            ok = false;
        }
    }
    ok
}

/// `--check`: two full sets of the same code. Prints the observed spread
/// of every end-to-end metric, so the bounds can be tightened on evidence.
fn check(seed: u64) -> bool {
    let (first, ok1) = full_set(seed, false);
    let (second, ok2) = full_set(seed, false);
    let mut ok = ok1 && ok2;
    println!("== check: set 2 against set 1");
    for (a, b) in first.iter().zip(&second) {
        if a.sim_events != b.sim_events || a.sim_digest != b.sim_digest {
            println!(
                "{}: sim_events/sim_digest differ between the sets",
                a.workload
            );
            ok = false;
        }
        // Counts are exact per seed: the two sets must agree on them.
        for ((name, x, unit), (_, y, _)) in a.per_layer.iter().zip(&b.per_layer) {
            if *unit == "count" && !name.starts_with("proc.") && x != y {
                println!("{} {name}: {x} then {y}", a.workload);
                ok = false;
            }
        }
        for (m, ((_, x, unit), (_, y, _))) in metrics::END_TO_END
            .iter()
            .zip(a.end_to_end.iter().zip(&b.end_to_end))
        {
            let worse = if m.better == "lower" {
                y / x - 1.0
            } else {
                x / y - 1.0
            };
            let verdict = if worse > m.bound {
                "OUT OF BOUND"
            } else {
                "ok"
            };
            println!(
                "{:<18} {:<24} set1 {x:>14.4} set2 {y:>14.4} {unit:<4} spread {:>6.2}% bound {:>3.0}% {verdict}",
                a.workload,
                m.name,
                (x - y).abs() / ((x + y) / 2.0) * 100.0,
                m.bound * 100.0,
            );
            ok &= worse <= m.bound;
        }
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |name: &str| args.iter().any(|a| a == name);
    if has("--help") || has("-h") {
        println!("{USAGE}");
        return;
    }
    if has("--describe") {
        print!("{}", metrics::describe());
        return;
    }
    // Internal: one repetition, or the ledger, in this process.
    if let Some(name) = flag(&args, "--worker") {
        let mut spec = workload(name);
        if has("--smoke") {
            spec = spec.smoke();
        }
        let mode = flag(&args, "--mode").unwrap_or("untraced");
        let rec = worker::run(
            &spec,
            number(&args, "--world-seed", 0),
            mode == "traced",
            mode == "setup",
        );
        print!("{}", rec.to_lines());
        return;
    }
    if has("--ledger") {
        print!("{}", ledger::run(number(&args, "--ledger", 0)).to_lines());
        return;
    }

    let seed = number(&args, "--seed", 11);
    let ok = if let Some(name) = flag(&args, "--workload") {
        let opts = Options {
            seed,
            seconds: number(&args, "--seconds", metrics::RUN_SECONDS),
            trace: number(&args, "--trace", 0) != 0,
            smoke: false,
        };
        let outcome = run_or_exit(&workload(name), &opts, None);
        println!("{}", outcome.json());
        // The result line carries `correct`; a run that measured is a run
        // that ended well.
        true
    } else if has("--smoke") {
        smoke(seed)
    } else if has("--check") {
        check(seed)
    } else {
        full_set(seed, false).1
    };
    if !ok {
        eprintln!("benchmark: FAILED");
        std::process::exit(1);
    }
}
