//! CLI for detlint. It scans the workspace it was built in, from any
//! working directory:
//!
//! ```text
//! cargo run -p detlint                   # scan, exit 1 on violations
//! cargo run -p detlint -- --explain      # one-line summary of every rule
//! cargo run -p detlint -- --explain R3   # a rule's rationale and escape hatch
//! ```
#![forbid(unsafe_code)]

use detlint::{rules, Rule};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        [] => scan(),
        ["--help" | "-h"] => {
            print_help();
            ExitCode::SUCCESS
        }
        ["--explain"] => {
            for row in &rules::TABLE {
                println!("{}  {}", row.id, row.title);
            }
            ExitCode::SUCCESS
        }
        ["--explain", id] => match Rule::parse(id) {
            Some(rule) => {
                println!("{}", rule.info().explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown rule `{id}` (expected {})", rule_range());
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("unrecognized arguments `{}` (try --help)", args.join(" "));
            ExitCode::FAILURE
        }
    }
}

fn scan() -> ExitCode {
    let violations = match detlint::scan_workspace(detlint::workspace_root()) {
        Ok(scan) => scan.violations,
        Err(err) => {
            eprintln!("detlint: scan failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    for violation in &violations {
        println!("{violation}");
    }
    if violations.is_empty() {
        println!("detlint: OK");
        ExitCode::SUCCESS
    } else {
        println!(
            "detlint: {} violation{} (rules explained via --explain <rule>)",
            violations.len(),
            if violations.len() == 1 { "" } else { "s" },
        );
        ExitCode::FAILURE
    }
}

/// `R1..R10`, from the table's first and last rows.
fn rule_range() -> String {
    let [first, .., last] = &rules::TABLE;
    format!("{}..{}", first.id, last.id)
}

fn print_help() {
    println!(
        "detlint — determinism & panic-safety linter for this workspace\n\
         \n\
         USAGE:\n\
         \x20   cargo run -p detlint [-- --explain [RULE]]\n\
         \n\
         With no argument, scans the workspace and prints one line per\n\
         violation; exit status is 0 when there are none, 1 otherwise.\n\
         \n\
         OPTIONS:\n\
         \x20   --explain [{}]\n\
         \x20           print a rule's rationale and escape hatch; without a\n\
         \x20           rule, one line per rule",
        rule_range(),
    );
}
