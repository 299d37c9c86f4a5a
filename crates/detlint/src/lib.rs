//! detlint — the workspace's determinism & panic-safety linter.
//!
//! A from-scratch, dependency-free static-analysis pass that walks every
//! `.rs` file, `Cargo.toml` and `Cargo.lock` in the repository and enforces
//! the reproducibility rules nothing else decides. [`rules::TABLE`] is the
//! list (or run `cargo run -p detlint -- --explain`):
//!
//! * **R1** no wall-clock time outside the allowlist;
//! * **R4** the unsafe-code ban repeated in every crate root;
//! * **R6** every package in a lock file resolves inside the repository;
//! * **R7** lenient EIP-8 decoding — strictness must be justified;
//! * **R8** no shared mutable state (statics, `thread_local!` cells);
//! * **R9** every RNG construction derives from a threaded seed parameter;
//! * **R10** protocol crates never depend on simulation/measurement layers.
//!
//! The rest of the policy lives with the tool that already decides it
//! (DESIGN.md § Determinism): ambient entropy (R2) does not compile against
//! the vendored `rand`, `HashMap`/`HashSet` (R3) are clippy
//! `disallowed-types` in the root `clippy.toml`, `unsafe` is forbidden by
//! every package's `[lints]` table, and `unwrap`/`expect` in the
//! attacker-facing crates (R5) are clippy lints denied in theirs.
//!
//! R1 and R7 are token rules: detlint masks comments and string/char
//! literal bodies (so their contents can never trigger a rule), then scans
//! identifier tokens. R8 and R9 run on an item-level parse (`parser`) of
//! each file's `static` and `fn` structure; R6 and R10 on the graph cargo
//! resolved, read from each lock file (`manifest`). The interface is
//! lines on stdout and an exit code. The one escape hatch is an explicit,
//! greppable comment carrying a mandatory justification; [`Scan::escapes`]
//! counts them, and the clippy `allow`s that stand in for the retired
//! hatches.
#![forbid(unsafe_code)]

mod lexer;
mod manifest;
mod parser;
mod rules;
mod scan;
mod semantic;

pub use manifest::{check_lock, parse_lock, Packages, PROTOCOL_CRATES, UPPER_LAYERS};
pub use rules::{Rule, TABLE};
pub use scan::{scan_rust_source, scan_workspace, Escape, Scan, Violation};

use std::path::Path;

/// The repository this crate was built in. detlint is only ever built as
/// the workspace member `crates/detlint`, so the root is two levels up —
/// no search from the working directory, which `benchmark/Cargo.toml`'s
/// own `[workspace]` table would end one level short.
pub fn workspace_root() -> &'static Path {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest_dir.ancestors().nth(2).unwrap_or(manifest_dir)
}

#[cfg(test)]
mod tests {
    #[test]
    fn workspace_root_holds_this_crate_and_the_benchmark_workspace() {
        let root = super::workspace_root();
        assert!(root.join("crates/detlint/Cargo.toml").is_file());
        assert!(root.join("benchmark/Cargo.toml").is_file());
    }
}
