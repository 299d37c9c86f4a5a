//! detlint — the workspace's determinism & panic-safety linter.
//!
//! A from-scratch, dependency-free static-analysis pass that walks every
//! `.rs` file and `Cargo.toml` in the repository and enforces the rules the
//! paper reproduction depends on and nothing else decides — the compiler,
//! cargo and `benchmark/` judge the rest. [`rules::TABLE`] is the list (or
//! run `cargo run -p detlint -- --explain`):
//!
//! * **R1** no wall-clock time outside the allowlist;
//! * **R2** no ambient randomness — seeded `StdRng` only;
//! * **R3** no `HashMap`/`HashSet` without an order-insensitivity
//!   justification;
//! * **R4** no `unsafe`, and `#![forbid(unsafe_code)]` in every crate root;
//! * **R5** no `unwrap`/`expect` in non-test code of attacker-facing
//!   crates;
//! * **R6** only offline-approved dependencies in any manifest;
//! * **R7** lenient EIP-8 decoding — strictness must be justified;
//! * **R8** no shared mutable state (statics, `thread_local!` cells);
//! * **R9** every RNG construction derives from a threaded seed parameter;
//! * **R10** protocol crates never depend on simulation/measurement layers.
//!
//! R1–R7 are token rules: detlint masks comments and string/char literal
//! bodies (so their contents can never trigger a rule), then scans
//! identifier tokens — a deliberate trade: a few constructs are
//! over-approximated (any mention of `HashMap` counts, not just iteration),
//! which keeps the tool dependency-free and impossible to silently bypass
//! via macro tricks. R8 and R9 run on an item-level parse ([`parser`]) of
//! each file's `static` and `fn` structure; R6 and R10 on what the one
//! manifest reader ([`manifest`]) yields. The interface is lines on stdout
//! and an exit code. The one escape hatch is an explicit, greppable comment
//! carrying a mandatory justification; [`Scan::escapes`] counts them.
#![forbid(unsafe_code)]

pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod rules;
pub mod scan;
pub mod semantic;

pub use rules::Rule;
pub use scan::{scan_manifest_source, scan_rust_source, scan_workspace, Escape, Scan, Violation};

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
