//! The rule table: one row per rule carrying everything that is said about
//! it — its id, the diagnostic code of a malformed annotation, the one-line
//! title and the `--explain` text. Ids are never renumbered: annotations in
//! the tree (and outside it, `benchmark/src/clock.rs`) name them. R2, R3
//! and R5 are decided by rustc and clippy (DESIGN.md § Determinism), so
//! their ids, like R11–R13, parse to nothing.

use std::fmt;

/// A detlint rule identifier; the discriminant is the row in [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No wall-clock time outside the allowlist.
    R1,
    /// Every crate root must `#![forbid(unsafe_code)]`.
    R4,
    /// Every package in a lock file resolves inside the repository.
    R6,
    /// Strict trailing-data rejection in protocol decoders needs a
    /// `// conformance: strict -- <why>` justification.
    R7,
    /// No shared mutable state: `static mut`, interior-mutability
    /// statics, or `thread_local!` cells outside `crates/obs/`.
    R8,
    /// RNG stream discipline: every RNG constructed from a seed that
    /// flows in through a function parameter, never pinned ambiently.
    R9,
    /// Layering: protocol crates never depend on the simulation/crawler
    /// layers, and `obs` depends on nothing in-workspace.
    R10,
}

/// One row of the rule table.
#[derive(Debug)]
pub struct Info {
    pub rule: Rule,
    /// Short identifier, e.g. `R8`.
    pub id: &'static str,
    /// Stable diagnostic code for a malformed/unjustified annotation of
    /// this rule (the non-annotation codes live at each check site).
    pub annotation_code: &'static str,
    /// One-line summary.
    pub title: &'static str,
    /// Full explanation printed by `detlint --explain <rule>`.
    pub explain: &'static str,
}

impl Rule {
    pub fn info(self) -> &'static Info {
        &TABLE[self as usize]
    }

    /// Parse a rule id (case-insensitive).
    pub fn parse(text: &str) -> Option<Rule> {
        let row = TABLE
            .iter()
            .find(|row| row.id.eq_ignore_ascii_case(text.trim()))?;
        Some(row.rule)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.info().id)
    }
}

/// All rules, in id order.
pub static TABLE: [Info; 7] = [
    Info {
        rule: Rule::R1,
        id: "R1",
        annotation_code: "R1.annotation",
        title: "no wall-clock time outside the allowlist",
        explain: "R1: no wall-clock time outside the allowlist.\n\
                  \n\
                  The paper's experiments are replayed in a discrete-event simulator whose\n\
                  only clock is virtual (`Sim::now()`). A single `Instant::now()` or\n\
                  `SystemTime` read makes results depend on host load and wall time, which\n\
                  breaks bit-for-bit reproducibility of every table and figure.\n\
                  \n\
                  Flags: the identifiers `Instant` and `SystemTime`.\n\
                  Allowlist: vendor/criterion (benchmarks measure wall time by definition)\n\
                  and crates/obs/src/profile.rs — the self-profiler's wall-clock\n\
                  quarantine. Its readings attribute dispatch cost per event kind and host\n\
                  and are exported only to results/obs_profile.json; they never reach\n\
                  sim state, and a tier-1 test proves byte-identical sim outputs with\n\
                  the profiler on vs off.\n\
                  Escape hatch: `// detlint: allow(R1) -- <why>` on the same or previous line.\n\
                  Hard ban: under crates/obs/ (profile.rs aside) the escape hatch is not\n\
                  honored — trace records are sim-time-stamped by contract, and the\n\
                  annotation itself is flagged there.\n\
                  A `// detlint:` annotation that names no rule of this table (R2, R3\n\
                  and R5 included, which rustc and clippy now decide) is filed here too,\n\
                  as R1.annotation: the first row owns the annotation grammar.",
    },
    Info {
        rule: Rule::R4,
        id: "R4",
        annotation_code: "R4.annotation",
        title: "every crate root must forbid unsafe code",
        explain: "R4: every crate root must forbid unsafe code.\n\
                  \n\
                  This workspace parses attacker-controlled bytes from the public network.\n\
                  Memory-safety bugs in that position are remote vulnerabilities, and the\n\
                  paper artifact has no performance need that justifies them. The compiler\n\
                  holds the ban: every package's `[lints]` table sets `unsafe_code =\n\
                  \"forbid\"`, so `unsafe` in any target (bins and tests/ included) does not\n\
                  compile, and `#[allow(unsafe_code)]` is error E0453. detlint checks the\n\
                  half the compiler cannot: each crate root (src/lib.rs) repeats\n\
                  `#![forbid(unsafe_code)]`, which catches a new package that forgets its\n\
                  `[lints]` table.\n\
                  \n\
                  Flags: any src/lib.rs missing the forbid header.\n\
                  Escape hatch: none — change the design instead.",
    },
    Info {
        rule: Rule::R6,
        id: "R6",
        annotation_code: "R6.annotation",
        title: "every package in a Cargo.lock resolves inside this repository",
        explain: "R6: every package in a Cargo.lock resolves inside this repository.\n\
                  \n\
                  The build must succeed with no network and no registry cache. detlint\n\
                  judges the graph cargo resolved, Cargo.lock and benchmark/Cargo.lock,\n\
                  not the manifests: a `[[package]]` entry with a `source` line came from a\n\
                  registry or from git, whatever its name, and a path package must be one\n\
                  whose Cargo.toml is in the repository (vendor/ holds the stand-ins).\n\
                  \n\
                  Flags: a `source` line (R6.git_dep for `git+`, R6.registry_dep for any\n\
                  other), and a path package no manifest in the repository declares\n\
                  (R6.outside_repo).\n\
                  Escape hatch: none — vendor a stand-in instead (see vendor/README.md).",
    },
    Info {
        rule: Rule::R7,
        id: "R7",
        annotation_code: "R7.annotation",
        title: "strict trailing-data rejection needs a conformance justification",
        explain: "R7: strict trailing-data rejection needs a conformance justification.\n\
                  \n\
                  EIP-8 made lenient decoding the network's compatibility contract: protocol\n\
                  decoders must tolerate extra trailing list elements (counting them through\n\
                  the wire.extra.* observables) so newer clients can extend messages without\n\
                  being dropped by older ones. A decoder that hard-rejects trailing data is\n\
                  therefore an interop liability by default, and each such site must say why\n\
                  strictness is the right call there. The conformance crate's golden vectors\n\
                  pin the tolerated shapes; this rule keeps new code honest about the policy.\n\
                  \n\
                  Flags, in the protocol crates' src/ outside test code: the identifier\n\
                  `ensure_exact`, construction of `RlpError::TrailingBytes` (match arms that\n\
                  merely inspect the error are exempt), and an `item_count` call compared\n\
                  with `!=` on the same line (use a `< n` reject / `> n` tolerate-and-count\n\
                  split instead).\n\
                  Escape hatch: `// conformance: strict -- <why>` on the same or previous\n\
                  line — the annotation doubles as in-source documentation of the\n\
                  strictness decision. `// detlint: allow(R7) -- <why>` also works but the\n\
                  conformance form is preferred.",
    },
    Info {
        rule: Rule::R8,
        id: "R8",
        annotation_code: "R8.annotation",
        title: "no shared mutable state (static mut, interior-mutability statics)",
        explain: "R8: no shared mutable state (static mut, interior-mutability statics).\n\
                  \n\
                  A world's state must live in values the simulation owns. Any global a\n\
                  host callback can mutate — a `static mut`, a `static` whose type has\n\
                  interior mutability (Cell, RefCell, Mutex, RwLock, OnceLock, atomics,\n\
                  ...), or a `thread_local!` cell — is state no snapshot section captures,\n\
                  so a world resumed from its checkpoint runs without it. And ROADMAP\n\
                  item 9 runs independent worlds on threads: a process-wide global\n\
                  couples worlds that must not see each other, and a thread-local one\n\
                  outlives its world and follows the thread into the next.\n\
                  \n\
                  Flags, in src/ outside test code: `static mut` declarations; `static`\n\
                  declarations whose type names an interior-mutability container; and\n\
                  `thread_local!` entries holding `Cell`/`RefCell`/`UnsafeCell` outside\n\
                  crates/obs/ (the observability recorder and profiler are thread-local\n\
                  by design: installed around one world's run and taken back after it,\n\
                  the recorder's state written to its own `OBSS` image).\n\
                  Escape hatch: `// detlint: allow(R8) -- <why>` for state proved\n\
                  value-deterministic (e.g. a memo cache of a pure function, or a\n\
                  write-once table of constants where every writer computes the same\n\
                  value).",
    },
    Info {
        rule: Rule::R9,
        id: "R9",
        annotation_code: "R9.annotation",
        title: "RNG seeds must flow in through parameters, never be pinned ambiently",
        explain: "R9: RNG seeds must flow in through parameters, never be pinned ambiently.\n\
                  \n\
                  R2 bans entropy that differs across runs (rustc enforces it: the\n\
                  vendored rand has no ambient constructor); R9 bans seeds that cannot be\n\
                  *threaded*: an RNG built from a literal or module-level constant inside\n\
                  library code is a hidden second stream that ignores `SimConfig.seed`,\n\
                  so two worlds with different experiment seeds share it (correlated\n\
                  draws), and no per-host stream can be derived from the world's seed.\n\
                  Every RNG constructor argument must be reachable from a function\n\
                  parameter (e.g. `config.seed`, a `seed: u64` argument, or a local\n\
                  computed from one).\n\
                  \n\
                  Flags, in library src/ (bin targets, examples and test code are\n\
                  experiment roots and exempt): `seed_from_u64(...)` / `from_seed(...)`\n\
                  whose argument contains no identifier derived from a parameter of the\n\
                  enclosing fn — a numeric literal or SCREAMING_CASE constant is reported\n\
                  as a pinned seed, any other underived identifier as an ambient seed.\n\
                  Escape hatch: `// detlint: allow(R9) -- <why>` (e.g. conformance golden\n\
                  vectors, whose fixed seeds are the fixture format).",
    },
    Info {
        rule: Rule::R10,
        id: "R10",
        annotation_code: "R10.annotation",
        title: "protocol crates never depend on netsim/nodefinder/bench; obs depends on nothing in-workspace",
        explain: "R10: protocol crates never depend on netsim/nodefinder/bench; obs depends\n\
                  on nothing in-workspace.\n\
                  \n\
                  The layering that keeps the stack testable and reusable: protocol\n\
                  crates (rlp, enode, kad, discv4, rlpx, devp2p, ethwire) are pure\n\
                  byte-in/byte-out libraries that any driver — simulator, conformance\n\
                  harness, or a future real-socket runner — can host; the simulation and\n\
                  crawler layers sit above them. `obs` is the root of the tree: every\n\
                  crate may emit into it, so an obs dependency on anything in-workspace\n\
                  would be a cycle and would let instrumentation reach back into\n\
                  behaviour. Judged on the `dependencies` lists of the lock files cargo\n\
                  writes, which include dev-dependencies; an import without its manifest\n\
                  edge does not compile, so sources need no second check.\n\
                  \n\
                  Flags: a protocol crate whose lock entry lists netsim, nodefinder or\n\
                  bench; obs listing a package whose manifest is under crates/.\n\
                  Escape hatch: none — layering is architecture, not a per-site call;\n\
                  move the code instead.",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_indexed_by_discriminant_and_parse_back() {
        for (index, row) in TABLE.iter().enumerate() {
            assert_eq!(row.rule as usize, index);
            assert_eq!(Rule::parse(row.id), Some(row.rule));
            assert_eq!(Rule::parse(&row.id.to_lowercase()), Some(row.rule));
        }
        assert_eq!(Rule::parse("R0"), None);
        // Retired, or handed to rustc and clippy: the ids stay unassigned.
        for retired in ["R2", "R3", "R5", "R11", "R12", "R13"] {
            assert_eq!(Rule::parse(retired), None);
        }
    }

    #[test]
    fn every_rule_documents_itself() {
        for row in &TABLE {
            assert!(row.explain.starts_with(row.id));
            assert!(!row.title.is_empty());
            assert!(row.annotation_code.starts_with(row.id));
        }
    }
}
