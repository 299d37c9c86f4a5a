//! The rule table: one row per rule carrying everything that is said about
//! it — its id, the diagnostic code of a malformed annotation, the one-line
//! title and the `--explain` text. Ids are never renumbered: annotations in
//! the tree (and outside it, `benchmark/src/clock.rs`) name them.

use std::fmt;

/// A detlint rule identifier; the discriminant is the row in [`TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No wall-clock time outside the allowlist.
    R1,
    /// No ambient randomness; seeded `StdRng` only.
    R2,
    /// No unordered-map types without an order-insensitivity justification.
    R3,
    /// No `unsafe`, and every crate root must `#![forbid(unsafe_code)]`.
    R4,
    /// No `unwrap`/`expect` in non-test code of attacker-facing crates.
    R5,
    /// Only offline-approved dependencies in any manifest.
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
    /// Short identifier, e.g. `R3`.
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
pub static TABLE: [Info; 10] = [
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
                  quarantine. Its readings attribute dispatch cost per shard/kind/host\n\
                  and are exported only to results/obs_profile.json; they never reach\n\
                  sim state, and a tier-1 test proves byte-identical sim outputs with\n\
                  the profiler on vs off.\n\
                  Escape hatch: `// detlint: allow(R1) -- <why>` on the same or previous line.\n\
                  Hard ban: under crates/obs/ (profile.rs aside) the escape hatch is not\n\
                  honored — trace records are sim-time-stamped by contract, and the\n\
                  annotation itself is flagged there.",
    },
    Info {
        rule: Rule::R2,
        id: "R2",
        annotation_code: "R2.annotation",
        title: "no ambient randomness; seeded StdRng only",
        explain: "R2: no ambient randomness; seeded StdRng only.\n\
                  \n\
                  Every random choice must flow from the experiment seed (SEED env var,\n\
                  default 1804) through an explicitly passed `StdRng`. Ambient entropy\n\
                  (`thread_rng()`, `rand::random()`, `from_entropy()`, `OsRng`) gives each\n\
                  run a different node population and crawl schedule, making regressions\n\
                  indistinguishable from noise. The vendored rand deliberately does not\n\
                  provide these constructors, so this rule is also enforced by the compiler;\n\
                  detlint keeps flagging them so the error message names the policy.\n\
                  \n\
                  Flags: `thread_rng`, `from_entropy`, `OsRng`, `getrandom`, and\n\
                  `rand::random`.\n\
                  Escape hatch: `// detlint: allow(R2) -- <why>` (expect scrutiny in review).",
    },
    Info {
        rule: Rule::R3,
        id: "R3",
        annotation_code: "R3.annotation",
        title: "no HashMap/HashSet without an order-insensitivity justification",
        explain: "R3: no HashMap/HashSet without an order-insensitivity justification.\n\
                  \n\
                  std's hash maps randomize iteration order per process, so any code that\n\
                  iterates one can smuggle nondeterminism into event ordering, neighbor\n\
                  selection, or serialized output. The default is BTreeMap/BTreeSet, whose\n\
                  iteration order is total and stable.\n\
                  \n\
                  Flags: the identifiers `HashMap` and `HashSet` anywhere in code.\n\
                  Escape hatch: `// detlint: order-insensitive -- <why>` on the same or\n\
                  previous line, stating why iteration order cannot reach observable\n\
                  behavior (e.g. the map is only probed, never iterated).",
    },
    Info {
        rule: Rule::R4,
        id: "R4",
        annotation_code: "R4.annotation",
        title: "no unsafe code; every crate root must forbid it",
        explain: "R4: no unsafe code; every crate root must forbid it.\n\
                  \n\
                  This workspace parses attacker-controlled bytes from the public network.\n\
                  Memory-safety bugs in that position are remote vulnerabilities, and the\n\
                  paper artifact has no performance need that justifies them. Each crate\n\
                  root (src/lib.rs) must carry `#![forbid(unsafe_code)]` so the compiler\n\
                  rejects unsafe even if a future edit removes the workspace lint.\n\
                  \n\
                  Flags: the `unsafe` keyword, and any src/lib.rs missing the forbid header.\n\
                  Escape hatch: none — change the design instead.",
    },
    Info {
        rule: Rule::R5,
        id: "R5",
        annotation_code: "R5.annotation",
        title: "no unwrap/expect in non-test code of attacker-facing crates",
        explain: "R5: no unwrap/expect in non-test code of attacker-facing crates.\n\
                  \n\
                  rlp, discv4, rlpx, devp2p and ethwire decode bytes that arrive from\n\
                  arbitrary peers. A reachable panic is a remote denial-of-service on a\n\
                  real deployment and an aborted campaign in the simulator. Decoders must\n\
                  return `Result` and let the caller log-and-drop, matching how the\n\
                  NodeFinder crawler survives the malformed traffic the paper reports.\n\
                  \n\
                  Flags: `.unwrap(` / `.expect(` in those crates' src/, outside #[cfg(test)]\n\
                  regions and #[test] functions.\n\
                  Escape hatch: `// detlint: allow(R5) -- <why>` for cases proved\n\
                  unreachable (e.g. infallible conversions on fixed-size arrays).",
    },
    Info {
        rule: Rule::R6,
        id: "R6",
        annotation_code: "R6.annotation",
        title: "only offline-approved dependencies in manifests",
        explain: "R6: only offline-approved dependencies in manifests.\n\
                  \n\
                  The build must succeed with no network and no registry cache, so every\n\
                  dependency must resolve inside this repository: a path dependency, a\n\
                  `workspace = true` inheritance, or one of the approved names vendored\n\
                  under vendor/ (rand, proptest, criterion, bytes, serde, serde_derive,\n\
                  serde_json). Git dependencies are always rejected; a version-only\n\
                  dependency on anything else would try to reach a registry.\n\
                  \n\
                  Flags: git deps, registry deps outside the approved set, and path deps\n\
                  escaping the repository root.\n\
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
                  ROADMAP item 1 shards the deterministic netsim across threads with the\n\
                  contract that shard-count must not change exports. Any global a host\n\
                  callback can mutate — a `static mut`, a `static` whose type has interior\n\
                  mutability (Cell, RefCell, Mutex, RwLock, OnceLock, atomics, ...), or a\n\
                  `thread_local!` cell — turns into cross-shard coupling (divergent traces)\n\
                  or silent per-shard forking (divergent caches) the moment the event loop\n\
                  is partitioned. State must live in a struct that is explicitly owned by\n\
                  one shard and handed across boundaries on purpose.\n\
                  \n\
                  Flags, in src/ outside test code: `static mut` declarations; `static`\n\
                  declarations whose type names an interior-mutability container; and\n\
                  `thread_local!` entries holding `Cell`/`RefCell`/`UnsafeCell` outside\n\
                  crates/obs/ (the observability recorder is thread-local by design —\n\
                  per-shard recorders merge at barrier epochs).\n\
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
                  Extends R2 from call-site tokens to constructor dataflow. R2 bans\n\
                  entropy that differs across runs; R9 bans seeds that cannot be\n\
                  *threaded*: an RNG built from a literal or module-level constant inside\n\
                  library code is a hidden second stream that ignores `SimConfig.seed`,\n\
                  so two worlds with different experiment seeds share it (correlated\n\
                  draws), and a sharded netsim cannot give each shard a derived stream.\n\
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
                  The layering that keeps the stack testable and shardable: protocol\n\
                  crates (rlp, enode, kad, discv4, rlpx, devp2p, ethwire) are pure\n\
                  byte-in/byte-out libraries that any driver — simulator, conformance\n\
                  harness, or a future real-socket runner — can host; the simulation and\n\
                  crawler layers sit above them. `obs` is the root of the tree: every\n\
                  crate may emit into it, so an obs dependency on anything in-workspace\n\
                  would be a cycle and would let instrumentation reach back into\n\
                  behaviour. Enforced on Cargo.toml dependency edges (dev-dependencies\n\
                  included); an import without its manifest edge does not compile, so\n\
                  sources need no second check.\n\
                  \n\
                  Flags: a protocol crate whose manifest reaches netsim, nodefinder or\n\
                  bench; any dependency of obs on a crate under crates/.\n\
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
        // Retired with their rules: the ids stay unassigned.
        for retired in ["R11", "R12", "R13"] {
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
