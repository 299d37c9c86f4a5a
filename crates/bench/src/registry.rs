//! The artifact registry: every table, figure, ablation and extension
//! `repro` can regenerate, in EXPERIMENTS.md order. An [`Entry`] names its
//! output files and EXPERIMENTS.md rows up front and carries one generator
//! that computes file contents, printed text and the rows' shape
//! predicates together.

use crate::{
    extras, paper, run_case_study, run_crawl, run_snapshot, CaseStudy, CrawlRun, Overrides, Scale,
    SnapshotRun,
};

/// One measured EXPERIMENTS.md cell and whether the paper's shape holds.
#[derive(Debug)]
pub struct Row {
    /// The "Measured (simulated world)" cell.
    pub measured: String,
    /// The shape predicate's verdict.
    pub holds: bool,
}

impl Row {
    /// Shorthand constructor.
    pub fn new(measured: String, holds: bool) -> Row {
        Row { measured, holds }
    }

    /// The "Shape holds?" cell.
    pub fn glyph(&self) -> &'static str {
        if self.holds {
            "✅"
        } else {
            "❌"
        }
    }
}

/// What a generator returns.
#[derive(Debug)]
pub struct Output {
    /// Contents of the entry's `files`, in the same order.
    pub files: Vec<String>,
    /// Human-readable report printed by `repro`.
    pub text: String,
    /// One per entry in the entry's `rows`, in the same order.
    pub rows: Vec<Row>,
    /// Git-ignored local outputs that carry wall-clock: always written,
    /// never compared by `--check`.
    pub local: Vec<(&'static str, String)>,
}

impl Output {
    /// An output with no local files.
    pub fn new(files: Vec<String>, text: String, rows: Vec<Row>) -> Output {
        Output {
            files,
            text,
            rows,
            local: Vec::new(),
        }
    }
}

/// An entry's generator, typed by the campaign it reads.
#[derive(Debug, Clone, Copy)]
pub enum Generator {
    /// Pure computation, no world.
    None(fn(&Overrides) -> Output),
    /// The §3 case-study world.
    CaseStudy(fn(&CaseStudy) -> Output),
    /// The longitudinal ecosystem crawl.
    Ecosystem(fn(&CrawlRun) -> Output),
    /// The 24-hour snapshot crawl.
    Snapshot(fn(&SnapshotRun) -> Output),
    /// Worlds of its own (ablation variants, the obs reference crawl).
    Own(fn(&Overrides) -> Output),
}

impl Generator {
    /// The campaign's name as `repro list` prints it.
    pub fn campaign(&self) -> &'static str {
        match self {
            Generator::None(_) => "none",
            Generator::CaseStudy(_) => "case study",
            Generator::Ecosystem(_) => "ecosystem",
            Generator::Snapshot(_) => "snapshot",
            Generator::Own(_) => "own worlds",
        }
    }
}

/// One registry entry.
#[derive(Debug)]
pub struct Entry {
    /// What `repro <name>` is called with.
    pub name: &'static str,
    /// Files written under `results/`.
    pub files: &'static [&'static str],
    /// EXPERIMENTS.md rows as (artifact, paper) cells.
    pub rows: &'static [(&'static str, &'static str)],
    /// The one computation behind all of the above.
    pub generate: Generator,
}

/// Every entry; EXPERIMENTS.md lists their rows in this order.
pub const REGISTRY: &[&Entry] = &[
    &paper::FIG11,
    &paper::FIG2_3,
    &paper::FIG4,
    &paper::TABLE1,
    &paper::FIG5,
    &paper::FIG6_7,
    &paper::FIG8,
    &paper::SANITIZE,
    &paper::TABLE3,
    &paper::FIG9,
    &paper::TABLE4,
    &paper::TABLE5,
    &paper::FIG10,
    &paper::TABLE2,
    &paper::TABLE6,
    &paper::FIG12_13,
    &paper::FIG14,
    &extras::ABLATION_STATIC_DIALS,
    &extras::ABLATION_HOLD_CONNS,
    &extras::ABLATION_PARITY_XOR,
    &extras::ABLATION_SANITIZE,
    &extras::EXTENSION_FASTSYNC,
    &extras::EXTENSION_ECLIPSE,
    &extras::OBS,
];

/// Files in `results/` that no entry owns: the git-ignored local outputs.
pub const NON_REGISTRY_FILES: &[&str] = &["obs_profile.json", "override"];

/// Runs generators, simulating each shared campaign at most once.
#[derive(Debug)]
pub struct Campaigns {
    overrides: Overrides,
    case_study: Option<CaseStudy>,
    ecosystem: Option<CrawlRun>,
    snapshot: Option<SnapshotRun>,
}

impl Campaigns {
    /// No campaign has run yet.
    pub fn new(overrides: Overrides) -> Campaigns {
        Campaigns {
            overrides,
            case_study: None,
            ecosystem: None,
            snapshot: None,
        }
    }

    /// Run `entry`'s generator, simulating its campaign first if this is
    /// the first entry to need it.
    pub fn generate(&mut self, entry: &Entry) -> Output {
        let ov = &self.overrides;
        let announce = |what: &str, s: &Scale| {
            eprintln!(
                "running {what}: {} nodes, {} crawler(s), {} day(s) × {}ms …",
                s.n_nodes, s.crawlers, s.days, s.day_ms
            );
        };
        let out = match entry.generate {
            Generator::None(f) | Generator::Own(f) => f(ov),
            Generator::CaseStudy(f) => f(self.case_study.get_or_insert_with(|| {
                let scale = ov.apply(Scale::case_study());
                announce("case-study world", &scale);
                run_case_study(scale)
            })),
            Generator::Ecosystem(f) => f(self.ecosystem.get_or_insert_with(|| {
                let scale = ov.apply(Scale::ecosystem());
                announce("ecosystem crawl", &scale);
                run_crawl(scale, 2)
            })),
            Generator::Snapshot(f) => f(self.snapshot.get_or_insert_with(|| {
                let scale = ov.apply(Scale::snapshot());
                announce("snapshot crawl (+1 ethernodes-style collector)", &scale);
                run_snapshot(scale)
            })),
        };
        assert_eq!(out.files.len(), entry.files.len(), "{}", entry.name);
        assert_eq!(out.rows.len(), entry.rows.len(), "{}", entry.name);
        out
    }
}

/// Render EXPERIMENTS.md from every entry's rows, `rows[i]` belonging to
/// `REGISTRY[i]`.
pub fn experiments_md(rows: &[Vec<Row>]) -> String {
    let mut md = String::from(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Generated by `cargo run --release -p bench --bin repro -- all` and guarded by\n\
         `-- all --check`, which regenerates everything in memory and fails on the first\n\
         byte that differs from this file or from `results/`. Every row is one\n\
         table/figure from *Measuring Ethereum Network Peers* (IMC 2018), reproduced on\n\
         the simulated world described in DESIGN.md. Absolute counts scale with the\n\
         world (hundreds of nodes instead of tens of thousands); the **shape** column\n\
         is a coded predicate on the measured values — ❌ means the paper's qualitative\n\
         result does not hold in this world at this seed.\n\n\
         | Artifact | Paper (live network) | Measured (simulated world) | Shape holds? |\n\
         |---|---|---|---|\n",
    );
    for (entry, rows) in REGISTRY.iter().zip(rows) {
        for ((artifact, paper), row) in entry.rows.iter().zip(rows) {
            let (measured, glyph) = (&row.measured, row.glyph());
            md += &format!("| {artifact} | {paper} | {measured} | {glyph} |\n");
        }
    }
    md += "\n## How to re-run\n\n\
           ```sh\n\
           cargo run --release -p bench --bin repro -- all          # every artifact + this file\n\
           cargo run --release -p bench --bin repro -- all --check  # regenerate, compare, write nothing\n\
           cargo run --release -p bench --bin repro -- list         # entry names, campaigns, files\n\
           cargo run --release -p bench --bin repro -- fig11_xor_metric table4_clients\n\
           NODES=300 DAYS=20 cargo run --release -p bench --bin repro -- table4_clients  # bigger world\n\
           ```\n\n\
           Artifacts land in `results/`. A run with `SEED`, `NODES`, `DAYS` or `CRAWLERS` set\n\
           writes under the git-ignored `results/override/` instead, so `results/` and this\n\
           file only ever hold what `repro all` produces at the default scales.\n";
    md
}

/// Compare generated files with what `read` finds on disk; one message
/// per file that is missing or differs, naming the first differing byte.
pub fn check_files(
    generated: &[(String, String)],
    read: impl Fn(&str) -> Option<Vec<u8>>,
) -> Vec<String> {
    generated
        .iter()
        .filter_map(|(path, want)| {
            let Some(have) = read(path) else {
                return Some(format!("{path}: missing"));
            };
            let want = want.as_bytes();
            if have == want {
                return None;
            }
            let at = have.iter().zip(want).take_while(|(a, b)| a == b).count();
            Some(format!(
                "{path}: differs at byte {at} ({} bytes committed, {} regenerated)",
                have.len(),
                want.len()
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::path::Path;

    /// `cargo test` runs a package's tests from the package directory.
    fn repo_root() -> &'static Path {
        Path::new("../..")
    }

    #[test]
    fn names_are_unique_and_every_file_has_one_owner() {
        let mut names = BTreeSet::new();
        let mut files = BTreeSet::new();
        for entry in REGISTRY {
            assert!(names.insert(entry.name), "duplicate entry {}", entry.name);
            for file in entry.files {
                assert!(files.insert(*file), "{file} is written by two entries");
                assert!(!NON_REGISTRY_FILES.contains(file), "{file}");
            }
        }
    }

    #[test]
    fn results_dir_holds_exactly_the_registry_files() {
        let dir = repo_root().join("results");
        let owned: BTreeSet<&str> = REGISTRY.iter().flat_map(|e| e.files).copied().collect();
        for file in &owned {
            assert!(dir.join(file).is_file(), "results/{file} is not committed");
        }
        for item in std::fs::read_dir(&dir).expect("results/ exists") {
            let name = item.expect("dir entry").file_name();
            let name = name.to_str().expect("utf-8 file name");
            assert!(
                owned.contains(name) || NON_REGISTRY_FILES.contains(&name),
                "results/{name} belongs to no registry entry"
            );
        }
    }

    #[test]
    fn experiments_md_rows_follow_registry_order() {
        let md = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).expect("readable");
        let committed: Vec<&str> = md
            .lines()
            .filter_map(|l| l.strip_prefix("| "))
            .skip(1) // the header row; the `|---|` rule has no space
            .map(|l| l.split(" | ").next().expect("first cell"))
            .collect();
        let registry: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|e| e.rows)
            .map(|(artifact, _)| *artifact)
            .collect();
        assert_eq!(committed, registry);
    }

    #[test]
    fn check_names_the_doctored_file_and_offset() {
        let generated = vec![
            ("results/a.csv".to_string(), "x,y\n1,2\n".to_string()),
            ("results/b.txt".to_string(), "hello world\n".to_string()),
            ("EXPERIMENTS.md".to_string(), "| row |\n".to_string()),
        ];
        let read = |path: &str| -> Option<Vec<u8>> {
            let (_, text) = generated.iter().find(|(p, _)| p == path)?;
            let mut bytes = text.clone().into_bytes();
            match path {
                "results/b.txt" => bytes[6] ^= 1,
                "EXPERIMENTS.md" => return None,
                _ => {}
            }
            Some(bytes)
        };
        let report = check_files(&generated, read);
        assert_eq!(report.len(), 2, "{report:?}");
        assert!(
            report[0].starts_with("results/b.txt: differs at byte 6 "),
            "{report:?}"
        );
        assert_eq!(report[1], "EXPERIMENTS.md: missing");
        assert!(check_files(&generated[..1], read).is_empty());
    }
}
