//! Self-profiler: wall-clock cost attribution for the engine's dispatch
//! loop.
//!
//! # Wall-clock quarantine
//!
//! This module is the ONLY place in the workspace (outside vendored
//! code) allowed to read `std::time::Instant` — detlint R1 allowlists
//! exactly this file. The readings never feed back into simulation
//! state: the engine hands us opaque [`DispatchTimer`]s and we
//! accumulate durations into a thread-local side table that is exported
//! to `results/obs_profile.json` and nowhere else. Same-seed runs with
//! the profiler installed vs not must produce byte-identical
//! DataStores, traces, and prom exports (`tests/observability.rs`
//! proves this).
//!
//! # What it measures
//!
//! * busy time (sum of dispatch durations) and event count;
//! * per-event-kind cost (`conn`, `disc`, `timer`, …) so `repro obs`
//!   can rank kinds by wall cost;
//! * per-host cost, rolled up by archetype label (registered via
//!   [`host_label`]) so flyweight worlds report e.g. "tarpit hosts cost
//!   7× honest hosts".
//!
//! The per-event functions ([`dispatch_start`], [`dispatch_end`]) are
//! alloc-free (index + `resize` only); when no profiler is installed they
//! cost one thread-local boolean read and never touch the clock.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Opaque wall-clock timestamp handed to the engine by
/// [`dispatch_start`]. `None` when no profiler is installed, so the
/// disabled hotpath never reads the clock.
#[derive(Debug)]
pub struct DispatchTimer(Option<Instant>);

#[derive(Debug, Default)]
struct ProfCore {
    busy_ns: u64,
    events: u64,
    // Per-event-kind accumulators, indexed by the engine's kind index.
    kind_ns: Vec<u64>,
    kind_count: Vec<u64>,
    kind_names: Vec<&'static str>,
    // Per-host accumulators, indexed by host id; labels group hosts
    // into archetypes for the export rollup.
    host_ns: Vec<u64>,
    host_count: Vec<u64>,
    host_labels: Vec<&'static str>,
    run_started: Option<Instant>,
    run_wall_ns: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static PROFILER: RefCell<Option<ProfCore>> = const { RefCell::new(None) };
}

/// Install a fresh profiler on this thread. Subsequent engine runs on
/// the thread are measured until [`uninstall`].
pub fn install() {
    PROFILER.with(|p| *p.borrow_mut() = Some(ProfCore::default()));
    ENABLED.with(|e| e.set(true));
}

/// Remove the profiler (accumulated data is discarded).
pub fn uninstall() {
    ENABLED.with(|e| e.set(false));
    PROFILER.with(|p| *p.borrow_mut() = None);
}

/// Is a profiler currently installed on this thread?
pub fn is_installed() -> bool {
    ENABLED.with(|e| e.get())
}

fn with_core<R>(f: impl FnOnce(&mut ProfCore) -> R) -> Option<R> {
    if !is_installed() {
        return None;
    }
    PROFILER.with(|p| p.borrow_mut().as_mut().map(f))
}

fn grow(v: &mut Vec<u64>, idx: usize) {
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
}

/// Label a host id with its archetype (e.g. `"Geth"`, `"Tarpit"`,
/// `"crawler"`) for the per-archetype cost rollup. Call at world-build
/// time, not from the dispatch loop. Labels are `&'static str` so the
/// dispatch path stores indices only.
pub fn host_label(host: u64, label: &'static str) {
    with_core(|c| {
        let idx = host as usize;
        grow(&mut c.host_ns, idx);
        grow(&mut c.host_count, idx);
        if c.host_labels.len() <= idx {
            c.host_labels.resize(idx + 1, "");
        }
        c.host_labels[idx] = label;
    });
}

/// Mark the start of an engine run: run wall time accrues between
/// `run_mark_start` and [`run_mark_end`].
pub fn run_mark_start() {
    with_core(|c| c.run_started = Some(Instant::now()));
}

/// Mark the end of an engine run.
pub fn run_mark_end() {
    with_core(|c| {
        if let Some(start) = c.run_started.take() {
            c.run_wall_ns += start.elapsed().as_nanos() as u64;
        }
    });
}

// Called by the engine before every dispatched event.
pub fn dispatch_start() -> DispatchTimer {
    if !is_installed() {
        return DispatchTimer(None);
    }
    DispatchTimer(Some(Instant::now()))
}

// Called by the engine after every dispatched event.
pub fn dispatch_end(t: DispatchTimer, kind_idx: usize, kind_name: &'static str, host: u64) {
    let Some(started) = t.0 else {
        return;
    };
    let ns = started.elapsed().as_nanos() as u64;
    with_core(|c| {
        c.busy_ns += ns;
        c.events += 1;
        grow(&mut c.kind_ns, kind_idx);
        grow(&mut c.kind_count, kind_idx);
        c.kind_ns[kind_idx] += ns;
        c.kind_count[kind_idx] += 1;
        if c.kind_names.len() <= kind_idx {
            c.kind_names.resize(kind_idx + 1, "");
        }
        c.kind_names[kind_idx] = kind_name;
        let h = host as usize;
        grow(&mut c.host_ns, h);
        grow(&mut c.host_count, h);
        c.host_ns[h] += ns;
        c.host_count[h] += 1;
    });
}

/// Summary of the profiler's accumulators, for bench reporting.
#[derive(Debug, Clone, Default)]
pub struct ProfileSummary {
    pub run_wall_ms: u64,
    /// One row, `(events, busy_ms, 0, utilization)` over every dispatch:
    /// the engine runs one event queue. Read only by the frozen
    /// `benchmark/`, whose contract-v2 change (ROADMAP item 6) deletes it.
    pub shards: Vec<(u64, u64, u64, f64)>,
    /// Always 1.0; read only by the frozen `benchmark/` and deleted with
    /// `shards`.
    pub imbalance_ratio: f64,
    /// `(kind name, count, total_ms)` sorted by total cost descending.
    pub kinds: Vec<(&'static str, u64, u64)>,
    /// `(archetype label, host count, event count, total_ms)` sorted by
    /// total cost descending.
    pub archetypes: Vec<(&'static str, u64, u64, u64)>,
}

/// Snapshot the installed profiler's accumulators. `None` when no
/// profiler is installed.
pub fn summary() -> Option<ProfileSummary> {
    with_core(|c| {
        let run_wall_ms = c.run_wall_ns / 1_000_000;
        let util = if c.run_wall_ns > 0 {
            c.busy_ns as f64 / c.run_wall_ns as f64
        } else {
            0.0
        };
        let mut by_ns: Vec<(u64, &'static str, u64)> = (0..c.kind_ns.len())
            .filter(|&i| c.kind_count[i] > 0)
            .map(|i| (c.kind_ns[i], c.kind_names[i], c.kind_count[i]))
            .collect();
        by_ns.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(b.1)));
        let kinds: Vec<(&'static str, u64, u64)> = by_ns
            .into_iter()
            .map(|(ns, name, count)| (name, count, ns / 1_000_000))
            .collect();
        // Archetype rollup: group host accumulators by label.
        let mut by_label: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for i in 0..c.host_ns.len() {
            if c.host_count[i] == 0 && c.host_labels.get(i).is_none_or(|l| l.is_empty()) {
                continue;
            }
            let label = match c.host_labels.get(i) {
                Some(l) if !l.is_empty() => *l,
                _ => "unlabeled",
            };
            let e = by_label.entry(label).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += c.host_count[i];
            e.2 += c.host_ns[i] / 1_000_000;
        }
        let mut archetypes: Vec<(&'static str, u64, u64, u64)> = by_label
            .into_iter()
            .map(|(label, (hosts, count, ms))| (label, hosts, count, ms))
            .collect();
        archetypes.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
        ProfileSummary {
            run_wall_ms,
            shards: vec![(c.events, c.busy_ns / 1_000_000, 0, util)],
            imbalance_ratio: 1.0,
            kinds,
            archetypes,
        }
    })
}

/// Render the installed profiler's accumulators as a JSON document for
/// `results/obs_profile.json`. Field order is fixed; values are
/// wall-clock derived and therefore NOT run-to-run deterministic — this
/// artifact must never be byte-compared across runs. `None` when no
/// profiler is installed.
pub fn export_json() -> Option<String> {
    let s = summary()?;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"run_wall_ms\": {},\n", s.run_wall_ms));
    out.push_str("  \"kinds\": [\n");
    for (i, (name, count, total_ms)) in s.kinds.iter().enumerate() {
        let avg_us = if *count > 0 {
            total_ms * 1000 / count
        } else {
            0
        };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"count\": {count}, \"total_ms\": {total_ms}, \
             \"avg_us\": {avg_us}}}{}\n",
            if i + 1 < s.kinds.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"archetypes\": [\n");
    for (i, (label, hosts, count, total_ms)) in s.archetypes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"archetype\": \"{label}\", \"hosts\": {hosts}, \"events\": {count}, \
             \"total_ms\": {total_ms}}}{}\n",
            if i + 1 < s.archetypes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        uninstall();
        assert!(!is_installed());
        let t = dispatch_start();
        assert!(t.0.is_none());
        dispatch_end(t, 0, "conn", 1);
        assert!(summary().is_none());
        assert!(export_json().is_none());
    }

    #[test]
    fn accumulates_per_kind_and_host() {
        install();
        run_mark_start();
        host_label(1, "Geth");
        host_label(2, "Tarpit");
        for _ in 0..3 {
            let t = dispatch_start();
            dispatch_end(t, 0, "conn", 1);
        }
        let t = dispatch_start();
        dispatch_end(t, 2, "timer", 2);
        run_mark_end();
        let s = summary().unwrap();
        assert_eq!(s.shards.len(), 1);
        assert_eq!(s.shards[0].0, 4);
        assert_eq!(s.imbalance_ratio, 1.0);
        let kind_names: Vec<&str> = s.kinds.iter().map(|k| k.0).collect();
        assert!(kind_names.contains(&"conn"));
        assert!(kind_names.contains(&"timer"));
        let labels: Vec<&str> = s.archetypes.iter().map(|a| a.0).collect();
        assert!(labels.contains(&"Geth"));
        assert!(labels.contains(&"Tarpit"));
        let json = export_json().unwrap();
        assert!(json.contains("\"name\": \"timer\", \"count\": 1,"));
        assert!(json.contains("\"archetype\": \"Geth\""));
        uninstall();
    }

    #[test]
    fn install_resets_accumulators() {
        install();
        let t = dispatch_start();
        dispatch_end(t, 0, "conn", 1);
        install();
        let s = summary().unwrap();
        assert_eq!(s.shards[0].0, 0);
        assert!(s.kinds.is_empty());
        uninstall();
    }
}
