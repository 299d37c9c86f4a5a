//! `obsctl`: offline analysis of the observability artifacts a run
//! leaves behind — the trace (`obs_trace.jsonl`), the metrics export
//! (`obs_metrics.prom`), and the profiler side table
//! (`obs_profile.json`). Dependency-free by the same contract as the
//! `obs` crate itself; every report is byte-deterministic given the
//! same input files (CI runs each subcommand twice and `cmp`s).
//!
//! Subcommands:
//!   profile   — per-shard utilization table + top-k event kinds by cost
//!   chain     — causal happens-before chain for a dispatch key
//!   campaign  — crawl progress: funnel totals, fresh/stale nodes,
//!               events per sim-hour (the 82-day progress view)

use obs::{EventKind, TraceEvent, TraceQuery, Value};
use std::fmt::Write as _;
use std::process::ExitCode;

const HELP: &str = "\
obsctl — offline trace & metrics analysis for simulator runs

USAGE:
    obsctl profile  [--profile <path>] [--top <k>] [--json]
    obsctl chain <key> [--trace <path>] [--json]
    obsctl campaign [--trace <path>] [--prom <path>] [--json]

COMMANDS:
    profile    Render the self-profiler's side table (default
               results/obs_profile.json): per-shard utilization, barrier
               stall, event imbalance, and the top-k event kinds and
               host archetypes by wall cost. The underlying numbers are
               wall-clock derived — deterministic to re-render, but not
               comparable across runs.
    chain      Walk the causal chain of a scheduler key through the
               trace (default results/obs_trace.jsonl): every dispatch
               from the key back to its external root (cause 0), with
               the events each dispatch recorded.
    campaign   Crawl-campaign progress from the trace + prom export
               (defaults results/obs_trace.jsonl, results/obs_metrics.prom):
               dial funnel totals, fresh vs stale nodes, events per
               sim-hour.

OPTIONS:
    --json     Machine-readable output (byte-deterministic; CI gates on it).
    --top <k>  Kinds/archetypes to show in `profile` (default 5).

NOTES:
    The trace is a bounded flight recorder: the ring keeps the newest
    `trace_capacity` events (default 65536) and evicts the oldest,
    counting drops per event kind. A chain that stops short of a root
    may simply have had its older links evicted — check the recorder's
    drop counters before concluding the provenance is broken.
";

// ---------------------------------------------------------------------------
// Minimal JSON parser (the obs crate is dependency-free, so no serde).
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    /// Numbers keep their raw lexeme so re-rendering is lossless.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    /// Raw numeric lexeme (for lossless re-rendering of floats).
    fn raw_num(&self) -> &str {
        match self {
            Json::Num(raw) => raw,
            _ => "0",
        }
    }
}

/// Containers may nest this deep (`vendor/serde_json`'s bound); `value`
/// recurses once per level, so an unbounded artifact would overflow the
/// stack instead of yielding `Err`.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} (found {:?})",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let container = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                container
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad utf8 in number".to_string())?;
        if raw.is_empty() || raw == "-" {
            return Err(format!("bad number at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "bad utf8".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] (found {other:?})")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                other => return Err(format!("expected , or }} (found {other:?})")),
            }
        }
    }
}

fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Artifact loaders
// ---------------------------------------------------------------------------

/// Re-hydrate `obs_trace.jsonl` into TraceEvents.
fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = parse_json(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let get_u64 = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
        let kind = match j.get("type").and_then(Json::as_str) {
            Some("span") => EventKind::Span {
                start_ms: get_u64("start"),
            },
            _ => EventKind::Event,
        };
        let mut fields = Vec::new();
        if let Some(Json::Obj(pairs)) = j.get("fields") {
            for (k, v) in pairs {
                let val = match v {
                    Json::Bool(b) => Value::Bool(*b),
                    Json::Str(s) => Value::Str(s.clone()),
                    Json::Num(raw) => {
                        if let Ok(u) = raw.parse::<u64>() {
                            Value::U64(u)
                        } else if let Ok(i) = raw.parse::<i64>() {
                            Value::I64(i)
                        } else {
                            Value::Str(raw.clone())
                        }
                    }
                    other => Value::Str(format!("{other:?}")),
                };
                fields.push((k.clone(), val));
            }
        }
        events.push(TraceEvent {
            seq: get_u64("seq"),
            ts_ms: get_u64("ts"),
            key: get_u64("key"),
            cause: get_u64("cause"),
            depth: get_u64("depth") as u32,
            kind,
            name: j
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            fields,
        });
    }
    Ok(events)
}

/// Parse a Prometheus text export into (name, value) pairs, input order.
/// Labeled series (histogram buckets) are skipped — the reports only
/// consume scalar counters and gauges. Any other line must read
/// `name <u64>`: a damaged export is an error, not an empty crawl.
fn load_prom(path: &str) -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_prom(path, &text)
}

fn parse_prom(path: &str, text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() || line.starts_with('#') || line.contains('{') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (
            parts.next(),
            parts.next().map(str::parse::<u64>),
            parts.next(),
        ) {
            (Some(name), Some(Ok(v)), None) => out.push((name.to_string(), v)),
            _ => {
                return Err(format!(
                    "{path}:{}: expected `name <u64>`, found `{line}`",
                    i + 1
                ))
            }
        }
    }
    Ok(out)
}

fn prom_get(prom: &[(String, u64)], name: &str) -> u64 {
    prom.iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// obsctl profile
// ---------------------------------------------------------------------------

fn cmd_profile(profile_path: &str, top: usize, json: bool) -> Result<String, String> {
    let text = std::fs::read_to_string(profile_path).map_err(|e| format!("{profile_path}: {e}"))?;
    let j = parse_json(&text).map_err(|e| format!("{profile_path}: {e}"))?;
    let shards = j.get("shards").map(Json::as_arr).unwrap_or(&[]);
    let kinds = j.get("kinds").map(Json::as_arr).unwrap_or(&[]);
    let archetypes = j.get("archetypes").map(Json::as_arr).unwrap_or(&[]);
    let mut out = String::new();
    if json {
        // Normalized re-render: fixed field order, top-k applied.
        out.push('{');
        let _ = write!(
            out,
            "\"run_wall_ms\":{},\"epochs\":{},\"epochs_per_wall_s\":{},\"imbalance_ratio\":{},",
            j.get("run_wall_ms").map(Json::raw_num).unwrap_or("0"),
            j.get("epochs").map(Json::raw_num).unwrap_or("0"),
            j.get("epochs_per_wall_s").map(Json::raw_num).unwrap_or("0"),
            j.get("imbalance_ratio").map(Json::raw_num).unwrap_or("0"),
        );
        out.push_str("\"shards\":[");
        for (i, s) in shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"shard\":{},\"events\":{},\"busy_ms\":{},\"stall_ms\":{},\"utilization\":{}}}",
                s.get("shard").map(Json::raw_num).unwrap_or("0"),
                s.get("events").map(Json::raw_num).unwrap_or("0"),
                s.get("busy_ms").map(Json::raw_num).unwrap_or("0"),
                s.get("stall_ms").map(Json::raw_num).unwrap_or("0"),
                s.get("utilization").map(Json::raw_num).unwrap_or("0"),
            );
        }
        out.push_str("],\"kinds\":[");
        for (i, k) in kinds.iter().take(top).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"count\":{},\"total_ms\":{}}}",
                k.get("name").and_then(Json::as_str).unwrap_or(""),
                k.get("count").map(Json::raw_num).unwrap_or("0"),
                k.get("total_ms").map(Json::raw_num).unwrap_or("0"),
            );
        }
        out.push_str("],\"archetypes\":[");
        for (i, a) in archetypes.iter().take(top).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"archetype\":\"{}\",\"hosts\":{},\"events\":{},\"total_ms\":{}}}",
                a.get("archetype").and_then(Json::as_str).unwrap_or(""),
                a.get("hosts").map(Json::raw_num).unwrap_or("0"),
                a.get("events").map(Json::raw_num).unwrap_or("0"),
                a.get("total_ms").map(Json::raw_num).unwrap_or("0"),
            );
        }
        out.push_str("]}\n");
        return Ok(out);
    }
    out.push_str("profiler report (wall-clock side table — not comparable across runs)\n");
    let _ = writeln!(
        out,
        "  run wall: {} ms   epochs: {}   epochs/wall-s: {}   imbalance: {}",
        j.get("run_wall_ms").map(Json::raw_num).unwrap_or("0"),
        j.get("epochs").map(Json::raw_num).unwrap_or("0"),
        j.get("epochs_per_wall_s").map(Json::raw_num).unwrap_or("0"),
        j.get("imbalance_ratio").map(Json::raw_num).unwrap_or("0"),
    );
    out.push_str("\n  shard     events    busy_ms   stall_ms  utilization\n");
    for s in shards {
        let _ = writeln!(
            out,
            "  {:>5} {:>10} {:>10} {:>10}  {:>11}",
            s.get("shard").map(Json::raw_num).unwrap_or("0"),
            s.get("events").map(Json::raw_num).unwrap_or("0"),
            s.get("busy_ms").map(Json::raw_num).unwrap_or("0"),
            s.get("stall_ms").map(Json::raw_num).unwrap_or("0"),
            s.get("utilization").map(Json::raw_num).unwrap_or("0"),
        );
    }
    let _ = writeln!(out, "\n  top {top} event kinds by cost:");
    out.push_str("  kind                 count   total_ms\n");
    for k in kinds.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<18} {:>7} {:>10}",
            k.get("name").and_then(Json::as_str).unwrap_or(""),
            k.get("count").map(Json::raw_num).unwrap_or("0"),
            k.get("total_ms").map(Json::raw_num).unwrap_or("0"),
        );
    }
    let _ = writeln!(out, "\n  top {top} host archetypes by cost:");
    out.push_str("  archetype             hosts     events   total_ms\n");
    for a in archetypes.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>10} {:>10}",
            a.get("archetype").and_then(Json::as_str).unwrap_or(""),
            a.get("hosts").map(Json::raw_num).unwrap_or("0"),
            a.get("events").map(Json::raw_num).unwrap_or("0"),
            a.get("total_ms").map(Json::raw_num).unwrap_or("0"),
        );
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// obsctl chain
// ---------------------------------------------------------------------------

fn cmd_chain(trace_path: &str, key: u64, json: bool) -> Result<String, String> {
    let events = load_trace(trace_path)?;
    let q = TraceQuery::from_events(events);
    let chain = q.chain(key);
    let mut out = String::new();
    if json {
        out.push_str("{\"chain\":[");
        for (i, k) in chain.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let evs = q.events_for_key(*k);
            let (cause, depth) = evs.first().map(|e| (e.cause, e.depth)).unwrap_or((0, 0));
            let _ = write!(
                out,
                "{{\"key\":{k},\"cause\":{cause},\"depth\":{depth},\"events\":["
            );
            for (ei, e) in evs.iter().enumerate() {
                if ei > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"seq\":{},\"ts\":{},\"name\":\"{}\"}}",
                    e.seq, e.ts_ms, e.name
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        return Ok(out);
    }
    let _ = writeln!(out, "causal chain for key {key} ({} links)", chain.len());
    for k in &chain {
        let evs = q.events_for_key(*k);
        match evs.first() {
            Some(first) => {
                let root = if first.cause == 0 {
                    "  (external root)"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "  depth {:>3}  key {:<12} cause {:<12}{root}",
                    first.depth, k, first.cause
                );
                for e in evs {
                    let _ = writeln!(out, "      {}", e.render_human());
                }
            }
            None => {
                let _ = writeln!(
                    out,
                    "  key {k}: no recorded events (older links may have been \
                     evicted from the flight-recorder ring)"
                );
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// obsctl campaign
// ---------------------------------------------------------------------------

fn cmd_campaign(trace_path: &str, prom_path: &str, json: bool) -> Result<String, String> {
    let events = load_trace(trace_path)?;
    let prom = load_prom(prom_path)?;
    let sim_ms = events.iter().map(|e| e.ts_ms).max().unwrap_or(0);
    let events_total = prom_get(&prom, "netsim_events_total");
    let events_per_sim_hour = events_total
        .saturating_mul(3_600_000)
        .checked_div(sim_ms)
        .unwrap_or(0);
    let sightings = prom_get(&prom, "crawler_funnel_sightings");
    let dials = prom_get(&prom, "crawler_dial_static") + prom_get(&prom, "crawler_dial_dynamic");
    let hello = prom_get(&prom, "crawler_funnel_hello");
    let status = prom_get(&prom, "crawler_funnel_status");
    let responded = prom_get(&prom, "crawler_funnel_responded");
    let fresh = prom_get(&prom, "crawler_nodes_fresh");
    let stale = prom_get(&prom, "crawler_nodes_stale");
    // Failure breakdown: every crawler_failure_* scalar, input order
    // (the prom export is sorted by name, so this is deterministic).
    let failures: Vec<(&str, u64)> = prom
        .iter()
        .filter(|(n, _)| n.starts_with("crawler_failure_"))
        .map(|(n, v)| (n.trim_start_matches("crawler_failure_"), *v))
        .collect();
    let trace_retained = events.len() as u64;
    let probe_done = events
        .iter()
        .filter(|e| e.name == "crawler.probe.done")
        .count() as u64;
    let mut out = String::new();
    if json {
        out.push('{');
        let _ = write!(
            out,
            "\"sim_ms\":{sim_ms},\"events_total\":{events_total},\
             \"events_per_sim_hour\":{events_per_sim_hour},\
             \"funnel\":{{\"sightings\":{sightings},\"dials\":{dials},\
             \"hello\":{hello},\"status\":{status},\"responded\":{responded}}},\
             \"nodes\":{{\"fresh\":{fresh},\"stale\":{stale}}},\"failures\":{{"
        );
        for (i, (name, v)) in failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{v}");
        }
        let _ = writeln!(
            out,
            "}},\"trace\":{{\"retained\":{trace_retained},\"probes_done\":{probe_done}}}}}"
        );
        return Ok(out);
    }
    out.push_str("campaign progress\n");
    let _ = writeln!(
        out,
        "  sim time: {sim_ms} ms   events: {events_total} ({events_per_sim_hour} per sim-hour)"
    );
    let _ = writeln!(
        out,
        "  funnel:   sightings {sightings} -> dials {dials} -> hello {hello} -> \
         status {status} -> responded {responded}"
    );
    let _ = writeln!(out, "  nodes:    fresh {fresh}, stale {stale}");
    out.push_str("  failures:");
    if failures.is_empty() {
        out.push_str(" none\n");
    } else {
        for (name, v) in &failures {
            let _ = write!(out, " {name}={v}");
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "  trace:    {trace_retained} events retained, {probe_done} probes completed"
    );
    Ok(out)
}

// ---------------------------------------------------------------------------
// arg parsing
// ---------------------------------------------------------------------------

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn run(args: &[String]) -> Result<String, String> {
    let json = args.iter().any(|a| a == "--json");
    match args.first().map(String::as_str) {
        Some("profile") => {
            let path = flag_value(args, "--profile")
                .unwrap_or_else(|| "results/obs_profile.json".to_string());
            let top = flag_value(args, "--top")
                .map(|t| {
                    t.parse::<usize>()
                        .map_err(|_| format!("bad --top value: {t}"))
                })
                .transpose()?
                .unwrap_or(5);
            cmd_profile(&path, top, json)
        }
        Some("chain") => {
            let key = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or("chain: missing <key> argument")?
                .parse::<u64>()
                .map_err(|e| format!("chain: bad key: {e}"))?;
            let trace = flag_value(args, "--trace")
                .unwrap_or_else(|| "results/obs_trace.jsonl".to_string());
            cmd_chain(&trace, key, json)
        }
        Some("campaign") => {
            let trace = flag_value(args, "--trace")
                .unwrap_or_else(|| "results/obs_trace.jsonl".to_string());
            let prom = flag_value(args, "--prom")
                .unwrap_or_else(|| "results/obs_metrics.prom".to_string());
            cmd_campaign(&trace, &prom, json)
        }
        Some("help") | Some("--help") | Some("-h") | None => Ok(HELP.to_string()),
        Some(other) => Err(format!("unknown command: {other}\n\n{HELP}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obsctl: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_round_trips_trace_lines() {
        let line = r#"{"seq":3,"ts":1038,"key":9,"cause":4,"depth":2,"type":"span","name":"crawler.stage.connect_ms","start":1000,"dur":38,"fields":{"conn":7,"who":"a\"b"}}"#;
        let j = parse_json(line).unwrap();
        assert_eq!(j.get("seq").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("depth").and_then(Json::as_u64), Some(2));
        assert_eq!(
            j.get("name").and_then(Json::as_str),
            Some("crawler.stage.connect_ms")
        );
        let fields = j.get("fields").unwrap();
        assert_eq!(fields.get("conn").and_then(Json::as_u64), Some(7));
        assert_eq!(fields.get("who").and_then(Json::as_str), Some("a\"b"));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
        assert!(parse_json("nul").is_err());
    }

    #[test]
    fn json_parser_bounds_nesting_instead_of_overflowing_the_stack() {
        // What `profile --profile f` and one line of `campaign --trace g`
        // would be handed by a hostile artifact.
        for open in ["[", "{\"a\":"] {
            let err = parse_json(&open.repeat(200_000)).unwrap_err();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // Depth well past any real artifact still parses.
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep).is_ok());
        let at_bound = format!("{}{}", "[".repeat(128), "]".repeat(128));
        assert!(parse_json(&at_bound).is_ok());
        let past_bound = format!("{}{}", "[".repeat(129), "]".repeat(129));
        assert!(parse_json(&past_bound).is_err());
    }

    #[test]
    fn number_lexemes_are_preserved() {
        let j = parse_json("{\"u\": 0.9731, \"e\": 159.22}").unwrap();
        assert_eq!(j.get("u").unwrap().raw_num(), "0.9731");
        assert_eq!(j.get("e").unwrap().raw_num(), "159.22");
    }

    #[test]
    fn damaged_prom_sample_is_an_error_not_a_zero() {
        let good = "# TYPE a counter\na_total 7\nh_bucket{le=\"1\"} 0\n\nb 0\n";
        assert_eq!(
            parse_prom("p.prom", good),
            Ok(vec![("a_total".to_string(), 7), ("b".to_string(), 0)])
        );
        let err = parse_prom(
            "p.prom",
            "a_total 7\ncrawler_funnel_sightings_total notnum\n",
        )
        .unwrap_err();
        assert!(err.starts_with("p.prom:2: "), "{err}");
        assert!(err.contains("notnum"), "{err}");
        assert!(parse_prom("p.prom", "lonely_name\n").is_err());
        assert!(parse_prom("p.prom", "a 1 trailing\n").is_err());
    }

    #[test]
    fn help_documents_the_ring_bound() {
        assert!(HELP.contains("bounded flight recorder"));
        assert!(HELP.contains("65536"));
        assert!(HELP.contains("evicts the oldest"));
    }
}
