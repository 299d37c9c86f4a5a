//! Reports over the `obs` entry's exports: `repro chain` walks a causal
//! chain through `obs_trace.jsonl`, `repro campaign` (and the committed
//! `obsctl_campaign.json`) sums up crawl progress from the trace and
//! `obs_metrics.prom`, and `repro obs` prints the profiler table. The
//! readers are strict: a line they cannot read exactly is
//! `Err("<file>:<line>: …")`, never an event or a sample of zeros.

use obs::profile::ProfileSummary;
use obs::{EventKind, TraceEvent, TraceQuery, Value};
use serde_json::JsonValue;
use std::fmt::Write as _;

/// Kinds and archetypes the profiler table lists.
const TOP: usize = 5;

/// A JSON object's members in document order.
type Object = Vec<(String, JsonValue)>;

fn object(value: JsonValue, what: &str) -> Result<Object, String> {
    match value {
        JsonValue::Map(members) => members
            .into_iter()
            .map(|(key, value)| match key {
                JsonValue::Str(key) => Ok((key, value)),
                other => Err(format!("{what}: a key is {}", other.kind())),
            })
            .collect(),
        other => Err(format!(
            "{what}: expected an object, found {}",
            other.kind()
        )),
    }
}

/// Remove member `name` from `obj`.
fn take(obj: &mut Object, name: &str) -> Result<JsonValue, String> {
    let at = obj
        .iter()
        .position(|(key, _)| key == name)
        .ok_or_else(|| format!("missing field `{name}`"))?;
    Ok(obj.remove(at).1)
}

fn take_u64(obj: &mut Object, name: &str) -> Result<u64, String> {
    match take(obj, name)? {
        JsonValue::UInt(v) => u64::try_from(v).map_err(|_| format!("field `{name}`: {v} > u64")),
        other => Err(format!(
            "field `{name}`: expected an unsigned integer, found {}",
            other.kind()
        )),
    }
}

fn take_str(obj: &mut Object, name: &str) -> Result<String, String> {
    match take(obj, name)? {
        JsonValue::Str(s) => Ok(s),
        other => Err(format!(
            "field `{name}`: expected a string, found {}",
            other.kind()
        )),
    }
}

/// A member of `fields`: one of the four [`Value`] types.
fn field_value(name: &str, value: JsonValue) -> Result<Value, String> {
    let kind = value.kind();
    match value {
        JsonValue::UInt(v) => u64::try_from(v).map(Value::U64).ok(),
        JsonValue::Int(v) => i64::try_from(v).map(Value::I64).ok(),
        JsonValue::Str(s) => Some(Value::Str(s)),
        JsonValue::Bool(b) => Some(Value::Bool(b)),
        _ => None,
    }
    .ok_or_else(|| {
        format!("field `fields.{name}`: expected a u64, i64, string or bool, found {kind}")
    })
}

/// One line as [`TraceEvent::write_jsonl_line`] writes it: every field
/// present and of its type, and no other field.
fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let value = serde_json::from_str::<JsonValue>(line).map_err(|e| e.to_string())?;
    let mut obj = object(value, "line")?;
    let seq = take_u64(&mut obj, "seq")?;
    let ts_ms = take_u64(&mut obj, "ts")?;
    let key = take_u64(&mut obj, "key")?;
    let cause = take_u64(&mut obj, "cause")?;
    let depth = take_u64(&mut obj, "depth")?;
    let depth = u32::try_from(depth).map_err(|_| format!("field `depth`: {depth} > u32"))?;
    let kind = match take_str(&mut obj, "type")?.as_str() {
        "event" => EventKind::Event,
        "span" => {
            let start_ms = take_u64(&mut obj, "start")?;
            let dur = take_u64(&mut obj, "dur")?;
            if dur != ts_ms.saturating_sub(start_ms) {
                return Err(format!("field `dur`: {dur} is not ts - start"));
            }
            EventKind::Span { start_ms }
        }
        other => return Err(format!("field `type`: unknown type `{other}`")),
    };
    let name = take_str(&mut obj, "name")?;
    let fields = object(take(&mut obj, "fields")?, "field `fields`")?
        .into_iter()
        .map(|(name, value)| Ok((name.clone(), field_value(&name, value)?)))
        .collect::<Result<_, String>>()?;
    if let Some((extra, _)) = obj.first() {
        return Err(format!("unknown field `{extra}`"));
    }
    Ok(TraceEvent {
        seq,
        ts_ms,
        key,
        cause,
        depth,
        kind,
        name,
        fields,
    })
}

/// Read `obs_trace.jsonl` back into the events it was written from.
/// `path` only labels errors.
pub fn parse_trace(path: &str, text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| parse_event(line).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect()
}

/// Parse a Prometheus text export into (name, value) pairs, input order.
/// Labeled series (histogram buckets) are skipped — the reports only
/// consume scalar counters and gauges. Any other line must read
/// `name <u64>`: a damaged export is an error, not an empty crawl.
pub fn parse_prom(path: &str, text: &str) -> Result<Vec<(String, u64)>, String> {
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

/// `repro chain`: every dispatch from `key` back to its external root,
/// each with the events it recorded.
pub fn chain(events: Vec<TraceEvent>, key: u64) -> String {
    let q = TraceQuery::from_events(events);
    let chain = q.chain(key);
    let mut out = String::new();
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
    out
}

/// Crawl-campaign progress, as `repro campaign` prints it and as the
/// `obs` entry commits it.
#[derive(Debug)]
pub struct Campaign {
    /// The printed report.
    pub report: String,
    /// The same numbers as one JSON line: `results/obsctl_campaign.json`.
    pub json: String,
}

/// Dial funnel totals, fresh vs stale nodes and events per sim-hour, from
/// a trace and the metrics export of the same run.
pub fn campaign(events: &[TraceEvent], prom: &[(String, u64)]) -> Campaign {
    let sim_ms = events.iter().map(|e| e.ts_ms).max().unwrap_or(0);
    let events_total = prom_get(prom, "netsim_events_total");
    let events_per_sim_hour = events_total
        .saturating_mul(3_600_000)
        .checked_div(sim_ms)
        .unwrap_or(0);
    let sightings = prom_get(prom, "crawler_funnel_sightings");
    let dials = prom_get(prom, "crawler_dial_static") + prom_get(prom, "crawler_dial_dynamic");
    let hello = prom_get(prom, "crawler_funnel_hello");
    let status = prom_get(prom, "crawler_funnel_status");
    let responded = prom_get(prom, "crawler_funnel_responded");
    let fresh = prom_get(prom, "crawler_nodes_fresh");
    let stale = prom_get(prom, "crawler_nodes_stale");
    // Failure breakdown: every crawler_failure_* scalar, input order
    // (the prom export is sorted by name, so this is deterministic).
    let failures: Vec<(&str, u64)> = prom
        .iter()
        .filter(|(n, _)| n.starts_with("crawler_failure_"))
        .map(|(n, v)| (n.trim_start_matches("crawler_failure_"), *v))
        .collect();
    let retained = events.len() as u64;
    let probes_done = events
        .iter()
        .filter(|e| e.name == "crawler.probe.done")
        .count() as u64;

    let failures_json: Vec<String> = failures
        .iter()
        .map(|(n, v)| format!("\"{n}\":{v}"))
        .collect();
    let json = format!(
        "{{\"sim_ms\":{sim_ms},\"events_total\":{events_total},\
         \"events_per_sim_hour\":{events_per_sim_hour},\
         \"funnel\":{{\"sightings\":{sightings},\"dials\":{dials},\
         \"hello\":{hello},\"status\":{status},\"responded\":{responded}}},\
         \"nodes\":{{\"fresh\":{fresh},\"stale\":{stale}}},\"failures\":{{{}}},\
         \"trace\":{{\"retained\":{retained},\"probes_done\":{probes_done}}}}}\n",
        failures_json.join(",")
    );
    let failures_text: String = match failures.as_slice() {
        [] => " none".into(),
        failures => failures.iter().map(|(n, v)| format!(" {n}={v}")).collect(),
    };
    let report = [
        "campaign progress".into(),
        format!(
            "  sim time: {sim_ms} ms   events: {events_total} ({events_per_sim_hour} per sim-hour)"
        ),
        format!(
            "  funnel:   sightings {sightings} -> dials {dials} -> hello {hello} -> \
             status {status} -> responded {responded}"
        ),
        format!("  nodes:    fresh {fresh}, stale {stale}"),
        format!("  failures:{failures_text}"),
        format!("  trace:    {retained} events retained, {probes_done} probes completed\n"),
    ]
    .join("\n");
    Campaign { report, json }
}

/// The self-profiler's side table as `repro obs` prints it: the run's wall
/// time, then the top kinds and host archetypes by wall cost.
/// Wall-clock numbers: never compare two runs' tables byte for byte.
pub fn profile_table(s: &ProfileSummary) -> String {
    let mut out =
        String::from("profiler report (wall-clock side table — not comparable across runs)\n");
    let _ = writeln!(out, "  run wall: {} ms", s.run_wall_ms);
    let _ = writeln!(out, "\n  top {TOP} event kinds by cost:");
    out.push_str("  kind                 count   total_ms\n");
    for (name, count, total_ms) in s.kinds.iter().take(TOP) {
        let _ = writeln!(out, "  {name:<18} {count:>7} {total_ms:>10}");
    }
    let _ = writeln!(out, "\n  top {TOP} host archetypes by cost:");
    out.push_str("  archetype             hosts     events   total_ms\n");
    for (label, hosts, events, total_ms) in s.archetypes.iter().take(TOP) {
        let _ = writeln!(out, "  {label:<18} {hosts:>8} {events:>10} {total_ms:>10}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"seq":3,"ts":1038,"key":9,"cause":4,"depth":2,"type":"span","name":"crawler.stage.connect_ms","start":1000,"dur":38,"fields":{"who":"a\"b","ok":true,"conn":7,"skew":-5}}"#;

    #[test]
    fn damaged_trace_line_is_an_error_not_a_zero() {
        let good = TraceEvent {
            seq: 3,
            ts_ms: 1038,
            key: 9,
            cause: 4,
            depth: 2,
            kind: EventKind::Span { start_ms: 1000 },
            name: "crawler.stage.connect_ms".into(),
            fields: vec![
                ("who".into(), Value::Str("a\"b".into())),
                ("ok".into(), Value::Bool(true)),
                ("conn".into(), Value::U64(7)),
                ("skew".into(), Value::I64(-5)),
            ],
        };
        assert_eq!(parse_trace("t", GOOD), Ok(vec![good.clone()]));
        let mut written = String::new();
        good.write_jsonl_line(&mut written);
        assert_eq!(written, GOOD);

        for (bad, why) in [
            ("{}".to_string(), "missing field `seq`"),
            (GOOD.replace(r#""seq":3"#, r#""seq":"x""#), "field `seq`"),
            (
                GOOD.replace(r#""conn":7"#, r#""conn":[1,2]"#),
                "fields.conn",
            ),
            (GOOD.replace(r#""type":"span""#, r#""type":"blob""#), "blob"),
            (
                GOOD.replace(r#""start":1000,"#, ""),
                "missing field `start`",
            ),
            (
                GOOD.replace(r#""dur":38"#, r#""dur":38,"x":1"#),
                "unknown field `x`",
            ),
        ] {
            let err = parse_trace("t", &format!("{GOOD}\n{bad}\n")).unwrap_err();
            assert!(err.starts_with("t:2: "), "{bad}: {err}");
            assert!(err.contains(why), "{bad}: {err}");
        }
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
    fn profile_table_bytes_are_pinned() {
        let summary = ProfileSummary {
            run_wall_ms: 4959,
            kinds: vec![
                ("udp", 63064, 2557),
                ("tcp_data", 30434, 1075),
                ("timer", 9, 8),
                ("tcp_establish", 8, 7),
                ("tcp_syn", 7, 6),
                ("tcp_close", 6, 5),
            ],
            archetypes: vec![("Geth", 20, 90_000, 3000), ("crawler", 1, 40_000, 900)],
            ..ProfileSummary::default()
        };
        assert_eq!(
            profile_table(&summary),
            "\
profiler report (wall-clock side table — not comparable across runs)
  run wall: 4959 ms

  top 5 event kinds by cost:
  kind                 count   total_ms
  udp                  63064       2557
  tcp_data             30434       1075
  timer                    9          8
  tcp_establish            8          7
  tcp_syn                  7          6

  top 5 host archetypes by cost:
  archetype             hosts     events   total_ms
  Geth                     20      90000       3000
  crawler                   1      40000        900
"
        );
    }
}
