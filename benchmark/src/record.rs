//! What one worker process reports to its parent: `key=value` lines on
//! stdout. Lists are comma-separated. Flat on purpose — the parent needs
//! no parser beyond `split_once('=')`.

use std::collections::BTreeMap;
use std::fmt::Display;

#[derive(Debug, Default, Clone)]
pub struct Record {
    fields: BTreeMap<String, String>,
}

impl Record {
    pub fn set(&mut self, key: &str, value: impl Display) {
        self.fields.insert(key.to_string(), value.to_string());
    }

    pub fn set_list(&mut self, key: &str, values: &[u64]) {
        let text: Vec<String> = values.iter().map(u64::to_string).collect();
        self.set(key, text.join(","));
    }

    /// Mark the repetition failed; the first reason is the one kept.
    pub fn fail(&mut self, reason: &str) {
        self.fields
            .entry("failed".to_string())
            .or_insert_with(|| reason.replace('\n', " "));
    }

    pub fn failure(&self) -> Option<&str> {
        self.text("failed")
    }

    pub fn text(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// A numeric field; absent or unparsable reads as 0 (a counter the
    /// workload never touched).
    pub fn num(&self, key: &str) -> f64 {
        self.text(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    pub fn list(&self, key: &str) -> Vec<u64> {
        self.text(key)
            .filter(|t| !t.is_empty())
            .map(|t| t.split(',').filter_map(|v| v.parse().ok()).collect())
            .unwrap_or_default()
    }

    /// Fields whose key starts with `prefix`, with the prefix removed.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.fields
            .iter()
            .filter_map(move |(k, v)| k.strip_prefix(prefix).map(|rest| (rest, v.as_str())))
    }

    pub fn to_lines(&self) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{k}={v}\n"))
            .collect()
    }

    pub fn from_lines(text: &str) -> Record {
        let fields = text
            .lines()
            .filter_map(|l| l.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Record { fields }
    }
}
