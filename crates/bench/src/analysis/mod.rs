//! Analysis pipeline: turns crawl datasets into the paper's tables and
//! figures.
//!
//! Every public function here corresponds to an artifact in the
//! evaluation (see DESIGN.md's experiment index):
//!
//! * `ecosystem` — Table 3, Fig 9, the §6.1 non-productive breakdown;
//! * `clients` — Table 4, Table 5, Fig 10;
//! * `snapshot` — Table 6, Fig 14 freshness, Fig 13 latency CDF;
//! * `geo` — Fig 12/13 country and AS tallies;
//! * `validation` — Table 2 set intersections, Fig 5–8 rate series;
//! * `casestudy` — Figs 2–4 and Table 1 from instrumented nodes;
//! * `render` — ASCII tables and CSV series for the harness binaries.

mod casestudy;
mod clients;
mod ecosystem;
mod geo;
mod render;
mod snapshot;
mod validation;

pub use casestudy::{disconnect_table, message_mix, peer_occupancy, PeerOccupancy};
pub use clients::{client_table, fraction_at_or_below, version_stability, version_timeline};
pub use ecosystem::{funnel, networks, services_table};
pub use geo::{as_distribution, country_distribution, top_as_share, GeoDb};
pub use render::{cdf_csv, count_table, series_csv};
pub use snapshot::{freshness, head_from_total_difficulty, latency_cdf, size_comparison};
pub use validation::{dials_to_target, ethernodes_mainnet_set, intersection_table, rate_series};

/// A generic labelled count with percentage, the row shape most tables
/// share.
#[derive(Debug, Clone, PartialEq)]
pub struct CountRow {
    /// Row label.
    pub label: String,
    /// Absolute count.
    pub count: u64,
    /// Share of the table's total, in percent.
    pub percent: f64,
}

/// Tally values into sorted [`CountRow`]s (descending by count).
pub fn tally<I, S>(items: I) -> Vec<CountRow>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut counts: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut total = 0u64;
    for item in items {
        *counts.entry(item.into()).or_insert(0) += 1;
        total += 1;
    }
    let mut rows: Vec<CountRow> = counts
        .into_iter()
        .map(|(label, count)| CountRow {
            label,
            count,
            percent: 100.0 * count as f64 / total.max(1) as f64,
        })
        .collect();
    rows.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.label.cmp(&b.label)));
    rows
}

/// An empirical CDF over `u64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<u64>,
}

impl Cdf {
    /// Build from samples.
    pub fn new(mut samples: Vec<u64>) -> Cdf {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples ≤ `x`.
    pub fn at(&self, x: u64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0.0–1.0).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.sorted.is_empty() {
            return 0;
        }
        let idx = ((self.sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.sorted[idx]
    }

    /// Evenly spaced (x, F(x)) points for plotting/CSV.
    pub fn series(&self, points: usize) -> Vec<(u64, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().unwrap();
        let span = (hi - lo).max(1);
        (0..=points)
            .map(|i| {
                let x = lo + span * i as u64 / points as u64;
                (x, self.at(x))
            })
            .collect()
    }
}

/// Bin timestamped events into fixed-width windows ("days"), returning the
/// per-window counts across `n_windows` starting at t=0.
pub fn bin_by_window(
    timestamps: impl IntoIterator<Item = u64>,
    window_ms: u64,
    n_windows: usize,
) -> Vec<u64> {
    let mut bins = vec![0u64; n_windows];
    for ts in timestamps {
        let idx = (ts / window_ms.max(1)) as usize;
        if idx < n_windows {
            bins[idx] += 1;
        }
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_sorts() {
        let rows = tally(["a", "b", "a", "a", "c", "b"]);
        assert_eq!(rows[0].label, "a");
        assert_eq!(rows[0].count, 3);
        assert!((rows[0].percent - 50.0).abs() < 1e-9);
        assert_eq!(rows[1].label, "b");
        assert_eq!(rows[2].label, "c");
    }

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert!((cdf.at(5) - 0.5).abs() < 1e-9);
        assert_eq!(cdf.at(0), 0.0);
        assert_eq!(cdf.at(100), 1.0);
        assert_eq!(cdf.quantile(0.0), 1);
        assert_eq!(cdf.quantile(1.0), 10);
        assert_eq!(cdf.quantile(0.5), 6); // round(9*0.5)=5 -> value 6
    }

    #[test]
    fn cdf_empty_safe() {
        let cdf = Cdf::new(vec![]);
        assert_eq!(cdf.at(5), 0.0);
        assert_eq!(cdf.quantile(0.5), 0);
        assert!(cdf.series(10).is_empty());
    }

    #[test]
    fn binning() {
        let bins = bin_by_window([0, 5, 10, 15, 25, 999], 10, 3);
        assert_eq!(bins, vec![2, 2, 1]);
    }
}
