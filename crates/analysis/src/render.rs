//! Rendering helpers: ASCII tables and CSV series for the experiment
//! binaries.

use crate::CountRow;

/// Render labelled count rows as an aligned ASCII table.
pub fn count_table(title: &str, rows: &[CountRow], max_rows: usize) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let width = rows
        .iter()
        .take(max_rows)
        .map(|r| r.label.len())
        .chain(["label".len()])
        .max()
        .unwrap_or(8)
        .max(8);
    out.push_str(&format!(
        "{:<width$}  {:>10}  {:>8}\n",
        "label", "count", "%"
    ));
    out.push_str(&format!("{}\n", "-".repeat(width + 22)));
    for row in rows.iter().take(max_rows) {
        out.push_str(&format!(
            "{:<width$}  {:>10}  {:>7.2}%\n",
            row.label, row.count, row.percent
        ));
    }
    if rows.len() > max_rows {
        let rest_count: u64 = rows.iter().skip(max_rows).map(|r| r.count).sum();
        let rest_pct: f64 = rows.iter().skip(max_rows).map(|r| r.percent).sum();
        out.push_str(&format!(
            "{:<width$}  {:>10}  {:>7.2}%\n",
            format!("({} others)", rows.len() - max_rows),
            rest_count,
            rest_pct
        ));
    }
    let total: u64 = rows.iter().map(|r| r.count).sum();
    out.push_str(&format!(
        "{:<width$}  {:>10}  {:>7.2}%\n",
        "Total", total, 100.0
    ));
    out
}

/// Render a set of per-window series as CSV with a window index column.
pub fn series_csv(headers: &[&str], series: &[&[u64]]) -> String {
    assert!(!series.is_empty());
    assert_eq!(headers.len(), series.len());
    let n = series.iter().map(|s| s.len()).min().unwrap_or(0);
    let mut out = String::from("window");
    for h in headers {
        out.push(',');
        out.push_str(h);
    }
    out.push('\n');
    for i in 0..n {
        out.push_str(&i.to_string());
        for s in series {
            out.push(',');
            out.push_str(&s[i].to_string());
        }
        out.push('\n');
    }
    out
}

/// Render an (x, F(x)) CDF as CSV.
pub fn cdf_csv(x_name: &str, points: &[(u64, f64)]) -> String {
    let mut out = format!("{x_name},cdf\n");
    for (x, f) in points {
        out.push_str(&format!("{x},{f:.4}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<CountRow> {
        vec![
            CountRow {
                label: "Ethereum (eth)".into(),
                count: 90,
                percent: 90.0,
            },
            CountRow {
                label: "Swarm (bzz)".into(),
                count: 7,
                percent: 7.0,
            },
            CountRow {
                label: "LES".into(),
                count: 3,
                percent: 3.0,
            },
        ]
    }

    #[test]
    fn table_renders_all_rows() {
        let t = count_table("Table 3", &rows(), 10);
        assert!(t.contains("Ethereum (eth)"));
        assert!(t.contains("90.00%"));
        assert!(t.contains("Total"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn table_folds_tail() {
        let t = count_table("T", &rows(), 1);
        assert!(t.contains("(2 others)"));
        assert!(t.contains("10"));
    }

    #[test]
    fn csv_series() {
        let a = [1u64, 2, 3];
        let b = [4u64, 5, 6];
        let csv = series_csv(&["disc", "dial"], &[&a, &b]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "window,disc,dial");
        assert_eq!(lines[1], "0,1,4");
        assert_eq!(lines[3], "2,3,6");
    }

    #[test]
    fn cdf_csv_format() {
        let csv = cdf_csv("lag", &[(0, 0.5), (100, 1.0)]);
        assert!(csv.starts_with("lag,cdf\n0,0.5000\n"));
    }
}
