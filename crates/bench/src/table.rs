//! Plain-text table rendering in the paper's `mean±std` percent style.

use logirec_eval::MeanStd;

/// One rendered table row: a label plus formatted cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (method name, parameter value, …).
    pub label: String,
    /// Pre-formatted cell strings.
    pub cells: Vec<String>,
}

impl Row {
    /// Builds a row from metric aggregates, appending `*` markers where
    /// `stars` is true (the paper's Wilcoxon significance marker).
    pub fn from_metrics(label: impl Into<String>, metrics: &[MeanStd], star: bool) -> Self {
        let cells = metrics
            .iter()
            .map(|m| {
                let mut s = m.format_percent();
                if star {
                    s.push('*');
                }
                s
            })
            .collect();
        Self { label: label.into(), cells }
    }
}

/// Renders an aligned text table.
pub fn render(title: &str, headers: &[&str], rows: &[Row]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let label_width = rows
        .iter()
        .map(|r| r.label.len())
        .chain(std::iter::once("Method".len()))
        .max()
        .unwrap_or(6);
    for row in rows {
        for (i, cell) in row.cells.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let rule_len =
        label_width + widths.iter().map(|w| w + 3).sum::<usize>();
    out.push_str(&"=".repeat(rule_len.max(title.len())));
    out.push('\n');
    out.push_str(&format!("{:<label_width$}", "Method"));
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!("   {h:>w$}"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(rule_len.max(title.len())));
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:<label_width$}", row.label));
        for (c, w) in row.cells.iter().zip(&widths) {
            out.push_str(&format!("   {c:>w$}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let rows = vec![
            Row { label: "BPRMF".into(), cells: vec!["3.18±0.13".into(), "4.90±0.15".into()] },
            Row {
                label: "LogiRec++".into(),
                cells: vec!["6.67±0.05*".into(), "10.30±0.06*".into()],
            },
        ];
        let s = render("Table II (ciao)", &["Recall@10", "Recall@20"], &rows);
        assert!(s.contains("Recall@10"));
        assert!(s.contains("LogiRec++"));
        // All data lines have the same length.
        let lines: Vec<&str> = s.lines().filter(|l| l.contains("±")).collect();
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn from_metrics_adds_stars() {
        let m = [MeanStd { mean: 0.1, std: 0.01 }];
        let starred = Row::from_metrics("x", &m, true);
        assert!(starred.cells[0].ends_with('*'));
        let plain = Row::from_metrics("x", &m, false);
        assert!(!plain.cells[0].ends_with('*'));
    }
}
