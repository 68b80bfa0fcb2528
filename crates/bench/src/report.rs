//! Plain-text table rendering for the experiment binaries.
//!
//! The paper presents its results as bar charts (Figures 6/7) and a table
//! (Table 1); the binaries print the same series as aligned text tables so
//! they can be diffed, plotted, or pasted into EXPERIMENTS.md.

/// Renders a table: a header row and data rows, columns right-aligned
/// (first column left-aligned).
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i == 0 {
                out.push_str(&format!("{cell:<w$}"));
            } else {
                out.push_str(&format!("  {cell:>w$}"));
            }
        }
        out.push('\n');
    };
    fmt_row(header, &widths, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Formats a float with 3 decimal places.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let t = render_table(
            &["Peer".into(), "DS".into(), "SS".into()],
            &[
                vec!["SP0".into(), "10.25".into(), "1.50".into()],
                vec!["SP10".into(), "3.00".into(), "0.75".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Peer"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All rows same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table(&["a".into()], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(0.1), "0.100");
    }
}
