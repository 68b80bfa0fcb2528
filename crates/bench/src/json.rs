//! Minimal JSON emission for experiment results.
//!
//! The experiment binaries can dump their series as JSON for external
//! plotting. The structures are small and flat; strings and numbers go
//! through `dss_telemetry::json`, the workspace's one JSON emitter.

use std::fmt::Write;

use dss_telemetry::json::escape as quote;
pub use dss_telemetry::json::number;

use crate::experiments::{FigureData, RegTimes, SeriesTable};

/// [`dss_telemetry::json::escape`] without the surrounding quotes, for
/// callers that write the quotes themselves (the `bench/` harness).
pub fn escape(s: &str) -> String {
    let quoted = quote(s);
    quoted[1..quoted.len() - 1].to_string()
}

impl SeriesTable {
    /// JSON object: `{"title": …, "labels": […], "series": {strategy: […]}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"title\":{},\"labels\":[", quote(&self.title));
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&quote(l));
        }
        out.push_str("],\"series\":{");
        for (i, (strategy, col)) in dss_core::Strategy::ALL
            .iter()
            .zip(&self.columns)
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:[", quote(&strategy.to_string()));
            for (j, v) in col.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&number(*v));
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

impl FigureData {
    /// JSON object with both series tables.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cpu\":{},\"traffic\":{}}}",
            self.cpu.to_json(),
            self.traffic.to_json()
        )
    }
}

/// JSON for Table 1 (registration times in microseconds).
pub fn table1_json(data: &[[RegTimes; 2]; 3]) -> String {
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let mut out = String::from("{");
    for (i, (strategy, row)) in dss_core::Strategy::ALL.iter().zip(data).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:[{{\"avg_us\":{},\"min_us\":{},\"max_us\":{}}},\
             {{\"avg_us\":{},\"min_us\":{},\"max_us\":{}}}]",
            quote(&strategy.to_string()),
            number(us(row[0].average)),
            number(us(row[0].minimum)),
            number(us(row[0].maximum)),
            number(us(row[1].average)),
            number(us(row[1].minimum)),
            number(us(row[1].maximum)),
        );
    }
    out.push('}');
    out
}

/// JSON for the rejection experiment.
pub fn rejections_json(rej: &[(usize, usize); 3]) -> String {
    let mut out = String::from("{");
    for (i, (strategy, (acc, r))) in dss_core::Strategy::ALL.iter().zip(rej).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"accepted\":{acc},\"rejected\":{r}}}",
            quote(&strategy.to_string())
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SeriesTable;

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak"), "line\\nbreak");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn series_table_json_shape() {
        let t = SeriesTable {
            title: "test \"quoted\"".into(),
            labels: vec!["SP0".into(), "SP1".into()],
            columns: [vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        };
        let j = t.to_json();
        assert!(j.starts_with("{\"title\":\"test \\\"quoted\\\"\""));
        assert!(j.contains("\"labels\":[\"SP0\",\"SP1\"]"));
        assert!(j.contains("\"data shipping\":[1,2]"));
        assert!(j.contains("\"stream sharing\":[5,6]"));
        assert!(j.ends_with("}}"));
        // Balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn rejections_json_shape() {
        let j = rejections_json(&[(48, 52), (63, 37), (100, 0)]);
        assert!(j.contains("\"data shipping\":{\"accepted\":48,\"rejected\":52}"));
        assert!(j.contains("\"stream sharing\":{\"accepted\":100,\"rejected\":0}"));
    }
}
