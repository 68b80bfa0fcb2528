//! The benchmark's own in-memory tracer.
//!
//! One span (name, start, end, parent, workload) per layer boundary in the
//! bench's code — spans inside the product are a later change. Spans stay
//! in memory until the run ends and are then written to
//! `bench/out/trace-<workload>.json`. A layer's *self time* is its span's
//! duration minus the part of that interval its children cover. End-to-end
//! numbers never come from a traced run; a disabled tracer records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-span-name totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    workload: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches recording on or off between units of work (a traced run
    /// alternates, so it can report what tracing costs).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        r
    }

    /// Records a span whose boundaries were observed as timestamps (the
    /// phases of a replay run are cut by events arriving from the fleet),
    /// as a child of the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Adds `n` to the counter `name` (work counted where it happens).
    pub fn count(&mut self, name: &str, n: u64) {
        if self.enabled {
            *self.counts.entry(name.to_string()).or_insert(0) += n;
        }
    }

    /// Self time of span `id`: duration minus the union of its children's
    /// intervals clipped to it (siblings may overlap or touch).
    fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end_ns - s.start_ns).saturating_sub(covered)
    }

    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += self.self_ns(id);
        }
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        use dss_bench::json::escape;
        let mut out = format!(
            "{{\"workload\":\"{}\",\"unit\":\"ns\",\"spans\":[",
            escape(&self.workload)
        );
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"start\":{},\"end\":{}}}",
                escape(&s.name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push_str("],\"totals\":{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                escape(name),
                t.count,
                t.total_ns,
                t.self_ns
            ));
        }
        out.push_str("},\"counts\":{");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{n}", escape(name)));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer with hand-placed spans: `(name, parent, start, end)`.
    fn fixed(spans: &[(&str, Option<usize>, u64, u64)]) -> Tracer {
        let mut t = Tracer::new("test", true);
        t.spans = spans
            .iter()
            .map(|&(name, parent, start_ns, end_ns)| Span {
                name: name.to_string(),
                parent,
                start_ns,
                end_ns,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let t = fixed(&[
            ("session", None, 0, 100),
            ("spawn", Some(0), 0, 10),
            ("run", Some(0), 20, 90),
            ("stream", Some(2), 30, 80),
            // Overlaps `stream`; reaches past its parent and is clipped.
            ("rundone_lag", Some(2), 70, 95),
        ]);
        let totals = t.totals();
        assert_eq!(totals["session"].self_ns, 100 - 10 - 70);
        assert_eq!(totals["spawn"].self_ns, 10);
        // Children cover 30..90 of 20..90 once, not 50 + 20.
        assert_eq!(totals["run"].self_ns, 10);
        assert_eq!(totals["stream"].self_ns, 50);
        assert_eq!(totals["rundone_lag"].total_ns, 25);
    }

    #[test]
    fn same_name_spans_accumulate() {
        let t = fixed(&[
            ("session", None, 0, 100),
            ("subscribe", Some(0), 0, 10),
            ("subscribe", Some(0), 10, 30),
        ]);
        let totals = t.totals();
        assert_eq!(
            totals["subscribe"],
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(totals["session"].self_ns, 70);
    }

    #[test]
    fn live_spans_nest_and_disabled_tracers_record_nothing() {
        let mut t = Tracer::new("w", true);
        let t0 = Instant::now();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
            t.record("observed", t0, Instant::now());
            t.count("items", 3);
        });
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert!(t.totals()["outer"].total_ns >= t.totals()["inner"].total_ns);
        let doc = dss_telemetry::json::parse(&t.to_json()).expect("trace is valid JSON");
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            doc.get("counts").unwrap().get("items").unwrap().as_f64(),
            Some(3.0)
        );

        let mut off = Tracer::new("w", false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
        off.count("items", 3);
        assert_eq!(off.span_count(), 0);
    }
}
