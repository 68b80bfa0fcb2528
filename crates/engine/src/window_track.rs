//! Shared window bookkeeping for the windowed operators.
//!
//! Both window aggregation ([`crate::aggregate::AggregateOp`]) and
//! window-contents output ([`crate::window_contents::WindowContentsOp`])
//! maintain the same sliding-window state: windows anchored on the
//! absolute grid `{k·µ}` (clamped to non-negative starts), opened on
//! demand when a reference value overlaps them, closed in ascending start
//! order once the (sorted) reference value passes their end. This module
//! factors that machinery; the operators only supply the per-window
//! accumulator type.

use std::collections::VecDeque;

use dss_properties::{WindowKind, WindowSpec};
use dss_xml::{Decimal, Node};

/// Largest grid multiple of `step` that is ≤ `v` (floor toward −∞).
pub fn grid_floor(v: Decimal, step: Decimal) -> Decimal {
    let scale = v.scale().max(step.scale());
    let (vu, su) = (v.units_at_scale(scale), step.units_at_scale(scale));
    debug_assert!(su > 0);
    let q = vu.div_euclid(su);
    Decimal::new(q * su, scale)
}

/// A tracker's open windows `(start, accumulator)` with the youngest opened
/// start and the arrival index: what [`OpState::Agg`](crate::OpState::Agg)
/// and [`OpState::Window`](crate::OpState::Window) carry.
pub type OpenState<T> = (Vec<(Decimal, T)>, Option<Decimal>, u64);

/// Sliding-window state over an ordered stream.
#[derive(Debug)]
pub struct WindowTracker<T> {
    window: WindowSpec,
    /// Open windows (start, accumulator), ascending by start.
    active: VecDeque<(Decimal, T)>,
    /// Start of the youngest window opened so far (grid-aligned).
    youngest_start: Option<Decimal>,
    /// Arrival index for `count` windows.
    items_seen: u64,
}

impl<T: Default> WindowTracker<T> {
    /// Creates a tracker for the given window specification.
    pub fn new(window: WindowSpec) -> WindowTracker<T> {
        WindowTracker {
            window,
            active: VecDeque::new(),
            youngest_start: None,
            items_seen: 0,
        }
    }

    /// The window specification.
    pub fn window(&self) -> &WindowSpec {
        &self.window
    }

    /// Reference value of an item: arrival index for `count` windows, the
    /// reference element's value for `diff` windows. `None` when a `diff`
    /// item has no readable reference value.
    fn reference_value(&self, item: &Node) -> Option<Decimal> {
        match self.window.kind() {
            WindowKind::Count => Some(Decimal::from_int(self.items_seen as i64)),
            WindowKind::Diff => {
                let r = self
                    .window
                    .reference()
                    .expect("diff windows carry a reference");
                r.decimal(item)
            }
        }
    }

    /// Observes one item: closes every window whose range ended before the
    /// item's reference value (handing each to `on_closed` in ascending
    /// start order), opens the grid windows newly overlapping it, and folds
    /// the item into every open window containing it via
    /// `fold(accumulator, window_start)`.
    ///
    /// Closed windows are delivered through the callback instead of a
    /// returned `Vec`, so the common no-window-closed case allocates
    /// nothing. Items without a reference value, or with a negative one
    /// (out-of-domain), are skipped and close nothing.
    pub fn observe(
        &mut self,
        item: &Node,
        mut fold: impl FnMut(&mut T, Decimal),
        on_closed: impl FnMut(Decimal, T),
    ) {
        let Some(v) = self.reference_value(item) else {
            return;
        };
        if v < Decimal::ZERO {
            return;
        }
        self.items_seen += 1;
        self.close_before(v, on_closed);
        self.open_overlapping(v);
        let size = self.window.size();
        for (start, acc) in &mut self.active {
            if *start <= v && v < *start + size {
                fold(acc, *start);
            }
        }
    }

    /// Drains all still-open windows at end-of-stream, in ascending start
    /// order.
    pub fn flush(&mut self, mut on_closed: impl FnMut(Decimal, T)) {
        for (start, acc) in self.active.drain(..) {
            on_closed(start, acc);
        }
    }

    /// The tracker's open state for a checkpoint or a migration: open
    /// windows in ascending start order, the youngest opened start, and the
    /// arrival index. `None` when the tracker has seen nothing.
    pub fn snapshot_open(&self) -> Option<OpenState<T>>
    where
        T: Clone,
    {
        if self.active.is_empty() && self.youngest_start.is_none() && self.items_seen == 0 {
            return None;
        }
        let open = self.active.iter().cloned().collect();
        Some((open, self.youngest_start, self.items_seen))
    }

    /// Adopts open state exported from a tracker with window spec `from`,
    /// when the adoption is exact: identical specs, or a step coarsening
    /// (same kind/reference/size Δ, new step µ' a multiple of the old µ).
    /// Under a step coarsening the coarser grid is a subset of the finer
    /// one and window extents are unchanged, so filtering the open set to
    /// the µ'-grid yields exactly the windows a continuously running
    /// tracker with `self`'s spec would hold open.
    ///
    /// Returns the number of windows adopted, or `None` (leaving the
    /// tracker untouched) when the specs are not exactly adoptable. Must
    /// only be called on a fresh tracker.
    ///
    /// # Panics
    /// Debug-asserts that every imported window start lies on the
    /// *exporter's* µ-grid — a snapshot carrying off-grid starts means the
    /// lattice step was wrong, and silently mis-tiled windows downstream.
    pub fn adopt_open(
        &mut self,
        from: &WindowSpec,
        open: Vec<(Decimal, T)>,
        youngest_start: Option<Decimal>,
        items_seen: u64,
    ) -> Option<u64> {
        if !crate::migrate::step_compatible(&self.window, from) {
            return None;
        }
        debug_assert!(
            self.active.is_empty() && self.youngest_start.is_none() && self.items_seen == 0,
            "state adopted into a non-fresh tracker"
        );
        debug_assert!(
            open.iter()
                .all(|(start, _)| WindowSpec::is_multiple_of(*start, from.step())),
            "migrated window start off the exporter's µ-grid: bad lattice step"
        );
        let step = self.window.step();
        let mut adopted = 0u64;
        for (start, acc) in open {
            if WindowSpec::is_multiple_of(start, step) {
                self.active.push_back((start, acc));
                adopted += 1;
            }
        }
        debug_assert!(
            self.active
                .iter()
                .zip(self.active.iter().skip(1))
                .all(|(a, b)| a.0 < b.0),
            "migrated windows out of ascending start order"
        );
        // The youngest start a continuous tracker on the coarser grid would
        // have recorded is the grid floor of the finer tracker's.
        self.youngest_start = youngest_start.map(|y| grid_floor(y, step));
        self.items_seen = items_seen;
        Some(adopted)
    }

    /// Closes (removes and hands to `on_closed`) every open window with
    /// `end ≤ v`.
    fn close_before(&mut self, v: Decimal, mut on_closed: impl FnMut(Decimal, T)) {
        let size = self.window.size();
        while let Some((start, _)) = self.active.front() {
            if *start + size <= v {
                let (start, acc) = self.active.pop_front().expect("front exists");
                on_closed(start, acc);
            } else {
                break;
            }
        }
    }

    /// Opens every grid window overlapping reference value `v` that is not
    /// open yet: starts in `(v − Δ, v]` on the non-negative µ-grid. Grid
    /// starts a gap in the data skipped are jumped over, not visited.
    fn open_overlapping(&mut self, v: Decimal) {
        let size = self.window.size();
        let step = self.window.step();
        let mut start = self.youngest_start.map_or(Decimal::ZERO, |y| y + step);
        if v < start {
            return; // most items: still before the next grid start
        }
        let highest = grid_floor(v, step);
        // Behind a gap, jump to the first grid start above `v − Δ`. A step
        // may exceed the size, and then no start is: the youngest start
        // still advances.
        if start + size <= v {
            start = (grid_floor(v - size, step) + step).min(highest);
        }
        while start <= highest {
            if v < start + size {
                self.active.push_back((start, T::default()));
            }
            self.youngest_start = Some(start);
            start = start + step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_xml::Path;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn diff_window(size: &str, step: Option<&str>) -> WindowSpec {
        WindowSpec::diff("t".parse::<Path>().unwrap(), d(size), step.map(d)).unwrap()
    }

    fn item(t: &str) -> Node {
        Node::elem("i", vec![Node::leaf("t", t)])
    }

    #[test]
    fn counts_items_per_window() {
        let mut tr: WindowTracker<u32> = WindowTracker::new(diff_window("20", Some("10")));
        let mut closed = Vec::new();
        for t in ["5", "15", "25", "35"] {
            tr.observe(&item(t), |acc, _| *acc += 1, |s, c| closed.push((s, c)));
        }
        tr.flush(|s, c| closed.push((s, c)));
        let view: Vec<(String, u32)> = closed.iter().map(|(s, c)| (s.to_string(), *c)).collect();
        assert_eq!(
            view,
            vec![
                ("0".into(), 2),
                ("10".into(), 2),
                ("20".into(), 2),
                ("30".into(), 1)
            ]
        );
    }

    #[test]
    fn fold_sees_window_start() {
        let mut tr: WindowTracker<Vec<String>> = WindowTracker::new(diff_window("20", Some("10")));
        tr.observe(
            &item("15"),
            |acc, start| acc.push(start.to_string()),
            |_, _| {},
        );
        let mut open: Vec<Vec<String>> = Vec::new();
        tr.flush(|_, v| open.push(v));
        assert_eq!(open, vec![vec!["0".to_string()], vec!["10".to_string()]]);
    }

    #[test]
    fn skips_unreadable_and_negative_references() {
        let mut tr: WindowTracker<u32> = WindowTracker::new(diff_window("10", None));
        let mut closed = Vec::new();
        tr.observe(
            &Node::empty("i"),
            |a, _| *a += 1,
            |s, c| closed.push((s, c)),
        );
        tr.observe(&item("-5"), |a, _| *a += 1, |s, c| closed.push((s, c)));
        assert!(closed.is_empty());
        tr.observe(&item("1"), |a, _| *a += 1, |s, c| closed.push((s, c)));
        tr.flush(|s, c| closed.push((s, c)));
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].1, 1);
    }

    #[test]
    fn count_windows_use_arrival_index() {
        let spec = WindowSpec::count(d("3"), None).unwrap();
        let mut tr: WindowTracker<u32> = WindowTracker::new(spec);
        let mut closed = Vec::new();
        for _ in 0..7 {
            tr.observe(
                &Node::empty("i"),
                |a, _| *a += 1,
                |s, c| closed.push((s, c)),
            );
        }
        tr.flush(|s, c| closed.push((s, c)));
        let counts: Vec<u32> = closed.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![3, 3, 1]);
    }
}
