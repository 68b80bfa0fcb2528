//! Operator state migration: carrying open window state across a chain
//! rebuild instead of dropping it.
//!
//! Widening and re-subscription replace a flow's operator chain in its
//! [`OpDag`](crate::OpDag). The default rebuild drops every stateful
//! operator below the first changed operator and replays nothing — windows
//! open at the switch point are lost, and recovering them by replay costs
//! O(window extent) items. Stream sharing makes this expensive exactly when
//! it matters: the shared chains are the windowed ones.
//!
//! This module provides the delta path. A stateful operator being pruned
//! exports its open state as an [`OpState`] snapshot; a freshly built
//! operator on the replacement path *imports* it when — and only when — the
//! adoption is **exact**: the imported accumulators are bit-identical to
//! what the new operator would hold had it consumed the whole stream
//! itself. Exactness is decided per operator (see
//! [`StreamOperator::import_state`](crate::StreamOperator::import_state)
//! implementations); anything not provably exact is rejected, and the
//! caller falls back to the plain rebuild for that operator. Moving an open
//! window costs O(open state) — the delta — never O(window extent).
//!
//! The exact cases mirror the paper's window-compatibility lattice
//! (`Δ' mod Δ = 0`, `Δ mod µ = 0`, `µ' mod µ = 0`):
//!
//! * **Identical spec** — the rebuilt chain re-instantiates the same
//!   windowed operator (the widening case: a selection/projection patch was
//!   prepended upstream, restoring byte-identical input). The whole
//!   snapshot is adopted.
//! * **Step coarsening** — same window kind, reference, and size Δ, with
//!   the new step µ' a multiple of the old µ. The coarser grid is a subset
//!   of the finer one and window extents are unchanged, so the new
//!   operator's open set is exactly the old open set filtered to the
//!   µ'-grid.
//! * Anything else — in particular size (Δ) coarsening — is rejected:
//!   tiles of a coarser window that closed before the switch are already
//!   emitted and gone, so the delta-merge cannot be exact from open state.

use dss_properties::{AggregationSpec, WindowOutputSpec, WindowSpec};
use dss_xml::{Decimal, Node};

use crate::agg_item::AggItem;
use crate::window_contents::WindowItem;

/// Snapshot of one stateful operator's open window state, as captured by
/// [`StreamOperator::snapshot_state`](crate::StreamOperator::snapshot_state).
#[derive(Debug, Clone, PartialEq)]
pub enum OpState {
    /// Open state of an aggregation operator Φ.
    Agg {
        /// The exporting operator's spec (window drives adoption checks).
        spec: AggregationSpec,
        /// Open windows `(start, accumulator)`, ascending by start.
        open: Vec<(Decimal, AggItem)>,
        /// Start of the youngest window opened so far.
        youngest_start: Option<Decimal>,
        /// Arrival index for `count` windows.
        items_seen: u64,
    },
    /// Open state of a window-contents operator ω.
    Window {
        /// The exporting operator's spec.
        spec: WindowOutputSpec,
        /// Open windows `(start, contents)`, ascending by start.
        open: Vec<(Decimal, Vec<Node>)>,
        /// Start of the youngest window opened so far.
        youngest_start: Option<Decimal>,
        /// Arrival index for `count` windows.
        items_seen: u64,
    },
    /// Buffered tiles of a re-aggregation operator Φ↺.
    ReAgg {
        /// Spec of the reused (incoming) partial stream.
        reused: AggregationSpec,
        /// Spec the exporting operator produced.
        new: AggregationSpec,
        /// Buffered tiles by start, ascending.
        tiles: Vec<(Decimal, AggItem)>,
        /// Start of the oldest window not yet finalized.
        next_window: Option<Decimal>,
        /// Highest tile start seen.
        max_seen: Option<Decimal>,
    },
    /// Buffered tiles of a re-windowing operator ω↺.
    ReWindow {
        /// Spec of the reused (incoming) window stream.
        reused: WindowOutputSpec,
        /// Spec the exporting operator produced.
        new: WindowOutputSpec,
        /// Buffered tiles by start, ascending.
        tiles: Vec<(Decimal, WindowItem)>,
        /// Start of the oldest window not yet finalized.
        next_window: Option<Decimal>,
        /// Highest tile start seen.
        max_seen: Option<Decimal>,
    },
}

impl OpState {
    /// Number of state items (open windows / buffered tiles) the snapshot
    /// carries — the O(delta) quantity a migration moves.
    pub fn items(&self) -> u64 {
        match self {
            OpState::Agg { open, .. } => open.len() as u64,
            OpState::Window { open, .. } => open.len() as u64,
            OpState::ReAgg { tiles, .. } => tiles.len() as u64,
            OpState::ReWindow { tiles, .. } => tiles.len() as u64,
        }
    }
}

/// Outcome counters of one migrating re-registration
/// ([`OpDag::reregister_migrating_batch`](crate::OpDag::reregister_migrating_batch)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Stateful operators pruned from the old path that exported state.
    pub ops_exported: u64,
    /// Exported snapshots adopted by an operator on the new path.
    pub ops_migrated: u64,
    /// Exported snapshots no new operator could adopt exactly — their
    /// state was dropped, as in a plain rebuild.
    pub ops_dropped: u64,
    /// Open windows / tiles carried across, summed over adopted snapshots.
    pub items_moved: u64,
}

impl MigrationReport {
    /// Folds another report's counters into this one.
    pub fn absorb(&mut self, other: &MigrationReport) {
        self.ops_exported += other.ops_exported;
        self.ops_migrated += other.ops_migrated;
        self.ops_dropped += other.ops_dropped;
        self.items_moved += other.items_moved;
    }
}

/// `true` when open windows tracked under `from` can be adopted verbatim-
/// or-filtered by a tracker with window spec `to`: identical specs, or a
/// pure step coarsening (same kind/reference/size, `µ' mod µ = 0`).
pub fn step_compatible(to: &WindowSpec, from: &WindowSpec) -> bool {
    to.kind() == from.kind()
        && to.reference() == from.reference()
        && to.size() == from.size()
        && WindowSpec::is_multiple_of(to.step(), from.step())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_xml::Path;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn diff(size: &str, step: Option<&str>) -> WindowSpec {
        WindowSpec::diff("t".parse::<Path>().unwrap(), d(size), step.map(d)).unwrap()
    }

    #[test]
    fn step_compatibility_lattice() {
        // Identical specs are compatible.
        assert!(step_compatible(
            &diff("20", Some("10")),
            &diff("20", Some("10"))
        ));
        // Step coarsening µ → kµ with equal Δ is compatible…
        assert!(step_compatible(
            &diff("20", Some("20")),
            &diff("20", Some("10"))
        ));
        // …but step refinement is not (finer grid has windows the old
        // tracker never opened).
        assert!(!step_compatible(
            &diff("20", Some("10")),
            &diff("20", Some("20"))
        ));
        // Size coarsening is never adoptable from open state.
        assert!(!step_compatible(
            &diff("40", Some("10")),
            &diff("20", Some("10"))
        ));
        // Off-lattice steps are rejected.
        assert!(!step_compatible(
            &diff("20", Some("15")),
            &diff("20", Some("10"))
        ));
        // Kind/reference mismatches are rejected.
        assert!(!step_compatible(
            &WindowSpec::count(d("20"), Some(d("10"))).unwrap(),
            &diff("20", Some("10"))
        ));
    }

    #[test]
    fn op_state_items_counts_open_state() {
        let spec = AggregationSpec {
            op: dss_properties::AggOp::Sum,
            element: "en".parse::<Path>().unwrap(),
            window: diff("20", Some("10")),
            pre_selection: dss_predicate::PredicateGraph::new(),
            result_filter: dss_properties::ResultFilter::none(),
        };
        let st = OpState::Agg {
            spec,
            open: vec![
                (d("0"), AggItem::empty(d("0"), d("20"))),
                (d("10"), AggItem::empty(d("10"), d("20"))),
            ],
            youngest_start: Some(d("10")),
            items_seen: 7,
        };
        assert_eq!(st.items(), 2);
    }
}
