//! Tile assembly: the back half of window sharing (Figure 5 of the paper).
//!
//! A stream of windowed results with spec `(Δ, µ)` — partial aggregates or
//! window contents — can serve a coarser spec `(Δ', µ')` whenever
//! `Δ' mod Δ = 0`, `Δ mod µ = 0` and `µ' mod µ = 0`: each new window
//! `[w, w + Δ')`, `w` on the µ'-grid, is the merge of the non-overlapping
//! tiles `[w + jΔ, w + (j+1)Δ)`, `j = 0 … Δ'/Δ − 1`, all of which exist in
//! the reused stream (its other items are ignored, as the paper describes).
//!
//! [`TileAssembler`] is that rule, once, as [`WindowTracker`] is the rule
//! for windows over raw items; [`ReAggregateOp`] and [`ReWindowOp`] supply
//! the tile type, parsing and emission.
//!
//! Upstream emits tiles in ascending start order and skips empty ones, so a
//! tile position is known to be empty once any tile with a later start has
//! been seen.
//!
//! [`WindowTracker`]: crate::window_track::WindowTracker
//! [`ReAggregateOp`]: crate::reaggregate::ReAggregateOp
//! [`ReWindowOp`]: crate::window_contents::ReWindowOp

use std::collections::BTreeMap;

use dss_properties::WindowSpec;
use dss_xml::Decimal;

use crate::window_track::grid_floor;

/// A windowed result that composes: the tile type of a [`TileAssembler`].
pub trait Tile: Clone {
    /// An empty tile `[start, start + size)`.
    fn empty(start: Decimal, size: Decimal) -> Self;
    /// The tile's window start.
    fn start(&self) -> Decimal;
    /// Folds a later, adjacent tile into `self`, keeping `self`'s
    /// coordinates.
    fn merge(&mut self, other: &Self);
    /// `true` when nothing fell into the window.
    fn is_empty(&self) -> bool;
}

/// The buffered tiles of an assembler with the start of the oldest window
/// not yet finalized and the highest tile start seen: what
/// [`OpState::ReAgg`](crate::OpState::ReAgg) and
/// [`OpState::ReWindow`](crate::OpState::ReWindow) carry.
pub type TileState<T> = (Vec<(Decimal, T)>, Option<Decimal>, Option<Decimal>);

/// Assembles `(Δ', µ')` windows from the `(Δ, µ)` tiles of a reused stream.
#[derive(Debug)]
pub struct TileAssembler<T> {
    /// Tile size Δ.
    delta: Decimal,
    /// Produced window size Δ'.
    delta_new: Decimal,
    /// Produced window step µ'.
    mu_new: Decimal,
    /// Buffered tiles by start; only tile positions of a pending window.
    tiles: BTreeMap<Decimal, T>,
    /// Start of the oldest new window not yet finalized (on the µ'-grid).
    next_window: Option<Decimal>,
    /// Highest tile start seen (monotone).
    max_seen: Option<Decimal>,
}

impl<T: Tile> TileAssembler<T> {
    /// Creates the assembler.
    ///
    /// # Panics
    /// Panics if `new` is not shareable from `reused` — the planner must
    /// only install what `MatchAggregations` approved.
    pub fn new(reused: &WindowSpec, new: &WindowSpec) -> TileAssembler<T> {
        assert!(
            new.shareable_from(reused),
            "tile assembly requires shareable windows ({new} from {reused})",
        );
        TileAssembler {
            delta: reused.size(),
            delta_new: new.size(),
            mu_new: new.step(),
            tiles: BTreeMap::new(),
            next_window: None,
            max_seen: None,
        }
    }

    /// Takes one tile of the reused stream, handing every new window it
    /// completes to `on_window` in ascending start order. Empty windows are
    /// never handed out.
    pub fn observe(&mut self, tile: T, on_window: impl FnMut(T)) {
        let s = tile.start();
        self.max_seen = Some(self.max_seen.map_or(s, |m| m.max(s)));
        // Windows before the oldest one that can use the first tile have
        // only empty tiles; starts are clamped to the non-negative grid,
        // matching the window tracker.
        let first = self
            .next_window
            .unwrap_or_else(|| self.first_reaching(Decimal::ZERO, s));
        // Every tile position strictly below `s` is final now.
        let oldest = self.finalize_ready(first, s, on_window);
        // Keep the tile if it tiles some pending (or future) window.
        let mut w = oldest;
        while w <= s {
            if WindowSpec::is_multiple_of(s - w, self.delta) && s < w + self.delta_new {
                self.tiles.insert(s, tile);
                break;
            }
            w = w + self.mu_new;
        }
    }

    /// End of stream: all tile positions are final, so every window that
    /// can hold a buffered tile is.
    pub fn flush(&mut self, on_window: impl FnMut(T)) {
        if let (Some(w), Some(max)) = (self.next_window, self.max_seen) {
            self.finalize_ready(w, max + self.delta_new + self.delta, on_window);
        }
    }

    /// The first of the windows `from, from + µ', …` whose last tile
    /// position `w + Δ' − Δ` is at or above `s` — the oldest of them a tile
    /// starting at `s` can belong to.
    fn first_reaching(&self, from: Decimal, s: Decimal) -> Decimal {
        let ahead = s - self.delta_new + self.delta - from;
        if ahead <= Decimal::ZERO {
            return from;
        }
        let mut steps = grid_floor(ahead, self.mu_new);
        if steps < ahead {
            steps = steps + self.mu_new;
        }
        from + steps
    }

    /// Finalizes the windows from `w` on whose last tile position lies
    /// strictly below `horizon`, drops the tiles no pending window needs
    /// any more, and returns the new oldest pending window. Windows that
    /// cannot reach the earliest buffered tile are empty and are jumped
    /// over, not visited: a gap in the data costs nothing.
    fn finalize_ready(
        &mut self,
        mut w: Decimal,
        horizon: Decimal,
        mut on_window: impl FnMut(T),
    ) -> Decimal {
        let end = self.first_reaching(w, horizon);
        while w < end {
            w = match self.tiles.range(w..).next() {
                Some((&t, _)) => self.first_reaching(w, t).min(end),
                None => end,
            };
            if w < end {
                let mut merged = T::empty(w, self.delta_new);
                let mut pos = w;
                while pos < w + self.delta_new {
                    if let Some(tile) = self.tiles.get(&pos) {
                        merged.merge(tile);
                    }
                    pos = pos + self.delta;
                }
                if !merged.is_empty() {
                    on_window(merged);
                }
                w = w + self.mu_new;
            }
        }
        self.next_window = Some(end);
        self.tiles.retain(|start, _| *start >= end);
        end
    }

    /// The assembler's state for a checkpoint or a migration, `None` when
    /// it has seen nothing.
    pub fn snapshot(&self) -> Option<TileState<T>> {
        if self.tiles.is_empty() && self.next_window.is_none() && self.max_seen.is_none() {
            return None;
        }
        let tiles = self.tiles.iter().map(|(s, t)| (*s, t.clone())).collect();
        Some((tiles, self.next_window, self.max_seen))
    }

    /// Adopts a [`snapshot`](TileAssembler::snapshot) of an assembler with
    /// the same two window specs — tile retention and finalization both
    /// follow the produced spec's grid, so the caller must have checked
    /// that the specs are identical. Returns the number of tiles adopted.
    /// Must only be called on a fresh assembler.
    pub fn adopt(
        &mut self,
        tiles: &[(Decimal, T)],
        next_window: Option<Decimal>,
        max_seen: Option<Decimal>,
    ) -> u64 {
        debug_assert!(
            self.snapshot().is_none(),
            "state adopted into a non-fresh tile assembler"
        );
        self.tiles = tiles.iter().cloned().collect();
        self.next_window = next_window;
        self.max_seen = max_seen;
        tiles.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use dss_predicate::PredicateGraph;
    use dss_properties::{AggOp, AggregationSpec, ResultFilter, WindowOutputSpec, WindowSpec};
    use dss_xml::{Decimal, Node, Path};

    use crate::op::StreamOperatorExt;
    use crate::{
        AggItem, AggregateOp, OpState, ReAggregateOp, ReWindowOp, StreamOperator, WindowContentsOp,
        WindowItem,
    };

    fn window(size: i64, step: i64) -> WindowSpec {
        let (size, step) = (Decimal::from_int(size), Decimal::from_int(step));
        WindowSpec::diff("t".parse::<Path>().unwrap(), size, Some(step)).unwrap()
    }

    /// Two bursts of thirty items `gap` apart through a fine operator and
    /// the re-tiling operator on its output. Returns a transcript: a line
    /// per emitted item, and per operator the window starts its snapshot
    /// before the flush holds (buffered starts, then the two marks). Every
    /// start past the first burst is written relative to `gap`.
    fn bursts(
        mut fine: impl StreamOperator,
        mut coarse: impl StreamOperator,
        gap: i64,
    ) -> Vec<String> {
        let relative = |s: Decimal| {
            if s > Decimal::from_int(500) {
                s - Decimal::from_int(gap)
            } else {
                s
            }
        };
        let emitted = |who: &str, n: &Node| match AggItem::from_node(n) {
            Ok(agg) => format!("{who} {} {} {:?}", relative(agg.start), agg.count, agg.sum),
            Err(_) => {
                let w = WindowItem::from_node(n).unwrap();
                let vs = w.items.iter().map(|i| i.child("v").unwrap().text());
                format!("{who} {} {:?}", relative(w.start), vs.collect::<Vec<_>>())
            }
        };
        let marks = |who: &str, state: Option<OpState>| {
            let (starts, a, b): (Vec<Decimal>, _, _) = match state.expect("open state") {
                OpState::Agg {
                    open,
                    youngest_start,
                    ..
                } => (open.iter().map(|o| o.0).collect(), youngest_start, None),
                OpState::Window {
                    open,
                    youngest_start,
                    ..
                } => (open.iter().map(|o| o.0).collect(), youngest_start, None),
                OpState::ReAgg {
                    tiles,
                    next_window,
                    max_seen,
                    ..
                } => (tiles.iter().map(|t| t.0).collect(), next_window, max_seen),
                OpState::ReWindow {
                    tiles,
                    next_window,
                    max_seen,
                    ..
                } => (tiles.iter().map(|t| t.0).collect(), next_window, max_seen),
            };
            let all = starts.into_iter().map(Some).chain([a, b]);
            let all: Vec<_> = all.map(|s| s.map(relative)).collect();
            format!("{who} state {all:?}")
        };
        let mut log = Vec::new();
        let mut downstream = |tiles: Vec<Node>, coarse: &mut dyn StreamOperator| {
            for tile in tiles {
                log.push(emitted("fine", &tile));
                let out = coarse.process_collect(&tile);
                log.extend(out.iter().map(|n| emitted("coarse", n)));
            }
        };
        for t in (0..30).chain(gap..gap + 30) {
            let leaves = vec![
                Node::leaf("t", t.to_string()),
                Node::leaf("v", (t % gap).to_string()),
            ];
            downstream(fine.process_collect(&Node::elem("i", leaves)), &mut coarse);
        }
        let states = [
            marks("fine", fine.snapshot_state()),
            marks("coarse", coarse.snapshot_state()),
        ];
        downstream(fine.flush_collect(), &mut coarse);
        log.extend(coarse.flush_collect().iter().map(|n| emitted("coarse", n)));
        log.extend(states);
        log
    }

    /// The cost of a gap in the data is independent of its width: stepping
    /// over 10¹² reference units window by window would not finish, and
    /// jumping must leave the outputs, `youngest_start`, `next_window` and
    /// the buffered tiles exactly where stepping over a gap of 1 000 —
    /// congruent modulo every size and step — leaves them, shifted.
    #[test]
    fn a_gap_of_1e12_costs_and_changes_nothing() {
        let agg = |window| AggregationSpec {
            op: AggOp::Sum,
            element: "v".parse().unwrap(),
            window,
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        };
        let contents = |window| WindowOutputSpec {
            window,
            pre_selection: PredicateGraph::new(),
        };
        for (size, step, size_new, step_new) in [(20, 10, 60, 40), (10, 10, 40, 40), (5, 20, 5, 40)]
        {
            let (fine, coarse) = (window(size, step), window(size_new, step_new));
            let aggregates = |gap| {
                bursts(
                    AggregateOp::new(agg(fine.clone())),
                    ReAggregateOp::new(agg(fine.clone()), agg(coarse.clone())),
                    gap,
                )
            };
            let windows = |gap| {
                bursts(
                    WindowContentsOp::new(contents(fine.clone())),
                    ReWindowOp::new(contents(fine.clone()), contents(coarse.clone())),
                    gap,
                )
            };
            let near = (aggregates(1_000), windows(1_000));
            for log in [&near.0, &near.1] {
                let coarse = log.iter().filter(|l| l.starts_with("coarse")).count();
                assert!(coarse >= 3, "output on both sides of the gap: {log:?}");
            }
            assert_eq!(
                (aggregates(1_000_000_000_000), windows(1_000_000_000_000)),
                near
            );
        }
    }
}
