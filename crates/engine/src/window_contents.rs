//! Window-contents output: queries returning the raw contents of data
//! windows (`for $w in … |window| return <wnd> { $w } </wnd>`).
//!
//! This is the cost model's third result class ("For queries returning the
//! contents of data windows, the average size of a data window needs to be
//! determined"). Window contents compose exactly like distributive
//! aggregates: a coarse window's contents are the concatenation of its
//! non-overlapping tiles, so a [`ReWindowOp`] assembles coarser windows
//! from a shared finer-windowed stream with the same
//! [`TileAssembler`](crate::retile) as re-aggregation.

use dss_properties::WindowOutputSpec;
use dss_xml::{Decimal, Node, XmlError};

use crate::migrate::OpState;
use crate::op::{Emit, StreamOperator};
use crate::retile::{Tile, TileAssembler};
use crate::window_track::WindowTracker;

/// One window's contents, as shipped between peers:
///
/// ```xml
/// <window>
///   <start>40</start><size>60</size>
///   <items> …stream items… </items>
/// </window>
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowItem {
    /// Window start (reference value / arrival index).
    pub start: Decimal,
    /// Window size Δ.
    pub size: Decimal,
    /// The contained stream items, in arrival order.
    pub items: Vec<Node>,
}

impl WindowItem {
    /// An empty window `[start, start + size)`.
    pub fn empty(start: Decimal, size: Decimal) -> WindowItem {
        WindowItem {
            start,
            size,
            items: Vec::new(),
        }
    }

    /// Appends an adjacent tile's contents (ascending-order composition).
    /// The tile stays buffered for the other windows it still tiles, so
    /// its items are shared (a pointer copy each), not moved.
    pub fn merge(&mut self, other: &WindowItem) {
        self.items.extend(other.items.iter().cloned());
    }

    /// Serializes the window as a stream item.
    pub fn to_node(&self) -> Node {
        WindowItem::node(self.start, self.size, self.items.iter().cloned())
    }

    /// Serializes the window, consuming it — the contained items move into
    /// the produced node instead of being cloned.
    pub fn into_node(self) -> Node {
        WindowItem::node(self.start, self.size, self.items)
    }

    fn node<I>(start: Decimal, size: Decimal, items: I) -> Node
    where
        I: IntoIterator<Item = Node>,
        I::IntoIter: ExactSizeIterator,
    {
        Node::new(
            "window",
            None,
            [
                Node::decimal_leaf("start", start),
                Node::decimal_leaf("size", size),
                Node::new("items", None, items),
            ],
        )
    }

    /// Parses a window item back.
    pub fn from_node(node: &Node) -> Result<WindowItem, XmlError> {
        let field = |name: &str| -> Result<Decimal, XmlError> {
            node.child(name)
                .ok_or_else(|| XmlError::ValueParse {
                    value: format!("<window> missing <{name}>"),
                    wanted: "window item",
                })?
                .decimal_value()
        };
        let items = node
            .child("items")
            .ok_or_else(|| XmlError::ValueParse {
                value: "<window> missing <items>".into(),
                wanted: "window item",
            })?
            .children()
            .to_vec();
        Ok(WindowItem {
            start: field("start")?,
            size: field("size")?,
            items,
        })
    }

    /// `true` if `node` looks like a window item.
    pub fn is_window_node(node: &Node) -> bool {
        node.name() == "window" && node.child("start").is_some() && node.child("items").is_some()
    }
}

/// Produces window-contents items from raw stream items.
#[derive(Debug)]
pub struct WindowContentsOp {
    spec: WindowOutputSpec,
    tracker: WindowTracker<Vec<Node>>,
}

impl WindowContentsOp {
    /// Creates the operator. Like aggregation, the spec's `pre_selection`
    /// runs as a separate upstream selection operator.
    pub fn new(spec: WindowOutputSpec) -> WindowContentsOp {
        let tracker = WindowTracker::new(spec.window.clone());
        WindowContentsOp { spec, tracker }
    }

    /// The window-output spec.
    pub fn spec(&self) -> &WindowOutputSpec {
        &self.spec
    }
}

/// Finalizes a closed window. A free function so the tracker callbacks can
/// borrow `spec` while the tracker is borrowed mutably.
fn emit_contents(spec: &WindowOutputSpec, start: Decimal, items: Vec<Node>, out: &mut Emit) {
    if items.is_empty() {
        return; // empty windows are never emitted (as with aggregates)
    }
    out.push(
        WindowItem {
            start,
            size: spec.window.size(),
            items,
        }
        .into_node(),
    );
}

impl StreamOperator for WindowContentsOp {
    fn name(&self) -> &'static str {
        "ω"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        let WindowContentsOp { spec, tracker } = self;
        tracker.observe(
            item,
            // Every covered window holds a pointer to the one item.
            |acc, _| acc.push(item.clone()),
            |start, items| emit_contents(spec, start, items, out),
        );
    }

    fn flush_into(&mut self, out: &mut Emit) {
        let WindowContentsOp { spec, tracker } = self;
        tracker.flush(|start, items| emit_contents(spec, start, items, out));
    }

    fn base_load(&self) -> f64 {
        1.5
    }

    fn snapshot_state(&self) -> Option<OpState> {
        let (open, youngest_start, items_seen) = self.tracker.snapshot_open()?;
        Some(OpState::Window {
            spec: self.spec.clone(),
            open,
            youngest_start,
            items_seen,
        })
    }

    fn import_state(&mut self, state: &OpState) -> Option<u64> {
        let OpState::Window {
            spec,
            open,
            youngest_start,
            items_seen,
        } = state
        else {
            return None;
        };
        self.tracker
            .adopt_open(&spec.window, open.clone(), *youngest_start, *items_seen)
    }
}

impl Tile for WindowItem {
    fn empty(start: Decimal, size: Decimal) -> WindowItem {
        WindowItem::empty(start, size)
    }

    fn start(&self) -> Decimal {
        self.start
    }

    fn merge(&mut self, other: &WindowItem) {
        WindowItem::merge(self, other);
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Re-windowing: assembles coarser window contents from a shared
/// finer-windowed stream, mirroring [`crate::reaggregate::ReAggregateOp`]
/// over the same [`TileAssembler`].
#[derive(Debug)]
pub struct ReWindowOp {
    reused: WindowOutputSpec,
    new: WindowOutputSpec,
    assembler: TileAssembler<WindowItem>,
}

impl ReWindowOp {
    /// Creates the operator.
    ///
    /// # Panics
    /// Panics if the windows are not shareable.
    pub fn new(reused: WindowOutputSpec, new: WindowOutputSpec) -> ReWindowOp {
        let assembler = TileAssembler::new(&reused.window, &new.window);
        ReWindowOp {
            reused,
            new,
            assembler,
        }
    }
}

impl StreamOperator for ReWindowOp {
    fn name(&self) -> &'static str {
        "ω↺"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        if let Ok(tile) = WindowItem::from_node(item) {
            self.assembler
                .observe(tile, |merged| out.push(merged.into_node()));
        }
    }

    fn flush_into(&mut self, out: &mut Emit) {
        self.assembler.flush(|merged| out.push(merged.into_node()));
    }

    fn base_load(&self) -> f64 {
        0.7
    }

    fn snapshot_state(&self) -> Option<OpState> {
        let (tiles, next_window, max_seen) = self.assembler.snapshot()?;
        Some(OpState::ReWindow {
            reused: self.reused.clone(),
            new: self.new.clone(),
            tiles,
            next_window,
            max_seen,
        })
    }

    fn import_state(&mut self, state: &OpState) -> Option<u64> {
        match state {
            OpState::ReWindow {
                reused,
                new,
                tiles,
                next_window,
                max_seen,
            } if *reused == self.reused && *new == self.new => {
                Some(self.assembler.adopt(tiles, *next_window, *max_seen))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamOperatorExt;
    use dss_predicate::PredicateGraph;
    use dss_properties::WindowSpec;
    use dss_xml::Path;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn spec(size: &str, step: Option<&str>) -> WindowOutputSpec {
        WindowOutputSpec {
            window: WindowSpec::diff("t".parse::<Path>().unwrap(), d(size), step.map(d)).unwrap(),
            pre_selection: PredicateGraph::new(),
        }
    }

    fn item(t: u32, v: u32) -> Node {
        Node::elem(
            "i",
            vec![
                Node::leaf("t", t.to_string()),
                Node::leaf("v", v.to_string()),
            ],
        )
    }

    fn run_contents(spec: WindowOutputSpec, items: &[Node]) -> Vec<WindowItem> {
        let mut op = WindowContentsOp::new(spec);
        let mut out = Vec::new();
        for i in items {
            out.extend(op.process_collect(i));
        }
        out.extend(op.flush_collect());
        out.iter()
            .map(|n| WindowItem::from_node(n).unwrap())
            .collect()
    }

    #[test]
    fn window_item_round_trip() {
        let w = WindowItem {
            start: d("40"),
            size: d("60"),
            items: vec![item(41, 1), item(55, 2)],
        };
        let n = w.to_node();
        assert!(WindowItem::is_window_node(&n));
        assert_eq!(WindowItem::from_node(&n).unwrap(), w);
        assert!(WindowItem::from_node(&Node::empty("window")).is_err());
    }

    #[test]
    fn contents_windows_partition_items() {
        let items: Vec<Node> = (0..10).map(|i| item(i * 5, i)).collect();
        let windows = run_contents(spec("10", None), &items);
        // Tumbling [0,10): t ∈ {0,5}; [10,20): {10,15}; … 5 windows.
        assert_eq!(windows.len(), 5);
        assert!(windows.iter().all(|w| w.items.len() == 2));
        assert_eq!(windows[0].items, vec![item(0, 0), item(5, 1)]);
    }

    #[test]
    fn sliding_contents_overlap() {
        let items: Vec<Node> = (0..4).map(|i| item(i * 10 + 5, i)).collect();
        let windows = run_contents(spec("20", Some("10")), &items);
        // Windows [0,20), [10,30), [20,40), [30,50).
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].items.len(), 2);
        assert_eq!(windows[1].items, vec![item(15, 1), item(25, 2)]);
    }

    #[test]
    fn empty_windows_not_emitted() {
        let items = vec![item(5, 0), item(95, 1)];
        let windows = run_contents(spec("10", None), &items);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].start, d("0"));
        assert_eq!(windows[1].start, d("90"));
    }

    fn shared_vs_direct(
        fine: WindowOutputSpec,
        coarse: WindowOutputSpec,
        items: &[Node],
    ) -> (Vec<WindowItem>, Vec<WindowItem>) {
        let direct = run_contents(coarse.clone(), items);
        let mut fine_op = WindowContentsOp::new(fine.clone());
        let mut re_op = ReWindowOp::new(fine, coarse);
        let mut shared = Vec::new();
        for i in items {
            for tile in fine_op.process_collect(i) {
                shared.extend(re_op.process_collect(&tile));
            }
        }
        for tile in fine_op.flush_collect() {
            shared.extend(re_op.process_collect(&tile));
        }
        shared.extend(re_op.flush_collect());
        (
            shared
                .iter()
                .map(|n| WindowItem::from_node(n).unwrap())
                .collect(),
            direct,
        )
    }

    #[test]
    fn rewindow_equals_direct() {
        let items: Vec<Node> = (0..120).map(|i| item(i * 3 + 1, i)).collect();
        let (shared, direct) =
            shared_vs_direct(spec("20", Some("10")), spec("60", Some("40")), &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    fn rewindow_with_data_gaps() {
        let mut items: Vec<Node> = (0..20).map(|i| item(i, i)).collect();
        items.extend((0..20).map(|i| item(700 + i, i)));
        let (shared, direct) = shared_vs_direct(spec("10", None), spec("40", None), &items);
        assert!(!direct.is_empty());
        assert_eq!(shared, direct);
    }

    #[test]
    #[should_panic(expected = "shareable")]
    fn rewindow_rejects_incompatible() {
        let _ = ReWindowOp::new(spec("20", Some("15")), spec("60", None));
    }

    #[test]
    fn rewindow_ignores_non_window_items() {
        let mut op = ReWindowOp::new(spec("10", None), spec("20", None));
        assert!(op.process_collect(&item(1, 1)).is_empty());
        assert!(op.flush_collect().is_empty());
    }
}
