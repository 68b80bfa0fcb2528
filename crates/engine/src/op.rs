//! The stream-operator abstraction and operator pipelines.
//!
//! # Memory model
//!
//! Operators are *sink-based*: instead of returning a freshly allocated
//! `Vec<Node>` per input item, [`StreamOperator::process_into`] appends its
//! outputs to a caller-owned [`Emit`] buffer. The caller decides the
//! buffer's lifetime and reuses it across items, so a steady-state pipeline
//! performs no per-item buffer allocation at all. [`Pipeline`] owns two
//! scratch [`Emit`] buffers and ping-pongs stage outputs between them; the
//! last stage writes directly into the caller's sink.
//!
//! Items are immutable shared trees ([`dss_xml::Node`]): a clone is a
//! pointer copy and mutation is copy-on-write. An operator takes `&Node`
//! and pushes `Node`s, and what it pushes may *be* what it took — σ hands
//! on the item it was given, Π's kept subtrees, ρ's `{ $p/π }` copies and
//! ω's window buffers point into it — so one item fanned out to many sinks
//! is stored once. Only what an operator computes (an aggregate value, a
//! pruned spine, a constructed element) is allocated.

use std::fmt;

use dss_xml::Node;

use crate::migrate::OpState;

/// A caller-owned output sink for stream operators.
///
/// A thin wrapper around a `Vec<Node>` that only exposes appending from the
/// operator side; clearing and draining belong to whoever owns the buffer.
/// Operators must only ever *append* — the items already in the sink belong
/// to earlier calls.
#[derive(Debug, Default)]
pub struct Emit {
    items: Vec<Node>,
}

impl Emit {
    /// An empty sink.
    pub fn new() -> Emit {
        Emit::default()
    }

    /// An empty sink with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Emit {
        Emit {
            items: Vec::with_capacity(n),
        }
    }

    /// Appends one output item.
    pub fn push(&mut self, item: Node) {
        self.items.push(item);
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drops all buffered items, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.items.clear();
    }

    /// The buffered items.
    pub fn as_slice(&self) -> &[Node] {
        &self.items
    }

    /// Removes and returns all buffered items, keeping the allocation.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Node> {
        self.items.drain(..)
    }

    /// Consumes the sink, returning the buffered items.
    pub fn into_vec(self) -> Vec<Node> {
        self.items
    }

    /// Takes the buffered items out, leaving the sink empty (the backing
    /// allocation moves out with the items).
    pub fn take(&mut self) -> Vec<Node> {
        std::mem::take(&mut self.items)
    }
}

impl std::ops::Deref for Emit {
    type Target = [Node];

    fn deref(&self) -> &[Node] {
        &self.items
    }
}

impl<'a> IntoIterator for &'a Emit {
    type Item = &'a Node;
    type IntoIter = std::slice::Iter<'a, Node>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl From<Emit> for Vec<Node> {
    fn from(e: Emit) -> Vec<Node> {
        e.items
    }
}

/// A continuous-query operator over a stream of XML items.
///
/// Operators are push-based: [`process_into`](StreamOperator::process_into)
/// consumes one input item and appends zero or more output items to the
/// caller's sink (zero for filtered items and open windows, several when a
/// window step emits multiple results).
/// [`flush_into`](StreamOperator::flush_into) drains buffered state at
/// end-of-stream into the same kind of sink.
pub trait StreamOperator: fmt::Debug {
    /// Short operator name for metrics and logs (e.g. `σ`, `Π`, `Φ`).
    fn name(&self) -> &'static str;

    /// Processes one input item, appending outputs to `out`.
    fn process_into(&mut self, item: &Node, out: &mut Emit);

    /// Drains any buffered state at end-of-stream into `out`.
    fn flush_into(&mut self, _out: &mut Emit) {}

    /// Relative base computational load `bload(o)` of this operator per
    /// input item, used by the cost model (Section 3.2). Unit: the load of
    /// a plain selection.
    fn base_load(&self) -> f64;

    /// Clones the operator's open window state — for a durability
    /// checkpoint, or for migration across a chain rebuild — leaving the
    /// operator untouched. Restored via
    /// [`import_state`](StreamOperator::import_state) it is bit-identical
    /// to the state at capture time. `None` (the default) for stateless
    /// operators and operators with nothing buffered.
    fn snapshot_state(&self) -> Option<OpState> {
        None
    }

    /// Adopts a snapshot of another operator's state, when doing so is
    /// *exact*: afterwards the operator's state must be bit-identical to
    /// what it would hold had it consumed the whole stream itself (see
    /// [`crate::migrate`]). Returns the number of state items adopted, or
    /// `None` — leaving the operator untouched — when the snapshot is not
    /// exactly adoptable. Must only be called before the operator has
    /// processed any input.
    fn import_state(&mut self, _state: &OpState) -> Option<u64> {
        None
    }
}

/// Vec-returning conveniences over the sink API, for tests and one-shot
/// callers that do not care about buffer reuse.
pub trait StreamOperatorExt: StreamOperator {
    /// [`process_into`](StreamOperator::process_into) collected into a fresh
    /// `Vec` (allocates — not for hot paths).
    fn process_collect(&mut self, item: &Node) -> Vec<Node> {
        let mut out = Emit::new();
        self.process_into(item, &mut out);
        out.into_vec()
    }

    /// [`flush_into`](StreamOperator::flush_into) collected into a fresh
    /// `Vec` (allocates — not for hot paths).
    fn flush_collect(&mut self) -> Vec<Node> {
        let mut out = Emit::new();
        self.flush_into(&mut out);
        out.into_vec()
    }
}

impl<T: StreamOperator + ?Sized> StreamOperatorExt for T {}

/// Per-operator execution statistics gathered by a [`Pipeline`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    /// Operator name.
    pub name: &'static str,
    /// Items fed into the operator.
    pub items_in: u64,
    /// Items the operator emitted.
    pub items_out: u64,
    /// Accumulated work: `items_in × base_load`.
    pub work: f64,
}

impl OpStats {
    /// Folds another operator's counters into this one, keeping `self`'s
    /// name. Used to aggregate the counters of pruned DAG nodes, whose
    /// per-node identity is gone but whose executed work still happened.
    pub fn absorb(&mut self, other: &OpStats) {
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.work += other.work;
    }
}

/// A chain of operators applied in order.
///
/// The pipeline owns two scratch [`Emit`] buffers that stage outputs
/// ping-pong between, so a steady-state
/// [`process_into`](Pipeline::process_into) call allocates nothing beyond
/// the [`Node`]s the operators themselves emit. Both buffers are empty
/// between calls (capacity retained).
#[derive(Debug, Default)]
pub struct Pipeline {
    ops: Vec<Box<dyn StreamOperator>>,
    stats: Vec<OpStats>,
    /// Scratch buffer holding the current stage's *input* items.
    scratch_in: Emit,
    /// Scratch buffer collecting the current stage's *output* items.
    scratch_out: Emit,
}

impl Pipeline {
    /// The empty pipeline (identity).
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Appends an operator.
    pub fn push(&mut self, op: Box<dyn StreamOperator>) {
        self.stats.push(OpStats {
            name: op.name(),
            ..OpStats::default()
        });
        self.ops.push(op);
    }

    /// Builder-style [`push`](Pipeline::push).
    pub fn with(mut self, op: Box<dyn StreamOperator>) -> Pipeline {
        self.push(op);
        self
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the pipeline is the identity.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Pushes one item through the chain, appending the emitted items to
    /// `out`. Stages short-circuit: as soon as one stage emits nothing, the
    /// remaining operators are not consulted at all.
    pub fn process_into(&mut self, item: &Node, out: &mut Emit) {
        let Pipeline {
            ops,
            stats,
            scratch_in,
            scratch_out,
        } = self;
        let Some(last) = ops.len().checked_sub(1) else {
            out.push(item.clone());
            return;
        };
        debug_assert!(scratch_in.is_empty() && scratch_out.is_empty());
        for (i, (op, st)) in ops.iter_mut().zip(stats.iter_mut()).enumerate() {
            // The last stage writes straight into the caller's sink; inner
            // stages collect into the scratch buffer.
            let target: &mut Emit = if i == last {
                &mut *out
            } else {
                &mut *scratch_out
            };
            let before = target.len();
            if i == 0 {
                // The first operator reads the caller's item by reference —
                // no up-front clone for items a leading selection drops.
                st.items_in += 1;
                st.work += op.base_load();
                op.process_into(item, target);
            } else {
                if scratch_in.is_empty() {
                    return; // short-circuit: nothing survived the prior stage
                }
                for it in scratch_in.as_slice() {
                    st.items_in += 1;
                    st.work += op.base_load();
                    op.process_into(it, target);
                }
            }
            st.items_out += (target.len() - before) as u64;
            scratch_in.clear();
            if i != last {
                std::mem::swap(scratch_in, scratch_out);
            }
        }
    }

    /// Flushes all operators in order, cascading drained items downstream
    /// and appending the final outputs to `out`.
    pub fn flush_into(&mut self, out: &mut Emit) {
        let Pipeline {
            ops,
            stats,
            scratch_in,
            scratch_out,
        } = self;
        let Some(last) = ops.len().checked_sub(1) else {
            return;
        };
        debug_assert!(scratch_in.is_empty() && scratch_out.is_empty());
        for (i, (op, st)) in ops.iter_mut().zip(stats.iter_mut()).enumerate() {
            let target: &mut Emit = if i == last {
                &mut *out
            } else {
                &mut *scratch_out
            };
            let before = target.len();
            // Items carried from upstream flushes run through operator i…
            for it in scratch_in.as_slice() {
                st.items_in += 1;
                st.work += op.base_load();
                op.process_into(it, target);
            }
            // …then operator i's own buffered state drains.
            op.flush_into(target);
            st.items_out += (target.len() - before) as u64;
            scratch_in.clear();
            if i != last {
                std::mem::swap(scratch_in, scratch_out);
            }
        }
    }

    /// [`process_into`](Pipeline::process_into) collected into a fresh
    /// `Vec` (allocates — convenience for tests and one-shot callers).
    pub fn process(&mut self, item: &Node) -> Vec<Node> {
        let mut out = Emit::new();
        self.process_into(item, &mut out);
        out.into_vec()
    }

    /// [`flush_into`](Pipeline::flush_into) collected into a fresh `Vec`
    /// (allocates — convenience for tests and one-shot callers).
    pub fn flush(&mut self) -> Vec<Node> {
        let mut out = Emit::new();
        self.flush_into(&mut out);
        out.into_vec()
    }

    /// Execution statistics per operator.
    pub fn stats(&self) -> &[OpStats] {
        &self.stats
    }

    /// Total accumulated work across operators.
    pub fn total_work(&self) -> f64 {
        self.stats.iter().map(|s| s.work).sum()
    }

    /// Sum of per-item base loads — the cost model's `Σ bload(o)` for the
    /// operators installed at one peer by this pipeline.
    pub fn base_load(&self) -> f64 {
        self.ops.iter().map(|o| o.base_load()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_xml::Node;

    /// Doubles every item (emits it twice) — test helper.
    #[derive(Debug)]
    struct Echo(u32);

    impl StreamOperator for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn process_into(&mut self, item: &Node, out: &mut Emit) {
            for _ in 0..self.0 {
                out.push(item.clone());
            }
        }
        fn base_load(&self) -> f64 {
            1.0
        }
    }

    /// Buffers items, emitting them all on flush.
    #[derive(Debug, Default)]
    struct Hold(Vec<Node>);

    impl StreamOperator for Hold {
        fn name(&self) -> &'static str {
            "hold"
        }
        fn process_into(&mut self, item: &Node, _out: &mut Emit) {
            self.0.push(item.clone());
        }
        fn flush_into(&mut self, out: &mut Emit) {
            for item in self.0.drain(..) {
                out.push(item);
            }
        }
        fn base_load(&self) -> f64 {
            2.0
        }
    }

    /// Panicking operator — proves downstream stages are short-circuited.
    #[derive(Debug)]
    struct Bomb;

    impl StreamOperator for Bomb {
        fn name(&self) -> &'static str {
            "bomb"
        }
        fn process_into(&mut self, _item: &Node, _out: &mut Emit) {
            panic!("downstream stage must not run on empty input");
        }
        fn base_load(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut p = Pipeline::new();
        let item = Node::leaf("x", "1");
        assert_eq!(p.process(&item), vec![item.clone()]);
        assert!(p.flush().is_empty());
        assert!(p.is_empty());
    }

    #[test]
    fn fanout_compounds() {
        let mut p = Pipeline::new()
            .with(Box::new(Echo(2)))
            .with(Box::new(Echo(3)));
        let item = Node::leaf("x", "1");
        assert_eq!(p.process(&item).len(), 6);
        assert_eq!(p.stats()[0].items_in, 1);
        assert_eq!(p.stats()[0].items_out, 2);
        assert_eq!(p.stats()[1].items_in, 2);
        assert_eq!(p.stats()[1].items_out, 6);
    }

    #[test]
    fn flush_cascades_downstream() {
        let mut p = Pipeline::new()
            .with(Box::new(Hold::default()))
            .with(Box::new(Echo(2)));
        let item = Node::leaf("x", "1");
        assert!(p.process(&item).is_empty());
        assert!(p.process(&item).is_empty());
        let out = p.flush();
        assert_eq!(out.len(), 4); // 2 held items × echo 2
                                  // The downstream echo saw the flushed items as regular input.
        assert_eq!(p.stats()[1].items_in, 2);
    }

    #[test]
    fn work_accounting() {
        let mut p = Pipeline::new()
            .with(Box::new(Echo(1)))
            .with(Box::new(Hold::default()));
        let item = Node::leaf("x", "1");
        p.process(&item);
        p.process(&item);
        assert_eq!(p.stats()[0].work, 2.0); // 2 items × bload 1.0
        assert_eq!(p.stats()[1].work, 4.0); // 2 items × bload 2.0
        assert_eq!(p.total_work(), 6.0);
        assert_eq!(p.base_load(), 3.0);
    }

    #[test]
    fn process_into_appends_without_clearing() {
        let mut p = Pipeline::new().with(Box::new(Echo(1)));
        let mut out = Emit::new();
        let item = Node::leaf("x", "1");
        p.process_into(&item, &mut out);
        p.process_into(&item, &mut out);
        assert_eq!(out.len(), 2);
        out.clear();
        assert!(out.is_empty());
    }

    #[test]
    fn empty_stage_output_short_circuits_downstream() {
        let mut p = Pipeline::new().with(Box::new(Echo(0))).with(Box::new(Bomb));
        let item = Node::leaf("x", "1");
        // Echo(0) emits nothing; Bomb would panic if it ever ran.
        assert!(p.process(&item).is_empty());
        assert_eq!(p.stats()[1].items_in, 0);
    }

    #[test]
    fn scratch_buffers_are_empty_between_calls() {
        let mut p = Pipeline::new()
            .with(Box::new(Echo(3)))
            .with(Box::new(Echo(2)));
        let item = Node::leaf("x", "1");
        let mut out = Emit::new();
        for _ in 0..4 {
            p.process_into(&item, &mut out);
            assert!(p.scratch_in.is_empty());
            assert!(p.scratch_out.is_empty());
        }
        assert_eq!(out.len(), 4 * 6);
        p.flush_into(&mut out);
        assert!(p.scratch_in.is_empty() && p.scratch_out.is_empty());
    }

    #[test]
    fn operator_ext_collects() {
        let mut op = Hold::default();
        let item = Node::leaf("x", "1");
        assert!(op.process_collect(&item).is_empty());
        assert_eq!(op.flush_collect(), vec![item]);
    }
}
