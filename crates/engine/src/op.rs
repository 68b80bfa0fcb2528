//! The stream-operator abstraction.
//!
//! # Memory model
//!
//! Operators are *sink-based*: instead of returning a freshly allocated
//! `Vec<Node>` per input item, [`StreamOperator::process_into`] appends its
//! outputs to a caller-owned [`Emit`] buffer. The caller decides the
//! buffer's lifetime and reuses it across items, so a steady-state chain
//! performs no per-item buffer allocation at all.
//!
//! Items are immutable shared trees ([`dss_xml::Node`]): a clone is a
//! pointer copy and mutation is copy-on-write. An operator takes `&Node`
//! and pushes `Node`s, and what it pushes may *be* what it took — σ hands
//! on the item it was given, Π's kept subtrees, ρ's `{ $p/π }` copies and
//! ω's window buffers point into it — so one item fanned out to many sinks
//! is stored once. Only what an operator computes (an aggregate value, a
//! pruned spine, a constructed element) is allocated.
//!
//! Operators run in an [`OpDag`](crate::OpDag); a lone chain is a one-sink
//! DAG ([`OpDag::chain`](crate::OpDag::chain)). The DAG keeps one reused
//! buffer per depth, runs each operator over a whole slice of items into
//! it and hands it to each sink once ([`SinkBatch`](crate::SinkBatch)); the
//! buffer's last reader takes the items instead of copying the pointers
//! and dropping the originals.

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

#[cfg(test)]
mod tests {
    use super::*;
    use dss_xml::Node;

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

    #[test]
    fn operator_ext_collects() {
        let mut op = Hold::default();
        let item = Node::leaf("x", "1");
        assert!(op.process_collect(&item).is_empty());
        assert_eq!(op.flush_collect(), vec![item]);
    }
}
