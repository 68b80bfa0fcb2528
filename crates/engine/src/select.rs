//! The selection operator σ.

use dss_predicate::{CompiledPredicate, PredicateGraph};
use dss_xml::{Decimal, Node};

use crate::op::{Emit, StreamOperator};

/// Selection: passes items satisfying a conjunctive predicate.
#[derive(Debug)]
pub struct SelectOp {
    /// The predicate regrouped by variable, once, at construction: an item
    /// has each variable read and parsed once however many bounds name it.
    predicate: CompiledPredicate,
    /// The item's resolved variables, for the predicate's var–var edges.
    values: Vec<Decimal>,
}

impl SelectOp {
    /// Creates a selection from a predicate graph.
    pub fn new(predicate: PredicateGraph) -> SelectOp {
        SelectOp {
            predicate: predicate.compile(),
            values: Vec::new(),
        }
    }
}

impl StreamOperator for SelectOp {
    fn name(&self) -> &'static str {
        "σ"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        if self.predicate.evaluate(item, &mut self.values) {
            // A passing item is handed on as a pointer to the same tree;
            // dropped items cost nothing.
            out.push(item.clone());
        }
    }

    fn base_load(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::run_chain;
    use dss_predicate::{Atom, CompOp};
    use dss_xml::Path;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn item(en: &str) -> Node {
        Node::elem("photon", vec![Node::leaf("en", en)])
    }

    #[test]
    fn filters_items() {
        let g = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        let run = |item: Node| run_chain(vec![Box::new(SelectOp::new(g.clone()))], &[item]);
        assert_eq!(run(item("1.5")).len(), 1);
        assert_eq!(run(item("1.3")).len(), 1);
        assert!(run(item("1.2")).is_empty());
        assert!(run(Node::empty("photon")).is_empty());
    }

    #[test]
    fn trivial_predicate_passes_all() {
        let op = SelectOp::new(PredicateGraph::new());
        assert_eq!(run_chain(vec![Box::new(op)], &[item("0")]).len(), 1);
    }
}
