//! The projection operator Π.

use dss_properties::ProjectionSpec;
use dss_xml::{Node, Symbol};

use crate::op::{Emit, StreamOperator};

/// Projection: prunes each item's tree to the subtrees listed in the
/// projection's *output* set. An output path keeps its complete subtree;
/// ancestors along the way are kept as structure.
#[derive(Debug)]
pub struct ProjectOp {
    spec: ProjectionSpec,
    /// Reusable stack of the symbols on the path from the item root to the
    /// node currently being pruned — avoids allocating a `Path` per child.
    stack: Vec<Symbol>,
}

impl ProjectOp {
    /// Creates a projection operator.
    pub fn new(spec: ProjectionSpec) -> ProjectOp {
        ProjectOp {
            spec,
            stack: Vec::new(),
        }
    }

    /// The projection spec.
    pub fn spec(&self) -> &ProjectionSpec {
        &self.spec
    }

    /// Projects a single node tree (standalone helper, also used by the
    /// restructurer).
    pub fn project(spec: &ProjectionSpec, item: &Node) -> Node {
        project_with_stack(spec, item, &mut Vec::new())
    }
}

/// Projects `item`, tracking the current position as a symbol stack in
/// `stack` (empty on entry and exit) instead of allocating `Path`s.
fn project_with_stack(spec: &ProjectionSpec, item: &Node, stack: &mut Vec<Symbol>) -> Node {
    fn prune(spec: &ProjectionSpec, node: &Node, stack: &mut Vec<Symbol>) -> Option<Node> {
        // A node is kept entirely if some output path covers it
        // (the output path is a prefix of the node's path): the result
        // points at the item's own subtree.
        if spec.output.iter().any(|out| stack.starts_with(out.steps())) {
            return Some(node.clone());
        }
        // A node is kept as bare structure if it lies on the way to
        // some output path (the node's path is a prefix of an output path).
        if !spec.output.iter().any(|out| out.steps().starts_with(stack)) {
            return None;
        }
        let mut kept = Vec::new();
        for child in node.children() {
            stack.push(child.symbol());
            kept.extend(prune(spec, child, stack));
            stack.pop();
        }
        Some(Node::elem(node.symbol(), kept))
    }
    debug_assert!(stack.is_empty());
    prune(spec, item, stack).unwrap_or_else(|| Node::empty(item.symbol()))
}

impl StreamOperator for ProjectOp {
    fn name(&self) -> &'static str {
        "Π"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        out.push(project_with_stack(&self.spec, item, &mut self.stack));
    }

    fn base_load(&self) -> f64 {
        1.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamOperatorExt;
    use dss_xml::{writer::node_to_string, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn photon() -> Node {
        Node::parse(
            "<photon><phc>57</phc><coord><cel><ra>130.7</ra><dec>-46.2</dec></cel>\
             <det><dx>12</dx><dy>34</dy></det></coord><en>1.4</en>\
             <det_time>1017.5</det_time></photon>",
        )
        .unwrap()
    }

    #[test]
    fn keeps_only_output_paths() {
        let spec = ProjectionSpec::returning([p("coord/cel/ra"), p("en")]);
        let mut op = ProjectOp::new(spec);
        let out = op.process_collect(&photon());
        assert_eq!(out.len(), 1);
        assert_eq!(
            node_to_string(&out[0]),
            "<photon><coord><cel><ra>130.7</ra></cel></coord><en>1.4</en></photon>"
        );
    }

    #[test]
    fn output_subtree_kept_completely() {
        let spec = ProjectionSpec::returning([p("coord")]);
        let out = ProjectOp::project(&spec, &photon());
        assert_eq!(
            node_to_string(&out),
            "<photon><coord><cel><ra>130.7</ra><dec>-46.2</dec></cel>\
             <det><dx>12</dx><dy>34</dy></det></coord></photon>"
        );
    }

    #[test]
    fn referenced_but_unmarked_paths_are_dropped() {
        // The query filters on ra (referenced) but only returns en: the
        // produced stream only carries en.
        let spec = ProjectionSpec::returning([p("en")]).with_referenced([p("coord/cel/ra")]);
        let out = ProjectOp::project(&spec, &photon());
        assert_eq!(node_to_string(&out), "<photon><en>1.4</en></photon>");
    }

    #[test]
    fn missing_paths_leave_structure_out() {
        let spec = ProjectionSpec::returning([p("coord/det/dz"), p("en")]);
        let out = ProjectOp::project(&spec, &photon());
        // dz does not exist: coord/det is kept as empty structure on the way
        // to the requested path.
        assert_eq!(
            node_to_string(&out),
            "<photon><coord><det/></coord><en>1.4</en></photon>"
        );
    }

    #[test]
    fn empty_output_set_produces_bare_item() {
        let spec = ProjectionSpec::returning([]);
        let out = ProjectOp::project(&spec, &photon());
        assert_eq!(node_to_string(&out), "<photon/>");
    }

    #[test]
    fn projection_of_q1_output_matches_paper() {
        // Q1 returns ra, dec, phc, en, det_time — everything except the
        // detector coordinates.
        let spec = ProjectionSpec::returning([
            p("coord/cel/ra"),
            p("coord/cel/dec"),
            p("phc"),
            p("en"),
            p("det_time"),
        ]);
        let out = ProjectOp::project(&spec, &photon());
        assert_eq!(
            node_to_string(&out),
            "<photon><phc>57</phc><coord><cel><ra>130.7</ra><dec>-46.2</dec></cel></coord>\
             <en>1.4</en><det_time>1017.5</det_time></photon>"
        );
    }
}
