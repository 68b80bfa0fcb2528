//! The projection operator Π.

use dss_properties::ProjectionSpec;
use dss_xml::{Node, Path, Symbol};

use crate::op::{Emit, StreamOperator};

/// What a projection does with a node, decided per child name when the
/// operator is built: the output set as a trie over element names.
#[derive(Debug)]
enum Keep {
    /// An output path ends here: the complete subtree is kept.
    Whole,
    /// On the way to output paths: kept as bare structure around the
    /// children listed here; every other child is dropped.
    Structure(Vec<(Symbol, Keep)>),
}

impl Keep {
    /// The trie of `output`. A path that is a prefix of another wins (its
    /// subtree holds the longer one's); the empty set is a structure
    /// without children, which keeps the bare root.
    fn compile<'a>(output: impl IntoIterator<Item = &'a Path>) -> Keep {
        let mut root = Keep::Structure(Vec::new());
        for path in output {
            let mut at = &mut root;
            for &step in path.steps() {
                let Keep::Structure(children) = at else {
                    break; // below a kept subtree already
                };
                let i = children
                    .iter()
                    .position(|(name, _)| *name == step)
                    .unwrap_or_else(|| {
                        children.push((step, Keep::Structure(Vec::new())));
                        children.len() - 1
                    });
                at = &mut children[i].1;
            }
            *at = Keep::Whole;
        }
        root
    }

    /// Prunes `node` to what the trie keeps. Children stay in document
    /// order; a kept subtree is a pointer to the item's own. `kept` is
    /// scratch: each pruned element's children gather at its end and move
    /// from there into the element's block, so it ends as it began.
    fn prune(&self, node: &Node, kept: &mut Vec<Node>) -> Node {
        let Keep::Structure(wanted) = self else {
            return node.clone();
        };
        let first = kept.len();
        for child in node.children() {
            let name = child.symbol();
            if let Some((_, keep)) = wanted.iter().find(|(n, _)| *n == name) {
                let pruned = keep.prune(child, kept);
                kept.push(pruned);
            }
        }
        Node::new(node.symbol(), None, kept.drain(first..))
    }
}

/// Projection: prunes each item's tree to the subtrees listed in the
/// projection's *output* set. An output path keeps its complete subtree;
/// ancestors along the way are kept as structure.
#[derive(Debug)]
pub struct ProjectOp {
    keep: Keep,
    /// [`Keep::prune`]'s scratch, reused from item to item.
    kept: Vec<Node>,
}

impl ProjectOp {
    /// Creates a projection operator.
    pub fn new(spec: ProjectionSpec) -> ProjectOp {
        ProjectOp {
            keep: Keep::compile(&spec.output),
            kept: Vec::new(),
        }
    }

    /// Projects a single node tree (standalone helper: compiles `spec` for
    /// the one item).
    pub fn project(spec: &ProjectionSpec, item: &Node) -> Node {
        Keep::compile(&spec.output).prune(item, &mut Vec::new())
    }
}

impl StreamOperator for ProjectOp {
    fn name(&self) -> &'static str {
        "Π"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        out.push(self.keep.prune(item, &mut self.kept));
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

    mod trie {
        use super::*;
        use proptest::prelude::*;

        /// Projection as it was written before the output set was compiled:
        /// every node asks every output path whether it covers the node or
        /// passes through it.
        fn reference(spec: &ProjectionSpec, item: &Node) -> Node {
            fn prune(spec: &ProjectionSpec, node: &Node, stack: &mut Vec<Symbol>) -> Option<Node> {
                if spec.output.iter().any(|out| stack.starts_with(out.steps())) {
                    return Some(node.clone());
                }
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
            prune(spec, item, &mut Vec::new()).unwrap_or_else(|| Node::empty(item.symbol()))
        }

        /// Trees over four names, so siblings repeat and paths often miss;
        /// inner nodes may carry text beside their children.
        fn arb_tree() -> impl Strategy<Value = Node> {
            let leaf =
                ("[a-d]", prop::option::of("[a-z0-9]{0,3}")).prop_map(|(name, text)| match text {
                    Some(t) => Node::leaf(name, t),
                    None => Node::empty(name),
                });
            leaf.prop_recursive(4, 40, 5, |inner| {
                (
                    "[a-d]",
                    prop::collection::vec(inner, 0..5),
                    prop::option::of("[a-z]{1,2}"),
                )
                    .prop_map(|(name, children, text)| {
                        let mut n = Node::elem(name, children);
                        if let Some(t) = text.filter(|_| n.children().len() % 2 == 1) {
                            n.set_text(t);
                        }
                        n
                    })
            })
        }

        /// Zero to five output paths of zero to three steps: the empty set,
        /// the empty path, and paths that are prefixes of one another all
        /// come up.
        fn arb_spec() -> impl Strategy<Value = ProjectionSpec> {
            let path = prop::collection::vec("[a-d]", 0..=3)
                .prop_map(|steps| Path::from_steps(steps).unwrap());
            prop::collection::vec(path, 0..=5).prop_map(ProjectionSpec::returning)
        }

        proptest! {
            #[test]
            fn trie_prunes_like_the_path_scan(spec in arb_spec(), tree in arb_tree()) {
                let want = reference(&spec, &tree);
                prop_assert_eq!(&ProjectOp::project(&spec, &tree), &want, "{}", spec);
                // The operator, twice: it keeps nothing between items.
                let mut op = ProjectOp::new(spec.clone());
                prop_assert_eq!(op.process_collect(&tree), vec![want.clone()]);
                prop_assert_eq!(op.process_collect(&tree), vec![want]);
            }
        }

        #[test]
        fn a_prefix_path_wins_whatever_the_order() {
            let item = photon();
            for paths in [
                [p("coord"), p("coord/cel/ra")],
                [p("coord/cel/ra"), p("coord")],
            ] {
                // `compile` takes any order, not only the set's.
                let keep = Keep::compile(&paths);
                assert_eq!(
                    node_to_string(&keep.prune(&item, &mut Vec::new())),
                    "<photon><coord><cel><ra>130.7</ra><dec>-46.2</dec></cel>\
                     <det><dx>12</dx><dy>34</dy></det></coord></photon>"
                );
            }
            // The empty path keeps the item itself.
            let whole =
                ProjectOp::project(&ProjectionSpec::returning([Path::this(), p("en")]), &item);
            assert_eq!(whole, item);
            assert_eq!(whole.children().as_ptr(), item.children().as_ptr());
        }
    }
}
