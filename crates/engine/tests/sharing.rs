//! Items are shared trees: what σ, Π, ρ and ω emit points into the item
//! they were given, and editing a result never reaches back into it.

use dss_engine::{
    OpDag, ProjectOp, RestructureOp, SelectOp, StreamOperator, Template, WindowContentsOp,
};
use dss_predicate::{Atom, CompOp, PredicateGraph};
use dss_properties::{ProjectionSpec, WindowOutputSpec, WindowSpec};
use dss_xml::{Decimal, Node, Path};

fn p(s: &str) -> Path {
    s.parse().unwrap()
}

fn d(s: &str) -> Decimal {
    s.parse().unwrap()
}

fn photon() -> Node {
    Node::parse(
        "<photon><phc>57</phc><coord><cel><ra>130.7</ra><dec>-46.2</dec></cel></coord>\
         <en>1.4</en><det_time>1017.5</det_time></photon>",
    )
    .unwrap()
}

/// `op` alone over `items`, end-of-stream flush included.
fn run(op: impl StreamOperator + Send + 'static, items: &[Node]) -> Vec<Node> {
    let mut dag = OpDag::chain([Box::new(op) as Box<dyn StreamOperator + Send>]);
    let mut out = Vec::new();
    for item in items {
        dag.process_into(item, &mut |_, n| out.push(n.clone()));
    }
    dag.flush_into(&mut |_, n| out.push(n.clone()));
    out
}

/// Rewrites every text in the tree, copy-on-write all the way down.
fn scribble(node: &mut Node) {
    node.set_text("scribbled");
    for i in 0..node.children().len() {
        scribble(&mut node.children_mut()[i]);
    }
}

#[test]
fn selection_hands_on_the_item_it_was_given() {
    let item = photon();
    let atoms = [Atom::var_const(p("en"), CompOp::Ge, d("1.3"))];
    let out = run(
        SelectOp::new(PredicateGraph::from_atoms(&atoms)),
        std::slice::from_ref(&item),
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].children().as_ptr(), item.children().as_ptr());
}

#[test]
fn projection_keeps_subtrees_by_pointer() {
    let item = photon();
    let spec = ProjectionSpec::returning([p("coord"), p("en")]);
    let out = run(ProjectOp::new(spec), std::slice::from_ref(&item));
    let (kept, whole) = (out[0].child("coord").unwrap(), item.child("coord").unwrap());
    assert_eq!(kept.children().as_ptr(), whole.children().as_ptr());
    // The pruned spine is the projection's own.
    assert_ne!(out[0].children().as_ptr(), item.children().as_ptr());
    assert!(out[0].child("phc").is_none());
}

#[test]
fn editing_a_restructured_result_leaves_the_item_alone() {
    let item = photon();
    let template = Template::element(
        "vela",
        vec![Template::Subtree(p("coord")), Template::Subtree(p("en"))],
    );
    let mut out = run(RestructureOp::new(template), std::slice::from_ref(&item));
    let (copied, whole) = (out[0].child("coord").unwrap(), item.child("coord").unwrap());
    assert_eq!(copied.children().as_ptr(), whole.children().as_ptr());
    scribble(&mut out[0]);
    assert_eq!(item, photon());
}

#[test]
fn editing_a_window_leaves_its_items_alone() {
    let spec = WindowOutputSpec {
        window: WindowSpec::diff(p("det_time"), d("20"), Some(d("10"))).unwrap(),
        pre_selection: PredicateGraph::new(),
    };
    let item = photon();
    // Two overlapping windows hold the one item; both close at the flush.
    let mut windows = run(WindowContentsOp::new(spec), std::slice::from_ref(&item));
    assert_eq!(windows.len(), 2);
    let held = |w: &Node| w.child("items").unwrap().children()[0].clone();
    assert_eq!(
        held(&windows[0]).children().as_ptr(),
        item.children().as_ptr()
    );
    scribble(&mut windows[0]);
    assert_eq!(item, photon());
    assert_eq!(held(&windows[1]), photon());
}
