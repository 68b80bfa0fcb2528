//! Items are shared trees: what σ, Π, ρ and ω emit points into the item
//! they were given, and editing a result never reaches back into it.

use dss_engine::{
    ProjectOp, RestructureOp, SelectOp, StreamOperatorExt, Template, WindowContentsOp,
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
    let mut op = SelectOp::new(PredicateGraph::from_atoms(&atoms));
    let out = op.process_collect(&item);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].children().as_ptr(), item.children().as_ptr());
}

#[test]
fn projection_keeps_subtrees_by_pointer() {
    let item = photon();
    let mut op = ProjectOp::new(ProjectionSpec::returning([p("coord"), p("en")]));
    let out = op.process_collect(&item);
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
    let mut out = RestructureOp::new(template).process_collect(&item);
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
    let mut op = WindowContentsOp::new(spec);
    let item = photon();
    assert!(op.process_collect(&item).is_empty());
    // Two overlapping windows hold the one item.
    let mut windows = op.flush_collect();
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
