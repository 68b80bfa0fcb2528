//! The restructuring (post-processing) operator.
//!
//! Per Section 2 of the paper, restructuring — introducing new elements,
//! reordering or renaming output elements — is done in a post-processing
//! step at the super-peer connected to the subscribing peer, and its output
//! is *not* considered for reuse. The operator instantiates the query's
//! `return`-clause template for every incoming item.

use dss_properties::AggOp;
use dss_xml::{Node, Path, Symbol};

use crate::agg_item::AggItem;
use crate::op::{Emit, StreamOperator};

/// A `return`-clause construction template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Template {
    /// `<t> children </t>` — a direct element constructor. The tag is
    /// interned at query-compile time so per-item instantiation never
    /// touches the name table.
    Element {
        tag: Symbol,
        children: Vec<Template>,
    },
    /// `{ $p/π }` — copies the subtree(s) reachable through π from the
    /// current item.
    Subtree(Path),
    /// `{ $a }` — the final value of the window aggregate.
    AggValue,
    /// `{ $w }` — the contents of the data window (the contained stream
    /// items, spliced in order).
    WindowContents,
    /// Literal text content.
    Text(String),
}

impl Template {
    /// Element constructor helper.
    pub fn element(tag: impl Into<Symbol>, children: Vec<Template>) -> Template {
        Template::Element {
            tag: tag.into(),
            children,
        }
    }
}

/// What kind of stream items the restructurer consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputKind {
    /// Plain stream items.
    Items,
    /// Aggregate partials; `{ $a }` renders the final value of this op.
    Aggregate(AggOp),
    /// Window-contents items; `{ $w }` splices the contained items.
    Window,
}

/// Restructures stream items (aggregate partials, window items) into the
/// final result items delivered to the subscriber.
#[derive(Debug)]
pub struct RestructureOp {
    template: Template,
    input: InputKind,
    /// Scratch reused from item to item, see [`Build`].
    build: Build,
}

/// What the constructors being instantiated gather: the children and the
/// text of every open constructor, innermost last. A finished element takes
/// its tail of each, so both end as they began.
#[derive(Debug, Default)]
struct Build {
    kids: Vec<Node>,
    text: String,
}

impl RestructureOp {
    /// Restructurer over plain stream items.
    pub fn new(template: Template) -> RestructureOp {
        RestructureOp::with_input(template, InputKind::Items)
    }

    /// Restructurer over window-contents items: `{ $w }` splices each
    /// window's contained items into the constructed element.
    pub fn for_window(template: Template) -> RestructureOp {
        RestructureOp::with_input(template, InputKind::Window)
    }

    /// Restructurer over aggregate partials: `{ $a }` renders the final
    /// aggregate value (computing `sum/count` for avg — exactly the paper's
    /// "the final aggregate value is computed at the super-peer at which
    /// the subscription is registered").
    pub fn for_aggregate(template: Template, op: AggOp) -> RestructureOp {
        RestructureOp::with_input(template, InputKind::Aggregate(op))
    }

    fn with_input(template: Template, input: InputKind) -> RestructureOp {
        RestructureOp {
            template,
            input,
            build: Build::default(),
        }
    }
}

impl Build {
    /// Instantiates `template` against an item, an optional aggregate
    /// value, and optional window contents. Returns `None` when a required
    /// aggregate value is undefined.
    fn instantiate(
        &mut self,
        template: &Template,
        item: &Node,
        agg_value: Option<&str>,
        window_items: Option<&[Node]>,
    ) -> Option<Node> {
        match template {
            Template::Element { tag, children } => {
                let (first_kid, first_char) = (self.kids.len(), self.text.len());
                let filled = self.fill(children, item, agg_value, window_items);
                let node = filled.map(|()| {
                    // Text coexists with children (it renders first) —
                    // `<x>label { $p/en }</x>` keeps its label.
                    let text = &self.text[first_char..];
                    Node::new(
                        *tag,
                        (!text.is_empty()).then_some(text),
                        self.kids.drain(first_kid..),
                    )
                });
                self.kids.truncate(first_kid);
                self.text.truncate(first_char);
                node
            }
            Template::Subtree(path) => path.first(item).cloned(),
            Template::AggValue => agg_value.map(|v| Node::leaf("value", v)),
            Template::WindowContents => {
                window_items.map(|items| Node::new("window", None, items.iter().cloned()))
            }
            Template::Text(t) => Some(Node::leaf("text", t)),
        }
    }

    /// Gathers an element constructor's children and text.
    fn fill(
        &mut self,
        children: &[Template],
        item: &Node,
        agg_value: Option<&str>,
        window_items: Option<&[Node]>,
    ) -> Option<()> {
        for child in children {
            match child {
                Template::Subtree(path) => {
                    // The matched subtrees stay the item's: the constructed
                    // node holds pointers to them.
                    path.visit(item, &mut |n| self.kids.push(n.clone()));
                }
                Template::AggValue => self.text.push_str(agg_value?),
                Template::WindowContents => self.kids.extend_from_slice(window_items?),
                Template::Text(t) => self.text.push_str(t),
                elem @ Template::Element { .. } => {
                    let node = self.instantiate(elem, item, agg_value, window_items)?;
                    self.kids.push(node);
                }
            }
        }
        Some(())
    }
}

impl StreamOperator for RestructureOp {
    fn name(&self) -> &'static str {
        "ρ"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        let mut agg_value = None;
        let mut window_items = None;
        match self.input {
            InputKind::Aggregate(op) => {
                let Ok(partial) = AggItem::from_node(item) else {
                    return;
                };
                match partial.final_value(op) {
                    Some(v) => agg_value = Some(v.to_string()),
                    None => return,
                }
            }
            InputKind::Window => {
                let Ok(w) = crate::window_contents::WindowItem::from_node(item) else {
                    return;
                };
                window_items = Some(w.items);
            }
            InputKind::Items => {}
        }
        let node = self.build.instantiate(
            &self.template,
            item,
            agg_value.as_deref(),
            window_items.as_deref(),
        );
        if let Some(n) = node {
            out.push(n);
        }
    }

    fn base_load(&self) -> f64 {
        0.8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::StreamOperatorExt;
    use dss_xml::writer::node_to_string;
    use dss_xml::Decimal;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn photon() -> Node {
        Node::parse(
            "<photon><phc>57</phc><coord><cel><ra>130.7</ra><dec>-46.2</dec></cel></coord>\
             <en>1.4</en><det_time>1017.5</det_time></photon>",
        )
        .unwrap()
    }

    /// Query 1's return clause: `<vela> { $p/coord/cel/ra } { $p/coord/cel/dec }
    /// { $p/phc } { $p/en } { $p/det_time } </vela>`.
    #[test]
    fn q1_return_clause() {
        let template = Template::element(
            "vela",
            vec![
                Template::Subtree(p("coord/cel/ra")),
                Template::Subtree(p("coord/cel/dec")),
                Template::Subtree(p("phc")),
                Template::Subtree(p("en")),
                Template::Subtree(p("det_time")),
            ],
        );
        let mut op = RestructureOp::new(template);
        let out = op.process_collect(&photon());
        assert_eq!(out.len(), 1);
        assert_eq!(
            node_to_string(&out[0]),
            "<vela><ra>130.7</ra><dec>-46.2</dec><phc>57</phc><en>1.4</en>\
             <det_time>1017.5</det_time></vela>"
        );
    }

    /// Query 3's return clause: `<avg_en> { $a } </avg_en>` over aggregate
    /// partials, with avg computed as sum/count at delivery.
    #[test]
    fn q3_return_clause_over_aggregate() {
        let template = Template::element("avg_en", vec![Template::AggValue]);
        let mut op = RestructureOp::for_aggregate(template, AggOp::Avg);
        let mut partial = AggItem::empty(Decimal::ZERO, Decimal::from_int(20));
        partial.add_value("1.2".parse().unwrap());
        partial.add_value("1.8".parse().unwrap());
        let out = op.process_collect(&partial.to_node());
        assert_eq!(out.len(), 1);
        assert_eq!(node_to_string(&out[0]), "<avg_en>1.5</avg_en>");
    }

    #[test]
    fn aggregate_restructure_skips_non_agg_items() {
        let template = Template::element("avg_en", vec![Template::AggValue]);
        let mut op = RestructureOp::for_aggregate(template, AggOp::Avg);
        assert!(op.process_collect(&photon()).is_empty());
    }

    #[test]
    fn nested_element_construction() {
        let template = Template::element(
            "report",
            vec![
                Template::element("position", vec![Template::Subtree(p("coord/cel/ra"))]),
                Template::element("energy", vec![Template::Subtree(p("en"))]),
            ],
        );
        let mut op = RestructureOp::new(template);
        let out = op.process_collect(&photon());
        assert_eq!(
            node_to_string(&out[0]),
            "<report><position><ra>130.7</ra></position><energy><en>1.4</en></energy></report>"
        );
    }

    #[test]
    fn missing_subtrees_yield_empty_spots() {
        let template = Template::element(
            "r",
            vec![Template::Subtree(p("nope")), Template::Subtree(p("en"))],
        );
        let mut op = RestructureOp::new(template);
        let out = op.process_collect(&photon());
        assert_eq!(node_to_string(&out[0]), "<r><en>1.4</en></r>");
    }

    #[test]
    fn literal_text_content() {
        let template = Template::element("label", vec![Template::Text("vela region".into())]);
        let mut op = RestructureOp::new(template);
        assert_eq!(
            node_to_string(&op.process_collect(&photon())[0]),
            "<label>vela region</label>"
        );
    }

    #[test]
    fn empty_element_constructor() {
        let template = Template::element("marker", vec![]);
        let mut op = RestructureOp::new(template);
        assert_eq!(
            node_to_string(&op.process_collect(&photon())[0]),
            "<marker/>"
        );
    }
}
