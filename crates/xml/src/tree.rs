//! Element-only XML tree model.
//!
//! Following Section 2 of the paper, the data model consists purely of
//! elements: a node has a name and either text content (a leaf value such as
//! a photon's `ra`) or child elements. Attributes encountered during parsing
//! are converted into leading child elements ("attributes in XML data can
//! always be converted into corresponding elements").
//!
//! # Sharing
//!
//! A [`Node`] is an immutable, structurally shared tree: its text and its
//! child list sit behind reference counts, so `clone` copies the name and
//! two pointers however large the subtree, and an item that flows past many
//! subscribers is held once. Mutation is copy-on-write — the first change
//! through a shared pointer copies that one level (the grandchildren stay
//! shared) and no other holder ever observes it.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::decimal::Decimal;
use crate::error::XmlError;
use crate::event::XmlEvent;
use crate::name::Symbol;

/// Maximum element nesting depth accepted by the parsers. Bounds both the
/// build recursion and the eventual `Drop` recursion, so untrusted deeply
/// nested documents error out instead of overflowing the stack.
pub const MAX_DEPTH: usize = 512;

/// An XML element: a name plus text and/or children. In the paper's
/// element-only data model an element has either a text value (a leaf) or
/// child elements; both are populated only for elements whose attributes
/// were converted into leading children, or for constructed results mixing
/// a label with copied subtrees. Text always renders before the children.
///
/// Equality and hashing are by content: an absent child list and an empty
/// one are the same node, and which nodes share storage never shows.
#[derive(Clone)]
pub struct Node {
    name: Symbol,
    text: Option<Arc<str>>,
    /// `None` for a leaf, so a leaf costs no child allocation. `Arc`, not
    /// `Rc`: simulator workers and the server's reader and worker threads
    /// hold the same items.
    children: Option<Arc<Vec<Node>>>,
}

impl Node {
    /// An empty element `<name/>`.
    pub fn empty(name: impl Into<Symbol>) -> Node {
        Node {
            name: name.into(),
            text: None,
            children: None,
        }
    }

    /// A leaf element with text content.
    pub fn leaf(name: impl Into<Symbol>, text: impl Into<String>) -> Node {
        Node {
            name: name.into(),
            text: Some(Arc::from(text.into())),
            children: None,
        }
    }

    /// A leaf element holding a decimal value.
    pub fn decimal_leaf(name: impl Into<Symbol>, value: Decimal) -> Node {
        Node::leaf(name, value.to_string())
    }

    /// An inner element with children.
    pub fn elem(name: impl Into<Symbol>, children: Vec<Node>) -> Node {
        Node {
            name: name.into(),
            text: None,
            children: (!children.is_empty()).then(|| Arc::new(children)),
        }
    }

    /// Element name.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// Interned element name. Comparing symbols is an integer compare —
    /// prefer this over [`Node::name`] anywhere hot.
    pub fn symbol(&self) -> Symbol {
        self.name
    }

    /// Text content, if this is a non-empty leaf.
    pub fn text(&self) -> Option<&str> {
        self.text.as_deref()
    }

    /// Child elements.
    pub fn children(&self) -> &[Node] {
        self.children.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Mutable access to children (used by the restructuring operator).
    /// Copies the child list first if another node shares it.
    pub fn children_mut(&mut self) -> &mut Vec<Node> {
        Arc::make_mut(self.children.get_or_insert_with(Default::default))
    }

    /// Appends a child. Existing text content is kept (it renders before
    /// the children) — needed so attribute-derived children and a text
    /// value can coexist on one element.
    pub fn push_child(&mut self, child: Node) {
        self.children_mut().push(child);
    }

    /// Sets the text content (rendered before any children).
    pub fn set_text(&mut self, text: impl Into<String>) {
        self.text = Some(Arc::from(text.into()));
    }

    /// Appends to the text content (concatenating split text runs without
    /// rebuilding the node). On a node without text this is the one way to
    /// set it from a borrowed `&str` with a single allocation.
    pub fn append_text(&mut self, more: &str) {
        self.text = Some(match &self.text {
            Some(t) => [t.as_ref(), more].concat().into(),
            None => more.into(),
        });
    }

    /// First child with the given name. Uses a non-interning lookup, so
    /// probing for names that exist nowhere does not grow the name table.
    pub fn child(&self, name: &str) -> Option<&Node> {
        let sym = Symbol::get(name)?;
        self.children().iter().find(|c| c.name == sym)
    }

    /// All children with the given name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Node> + 'a {
        let sym = Symbol::get(name);
        self.children().iter().filter(move |c| Some(c.name) == sym)
    }

    /// `true` if the node has neither text nor children.
    pub fn is_empty(&self) -> bool {
        self.text.is_none() && self.children().is_empty()
    }

    /// Leaf text parsed as a decimal; `None` without text or when the text
    /// is not a decimal. The per-item read: unlike
    /// [`decimal_value`](Node::decimal_value) a miss builds no error, so
    /// operators that skip unreadable values pay nothing for them.
    pub fn decimal(&self) -> Option<Decimal> {
        Decimal::parse(self.text.as_deref()?)
    }

    /// Leaf text parsed as a decimal, for callers that report the failure.
    pub fn decimal_value(&self) -> Result<Decimal, XmlError> {
        match &self.text {
            Some(t) => t.parse(),
            None => Err(XmlError::ValueParse {
                value: format!("<{}>", self.name),
                wanted: "decimal",
            }),
        }
    }

    /// Total number of elements in the subtree (including `self`).
    pub fn element_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(Node::element_count)
            .sum::<usize>()
    }

    /// Depth of the subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self.children().iter().map(Node::depth).max().unwrap_or(0)
    }

    /// Builds a tree from a stream of events that must describe exactly one
    /// element (the next start tag through its matching end tag).
    ///
    /// `events` is any fallible event source; `None` mid-element is an
    /// [`XmlError::UnexpectedEof`].
    pub fn from_events<F>(next: &mut F) -> Result<Node, XmlError>
    where
        F: FnMut() -> Result<Option<XmlEvent>, XmlError>,
    {
        let first = next()?.ok_or(XmlError::UnexpectedEof)?;
        let (name, attributes) = match first {
            XmlEvent::StartElement { name, attributes } => (name, attributes),
            other => {
                return Err(XmlError::Syntax {
                    message: format!("expected start tag, found {other:?}"),
                    offset: 0,
                })
            }
        };
        Node::from_events_after_start(name, attributes, next)
    }

    /// Continues building a tree whose start tag (with `name` and
    /// `attributes`) has already been consumed. Iterative (explicit stack)
    /// with a [`MAX_DEPTH`] cap, so untrusted nesting cannot overflow the
    /// call stack.
    pub fn from_events_after_start<F>(
        name: Symbol,
        attributes: Vec<(Symbol, String)>,
        next: &mut F,
    ) -> Result<Node, XmlError>
    where
        F: FnMut() -> Result<Option<XmlEvent>, XmlError>,
    {
        // Per frame: the node under construction plus its pending
        // attribute-derived children (prepended at completion so a text
        // value arriving first is not mistaken for mixed content).
        let mut stack: Vec<(Node, Vec<Node>)> = Vec::new();
        let attr_children = |attrs: Vec<(Symbol, String)>| {
            attrs.into_iter().map(|(k, v)| Node::leaf(k, v)).collect()
        };
        let mut current = Node::empty(name);
        let mut current_attrs: Vec<Node> = attr_children(attributes);
        loop {
            match next()?.ok_or(XmlError::UnexpectedEof)? {
                XmlEvent::StartElement { name, attributes } => {
                    if stack.len() + 1 >= MAX_DEPTH {
                        return Err(XmlError::Syntax {
                            message: format!("element nesting deeper than {MAX_DEPTH}"),
                            offset: 0,
                        });
                    }
                    stack.push((current, current_attrs));
                    current = Node::empty(name);
                    current_attrs = attr_children(attributes);
                }
                XmlEvent::EndElement { name } => {
                    if name != current.name {
                        return Err(XmlError::MismatchedTag {
                            expected: current.name.as_str().to_string(),
                            found: name.as_str().to_string(),
                        });
                    }
                    // Attach attribute-derived children in front.
                    if !current_attrs.is_empty() {
                        current_attrs.append(current.children_mut());
                        *current.children_mut() = current_attrs;
                    }
                    match stack.pop() {
                        Some((mut parent, parent_attrs)) => {
                            parent.push_child(current);
                            current = parent;
                            current_attrs = parent_attrs;
                        }
                        None => return Ok(current),
                    }
                }
                XmlEvent::Text(t) => {
                    if current.children().is_empty() {
                        // Concatenate split text runs (e.g. around a CDATA).
                        current.append_text(&t);
                    }
                    // Text after child elements would be mixed content;
                    // dropped by the element-only model.
                }
            }
        }
    }

    /// Parses a complete document string into its root element.
    pub fn parse(input: &str) -> Result<Node, XmlError> {
        let mut tok = crate::tokenizer::Tokenizer::from_str(input);
        let node = Node::from_events(&mut || tok.next_event())?;
        match tok.next_event()? {
            None => Ok(node),
            Some(_) => Err(XmlError::TrailingContent),
        }
    }
}

/// Same rendering as the derived impl of the owned representation this
/// replaced: sharing is not part of a node's value.
impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("name", &self.name)
            .field("text", &self.text())
            .field("children", &self.children())
            .finish()
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        // Shared storage is the common case between an item and what σ
        // or Π made of it; it settles a subtree without walking it.
        let shared = match (&self.children, &other.children) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.name == other.name
            && self.text() == other.text()
            && (shared || self.children() == other.children())
    }
}

impl Eq for Node {}

impl Hash for Node {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.text().hash(state);
        self.children().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's photon item (Section 1 DTD), used across the test suite.
    pub fn sample_photon() -> Node {
        Node::elem(
            "photon",
            vec![
                Node::leaf("phc", "57"),
                Node::elem(
                    "coord",
                    vec![
                        Node::elem(
                            "cel",
                            vec![Node::leaf("ra", "130.7"), Node::leaf("dec", "-46.2")],
                        ),
                        Node::elem("det", vec![Node::leaf("dx", "12"), Node::leaf("dy", "34")]),
                    ],
                ),
                Node::leaf("en", "1.4"),
                Node::leaf("det_time", "1017.5"),
            ],
        )
    }

    #[test]
    fn build_and_navigate() {
        let p = sample_photon();
        assert_eq!(p.name(), "photon");
        assert_eq!(p.children().len(), 4);
        assert_eq!(p.child("en").unwrap().text(), Some("1.4"));
        assert_eq!(
            p.child("coord")
                .unwrap()
                .child("cel")
                .unwrap()
                .child("ra")
                .unwrap()
                .text(),
            Some("130.7")
        );
        assert!(p.child("missing").is_none());
    }

    #[test]
    fn decimal_values() {
        let p = sample_photon();
        assert_eq!(
            p.child("en").unwrap().decimal_value().unwrap(),
            "1.4".parse::<Decimal>().unwrap()
        );
        assert!(p.child("coord").unwrap().decimal_value().is_err());
        // The `Option` read agrees, hit and miss.
        assert_eq!(
            p.child("en").unwrap().decimal(),
            p.child("en").unwrap().decimal_value().ok()
        );
        assert_eq!(p.child("coord").unwrap().decimal(), None);
        assert_eq!(Node::leaf("en", "").decimal(), None);
    }

    #[test]
    fn counts_and_depth() {
        let p = sample_photon();
        assert_eq!(p.element_count(), 11);
        assert_eq!(p.depth(), 4); // photon/coord/cel/ra
        assert_eq!(Node::empty("x").element_count(), 1);
        assert_eq!(Node::empty("x").depth(), 1);
    }

    #[test]
    fn parse_round_trip() {
        let doc = "<photon><phc>57</phc><coord><cel><ra>130.7</ra><dec>-46.2</dec></cel>\
                   <det><dx>12</dx><dy>34</dy></det></coord><en>1.4</en>\
                   <det_time>1017.5</det_time></photon>";
        assert_eq!(Node::parse(doc).unwrap(), sample_photon());
    }

    #[test]
    fn attributes_become_children() {
        let n = Node::parse(r#"<photon id="9"><en>1.0</en></photon>"#).unwrap();
        assert_eq!(n.children()[0], Node::leaf("id", "9"));
        assert_eq!(n.children()[1].name(), "en");
    }

    #[test]
    fn mismatched_tags_error() {
        assert!(matches!(
            Node::parse("<a><b></a></b>"),
            Err(XmlError::MismatchedTag { .. })
        ));
    }

    #[test]
    fn trailing_content_errors() {
        assert!(matches!(
            Node::parse("<a/><b/>"),
            Err(XmlError::TrailingContent)
        ));
    }

    #[test]
    fn truncated_document_errors() {
        assert_eq!(Node::parse("<a><b>"), Err(XmlError::UnexpectedEof));
    }

    #[test]
    fn push_child_keeps_text() {
        // Text renders before children (attribute-derived children and a
        // text value can coexist).
        let mut n = Node::leaf("x", "old");
        n.push_child(Node::leaf("y", "1"));
        assert_eq!(n.text(), Some("old"));
        assert_eq!(n.children().len(), 1);
        assert_eq!(crate::writer::node_to_string(&n), "<x>old<y>1</y></x>");
    }

    #[test]
    fn attributes_coexist_with_text() {
        // The text of an attributed element must survive attribute
        // conversion (attributes become leading children).
        let n = Node::parse(r#"<en unit="keV">1.4</en>"#).unwrap();
        assert_eq!(n.text(), Some("1.4"));
        assert_eq!(n.children()[0], Node::leaf("unit", "keV"));
        // And the serialized form parses back identically.
        assert_eq!(Node::parse(&crate::writer::node_to_string(&n)).unwrap(), n);
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let mut doc = String::new();
        for i in 0..(MAX_DEPTH + 10) {
            doc.push_str(&format!("<n{i}>"));
        }
        for i in (0..(MAX_DEPTH + 10)).rev() {
            doc.push_str(&format!("</n{i}>"));
        }
        let err = Node::parse(&doc).unwrap_err();
        assert!(matches!(err, XmlError::Syntax { .. }), "got {err:?}");
        // A document just under the limit parses fine.
        let mut ok_doc = String::new();
        for i in 0..(MAX_DEPTH - 1) {
            ok_doc.push_str(&format!("<n{i}>"));
        }
        for i in (0..(MAX_DEPTH - 1)).rev() {
            ok_doc.push_str(&format!("</n{i}>"));
        }
        assert!(Node::parse(&ok_doc).is_ok());
    }

    #[test]
    fn children_named_filters() {
        let n = Node::elem(
            "w",
            vec![
                Node::leaf("v", "1"),
                Node::leaf("u", "2"),
                Node::leaf("v", "3"),
            ],
        );
        let vs: Vec<_> = n.children_named("v").filter_map(|c| c.text()).collect();
        assert_eq!(vs, vec!["1", "3"]);
    }

    #[test]
    fn empty_element_round_trip() {
        assert_eq!(Node::parse("<photons/>").unwrap(), Node::empty("photons"));
        assert!(Node::parse("<photons></photons>").unwrap().is_empty());
    }

    #[test]
    fn equality_and_hash_are_by_content() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let hash = |n: &Node| {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        };
        // An absent and an empty child list are the same node …
        let (empty, elem) = (Node::empty("x"), Node::elem("x", vec![]));
        assert_eq!(empty, elem);
        assert_eq!(hash(&empty), hash(&elem));
        // … also once `children_mut` was taken and left empty.
        let mut touched = Node::leaf("x", "1");
        touched.children_mut();
        assert_eq!(touched, Node::leaf("x", "1"));
        assert_eq!(hash(&touched), hash(&Node::leaf("x", "1")));
        // Equal content in separate storage is equal; so is shared storage.
        let p = sample_photon();
        assert_eq!(p, sample_photon());
        assert_eq!(hash(&p), hash(&sample_photon()));
        assert_eq!(p, p.clone());
        assert_ne!(Node::leaf("x", ""), Node::empty("x"));
    }

    #[test]
    fn clone_shares_storage_and_nodes_stay_small() {
        const _: fn() = || {
            fn shared_between_threads<T: Send + Sync>() {}
            shared_between_threads::<Node>();
        };
        // 56 bytes as an owned `String` + `Vec`.
        assert!(std::mem::size_of::<Node>() <= 32);
        let p = sample_photon();
        let q = p.clone();
        assert_eq!(p.children().as_ptr(), q.children().as_ptr());
        assert_eq!(
            p.child("en").unwrap().text().unwrap().as_ptr(),
            q.child("en").unwrap().text().unwrap().as_ptr()
        );
    }

    #[test]
    fn deep_shared_tree_drops_on_a_second_thread() {
        let mut chain = Node::leaf("d", "bottom");
        for _ in 1..MAX_DEPTH {
            chain = Node::elem("d", vec![chain]);
        }
        assert_eq!(chain.depth(), MAX_DEPTH);
        let shared = chain.clone();
        // The spawned thread holds the last reference, so the whole chain
        // unwinds on its (default-sized) stack.
        let dropper = std::thread::spawn(move || drop(chain));
        drop(shared);
        dropper
            .join()
            .expect("dropping a MAX_DEPTH chain overflowed");
    }

    mod copy_on_write {
        use super::*;
        use proptest::prelude::*;

        /// One edit at the node a path of child indices leads to.
        #[derive(Debug, Clone)]
        struct Edit {
            path: Vec<usize>,
            kind: usize,
            text: String,
        }

        fn arb_tree() -> impl Strategy<Value = Node> {
            let leaf = ("[a-c]", prop::option::of("[a-z]{0,3}")).prop_map(|(name, text)| {
                let mut n = Node::empty(name);
                if let Some(t) = text {
                    n.set_text(t);
                }
                n
            });
            leaf.prop_recursive(4, 32, 4, |inner| {
                ("[a-c]", prop::collection::vec(inner, 0..4))
                    .prop_map(|(name, children)| Node::elem(name, children))
            })
        }

        fn arb_edits() -> impl Strategy<Value = Vec<Edit>> {
            let edit = (
                prop::collection::vec(0usize..4, 0..5),
                0usize..6,
                "[a-z]{0,3}",
            )
                .prop_map(|(path, kind, text)| Edit { path, kind, text });
            prop::collection::vec(edit, 1..6)
        }

        /// The same tree in storage of its own.
        fn unshared(n: &Node) -> Node {
            let mut copy = Node::elem(n.symbol(), n.children().iter().map(unshared).collect());
            if let Some(t) = n.text() {
                copy.set_text(t);
            }
            copy
        }

        fn apply(root: &mut Node, edit: &Edit) {
            let mut node = root;
            for &step in &edit.path {
                let len = node.children().len();
                if len == 0 {
                    break;
                }
                node = &mut node.children_mut()[step % len];
            }
            match edit.kind {
                0 => node.push_child(Node::leaf("new", edit.text.as_str())),
                1 => node.set_text(edit.text.as_str()),
                2 => node.append_text(&edit.text),
                3 => node.children_mut().clear(),
                4 => {
                    node.children_mut().pop();
                }
                _ => {
                    node.children_mut();
                }
            }
        }

        proptest! {
            /// Editing a clone at any depth changes neither the original
            /// nor what the edit means, and the other way round.
            #[test]
            fn edits_never_show_through_a_clone(
                tree in arb_tree(),
                edits in arb_edits(),
                more in arb_edits(),
            ) {
                let mut original = tree;
                let witness = unshared(&original);
                let mut clone = original.clone();
                let mut model = unshared(&original);
                for edit in &edits {
                    apply(&mut clone, edit);
                    apply(&mut model, edit);
                }
                prop_assert_eq!(&original, &witness);
                prop_assert_eq!(&clone, &model);
                let witness = unshared(&clone);
                for edit in &more {
                    apply(&mut original, edit);
                }
                prop_assert_eq!(&clone, &witness);
            }
        }
    }
}
