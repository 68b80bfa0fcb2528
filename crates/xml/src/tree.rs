//! Element-only XML tree model.
//!
//! Following Section 2 of the paper, the data model consists purely of
//! elements: a node has a name and either text content (a leaf value such as
//! a photon's `ra`) or child elements. Attributes encountered during parsing
//! are converted into leading child elements ("attributes in XML data can
//! always be converted into corresponding elements").
//!
//! # Storage
//!
//! A [`Node`] is built once and then only read. Short text (up to 22 bytes:
//! every number a photon carries) lives inside the node; longer text is a
//! shared `Arc<str>`. An element's children live in one reference-counted
//! block reached through one thin pointer, so `clone` copies 40 bytes and
//! bumps at most two counts however large the subtree, and an item that
//! flows past many subscribers is held once. Each node also records its
//! exact serialized size when it is built, so byte accounting reads a field
//! instead of walking the tree.
//!
//! Mutation is copy-on-write: the first change through a shared block
//! copies that one level (the grandchildren stay shared) and no other holder
//! ever observes it.

mod store;

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::decimal::Decimal;
use crate::error::XmlError;
use crate::event::XmlEvent;
use crate::name::Symbol;
use crate::writer;
use store::{Block, Text};

/// Maximum element nesting depth accepted by the parsers. Bounds both the
/// build recursion and the eventual `Drop` recursion, so untrusted deeply
/// nested documents error out instead of overflowing the stack.
pub const MAX_DEPTH: usize = 512;

/// The stored size of a node whose size is not known: its subtree does not
/// fit a `u32`, or it was edited in place through [`Node::children_mut`].
const UNKNOWN_SIZE: u32 = u32::MAX;

/// An XML element: a name plus text and/or children. In the paper's
/// element-only data model an element has either a text value (a leaf) or
/// child elements; both are populated only for elements whose attributes
/// were converted into leading children, or for constructed results mixing
/// a label with copied subtrees. Text always renders before the children.
///
/// Equality and hashing are by content: where text is stored and which
/// nodes share storage never shows.
#[derive(Clone)]
pub struct Node {
    name: Symbol,
    /// [`writer::serialized_size`] of this subtree, fixed when the node was
    /// built, or [`UNKNOWN_SIZE`].
    size: u32,
    text: Text,
    /// `None` for an element without children, so a leaf costs no child
    /// allocation.
    children: Option<Block>,
}

impl Node {
    /// An empty element `<name/>`.
    pub fn empty(name: impl Into<Symbol>) -> Node {
        Node::from_parts(name.into(), Text::None, None)
    }

    /// A leaf element with text content.
    pub fn leaf(name: impl Into<Symbol>, text: impl AsRef<str>) -> Node {
        Node::from_parts(name.into(), Text::new(text.as_ref()), None)
    }

    /// A leaf element holding a decimal value.
    pub fn decimal_leaf(name: impl Into<Symbol>, value: Decimal) -> Node {
        Node::display_leaf(name, value)
    }

    /// A leaf element holding `value` as [`Display`](fmt::Display) renders
    /// it, formatted straight into the node.
    pub fn display_leaf(name: impl Into<Symbol>, value: impl fmt::Display) -> Node {
        Node::from_parts(name.into(), Text::display(value), None)
    }

    /// An inner element with children.
    pub fn elem(name: impl Into<Symbol>, children: Vec<Node>) -> Node {
        Node::new(name, None, children)
    }

    /// An element with optional text and the children `children` yields,
    /// moved into the node's block as they come: an array, a `drain` of a
    /// reused buffer or cloned slice elements cost no list of their own.
    pub fn new<I>(name: impl Into<Symbol>, text: Option<&str>, children: I) -> Node
    where
        I: IntoIterator<Item = Node>,
        I::IntoIter: ExactSizeIterator,
    {
        let children = children.into_iter();
        Node::from_parts(
            name.into(),
            text.map_or(Text::None, Text::new),
            Block::build(children.len(), children),
        )
    }

    fn from_parts(name: Symbol, text: Text, children: Option<Block>) -> Node {
        let mut node = Node {
            name,
            size: UNKNOWN_SIZE,
            text,
            children,
        };
        node.size = node.measure();
        node
    }

    /// The serialized size from the name, the text and the children's
    /// stored sizes.
    fn measure(&self) -> u32 {
        let children = match &self.children {
            None => None,
            Some(block) => {
                let mut total = 0u64;
                for child in block.as_slice() {
                    if child.size == UNKNOWN_SIZE {
                        return UNKNOWN_SIZE;
                    }
                    total += u64::from(child.size);
                }
                Some(total)
            }
        };
        let size = writer::element_size(self.name(), self.text(), children);
        u32::try_from(size)
            .ok()
            .filter(|&s| s != UNKNOWN_SIZE)
            .unwrap_or(UNKNOWN_SIZE)
    }

    /// The serialized size recorded when the node was built, if known.
    pub(crate) fn stored_size(&self) -> Option<usize> {
        (self.size != UNKNOWN_SIZE).then_some(self.size as usize)
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
        self.text.as_str()
    }

    /// Child elements.
    pub fn children(&self) -> &[Node] {
        self.children.as_ref().map_or(&[], Block::as_slice)
    }

    /// Children, writable in place. Copies the child block first if
    /// another node shares it. Once the slice is handed out the stored size
    /// no longer holds, so [`writer::serialized_size`] walks this node from
    /// then on. [`push_child`](Node::push_child) and
    /// [`truncate_children`](Node::truncate_children) change the count.
    pub fn children_mut(&mut self) -> &mut [Node] {
        self.size = UNKNOWN_SIZE;
        match &mut self.children {
            Some(block) => block.make_mut(),
            None => &mut [],
        }
    }

    /// Appends a child. Existing text content is kept (it renders before
    /// the children) — needed so attribute-derived children and a text
    /// value can coexist on one element. Rebuilds the child block: build
    /// lists with [`Node::new`] rather than child by child.
    pub fn push_child(&mut self, child: Node) {
        let kids = self.children();
        let block = Block::build(
            kids.len() + 1,
            kids.iter().cloned().chain(std::iter::once(child)),
        );
        self.children = block;
        self.size = self.measure();
    }

    /// Keeps the first `len` children (all of them if there are fewer).
    pub fn truncate_children(&mut self, len: usize) {
        let kids = self.children();
        if len < kids.len() {
            self.children = Block::build(len, kids[..len].iter().cloned());
            self.size = self.measure();
        }
    }

    /// Sets the text content (rendered before any children).
    pub fn set_text(&mut self, text: impl AsRef<str>) {
        self.text = Text::new(text.as_ref());
        self.size = self.measure();
    }

    /// Appends to the text content (concatenating split text runs without
    /// rebuilding the node).
    pub fn append_text(&mut self, more: &str) {
        self.text.append(more);
        self.size = self.measure();
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
        self.text().is_none() && self.children.is_none()
    }

    /// Leaf text parsed as a decimal; `None` without text or when the text
    /// is not a decimal. The per-item read: unlike
    /// [`decimal_value`](Node::decimal_value) a miss builds no error, so
    /// operators that skip unreadable values pay nothing for them.
    pub fn decimal(&self) -> Option<Decimal> {
        Decimal::parse(self.text()?)
    }

    /// Leaf text parsed as a decimal, for callers that report the failure.
    pub fn decimal_value(&self) -> Result<Decimal, XmlError> {
        match self.text() {
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
    fn from_events_after_start<F>(
        name: Symbol,
        attributes: Vec<(Symbol, String)>,
        next: &mut F,
    ) -> Result<Node, XmlError>
    where
        F: FnMut() -> Result<Option<XmlEvent>, XmlError>,
    {
        let mut builder = TreeBuilder::new(MAX_DEPTH);
        builder.start(name, attributes)?;
        loop {
            if let Some(node) = builder.event(next()?.ok_or(XmlError::UnexpectedEof)?)? {
                return Ok(node);
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

/// Builds trees from parser events. The children of every open element
/// wait in one buffer, so an element's block is made once, at its end tag,
/// and the buffer is reused from item to item.
#[derive(Debug)]
pub(crate) struct TreeBuilder {
    open: Vec<Open>,
    children: Vec<Node>,
    /// Elements that may be open at once.
    max_open: usize,
}

#[derive(Debug)]
struct Open {
    name: Symbol,
    text: Option<String>,
    /// Where this element's children start in [`TreeBuilder::children`].
    first: usize,
    /// A child element has closed inside: text from now on would be mixed
    /// content, which the element-only model drops.
    has_elements: bool,
}

impl TreeBuilder {
    pub(crate) fn new(max_open: usize) -> TreeBuilder {
        TreeBuilder {
            open: Vec::new(),
            children: Vec::new(),
            max_open,
        }
    }

    /// `true` while an element is open.
    pub(crate) fn is_open(&self) -> bool {
        !self.open.is_empty()
    }

    /// Forgets a half-built tree.
    pub(crate) fn clear(&mut self) {
        self.open.clear();
        self.children.clear();
    }

    /// A start tag. Its attributes become its leading children, so a text
    /// value arriving after them is still the element's text.
    pub(crate) fn start(
        &mut self,
        name: Symbol,
        attributes: Vec<(Symbol, String)>,
    ) -> Result<(), XmlError> {
        if self.open.len() >= self.max_open {
            return Err(XmlError::Syntax {
                message: format!("element nesting deeper than {MAX_DEPTH}"),
                offset: 0,
            });
        }
        self.open.push(Open {
            name,
            text: None,
            first: self.children.len(),
            has_elements: false,
        });
        self.children
            .extend(attributes.into_iter().map(|(k, v)| Node::leaf(k, v)));
        Ok(())
    }

    /// One event inside the tree; the finished tree once its outermost
    /// element closes.
    pub(crate) fn event(&mut self, event: XmlEvent) -> Result<Option<Node>, XmlError> {
        match event {
            XmlEvent::StartElement { name, attributes } => self.start(name, attributes)?,
            XmlEvent::EndElement { name } => return self.end(name),
            XmlEvent::Text(t) => {
                if let Some(open) = self.open.last_mut().filter(|o| !o.has_elements) {
                    // Concatenate split text runs (e.g. around a CDATA).
                    match &mut open.text {
                        Some(text) => text.push_str(&t),
                        None => open.text = Some(t),
                    }
                }
            }
        }
        Ok(None)
    }

    fn end(&mut self, name: Symbol) -> Result<Option<Node>, XmlError> {
        let Some(open) = self.open.pop_if(|o| o.name == name) else {
            return Err(match self.open.last() {
                Some(open) => XmlError::MismatchedTag {
                    expected: open.name.as_str().to_string(),
                    found: name.as_str().to_string(),
                },
                None => XmlError::UnexpectedEndTag {
                    name: name.as_str().to_string(),
                },
            });
        };
        let node = Node::new(
            open.name,
            open.text.as_deref(),
            self.children.drain(open.first..),
        );
        match self.open.last_mut() {
            Some(parent) => {
                parent.has_elements = true;
                self.children.push(node);
                Ok(None)
            }
            None => Ok(Some(node)),
        }
    }
}

/// Same rendering as the derived impl of the owned representation this
/// replaced: storage is not part of a node's value.
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
        // or Π made of it; it settles a subtree without walking it. Known
        // sizes that differ settle it the other way.
        let shared = match (&self.children, &other.children) {
            (Some(a), Some(b)) => Block::ptr_eq(a, b),
            _ => false,
        };
        let sized_apart =
            self.size != other.size && self.size != UNKNOWN_SIZE && other.size != UNKNOWN_SIZE;
        self.name == other.name
            && !sized_apart
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
        // 56 bytes as an owned `String` + `Vec`; the 22 bytes of inline
        // text, the stored size and the thin block pointer fit in 40.
        assert!(std::mem::size_of::<Node>() <= 40);
        let mut p = sample_photon();
        p.push_child(Node::leaf("note", "a text too long to be inline"));
        let q = p.clone();
        assert_eq!(p.children().as_ptr(), q.children().as_ptr());
        // Long text is shared; short text is copied with the node.
        assert_eq!(
            p.child("note").unwrap().text().unwrap().as_ptr(),
            q.child("note").unwrap().text().unwrap().as_ptr()
        );
        let (short, copy) = (p.child("en").unwrap(), p.child("en").unwrap().clone());
        assert_eq!(short.text(), copy.text());
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
                3 => node.truncate_children(0),
                4 => node.truncate_children(node.children().len().saturating_sub(1)),
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

    mod stored_size {
        use super::*;
        use crate::reader::StreamReader;
        use crate::writer::{node_to_string, serialized_size};
        use proptest::prelude::*;
        use std::hash::{DefaultHasher, Hash, Hasher};

        /// `serialized_size` as it was before nodes stored their size: a
        /// walk over the whole subtree.
        fn reference_size(n: &Node) -> usize {
            if n.is_empty() {
                return n.name().len() + 3;
            }
            let escaped: usize = n.text().map_or(0, |t| {
                t.chars()
                    .map(|c| match c {
                        '&' => 5,
                        '<' | '>' => 4,
                        _ => c.len_utf8(),
                    })
                    .sum()
            });
            2 * n.name().len()
                + 5
                + escaped
                + n.children().iter().map(reference_size).sum::<usize>()
        }

        /// The reported size is the serialized length at every node, and
        /// so is every size a node stored.
        fn check(n: &Node) -> Result<(), TestCaseError> {
            let len = node_to_string(n).len();
            prop_assert_eq!(serialized_size(n), len);
            prop_assert_eq!(reference_size(n), len);
            if let Some(stored) = n.stored_size() {
                prop_assert_eq!(stored, len);
            }
            for child in n.children() {
                check(child)?;
            }
            Ok(())
        }

        fn hash(n: &Node) -> u64 {
            let mut h = DefaultHasher::new();
            n.hash(&mut h);
            h.finish()
        }

        /// Text over escapes and one-, two- and three-byte characters,
        /// often longer than the inline room.
        const TEXT: &str = "[a-z<&>é€]{0,16}";

        /// Trees built through every constructor and every mutation.
        fn arb_built() -> impl Strategy<Value = Node> {
            let leaf =
                (0usize..5, "[a-c]", TEXT, TEXT).prop_map(|(how, name, text, more)| match how {
                    0 => Node::leaf(name, &text),
                    1 => {
                        let mut n = Node::empty(name);
                        n.set_text(&text);
                        n
                    }
                    2 => {
                        let mut n = Node::leaf(name, &text);
                        n.append_text(&more);
                        n
                    }
                    3 => Node::display_leaf(name, text.len() * 1_000_003),
                    _ => Node::empty(name),
                });
            leaf.prop_recursive(4, 32, 4, |inner| {
                (
                    0usize..4,
                    "[a-c]",
                    prop::collection::vec(inner, 0..4),
                    prop::option::of(TEXT),
                )
                    .prop_map(|(how, name, kids, text)| match how {
                        0 => Node::elem(name, kids),
                        1 => {
                            let mut n = Node::new(name, text.as_deref(), Vec::new());
                            for kid in kids {
                                n.push_child(kid);
                            }
                            n
                        }
                        2 => {
                            let mut n = Node::new(name, text.as_deref(), kids);
                            if let Some(first) = n.children_mut().first_mut() {
                                first.append_text("<&>");
                                first.children_mut();
                            }
                            n
                        }
                        _ => {
                            let mut n = Node::new(name, None, kids);
                            n.truncate_children(2);
                            if let Some(t) = text {
                                n.set_text(t);
                            }
                            n
                        }
                    })
            })
        }

        /// The same tree built afresh from its content.
        fn rebuilt(n: &Node) -> Node {
            Node::new(n.symbol(), n.text(), n.children().iter().map(rebuilt))
        }

        proptest! {
            #[test]
            fn stored_sizes_are_serialized_lengths(tree in arb_built()) {
                check(&tree)?;
                let doc = node_to_string(&tree);
                check(&Node::parse(&doc).unwrap())?;
                // The stream reader, fed in pieces that split the text.
                let stream = format!("<s>{doc}{doc}</s>");
                let mut reader = StreamReader::new();
                let mut items = Vec::new();
                for piece in stream.as_bytes().chunks(7) {
                    reader.feed(piece);
                    while let Some(item) = reader.next_item().unwrap() {
                        items.push(item);
                    }
                }
                prop_assert_eq!(items.len(), 2);
                for item in &items {
                    check(item)?;
                    prop_assert_eq!(item, &Node::parse(&doc).unwrap());
                }
            }

            #[test]
            fn where_a_node_is_stored_never_shows(tree in arb_built()) {
                let fresh = rebuilt(&tree);
                prop_assert_eq!(&fresh, &tree);
                prop_assert_eq!(hash(&fresh), hash(&tree));
                prop_assert_eq!(format!("{fresh:?}"), format!("{tree:?}"));
                prop_assert_eq!(fresh.stored_size(), Some(node_to_string(&tree).len()));
            }
        }

        #[test]
        fn text_on_either_side_of_the_inline_room() {
            let mut texts: Vec<String> = (20..=24).map(|n| "7".repeat(n)).collect();
            // Multi-byte characters across the 22-byte cut.
            texts.push(format!("{}é", "a".repeat(21)));
            texts.push(format!("{}€", "a".repeat(19)));
            texts.push(format!("{}€", "a".repeat(20)));
            texts.push("€".repeat(8));
            // Escapes that grow the serialized text past 22 bytes.
            texts.push("<&>".repeat(7));
            texts.push(format!("{}<", "a".repeat(22)));
            for text in &texts {
                let whole = Node::leaf("t", text);
                assert_eq!(whole.text(), Some(text.as_str()));
                assert_eq!(
                    whole.stored_size(),
                    Some(node_to_string(&whole).len()),
                    "{text:?}"
                );
                // Every split of the text into two runs.
                for (cut, _) in text.char_indices().chain([(text.len(), ' ')]) {
                    let mut pieces = Node::leaf("t", &text[..cut]);
                    pieces.append_text(&text[cut..]);
                    let mut set = Node::empty("t");
                    set.set_text(text);
                    for n in [&pieces, &set] {
                        assert_eq!(n, &whole, "{text:?} cut at {cut}");
                        assert_eq!(hash(n), hash(&whole));
                        assert_eq!(format!("{n:?}"), format!("{whole:?}"));
                        assert_eq!(n.stored_size(), whole.stored_size());
                    }
                }
            }
        }

        #[test]
        fn edits_in_place_are_measured_by_the_walk() {
            let mut p = sample_photon();
            let before = serialized_size(&p);
            p.children_mut()[0].set_text("a much longer photon counter");
            assert_eq!(p.stored_size(), None);
            assert_eq!(serialized_size(&p), node_to_string(&p).len());
            assert!(serialized_size(&p) > before);
            // The next measured change settles the size again.
            p.set_text("x");
            assert_eq!(p.stored_size(), Some(node_to_string(&p).len()));
        }
    }
}
