//! Pull parser with well-formedness checking, plus a *stream reader* for
//! possibly-infinite streams of XML items.
//!
//! In the paper, a data stream such as `photons` is a single long-lived XML
//! document: a stream root element (`<photons>`) whose children — the
//! *stream items* (`<photon>…</photon>`) — keep arriving indefinitely.
//! [`StreamReader`] exposes exactly that abstraction: feed bytes, pop
//! complete item subtrees.

use crate::error::XmlError;
use crate::event::XmlEvent;
use crate::name::Symbol;
use crate::tokenizer::Tokenizer;
use crate::tree::{Node, TreeBuilder, MAX_DEPTH};

/// Event reader enforcing well-formedness (balanced tags, single root).
#[derive(Debug)]
pub struct XmlReader {
    tok: Tokenizer,
    stack: Vec<Symbol>,
    seen_root: bool,
}

impl XmlReader {
    /// Wraps a tokenizer.
    pub fn new(tok: Tokenizer) -> XmlReader {
        XmlReader {
            tok,
            stack: Vec::new(),
            seen_root: false,
        }
    }

    /// Reader over a complete in-memory document.
    // Not the FromStr trait: construction is infallible and the name is
    // the natural dual of `feed`/`finish`.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(input: &str) -> XmlReader {
        XmlReader::new(Tokenizer::from_str(input))
    }

    /// Appends input bytes (before [`finish`](XmlReader::finish)).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.tok.feed(bytes);
    }

    /// Signals end of input.
    pub fn finish(&mut self) {
        self.tok.finish();
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Next event, with well-formedness checks applied.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent>, XmlError> {
        let Some(ev) = self.tok.next_event()? else {
            if self.tok.is_done() && !self.stack.is_empty() {
                return Err(XmlError::UnexpectedEof);
            }
            return Ok(None);
        };
        match &ev {
            XmlEvent::StartElement { name, .. } => {
                if self.stack.is_empty() {
                    if self.seen_root {
                        return Err(XmlError::TrailingContent);
                    }
                    self.seen_root = true;
                }
                self.stack.push(*name);
            }
            XmlEvent::EndElement { name } => match self.stack.pop() {
                Some(open) if open == *name => {}
                Some(open) => {
                    return Err(XmlError::MismatchedTag {
                        expected: open.as_str().to_string(),
                        found: name.as_str().to_string(),
                    })
                }
                None => {
                    return Err(XmlError::UnexpectedEndTag {
                        name: name.as_str().to_string(),
                    })
                }
            },
            XmlEvent::Text(_) => {
                if self.stack.is_empty() {
                    return Err(XmlError::TrailingContent);
                }
            }
        }
        Ok(Some(ev))
    }

    /// Reads the complete document into its root element tree.
    pub fn read_document(mut self) -> Result<Node, XmlError> {
        let node = Node::from_events(&mut || self.next_event())?;
        match self.next_event()? {
            None => Ok(node),
            Some(_) => Err(XmlError::TrailingContent),
        }
    }
}

/// Incremental reader for a stream document: a root element whose children
/// are the stream items.
///
/// ```
/// use dss_xml::reader::StreamReader;
///
/// let mut r = StreamReader::new();
/// r.feed(b"<photons><photon><en>1.3</en></photon><photon>");
/// assert_eq!(r.root_name(), Some("photons"));
/// let item = r.next_item().unwrap().unwrap();
/// assert_eq!(item.name(), "photon");
/// assert!(r.next_item().unwrap().is_none()); // second item incomplete
/// ```
#[derive(Debug)]
pub struct StreamReader {
    tok: Tokenizer,
    root: Option<Symbol>,
    /// The item being read. Open across calls when the tokenizer ran dry
    /// mid-item; its buffers are reused from item to item.
    item: TreeBuilder,
    /// Error discovered by `root_name` look-ahead, surfaced by the next
    /// `next_item` call instead of being swallowed.
    deferred: Option<XmlError>,
    /// Set once the root end tag was consumed.
    closed: bool,
    items_read: u64,
}

impl StreamReader {
    /// Creates an empty stream reader.
    pub fn new() -> StreamReader {
        StreamReader {
            tok: Tokenizer::new(),
            root: None,
            // The stream root is one level of the document's nesting.
            item: TreeBuilder::new(MAX_DEPTH - 1),
            deferred: None,
            closed: false,
            items_read: 0,
        }
    }

    /// Appends input bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.tok.feed(bytes);
    }

    /// Signals end of input (finite streams / tests).
    pub fn finish(&mut self) {
        self.tok.finish();
    }

    /// The stream root element name, once its start tag has been read.
    pub fn root_name(&mut self) -> Option<&str> {
        if self.root.is_none() && self.deferred.is_none() {
            // Try to read the root start tag; malformed prefixes are not
            // swallowed — they surface from the next `next_item` call.
            match self.tok.next_event() {
                Ok(Some(XmlEvent::StartElement { name, .. })) => self.root = Some(name),
                Ok(Some(other)) => {
                    self.deferred = Some(XmlError::Syntax {
                        message: format!("expected stream root, found {other:?}"),
                        offset: 0,
                    });
                }
                Ok(None) => {}
                Err(e) => self.deferred = Some(e),
            }
        }
        self.root.map(Symbol::as_str)
    }

    /// Number of complete items returned so far.
    pub fn items_read(&self) -> u64 {
        self.items_read
    }

    /// `true` once the stream's root element has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Returns the next complete stream item, or `Ok(None)` if more input is
    /// needed (or the stream has ended).
    pub fn next_item(&mut self) -> Result<Option<Node>, XmlError> {
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        if self.closed {
            return Ok(None);
        }
        if !self.item.is_open() {
            if self.root.is_none() {
                match self.tok.next_event()? {
                    Some(XmlEvent::StartElement { name, .. }) => self.root = Some(name),
                    Some(other) => {
                        return Err(XmlError::Syntax {
                            message: format!("expected stream root, found {other:?}"),
                            offset: 0,
                        })
                    }
                    None => return Ok(None),
                }
            }
            // Inside the root: the next start tag opens an item.
            loop {
                let Some(ev) = self.tok.next_event()? else {
                    return Ok(None);
                };
                match ev {
                    XmlEvent::StartElement { name, attributes } => {
                        self.item.start(name, attributes)?;
                        break;
                    }
                    XmlEvent::EndElement { name } => {
                        if Some(name) == self.root {
                            self.closed = true;
                            return Ok(None);
                        }
                        return Err(XmlError::UnexpectedEndTag {
                            name: name.as_str().to_string(),
                        });
                    }
                    XmlEvent::Text(_) => {
                        // Loose text between items: tolerated and skipped.
                    }
                }
            }
        }
        let item = self.read_item_rest();
        if item.is_err() {
            self.item.clear();
        }
        if let Ok(Some(_)) = item {
            self.items_read += 1;
        }
        item
    }

    /// Reads the open item on to its end tag, or until the tokenizer runs
    /// dry (`Ok(None)`: the item stays open for the next call).
    fn read_item_rest(&mut self) -> Result<Option<Node>, XmlError> {
        while let Some(ev) = self.tok.next_event()? {
            if let Some(item) = self.item.event(ev)? {
                return Ok(Some(item));
            }
        }
        Ok(None)
    }
}

impl Default for StreamReader {
    fn default() -> Self {
        StreamReader::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_checks_balance() {
        let mut r = XmlReader::from_str("<a><b>1</b></a>");
        let mut n = 0;
        while r.next_event().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn reader_rejects_mismatch() {
        let mut r = XmlReader::from_str("<a></b>");
        r.next_event().unwrap();
        assert!(matches!(
            r.next_event(),
            Err(XmlError::MismatchedTag { .. })
        ));
    }

    #[test]
    fn reader_rejects_second_root() {
        let mut r = XmlReader::from_str("<a/><b/>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert_eq!(r.next_event(), Err(XmlError::TrailingContent));
    }

    #[test]
    fn reader_rejects_stray_end() {
        let mut r = XmlReader::from_str("</a>");
        assert!(matches!(
            r.next_event(),
            Err(XmlError::UnexpectedEndTag { .. })
        ));
    }

    #[test]
    fn reader_detects_eof_inside_element() {
        let mut r = XmlReader::from_str("<a><b>");
        r.next_event().unwrap();
        r.next_event().unwrap();
        assert_eq!(r.next_event(), Err(XmlError::UnexpectedEof));
    }

    #[test]
    fn read_document_builds_tree() {
        let n = XmlReader::from_str("<a><b>1</b><c/></a>")
            .read_document()
            .unwrap();
        assert_eq!(n.name(), "a");
        assert_eq!(n.children().len(), 2);
    }

    #[test]
    fn stream_reader_yields_items() {
        let mut r = StreamReader::new();
        r.feed(b"<photons><photon><en>1.3</en></photon><photon><en>2.5</en></photon>");
        assert_eq!(r.root_name(), Some("photons"));
        let a = r.next_item().unwrap().unwrap();
        let b = r.next_item().unwrap().unwrap();
        assert_eq!(a.child("en").unwrap().text(), Some("1.3"));
        assert_eq!(b.child("en").unwrap().text(), Some("2.5"));
        assert!(r.next_item().unwrap().is_none());
        assert_eq!(r.items_read(), 2);
        assert!(!r.is_closed());
    }

    #[test]
    fn stream_reader_handles_chunked_mid_item_input() {
        let mut r = StreamReader::new();
        r.feed(b"<photons><photon><coord><cel><ra>12");
        assert!(r.next_item().unwrap().is_none());
        r.feed(b"0.5</ra></cel>");
        assert!(r.next_item().unwrap().is_none());
        r.feed(b"</coord></photon>");
        let item = r.next_item().unwrap().unwrap();
        assert_eq!(
            item.child("coord")
                .unwrap()
                .child("cel")
                .unwrap()
                .child("ra")
                .unwrap()
                .text(),
            Some("120.5")
        );
    }

    #[test]
    fn stream_reader_byte_at_a_time() {
        let doc = "<s><i><v>1</v></i><i><v>2</v></i><i><v>3</v></i></s>";
        let mut r = StreamReader::new();
        let mut items = Vec::new();
        for b in doc.bytes() {
            r.feed(&[b]);
            while let Some(item) = r.next_item().unwrap() {
                items.push(item);
            }
        }
        assert_eq!(items.len(), 3);
        assert!(r.is_closed());
        let vals: Vec<_> = items
            .iter()
            .map(|i| i.child("v").unwrap().text().unwrap().to_string())
            .collect();
        assert_eq!(vals, vec!["1", "2", "3"]);
    }

    #[test]
    fn stream_reader_detects_close() {
        let mut r = StreamReader::new();
        r.feed(b"<photons><photon><en>1</en></photon></photons>");
        r.finish();
        assert!(r.next_item().unwrap().is_some());
        assert!(r.next_item().unwrap().is_none());
        assert!(r.is_closed());
        // After close, further calls keep returning None.
        assert!(r.next_item().unwrap().is_none());
    }

    #[test]
    fn stream_reader_deeply_nested_items() {
        let mut r = StreamReader::new();
        r.feed(b"<s><i><a><b><c>x</c></b></a></i></s>");
        let item = r.next_item().unwrap().unwrap();
        assert_eq!(item.depth(), 4);
    }

    #[test]
    fn stream_reader_skips_inter_item_comments() {
        let mut r = StreamReader::new();
        r.feed(b"<s><!-- hello --><i><v>1</v></i><!-- bye --></s>");
        assert!(r.next_item().unwrap().is_some());
        assert!(r.next_item().unwrap().is_none());
        assert!(r.is_closed());
    }

    #[test]
    fn root_name_defers_errors_to_next_item() {
        // Junk before the root: root_name must not silently consume it.
        let mut r = StreamReader::new();
        r.feed(b"junk</x><photons><photon><v>1</v></photon></photons>");
        assert_eq!(r.root_name(), None);
        assert!(
            r.next_item().is_err(),
            "the malformed prefix must surface as an error"
        );

        // A hard tokenizer error likewise surfaces instead of spinning.
        let mut r = StreamReader::new();
        r.feed(b"<1bad>");
        assert_eq!(r.root_name(), None);
        assert!(r.next_item().is_err());
    }

    #[test]
    fn stream_reader_keeps_text_of_attributed_items() {
        let mut r = StreamReader::new();
        r.feed(br#"<s><v unit="keV">1.4</v></s>"#);
        let item = r.next_item().unwrap().unwrap();
        assert_eq!(item.text(), Some("1.4"));
        assert_eq!(item.children()[0], Node::leaf("unit", "keV"));
    }

    #[test]
    fn stream_reader_bounds_item_depth() {
        let mut doc = String::from("<s>");
        for _ in 0..crate::tree::MAX_DEPTH + 5 {
            doc.push_str("<d>");
        }
        let mut r = StreamReader::new();
        r.feed(doc.as_bytes());
        assert!(matches!(r.next_item(), Err(XmlError::Syntax { .. })));
    }

    #[test]
    fn stream_reader_rejects_mismatched_item() {
        let mut r = StreamReader::new();
        r.feed(b"<s><i><v>1</w></i></s>");
        assert!(matches!(r.next_item(), Err(XmlError::MismatchedTag { .. })));
    }
}
