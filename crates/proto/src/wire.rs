//! Primitive value codec: LEB128 varints, length-prefixed UTF-8 strings,
//! and a lossless binary [`Node`] encoding. Decoding is defensive — every
//! malformed input maps to a typed [`DecodeError`], never a panic, and
//! nesting is capped at the same depth bound the XML parser enforces.
//!
//! A batch's item list ([`put_items`]) prefixes every node with its
//! encoded length, so a relay finds item boundaries without reading a
//! node ([`crate::BatchView::parse`]). An item is read once, where it is
//! consumed, by the one node walk ([`Reader::item`] then [`Reader::node`]):
//! it checks every byte and builds the tree as it goes.

use dss_xml::{Node, Symbol};

use crate::DecodeError;

/// Decoded trees deeper than this are rejected ([`dss_xml::tree::MAX_DEPTH`]
/// — nothing the engine produces can legitimately exceed it, and the cap
/// keeps untrusted bytes from overflowing the decoder's stack).
pub const MAX_NODE_DEPTH: usize = dss_xml::tree::MAX_DEPTH;

pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    put_u64(out, v as u64);
}

pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    put_u64(out, v as u64);
}

pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_node(out: &mut Vec<u8>, node: &Node) {
    put_str(out, node.name());
    match node.text() {
        Some(t) => {
            out.push(1);
            put_str(out, t);
        }
        None => out.push(0),
    }
    put_u64(out, node.children().len() as u64);
    for child in node.children() {
        put_node(out, child);
    }
}

/// A node list: the count, then the nodes back to back (WAL records).
pub fn put_nodes(out: &mut Vec<u8>, nodes: &[Node]) {
    put_u64(out, nodes.len() as u64);
    for n in nodes {
        put_node(out, n);
    }
}

/// A batch's item list: the count, then each node behind its encoded
/// length. The length is written as a one-byte placeholder and patched;
/// only an item of 128 bytes or more moves to make room for a longer one.
pub fn put_items(out: &mut Vec<u8>, nodes: &[Node]) {
    put_u64(out, nodes.len() as u64);
    for n in nodes {
        let at = out.len();
        out.push(0);
        put_node(out, n);
        let len = out.len() - at - 1;
        if len < 0x80 {
            out[at] = len as u8;
        } else {
            let mut prefix = Vec::with_capacity(10);
            put_u64(&mut prefix, len as u64);
            out.splice(at..=at, prefix);
        }
    }
}

/// Cursor over a received payload. All reads are bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// `buf` itself, when it is valid UTF-8 as a whole: a node's strings
    /// are then cut from it, not checked one by one.
    text: Option<&'a str>,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            buf,
            pos: 0,
            text: None,
        }
    }

    /// A reader over one encoded item. One UTF-8 pass over it comes
    /// first: if the item is valid UTF-8 as a whole, a string in it is
    /// valid exactly when its bounds fall on character boundaries (a byte
    /// after a string that continues a character would have left the
    /// string's last character unfinished), so no string is checked on its
    /// own — and the verdict and the error are the same either way.
    pub fn item(buf: &'a [u8]) -> Reader<'a> {
        Reader {
            text: std::str::from_utf8(buf).ok(),
            ..Reader::new(buf)
        }
    }

    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`DecodeError::TrailingBytes`] if input remains — a
    /// well-formed message (or item) consumes its payload exactly.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.buf.len() - self.pos,
            })
        }
    }

    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        // Nearly every length and count fits one byte.
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.u64_multi_byte(),
        }
    }

    fn u64_multi_byte(&mut self) -> Result<u64, DecodeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7F) as u64;
            // The 10th varint byte may only carry the single remaining bit.
            if shift == 63 && bits > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(DecodeError::VarintOverflow)
    }

    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        u32::try_from(self.u64()?).map_err(|_| DecodeError::VarintOverflow)
    }

    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        u16::try_from(self.u64()?).map_err(|_| DecodeError::VarintOverflow)
    }

    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadBool(b)),
        }
    }

    /// A length-prefixed UTF-8 string, borrowed from the payload.
    pub fn str_ref(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// A length-prefixed byte string, unchecked: a string's bytes, or an
    /// item of a batch.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()?;
        if len > (self.buf.len() - self.pos) as u64 {
            return Err(DecodeError::UnexpectedEnd);
        }
        let bytes = &self.buf[self.pos..self.pos + len as usize];
        self.pos += len as usize;
        Ok(bytes)
    }

    /// A string of a node: cut from the item's text if it is UTF-8 as a
    /// whole ([`Reader::item`]), checked on its own otherwise.
    fn node_str(&mut self) -> Result<&'a str, DecodeError> {
        let bytes = self.bytes()?;
        match self.text {
            Some(text) => text
                .get(self.pos - bytes.len()..self.pos)
                .ok_or(DecodeError::BadUtf8),
            None => std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8),
        }
    }

    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.str_ref().map(str::to_owned)
    }

    /// A declared element count. A hostile count cannot exceed what the
    /// remaining bytes could possibly encode (every node needs >= 3
    /// bytes), so nothing is ever sized by a count the payload cannot back.
    fn count(&mut self) -> Result<usize, DecodeError> {
        let count = self.u64()? as usize;
        if count > (self.buf.len() - self.pos) / 3 + 1 {
            return Err(DecodeError::UnexpectedEnd);
        }
        Ok(count)
    }

    pub fn node(&mut self) -> Result<Node, DecodeError> {
        self.walk(0, &mut Tree::default())
    }

    /// The one node walk: the depth cap, the name, the text, the child
    /// count, then the children, each check in this order, building the
    /// node's tree over `tree`'s scratch.
    pub(crate) fn walk(&mut self, depth: usize, tree: &mut Tree<'a>) -> Result<Node, DecodeError> {
        if depth >= MAX_NODE_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let name = self.node_str()?;
        let text = if self.bool()? {
            Some(self.node_str()?)
        } else {
            None
        };
        let count = self.count()?;
        for _ in 0..count {
            let child = self.walk(depth + 1, tree)?;
            tree.children.push(child);
        }
        let children = tree.children.drain(tree.children.len() - count..);
        // The payload's text is copied straight into the node.
        Ok(Node::new(tree.names.symbol(name)?, text, children))
    }

    /// A node list without item lengths (WAL records), built over one
    /// scratch stack.
    pub fn nodes(&mut self) -> Result<Vec<Node>, DecodeError> {
        let count = self.count()?;
        let mut out = Vec::with_capacity(count.min(1024));
        let mut tree = Tree::default();
        for _ in 0..count {
            out.push(self.walk(0, &mut tree)?);
        }
        Ok(out)
    }
}

/// A tree build's scratch: the finished children, and the element names
/// resolved so far. A caller that builds many nodes passes the same
/// `Tree` for all of them.
#[derive(Default)]
pub(crate) struct Tree<'a> {
    /// Finished children, waiting for their parent to close over them.
    children: Vec<Node>,
    names: Names<'a>,
}

/// How many distinct names a build remembers ([`Names`]). A photon has 11.
const NAME_CACHE: usize = 32;

/// Element names resolved so far in one build, by their bytes. A batch
/// repeats a handful of names, so each distinct one is interned once per
/// build rather than once per node. The cache stops growing at
/// [`NAME_CACHE`] entries: a list of ever new names costs a bounded scan
/// plus the per-node intern, never a scan that grows with the list.
#[derive(Default)]
struct Names<'a>(Vec<(&'a str, Symbol)>);

impl<'a> Names<'a> {
    fn symbol(&mut self, name: &'a str) -> Result<Symbol, DecodeError> {
        if let Some(&(_, sym)) = self.0.iter().find(|(known, _)| *known == name) {
            return Ok(sym);
        }
        let sym = Symbol::try_intern(name).ok_or(DecodeError::TooManyNames)?;
        if self.0.len() < NAME_CACHE {
            self.0.push((name, sym));
        }
        Ok(sym)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.u64().unwrap(), v);
            assert!(r.is_done());
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can't fit in a u64.
        let buf = [0xFFu8; 11];
        let mut r = Reader::new(&buf);
        assert!(matches!(r.u64(), Err(DecodeError::VarintOverflow)));
    }

    #[test]
    fn node_round_trip() {
        let mut root = Node::empty("evt");
        root.push_child(Node::leaf("e", "12.5"));
        root.push_child(Node::elem("pos", vec![Node::leaf("x", "1")]));
        let mut buf = Vec::new();
        put_node(&mut buf, &root);
        let mut r = Reader::new(&buf);
        let back = r.node().unwrap();
        r.finish().unwrap();
        assert_eq!(back, root);
    }

    #[test]
    fn too_deep_rejected() {
        // Hand-encode a nesting chain deeper than the cap.
        let mut buf = Vec::new();
        for _ in 0..MAX_NODE_DEPTH + 1 {
            put_str(&mut buf, "d");
            buf.push(0); // no text
            put_u64(&mut buf, 1); // one child
        }
        put_str(&mut buf, "leaf");
        buf.push(0);
        put_u64(&mut buf, 0);
        let mut r = Reader::new(&buf);
        assert!(matches!(r.node(), Err(DecodeError::TooDeep)));
    }

    #[test]
    fn hostile_child_count_rejected() {
        let mut buf = Vec::new();
        put_str(&mut buf, "n");
        buf.push(0);
        put_u64(&mut buf, u64::MAX); // absurd child count
        let mut r = Reader::new(&buf);
        assert!(matches!(r.node(), Err(DecodeError::UnexpectedEnd)));
    }
}
