//! Primitive value codec: LEB128 varints, length-prefixed UTF-8 strings,
//! and a lossless binary [`Node`] encoding. Decoding is defensive — every
//! malformed input maps to a typed [`DecodeError`], never a panic, and
//! nesting is capped at the same depth bound the XML parser enforces.
//!
//! A batch's item list ([`put_items`]) prefixes every node with its
//! encoded length, so a relay finds item boundaries without reading a
//! node ([`crate::BatchView::parse`]). An item is read once, where it is
//! consumed: built into a tree ([`Reader::item`] then [`Reader::node`]),
//! or first probed for the decimals a selection reads
//! ([`probe_decimals`]). Both are the one node walk, [`Reader::walk`], so
//! both give the same verdict and the same error.

use dss_xml::{Decimal, Node, Path, Symbol};

use crate::DecodeError;

/// Decoded trees deeper than this are rejected ([`dss_xml::tree::MAX_DEPTH`]
/// — nothing the engine produces can legitimately exceed it, and the cap
/// keeps untrusted bytes from overflowing the decoder's stack).
pub const MAX_NODE_DEPTH: usize = dss_xml::tree::MAX_DEPTH;

/// Most paths one [`probe_decimals`] resolves (one bit each).
pub const MAX_PROBE_PATHS: usize = 64;

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

pub fn put_node(out: &mut Vec<u8>, node: &Node) {
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
        self.walk(0, (), &mut Tree::default())
    }

    /// The one node walk: the depth cap, the name, the text, the child
    /// count, then the children, each check in this order. `visit` acts on
    /// each node as it is read — builds its tree ([`Tree`]) or resolves
    /// paths in it ([`Probe`]) — so whatever a walk does, it accepts and
    /// rejects the same bytes with the same error.
    pub(crate) fn walk<V: Visit<'a>>(
        &mut self,
        depth: usize,
        scope: V::Scope,
        visit: &mut V,
    ) -> Result<V::Node, DecodeError> {
        if depth >= MAX_NODE_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let name = self.node_str()?;
        let text = if self.bool()? {
            Some(self.node_str()?)
        } else {
            None
        };
        let inner = visit.open(scope, name, text);
        let count = self.count()?;
        for _ in 0..count {
            let child = self.walk(depth + 1, inner, visit)?;
            visit.child(child);
        }
        Ok(visit.close(name, text, count))
    }

    /// A node list without item lengths (WAL records), built over one
    /// scratch stack.
    pub fn nodes(&mut self) -> Result<Vec<Node>, DecodeError> {
        let count = self.count()?;
        let mut out = Vec::with_capacity(count.min(1024));
        let mut tree = Tree::default();
        for _ in 0..count {
            out.push(self.walk(0, (), &mut tree)?);
        }
        Ok(out)
    }
}

/// What [`Reader::walk`] does with the nodes it reads.
pub(crate) trait Visit<'a> {
    /// What a node hands down to its children.
    type Scope: Copy;
    /// What a node becomes once read.
    type Node;
    /// A node's name and text are read: returns its children's scope.
    fn open(&mut self, scope: Self::Scope, name: &'a str, text: Option<&'a str>) -> Self::Scope;
    /// One of its children is read.
    fn child(&mut self, child: Self::Node);
    /// All `count` of its children are read.
    fn close(&mut self, name: &'a str, text: Option<&'a str>, count: usize) -> Self::Node;
}

/// The paths a probe resolves, what it found so far, and where it puts the
/// values.
struct Probe<'p, 'o> {
    paths: &'p [Path],
    /// A bit per path already resolved.
    found: u64,
    out: &'o mut [Option<Decimal>],
}

impl<'a> Visit<'a> for Probe<'_, '_> {
    /// The node's depth, and a bit for each path whose first `depth - 1`
    /// steps lead to the node's parent (every path, at the root).
    type Scope = (usize, u64);
    type Node = ();

    /// Of the paths not yet resolved, those whose next step names this
    /// node go on to its children, or end here: the first node a path
    /// reaches decides its value.
    fn open(
        &mut self,
        (depth, on): (usize, u64),
        name: &'a str,
        text: Option<&'a str>,
    ) -> Self::Scope {
        let (mut deeper, mut todo) = (0, on & !self.found);
        while todo != 0 {
            let p = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let steps = self.paths[p].steps();
            if depth > 0 && steps[depth - 1].as_str() != name {
                continue;
            }
            if steps.len() > depth {
                deeper |= 1 << p;
            } else {
                self.found |= 1 << p;
                self.out[p] = text.and_then(Decimal::parse);
            }
        }
        (depth + 1, deeper)
    }

    fn child(&mut self, (): ()) {}

    fn close(&mut self, _: &'a str, _: Option<&'a str>, _: usize) {}
}

/// Walks one encoded node ([`Reader::walk`]), which must fill `node`
/// exactly, building no tree, and sets `out[i]` to what [`Path::decimal`]
/// gives for `paths[i]` on that node's tree: the first node the path
/// reaches in document order, that node's text as a decimal. Accepts and rejects exactly what
/// [`Reader::item`] followed by [`Reader::node`] and [`Reader::finish`]
/// does, with the same error; `out` means nothing then.
///
/// # Panics
///
/// If `paths` holds more than [`MAX_PROBE_PATHS`] paths, or `out` is
/// shorter than `paths`.
pub fn probe_decimals(
    node: &[u8],
    paths: &[Path],
    out: &mut [Option<Decimal>],
) -> Result<(), DecodeError> {
    assert!(paths.len() <= MAX_PROBE_PATHS, "one bit per path");
    out[..paths.len()].fill(None);
    let mut probe = Probe {
        paths,
        found: 0,
        out,
    };
    let mut r = Reader::item(node);
    // One bit per path: every path starts at the root.
    r.walk(0, (0, ((1u128 << paths.len()) - 1) as u64), &mut probe)?;
    r.finish()
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

impl<'a> Visit<'a> for Tree<'a> {
    type Scope = ();
    type Node = Node;

    fn open(&mut self, (): (), _: &'a str, _: Option<&'a str>) {}

    fn child(&mut self, child: Node) {
        self.children.push(child);
    }

    fn close(&mut self, name: &'a str, text: Option<&'a str>, count: usize) -> Node {
        let children = self.children.drain(self.children.len() - count..);
        // The payload's text is copied straight into the node.
        Node::new(self.names.symbol(name), text, children)
    }
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
    fn symbol(&mut self, name: &'a str) -> Symbol {
        if let Some(&(_, sym)) = self.0.iter().find(|(known, _)| *known == name) {
            return sym;
        }
        let sym = Symbol::intern(name);
        if self.0.len() < NAME_CACHE {
            self.0.push((name, sym));
        }
        sym
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
