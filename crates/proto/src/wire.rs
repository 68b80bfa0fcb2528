//! Primitive value codec: LEB128 varints, length-prefixed UTF-8 strings,
//! and a lossless binary [`Node`] encoding. Decoding is defensive — every
//! malformed input maps to a typed [`DecodeError`], never a panic, and
//! nesting is capped at the same depth bound the XML parser enforces.
//! Nodes can be decoded into trees ([`Reader::nodes`]) or merely
//! validated in place ([`Reader::skip_nodes`]); both are one walk. A tree
//! built over bytes the validating walk accepted does not check them again
//! ([`crate::ItemsView::materialise`]).

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

pub fn put_nodes(out: &mut Vec<u8>, nodes: &[Node]) {
    put_u64(out, nodes.len() as u64);
    for n in nodes {
        put_node(out, n);
    }
}

/// Cursor over a received payload. All reads are bounds-checked.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`DecodeError::TrailingBytes`] if input remains — a
    /// well-formed message consumes its payload exactly.
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

    /// A length-prefixed string's bytes, unchecked.
    fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(DecodeError::UnexpectedEnd);
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(bytes)
    }

    /// A string of a node: its bytes, checked for UTF-8 if `UTF8`.
    fn node_str<const UTF8: bool>(&mut self) -> Result<&'a [u8], DecodeError> {
        let bytes = self.bytes()?;
        if UTF8 && std::str::from_utf8(bytes).is_err() {
            return Err(DecodeError::BadUtf8);
        }
        Ok(bytes)
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
        self.node_at::<Node, true>(0, &mut Tree::default())
    }

    /// The one node parser. What it builds is the caller's choice — a
    /// [`Node`] tree or nothing — so validating and materialising cannot
    /// disagree about which bytes are a node. Finished children wait on
    /// `stack` until their parent closes over them.
    ///
    /// Strings are checked for UTF-8 if `UTF8`. A [`Tree`] takes what it
    /// is handed for UTF-8, so the one tree walk with `UTF8` false is
    /// [`Reader::trusted_items`]'s, over bytes a checked walk has accepted.
    fn node_at<B: Build<'a>, const UTF8: bool>(
        &mut self,
        depth: usize,
        stack: &mut B::Stack,
    ) -> Result<B, DecodeError> {
        if depth >= MAX_NODE_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let name = self.node_str::<UTF8>()?;
        let text = if self.bool()? {
            Some(self.node_str::<UTF8>()?)
        } else {
            None
        };
        let count = self.count()?;
        for _ in 0..count {
            let child = self.node_at::<B, UTF8>(depth + 1, stack)?;
            B::push(stack, child);
        }
        Ok(B::close(stack, name, text, count))
    }

    pub fn nodes(&mut self) -> Result<Vec<Node>, DecodeError> {
        let count = self.count()?;
        self.items(count)
    }

    /// `count` nodes back to back (a node list without its count), built
    /// over one scratch stack.
    pub fn items(&mut self, count: usize) -> Result<Vec<Node>, DecodeError> {
        self.build_items::<true>(count)
    }

    /// [`Reader::items`] without the UTF-8 checks.
    ///
    /// # Safety
    ///
    /// Every string in the next `count` nodes is valid UTF-8: the bytes
    /// are ones [`Reader::skip_nodes`] accepted.
    pub(crate) unsafe fn trusted_items(&mut self, count: usize) -> Result<Vec<Node>, DecodeError> {
        self.build_items::<false>(count)
    }

    fn build_items<const UTF8: bool>(&mut self, count: usize) -> Result<Vec<Node>, DecodeError> {
        let mut out = Vec::with_capacity(count.min(1024));
        let mut tree = Tree::default();
        for _ in 0..count {
            out.push(self.node_at::<Node, UTF8>(0, &mut tree)?);
        }
        Ok(out)
    }

    /// Validates a node list without building it — [`Reader::nodes`]'s
    /// walk, the same checks in the same order, hence the same verdict and
    /// the same error — and returns its boundary index: item `i` occupies
    /// `index[i]..index[i + 1]` of the payload (so the index has one entry
    /// more than there are items).
    ///
    /// One pass over the rest of the payload comes first: if it is all
    /// ASCII, no string in it can be invalid UTF-8, and the walk does not
    /// check them one by one.
    pub fn skip_nodes(&mut self) -> Result<Vec<usize>, DecodeError> {
        let count = self.count()?;
        if self.buf[self.pos..].is_ascii() {
            self.index_items::<false>(count)
        } else {
            self.index_items::<true>(count)
        }
    }

    fn index_items<const UTF8: bool>(&mut self, count: usize) -> Result<Vec<usize>, DecodeError> {
        let mut index = Vec::with_capacity(count.min(1024) + 1);
        for _ in 0..count {
            index.push(self.pos);
            self.node_at::<(), UTF8>(0, &mut ())?;
        }
        index.push(self.pos);
        Ok(index)
    }
}

/// What [`Reader::node_at`] makes of the node it walks: a node is closed
/// over its finished children, so a tree moves them into its block once.
trait Build<'a>: Sized {
    /// Where finished children wait for their parent. It grows with the
    /// nodes actually decoded, never with a declared count.
    type Stack;
    fn push(stack: &mut Self::Stack, child: Self);
    /// The node over the last `count` children pushed.
    fn close(stack: &mut Self::Stack, name: &'a [u8], text: Option<&'a [u8]>, count: usize)
        -> Self;
}

/// A tree build's scratch: the finished children, and the element names
/// resolved so far.
#[derive(Default)]
struct Tree<'a> {
    children: Vec<Node>,
    names: Names<'a>,
}

impl<'a> Build<'a> for Node {
    type Stack = Tree<'a>;
    fn push(tree: &mut Tree<'a>, child: Node) {
        tree.children.push(child);
    }
    fn close(tree: &mut Tree<'a>, name: &'a [u8], text: Option<&'a [u8]>, count: usize) -> Node {
        use std::str::from_utf8_unchecked;
        // SAFETY: `node_at` hands a tree only strings that are UTF-8 —
        // checked by this walk, or by the one `trusted_items`'s caller
        // vouches for.
        let (name, text) = unsafe {
            (
                from_utf8_unchecked(name),
                text.map(|t| from_utf8_unchecked(t)),
            )
        };
        let children = tree.children.drain(tree.children.len() - count..);
        // The payload's text is copied straight into the node.
        Node::new(tree.names.symbol(name), text, children)
    }
}

/// Validation only.
impl Build<'_> for () {
    type Stack = ();
    fn push(_: &mut (), _: ()) {}
    fn close(_: &mut (), _: &[u8], _: Option<&[u8]>, _: usize) {}
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
