//! Primitive value codec: LEB128 varints, length-prefixed UTF-8 strings,
//! and a lossless binary [`Node`] encoding. Decoding is defensive — every
//! malformed input maps to a typed [`DecodeError`], never a panic, and
//! nesting is capped at the same depth bound the XML parser enforces.
//! Nodes can be decoded into trees ([`Reader::nodes`]) or merely
//! validated in place ([`Reader::skip_nodes`]); both are one walk.

use dss_xml::Node;

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

    pub fn u64(&mut self) -> Result<u64, DecodeError> {
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
        let len = self.u64()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(DecodeError::UnexpectedEnd);
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
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
        self.node_at(0, &mut Vec::new())
    }

    /// The one node parser. What it builds is the caller's choice — a
    /// [`Node`] tree or nothing — so validating and materialising cannot
    /// disagree about which bytes are a node. Finished children wait on
    /// `stack` until their parent closes over them.
    fn node_at<B: Build>(&mut self, depth: usize, stack: &mut B::Stack) -> Result<B, DecodeError> {
        if depth >= MAX_NODE_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let name = self.str_ref()?;
        let text = if self.bool()? {
            Some(self.str_ref()?)
        } else {
            None
        };
        let count = self.count()?;
        for _ in 0..count {
            let child = self.node_at(depth + 1, stack)?;
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
        let mut out = Vec::with_capacity(count.min(1024));
        let mut stack = Vec::new();
        for _ in 0..count {
            out.push(self.node_at(0, &mut stack)?);
        }
        Ok(out)
    }

    /// Validates a node list without building it — [`Reader::nodes`]'s
    /// walk, the same checks in the same order, hence the same verdict and
    /// the same error — and returns its boundary index: item `i` occupies
    /// `index[i]..index[i + 1]` of the payload (so the index has one entry
    /// more than there are items).
    pub fn skip_nodes(&mut self) -> Result<Vec<usize>, DecodeError> {
        let count = self.count()?;
        let mut index = Vec::with_capacity(count.min(1024) + 1);
        for _ in 0..count {
            index.push(self.pos);
            self.node_at::<()>(0, &mut ())?;
        }
        index.push(self.pos);
        Ok(index)
    }
}

/// What [`Reader::node_at`] makes of the node it walks: a node is closed
/// over its finished children, so a tree moves them into its block once.
trait Build: Sized {
    /// Where finished children wait for their parent. It grows with the
    /// nodes actually decoded, never with a declared count.
    type Stack;
    fn push(stack: &mut Self::Stack, child: Self);
    /// The node over the last `count` children pushed.
    fn close(stack: &mut Self::Stack, name: &str, text: Option<&str>, count: usize) -> Self;
}

impl Build for Node {
    type Stack = Vec<Node>;
    fn push(stack: &mut Vec<Node>, child: Node) {
        stack.push(child);
    }
    fn close(stack: &mut Vec<Node>, name: &str, text: Option<&str>, count: usize) -> Node {
        // The payload's text is copied straight into the node.
        Node::new(name, text, stack.drain(stack.len() - count..))
    }
}

/// Validation only.
impl Build for () {
    type Stack = ();
    fn push(_: &mut (), _: ()) {}
    fn close(_: &mut (), _: &str, _: Option<&str>, _: usize) {}
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
