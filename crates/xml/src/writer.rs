//! XML serialization and byte-size accounting.
//!
//! The cost model of the paper (Section 3.2) works with `size(p)`, the
//! average serialized size of one data stream item. The network simulator
//! charges edges by the actual number of bytes that cross them. Both use
//! this module, so the size computed by [`serialized_size`] is defined to be
//! exactly the length of [`node_to_string`]'s output.

use crate::text;
use crate::tree::Node;

/// Serializes a node compactly (no insignificant whitespace), appending to
/// `out`.
pub fn write_node_into(node: &Node, out: &mut String) {
    let name = node.name();
    if node.is_empty() {
        out.push('<');
        out.push_str(name);
        out.push_str("/>");
        return;
    }
    out.push('<');
    out.push_str(name);
    out.push('>');
    if let Some(t) = node.text() {
        text::escape_text_into(t, out);
    }
    for child in node.children() {
        write_node_into(child, out);
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// Serializes a node compactly into a fresh string.
pub fn node_to_string(node: &Node) -> String {
    let mut out = String::with_capacity(serialized_size(node));
    write_node_into(node, &mut out);
    out
}

/// Exact number of bytes [`node_to_string`] would produce. A node records
/// it when it is built, so this reads a field; only a subtree too large for
/// the field, or one edited in place, is walked.
pub fn serialized_size(node: &Node) -> usize {
    node.stored_size().unwrap_or_else(|| {
        let children = (!node.children().is_empty()).then(|| {
            node.children()
                .iter()
                .map(|c| serialized_size(c) as u64)
                .sum()
        });
        element_size(node.name(), node.text(), children) as usize
    })
}

/// Bytes of one element whose children (`None`: it has none) take
/// `children` bytes: `<name/>` when it has neither text nor children,
/// `<name>text…</name>` otherwise.
pub(crate) fn element_size(name: &str, text: Option<&str>, children: Option<u64>) -> u64 {
    let name = name.len() as u64;
    match (text, children) {
        (None, None) => name + 3,
        (text, children) => {
            2 * name + 5 + text.map_or(0, |t| text::escaped_len(t) as u64) + children.unwrap_or(0)
        }
    }
}

/// Pretty-prints a node with two-space indentation (for human inspection in
/// examples and experiment logs; never used for size accounting).
pub fn pretty(node: &Node) -> String {
    let mut out = String::new();
    pretty_into(node, 0, &mut out);
    out
}

fn pretty_into(node: &Node, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    let name = node.name();
    if node.is_empty() {
        out.push('<');
        out.push_str(name);
        out.push_str("/>\n");
        return;
    }
    out.push('<');
    out.push_str(name);
    out.push('>');
    if let Some(t) = node.text() {
        text::escape_text_into(t, out);
        out.push_str("</");
        out.push_str(name);
        out.push_str(">\n");
        return;
    }
    out.push('\n');
    for child in node.children() {
        pretty_into(child, depth + 1, out);
    }
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str("</");
    out.push_str(name);
    out.push_str(">\n");
}

/// Opening tag for a stream root (used when the simulator ships streams as
/// byte sequences).
pub fn stream_open(root: &str) -> String {
    format!("<{root}>")
}

/// Closing tag for a stream root.
pub fn stream_close(root: &str) -> String {
    format!("</{root}>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Node;

    fn photon() -> Node {
        Node::elem(
            "photon",
            vec![
                Node::leaf("phc", "57"),
                Node::elem(
                    "cel",
                    vec![Node::leaf("ra", "130.7"), Node::leaf("dec", "-46.2")],
                ),
                Node::leaf("en", "1.4"),
            ],
        )
    }

    #[test]
    fn compact_serialization() {
        assert_eq!(
            node_to_string(&photon()),
            "<photon><phc>57</phc><cel><ra>130.7</ra><dec>-46.2</dec></cel><en>1.4</en></photon>"
        );
    }

    #[test]
    fn size_matches_output_length() {
        for node in [
            photon(),
            Node::empty("x"),
            Node::leaf("t", "a < b & c"),
            Node::elem("w", vec![Node::empty("a"), Node::leaf("b", "")]),
        ] {
            assert_eq!(
                serialized_size(&node),
                node_to_string(&node).len(),
                "for {node:?}"
            );
        }
    }

    #[test]
    fn empty_leaf_with_empty_text_serializes_as_pair() {
        // `Node::leaf("b", "")` has Some("") text, so it is not `is_empty`.
        assert_eq!(node_to_string(&Node::leaf("b", "")), "<b></b>");
        assert_eq!(node_to_string(&Node::empty("b")), "<b/>");
    }

    #[test]
    fn escaping_applied() {
        assert_eq!(
            node_to_string(&Node::leaf("t", "1<2&3>2")),
            "<t>1&lt;2&amp;3&gt;2</t>"
        );
    }

    #[test]
    fn round_trip_through_parser() {
        let n = photon();
        assert_eq!(Node::parse(&node_to_string(&n)).unwrap(), n);
    }

    #[test]
    fn pretty_output_reparses_to_same_tree() {
        let n = photon();
        assert_eq!(Node::parse(&pretty(&n)).unwrap(), n);
        assert!(pretty(&n).contains("\n  <cel>"));
    }

    #[test]
    fn stream_framing() {
        assert_eq!(stream_open("photons"), "<photons>");
        assert_eq!(stream_close("photons"), "</photons>");
    }
}
