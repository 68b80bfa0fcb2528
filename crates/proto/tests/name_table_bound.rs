//! A peer sending ever new element names cannot grow the process's name
//! table without bound: past `MAX_NAMES` a new name is refused with a
//! typed error at each entry point that takes outside input (a wire frame,
//! XML text, a path in query text), and names already known still decode.
//!
//! The name table is process-wide, so this file holds one test: a full
//! table would fail any test beside it that needs a new name.

use dss_proto::{DecodeError, Message};
use dss_xml::name::MAX_NAMES;
use dss_xml::{NameTable, Node, Path, XmlError};

const FRAMES: usize = 500_000;

#[test]
fn distinct_names_past_the_cap_are_refused_with_typed_errors() {
    // A template frame whose one item is named by a placeholder; each
    // round writes a fresh name of the same length over it, so the sender
    // never interns the names the receiver is fed.
    let placeholder = "n".repeat(18);
    let template = Message::Deliver {
        run: 1,
        query: "q".into(),
        offset: 0,
        eos: false,
        items: vec![Node::empty(placeholder.as_str())],
    }
    .encode();
    let at = template
        .windows(placeholder.len())
        .position(|w| w == placeholder.as_bytes())
        .expect("the name is written verbatim");
    let known = NameTable::len();
    assert!(known < MAX_NAMES);

    let (mut accepted, mut refused) = (0, 0);
    let mut frame = template.clone();
    for i in 0..FRAMES {
        let name = format!("x{i:017}");
        frame[at..at + name.len()].copy_from_slice(name.as_bytes());
        match Message::decode(&frame) {
            Ok(Message::Deliver { items, .. }) => {
                assert_eq!(items[0].name(), name);
                accepted += 1;
            }
            Err(DecodeError::TooManyNames) => refused += 1,
            other => panic!("frame {i}: {other:?}"),
        }
    }
    assert_eq!(accepted, MAX_NAMES - known);
    assert_eq!(refused, FRAMES - accepted);
    assert_eq!(NameTable::len(), MAX_NAMES);

    // A known name still decodes; new names from XML text and from query
    // paths are refused as well.
    assert!(Message::decode(&template).is_ok());
    assert!(matches!(
        Node::parse("<fresh-element/>"),
        Err(XmlError::TooManyNames { .. })
    ));
    assert!(matches!(
        Node::parse(&format!("<{placeholder} fresh-attribute='1'/>")),
        Err(XmlError::TooManyNames { .. })
    ));
    assert!(matches!(
        format!("{placeholder}/fresh-step").parse::<Path>(),
        Err(XmlError::TooManyNames { .. })
    ));
    assert!(Path::this().child("fresh-step").is_err());
    assert_eq!(NameTable::len(), MAX_NAMES);
}
