//! Streaming XML substrate for the data-stream-sharing reproduction.
//!
//! The paper ("Data Stream Sharing", Kuntschke & Kemper, EDBT 2006) operates
//! on streams of XML data items such as the `photon` elements of the ROSAT
//! All-Sky Survey. Section 2 of the paper restricts the data model to
//! *elements only* ("attributes in XML data can always be converted into
//! corresponding elements, we restrict ourselves to dealing with elements").
//!
//! This crate provides everything the rest of the system needs to work with
//! such data:
//!
//! * a byte-level, incremental [`tokenizer`] producing [`event::XmlEvent`]s,
//! * a well-formedness-checking pull parser ([`reader::XmlReader`]) with a
//!   *stream mode* for possibly infinite streams (`<photons> item item …`),
//! * an element-only tree model ([`tree::Node`]) where attributes found in
//!   the input are converted into child elements,
//! * child-axis-only path expressions π ([`path::Path`]) as used throughout
//!   the paper,
//! * a serializer ([`writer`]) whose byte counts feed the cost model, and
//! * a fixed-point [`decimal::Decimal`] type, because the paper's predicate
//!   constants are "integer values or decimal values with a finite number of
//!   decimal places" — binary floats would break predicate-graph reasoning.

pub mod decimal;
pub mod error;
pub mod event;
pub mod name;
pub mod path;
pub mod reader;
pub mod text;
pub mod tokenizer;
pub mod tree;
pub mod writer;

pub use decimal::Decimal;
pub use error::XmlError;
pub use event::XmlEvent;
pub use name::{NameTable, Symbol};
pub use path::Path;
pub use reader::XmlReader;
pub use tokenizer::Tokenizer;
pub use tree::Node;
