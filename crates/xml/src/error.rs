//! Error type shared by the XML substrate.

use std::fmt;

/// Errors raised while tokenizing, parsing, or otherwise processing XML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// The tokenizer met a byte sequence that cannot start or continue a
    /// well-formed construct. Carries a human-readable description and the
    /// byte offset at which the problem was detected.
    Syntax { message: String, offset: usize },
    /// An end tag did not match the innermost open start tag.
    MismatchedTag { expected: String, found: String },
    /// An end tag appeared with no element open.
    UnexpectedEndTag { name: String },
    /// The input ended in the middle of a construct.
    UnexpectedEof,
    /// Document content appeared after the root element was closed.
    TrailingContent,
    /// A name (element or attribute) is not a valid XML name.
    InvalidName { name: String },
    /// An entity reference could not be resolved.
    UnknownEntity { entity: String },
    /// A text value could not be interpreted as the requested type.
    ValueParse { value: String, wanted: &'static str },
    /// A path expression was syntactically invalid.
    InvalidPath { path: String, message: String },
    /// A new name was refused: the process's name table already holds
    /// [`crate::name::MAX_NAMES`] names.
    TooManyNames { name: String },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::Syntax { message, offset } => {
                write!(f, "XML syntax error at byte {offset}: {message}")
            }
            XmlError::MismatchedTag { expected, found } => {
                write!(
                    f,
                    "mismatched end tag: expected </{expected}>, found </{found}>"
                )
            }
            XmlError::UnexpectedEndTag { name } => {
                write!(f, "end tag </{name}> with no open element")
            }
            XmlError::UnexpectedEof => write!(f, "unexpected end of input"),
            XmlError::TrailingContent => write!(f, "content after document root"),
            XmlError::InvalidName { name } => write!(f, "invalid XML name: {name:?}"),
            XmlError::UnknownEntity { entity } => write!(f, "unknown entity: &{entity};"),
            XmlError::ValueParse { value, wanted } => {
                write!(f, "cannot parse {value:?} as {wanted}")
            }
            XmlError::InvalidPath { path, message } => {
                write!(f, "invalid path {path:?}: {message}")
            }
            XmlError::TooManyNames { name } => {
                write!(f, "name table full: {name:?} would be a new name")
            }
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let cases: Vec<(XmlError, &str)> = vec![
            (
                XmlError::Syntax {
                    message: "bad".into(),
                    offset: 7,
                },
                "XML syntax error at byte 7: bad",
            ),
            (
                XmlError::MismatchedTag {
                    expected: "a".into(),
                    found: "b".into(),
                },
                "mismatched end tag: expected </a>, found </b>",
            ),
            (
                XmlError::UnexpectedEndTag { name: "x".into() },
                "end tag </x> with no open element",
            ),
            (XmlError::UnexpectedEof, "unexpected end of input"),
            (XmlError::TrailingContent, "content after document root"),
            (
                XmlError::UnknownEntity {
                    entity: "nbsp".into(),
                },
                "unknown entity: &nbsp;",
            ),
        ];
        for (err, want) in cases {
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(XmlError::UnexpectedEof, XmlError::UnexpectedEof);
        assert_ne!(
            XmlError::UnexpectedEof,
            XmlError::Syntax {
                message: String::new(),
                offset: 0
            }
        );
    }
}
