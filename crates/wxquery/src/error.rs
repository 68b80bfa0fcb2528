//! WXQuery errors.

use std::fmt;

use dss_properties::{PropertiesError, WindowError};
use dss_xml::XmlError;

/// Errors raised while parsing, analyzing, or compiling a WXQuery
/// subscription.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Syntax error at a byte offset in the query text.
    Parse { message: String, offset: usize },
    /// The query is syntactically valid WXQuery but violates a semantic
    /// rule (unbound variable, misused aggregate, …).
    Analysis(String),
    /// The query uses a WXQuery feature outside the flat fragment this
    /// implementation executes (the paper defers nested queries to future
    /// work).
    Unsupported(String),
    /// The query exceeds one of the size caps (`compile::MAX_ATOMS`,
    /// `MAX_PATHS`, `MAX_CONSTRUCTORS`) and is refused before any
    /// predicate work.
    TooLarge(String),
    /// Error constructing the properties (e.g. unsatisfiable predicate —
    /// the paper rejects such subscriptions).
    Properties(PropertiesError),
    /// Invalid window specification.
    Window(WindowError),
    /// Embedded XML fragment error.
    Xml(XmlError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { message, offset } => {
                write!(f, "WXQuery syntax error at byte {offset}: {message}")
            }
            QueryError::Analysis(m) => write!(f, "WXQuery analysis error: {m}"),
            QueryError::Unsupported(m) => write!(f, "unsupported WXQuery feature: {m}"),
            QueryError::TooLarge(m) => write!(f, "WXQuery too large: {m}"),
            QueryError::Properties(e) => write!(f, "properties error: {e}"),
            QueryError::Window(e) => write!(f, "window error: {e}"),
            QueryError::Xml(e) => write!(f, "XML error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<PropertiesError> for QueryError {
    fn from(e: PropertiesError) -> QueryError {
        QueryError::Properties(e)
    }
}

impl From<WindowError> for QueryError {
    fn from(e: WindowError) -> QueryError {
        QueryError::Window(e)
    }
}

impl From<XmlError> for QueryError {
    fn from(e: XmlError) -> QueryError {
        QueryError::Xml(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = QueryError::Parse {
            message: "expected 'in'".into(),
            offset: 12,
        };
        assert_eq!(
            e.to_string(),
            "WXQuery syntax error at byte 12: expected 'in'"
        );
        assert!(QueryError::Analysis("unbound $x".into())
            .to_string()
            .contains("unbound $x"));
        assert!(QueryError::Unsupported("nesting".into())
            .to_string()
            .contains("nesting"));
    }

    #[test]
    fn conversions() {
        let e: QueryError = PropertiesError::NoInputs.into();
        assert!(matches!(e, QueryError::Properties(_)));
    }
}
