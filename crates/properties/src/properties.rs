//! The properties data structure (Section 3.1).
//!
//! Subscriptions and data streams are treated symmetrically: both are
//! described by the same structure, recording — per original input data
//! stream — the chain of operators (with their conditions) that transforms
//! the input into the represented (result) stream. Properties serve two
//! purposes: they describe which parts of the input a subscription needs,
//! and they describe the contents of the stream produced for it.
//!
//! Restructuring details (the `return` clause's element construction) are
//! deliberately *not* part of properties: restructuring happens in a
//! post-processing step at the subscriber's super-peer and its output is
//! never considered for reuse.

use std::collections::BTreeSet;
use std::fmt;

use crate::operator::Operator;
use dss_xml::Path;

/// Errors constructing properties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertiesError {
    /// A selection predicate is unsatisfiable; the paper rejects such
    /// subscriptions at registration.
    UnsatisfiablePredicate { stream: String },
    /// A subscription referenced no input streams.
    NoInputs,
}

impl fmt::Display for PropertiesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertiesError::UnsatisfiablePredicate { stream } => {
                write!(
                    f,
                    "unsatisfiable selection predicate on input stream {stream:?}"
                )
            }
            PropertiesError::NoInputs => write!(f, "subscription references no input streams"),
        }
    }
}

impl std::error::Error for PropertiesError {}

/// Properties of one input data stream: how the represented stream was
/// derived from it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InputProperties {
    stream: String,
    operators: Vec<Operator>,
}

impl InputProperties {
    /// Builds and normalizes the per-input properties: selection predicates
    /// are checked for satisfiability (unsatisfiable ⇒ error, the
    /// subscription can be rejected) and minimized. This normalization runs
    /// once per subscription at registration time, as in the paper.
    pub fn new(
        stream: impl Into<String>,
        operators: Vec<Operator>,
    ) -> Result<InputProperties, PropertiesError> {
        let stream = stream.into();
        let mut normalized = Vec::with_capacity(operators.len());
        for op in operators {
            normalized.push(match op {
                Operator::Selection(g) => {
                    if !g.is_satisfiable() {
                        return Err(PropertiesError::UnsatisfiablePredicate { stream });
                    }
                    Operator::Selection(g.minimize())
                }
                Operator::Aggregation(mut a) => {
                    if !a.pre_selection.is_satisfiable() {
                        return Err(PropertiesError::UnsatisfiablePredicate { stream });
                    }
                    a.pre_selection = a.pre_selection.minimize();
                    Operator::Aggregation(a)
                }
                Operator::WindowOutput(mut w) => {
                    if !w.pre_selection.is_satisfiable() {
                        return Err(PropertiesError::UnsatisfiablePredicate { stream });
                    }
                    w.pre_selection = w.pre_selection.minimize();
                    Operator::WindowOutput(w)
                }
                other => other,
            });
        }
        Ok(InputProperties {
            stream,
            operators: normalized,
        })
    }

    /// Properties of an original, untransformed input stream.
    pub fn original(stream: impl Into<String>) -> InputProperties {
        InputProperties {
            stream: stream.into(),
            operators: Vec::new(),
        }
    }

    /// Name of the original input data stream (`getDS`).
    pub fn stream(&self) -> &str {
        &self.stream
    }

    /// The operator chain (`getOps`).
    pub fn operators(&self) -> &[Operator] {
        &self.operators
    }

    /// `true` if no operators were applied (the original stream).
    pub fn is_original(&self) -> bool {
        self.operators.is_empty()
    }

    /// First selection operator's predicate graph, if any.
    pub fn selection(&self) -> Option<&dss_predicate::PredicateGraph> {
        self.operators.iter().find_map(|o| match o {
            Operator::Selection(g) => Some(g),
            _ => None,
        })
    }

    /// First projection operator's spec, if any.
    pub fn projection(&self) -> Option<&crate::operator::ProjectionSpec> {
        self.operators.iter().find_map(|o| match o {
            Operator::Projection(p) => Some(p),
            _ => None,
        })
    }

    /// First aggregation operator's spec, if any.
    pub fn aggregation(&self) -> Option<&crate::operator::AggregationSpec> {
        self.operators.iter().find_map(|o| match o {
            Operator::Aggregation(a) => Some(a),
            _ => None,
        })
    }

    /// `true` if both properties are *variants* of the same original input
    /// stream — the precondition for even attempting a match.
    pub fn same_origin(&self, other: &InputProperties) -> bool {
        self.stream == other.stream
    }

    /// The complete set of input element paths this chain reads, when that
    /// set is finite and the chain carries no projection of its own — the
    /// precondition for serving the subscription from a *projected* stream
    /// that has no projection partner in it (Algorithm 2's `R ⊇ R'` is a
    /// coverage condition, not a requirement that the new chain literally
    /// contain a projection operator).
    ///
    /// `None` when the chain needs complete items: it is the original
    /// stream, it delivers raw items (no aggregation folds them away), it
    /// re-emits window contents, or an opaque UDF reads unknown elements.
    /// A chain with its own projection also returns `None`: the regular
    /// projection-cover check (`ProjectionSpec::covers`) is the authority
    /// there.
    pub fn projectionless_reads(&self) -> Option<BTreeSet<Path>> {
        let mut reads = BTreeSet::new();
        let mut folds = false;
        for op in &self.operators {
            match op {
                Operator::Selection(g) => reads.extend(g.variables()),
                Operator::Aggregation(a) => {
                    folds = true;
                    reads.insert(a.element.clone());
                    if let Some(r) = a.window.reference() {
                        reads.insert(r.clone());
                    }
                    reads.extend(a.pre_selection.variables());
                }
                Operator::Projection(_) | Operator::WindowOutput(_) | Operator::Udf { .. } => {
                    return None;
                }
            }
        }
        folds.then_some(reads)
    }
}

impl fmt::Display for InputProperties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.stream)?;
        for op in &self.operators {
            write!(f, " → {op}")?;
        }
        Ok(())
    }
}

/// Properties of a subscription or data stream: one entry per original
/// input data stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Properties {
    inputs: Vec<InputProperties>,
}

impl Properties {
    /// Builds properties over one or more inputs.
    pub fn new(inputs: Vec<InputProperties>) -> Result<Properties, PropertiesError> {
        if inputs.is_empty() {
            return Err(PropertiesError::NoInputs);
        }
        Ok(Properties { inputs })
    }

    /// Single-input properties (the common case; all streams produced for
    /// reuse are single-input — stream combinations happen in
    /// post-processing and are not shared).
    pub fn single(input: InputProperties) -> Properties {
        Properties {
            inputs: vec![input],
        }
    }

    /// Properties of an original registered stream.
    pub fn original(stream: impl Into<String>) -> Properties {
        Properties::single(InputProperties::original(stream))
    }

    /// Per-input properties (`getInputDS`).
    pub fn inputs(&self) -> &[InputProperties] {
        &self.inputs
    }

    /// The single input, if there is exactly one.
    pub fn as_single(&self) -> Option<&InputProperties> {
        match self.inputs.as_slice() {
            [one] => Some(one),
            _ => None,
        }
    }

    /// The input entry for a given original stream name.
    pub fn input_for(&self, stream: &str) -> Option<&InputProperties> {
        self.inputs.iter().find(|i| i.stream() == stream)
    }

    /// `true` if every input is the untransformed original stream.
    pub fn is_original(&self) -> bool {
        self.inputs.iter().all(InputProperties::is_original)
    }
}

impl fmt::Display for Properties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for i in &self.inputs {
            if !first {
                write!(f, " ⊕ ")?;
            }
            first = false;
            write!(f, "[{i}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::ProjectionSpec;
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_xml::{Decimal, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    #[test]
    fn construction_normalizes_selection() {
        let g = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("1.3")),
            Atom::var_const(p("en"), CompOp::Ge, d("1.0")), // redundant
        ]);
        let ip = InputProperties::new("photons", vec![Operator::Selection(g)]).unwrap();
        match &ip.operators()[0] {
            Operator::Selection(g) => assert_eq!(g.edge_count(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unsatisfiable_selection_rejected() {
        let g = PredicateGraph::from_atoms(&[
            Atom::var_const(p("en"), CompOp::Ge, d("2")),
            Atom::var_const(p("en"), CompOp::Le, d("1")),
        ]);
        let err = InputProperties::new("photons", vec![Operator::Selection(g)]).unwrap_err();
        assert_eq!(
            err,
            PropertiesError::UnsatisfiablePredicate {
                stream: "photons".into()
            }
        );
    }

    #[test]
    fn accessors() {
        let sel = PredicateGraph::from_atoms(&[Atom::var_const(p("en"), CompOp::Ge, d("1.3"))]);
        let proj = ProjectionSpec::returning([p("en")]);
        let ip = InputProperties::new(
            "photons",
            vec![
                Operator::Selection(sel.clone()),
                Operator::Projection(proj.clone()),
            ],
        )
        .unwrap();
        assert_eq!(ip.stream(), "photons");
        assert!(ip.selection().is_some());
        assert_eq!(ip.projection(), Some(&proj));
        assert!(ip.aggregation().is_none());
        assert!(!ip.is_original());
        assert!(InputProperties::original("photons").is_original());
    }

    #[test]
    fn same_origin() {
        let a = InputProperties::original("photons");
        let b = InputProperties::original("photons");
        let c = InputProperties::original("spectra");
        assert!(a.same_origin(&b));
        assert!(!a.same_origin(&c));
    }

    #[test]
    fn properties_container() {
        let props = Properties::original("photons");
        assert!(props.is_original());
        assert!(props.as_single().is_some());
        assert!(props.input_for("photons").is_some());
        assert!(props.input_for("other").is_none());
        assert!(Properties::new(vec![]).is_err());
    }

    #[test]
    fn display() {
        let props = Properties::original("photons");
        assert_eq!(props.to_string(), "[photons]");
    }
}
