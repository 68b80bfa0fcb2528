//! Compilation of flat WXQuery subscriptions into properties and an
//! executable plan.
//!
//! The paper's approach "supports flat WXQueries without nesting" (Section
//! 3.1); nested queries are future work there and unsupported here. A flat
//! subscription has the shape
//!
//! ```text
//! <result-root>
//! { for $p in stream("s")/root/item [p]? |window|?
//!   (let $a := Φ($p/π))?
//!   (where χ)?
//!   return <t> … </t> }
//! </result-root>
//! ```
//!
//! Compilation produces (1) the [`Properties`] registered for sharing and
//! (2) the restructuring [`Template`] executed as post-processing at the
//! subscriber's super-peer.

use std::collections::BTreeSet;

use dss_engine::{build_operator, OpDag, StreamOperator, Template};
use dss_predicate::{Atom, PredicateGraph};
use dss_properties::{
    AggregationSpec, InputProperties, Operator, ProjectionSpec, Properties, ResultFilter,
    WindowOutputSpec, WindowSpec,
};
use dss_xml::{Path, Symbol, XmlError};

use crate::ast::{
    Clause, Condition, Content, ElementCtor, Expr, Flwr, ForSource, PredAtom, PredTerm, WindowAst,
};
use crate::error::QueryError;
use crate::parse::parse_query;

/// A fully compiled flat WXQuery subscription.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    /// Name of the referenced input data stream.
    pub input_stream: String,
    /// Expected stream root element name (first step of the for path).
    pub stream_root: String,
    /// Item element name (second step of the for path).
    pub item_name: String,
    /// Properties registered for this subscription (used for sharing).
    pub properties: Properties,
    /// Aggregation spec, if the query aggregates.
    pub aggregation: Option<AggregationSpec>,
    /// Window-output spec, if the query returns raw window contents.
    pub window_output: Option<WindowOutputSpec>,
    /// Restructuring template (the `return` clause).
    pub template: Template,
    /// Root element name of the produced result stream.
    pub result_root: String,
}

impl CompiledQuery {
    /// The restructuring (post-processing) operator for this query.
    pub fn restructure_op(&self) -> dss_engine::RestructureOp {
        match (&self.aggregation, &self.window_output) {
            (Some(spec), _) => {
                dss_engine::RestructureOp::for_aggregate(self.template.clone(), spec.op)
            }
            (None, Some(_)) => dss_engine::RestructureOp::for_window(self.template.clone()),
            (None, None) => dss_engine::RestructureOp::new(self.template.clone()),
        }
    }

    /// The single input's operator chain.
    pub fn operator_chain(&self) -> &[Operator] {
        self.properties.inputs()[0].operators()
    }

    /// The whole subscription as one runnable chain: the operator chain,
    /// then the restructuring of the `return` clause.
    pub fn executable(&self) -> OpDag<()> {
        let post: Box<dyn StreamOperator + Send> = Box::new(self.restructure_op());
        OpDag::chain(
            self.operator_chain()
                .iter()
                .map(build_operator)
                .chain([post]),
        )
    }
}

/// The most atomic predicates one condition may hold: a FLWR expression's
/// for-clause conditions and where clause together, or an `if`'s test.
pub const MAX_ATOMS: usize = 128;
/// The most distinct element paths one query may reference (in predicates,
/// aggregates, windows and its return clause).
pub const MAX_PATHS: usize = 64;
/// The most element constructors one query may contain.
pub const MAX_CONSTRUCTORS: usize = 1_024;

/// Refuses a query past [`MAX_ATOMS`], [`MAX_PATHS`] or
/// [`MAX_CONSTRUCTORS`] before any predicate work: a predicate's closure
/// costs the cube of its paths, and a coordinator plans on its control
/// thread, so an unbounded where clause would stall every registration.
fn check_size(expr: &Expr) -> Result<(), QueryError> {
    #[derive(Default)]
    struct Size<'a> {
        constructors: usize,
        atoms: usize,
        paths: BTreeSet<&'a Path>,
    }
    impl<'a> Size<'a> {
        fn condition(&mut self, atoms: impl IntoIterator<Item = &'a PredAtom>) {
            let n = atoms
                .into_iter()
                .inspect(|atom| {
                    self.paths.insert(&atom.lhs.path);
                    if let PredTerm::VarPlus(w, _) = &atom.rhs {
                        self.paths.insert(&w.path);
                    }
                })
                .count();
            self.atoms = self.atoms.max(n);
        }
        fn expr(&mut self, expr: &'a Expr) {
            match expr {
                Expr::Element(el) => self.ctor(el),
                Expr::Flwr(f) => {
                    let mut atoms: Vec<&PredAtom> = f.where_.iter().collect();
                    for clause in &f.clauses {
                        match clause {
                            Clause::For {
                                conditions, window, ..
                            } => {
                                atoms.extend(conditions);
                                if let Some(WindowAst::Diff { reference, .. }) = window {
                                    self.paths.insert(reference);
                                }
                            }
                            Clause::Let { source, .. } => {
                                self.paths.insert(&source.path);
                            }
                        }
                    }
                    self.condition(atoms);
                    self.expr(&f.ret);
                }
                Expr::If { cond, then, els } => {
                    self.condition(cond);
                    self.expr(then);
                    self.expr(els);
                }
                Expr::PathOutput(vp) => {
                    self.paths.insert(&vp.path);
                }
                Expr::Sequence(items) => items.iter().for_each(|e| self.expr(e)),
            }
        }
        fn ctor(&mut self, el: &'a ElementCtor) {
            self.constructors += 1;
            for c in &el.content {
                match c {
                    Content::Element(nested) => self.ctor(nested),
                    Content::Enclosed(inner) => self.expr(inner),
                    Content::Text(_) => {}
                }
            }
        }
    }
    let mut size = Size::default();
    size.expr(expr);
    for (what, count, cap) in [
        ("atomic predicates in one condition", size.atoms, MAX_ATOMS),
        ("distinct element paths", size.paths.len(), MAX_PATHS),
        ("element constructors", size.constructors, MAX_CONSTRUCTORS),
    ] {
        if count > cap {
            return Err(QueryError::TooLarge(format!(
                "{count} {what}, at most {cap}"
            )));
        }
    }
    Ok(())
}

/// Parses and compiles a WXQuery subscription text.
pub fn compile_query(text: &str) -> Result<CompiledQuery, QueryError> {
    compile_expr(&parse_query(text)?)
}

/// Compiles a parsed WXQuery expression.
pub fn compile_expr(expr: &Expr) -> Result<CompiledQuery, QueryError> {
    check_size(expr)?;
    // Unwrap the optional result-root element constructor.
    let (result_root, flwr) = match expr {
        Expr::Element(el) => {
            let mut flwr = None;
            for c in &el.content {
                match c {
                    Content::Enclosed(Expr::Flwr(f)) => {
                        if flwr.replace(f).is_some() {
                            return Err(QueryError::Unsupported(
                                "multiple FLWR expressions in the result constructor".into(),
                            ));
                        }
                    }
                    Content::Text(_) => {}
                    _ => {
                        return Err(QueryError::Unsupported(
                            "the result constructor must contain exactly one enclosed \
                             FLWR expression"
                                .into(),
                        ))
                    }
                }
            }
            let f = flwr.ok_or_else(|| {
                QueryError::Unsupported("the result constructor contains no FLWR expression".into())
            })?;
            (el.tag.clone(), f)
        }
        Expr::Flwr(f) => ("result".to_string(), f),
        _ => {
            return Err(QueryError::Unsupported(
                "a subscription must be an element constructor enclosing a FLWR expression, \
                 or a FLWR expression"
                    .into(),
            ))
        }
    };
    compile_flwr(result_root, flwr)
}

fn compile_flwr(result_root: String, flwr: &Flwr) -> Result<CompiledQuery, QueryError> {
    // ---- clauses ---------------------------------------------------------
    let mut for_clause = None;
    let mut let_clause = None;
    for clause in &flwr.clauses {
        match clause {
            Clause::For { .. } => {
                if for_clause.replace(clause).is_some() {
                    return Err(QueryError::Unsupported(
                        "multiple for clauses (multi-stream combination happens in \
                         post-processing and is outside the flat fragment)"
                            .into(),
                    ));
                }
            }
            Clause::Let { .. } => {
                if let_clause.replace(clause).is_some() {
                    return Err(QueryError::Unsupported(
                        "multiple let clauses in one FLWR expression".into(),
                    ));
                }
            }
        }
    }
    let Some(Clause::For {
        var: for_var,
        source,
        path,
        conditions,
        window,
    }) = for_clause
    else {
        return Err(QueryError::Analysis(
            "subscription has no for clause".into(),
        ));
    };
    let ForSource::Stream(stream_name) = source else {
        return Err(QueryError::Unsupported(
            "for clauses must range over stream(…) in the flat fragment".into(),
        ));
    };
    if path.len() != 2 {
        return Err(QueryError::Unsupported(format!(
            "the for-clause path must have exactly two steps (stream root / item), got {path:?}"
        )));
    }
    let stream_root = path.steps()[0].as_str().to_string();
    let item_name = path.steps()[1].as_str().to_string();

    // ---- predicates ------------------------------------------------------
    let mut selection_atoms: Vec<Atom> = Vec::new();
    let mut filter = ResultFilter::none();
    let let_var = match let_clause {
        Some(Clause::Let { var, .. }) => Some(var.as_str()),
        _ => None,
    };
    let add_condition = |cond: &Condition,
                         selection_atoms: &mut Vec<Atom>,
                         filter: &mut ResultFilter|
     -> Result<(), QueryError> {
        for atom in cond {
            if atom.lhs.var == *for_var {
                if atom.lhs.path.is_empty() {
                    return Err(QueryError::Analysis(format!(
                        "predicate compares the whole item ${for_var}; compare an element \
                             path instead"
                    )));
                }
                let converted = match &atom.rhs {
                    PredTerm::Const(c) => Atom::var_const(atom.lhs.path.clone(), atom.op, *c),
                    PredTerm::VarPlus(w, c) => {
                        if w.var != *for_var {
                            return Err(QueryError::Analysis(format!(
                                "predicate mixes variables ${} and ${}",
                                atom.lhs.var, w.var
                            )));
                        }
                        Atom::var_var(atom.lhs.path.clone(), atom.op, w.path.clone(), *c)
                    }
                };
                selection_atoms.push(converted);
            } else if Some(atom.lhs.var.as_str()) == let_var {
                if !atom.lhs.path.is_empty() {
                    return Err(QueryError::Analysis(
                        "aggregation results are scalar; a path below the aggregate \
                             variable is meaningless"
                            .into(),
                    ));
                }
                match &atom.rhs {
                    PredTerm::Const(c) => filter.conditions.push((atom.op, *c)),
                    PredTerm::VarPlus(..) => {
                        return Err(QueryError::Unsupported(
                            "aggregate filters must compare against constants".into(),
                        ))
                    }
                }
            } else {
                return Err(QueryError::Analysis(format!(
                    "unbound variable ${} in predicate",
                    atom.lhs.var
                )));
            }
        }
        Ok(())
    };
    add_condition(conditions, &mut selection_atoms, &mut filter)?;
    add_condition(&flwr.where_, &mut selection_atoms, &mut filter)?;

    let selection = PredicateGraph::from_atoms(&selection_atoms);

    // ---- aggregation -----------------------------------------------------
    let aggregation: Option<AggregationSpec> = match let_clause {
        Some(Clause::Let { var: _, op, source }) => {
            if source.var != *for_var {
                return Err(QueryError::Analysis(format!(
                    "aggregation source ${} is not the for variable ${for_var}",
                    source.var
                )));
            }
            let Some(window_ast) = window else {
                return Err(QueryError::Analysis(
                    "window-based aggregation requires a data window on the for clause".into(),
                ));
            };
            let window = build_window(window_ast)?;
            Some(AggregationSpec {
                op: *op,
                element: source.path.clone(),
                window,
                pre_selection: selection.clone(),
                result_filter: filter.clone(),
            })
        }
        _ => {
            if !filter.is_trivial() {
                return Err(QueryError::Analysis(
                    "filter references an aggregate variable but there is no let clause".into(),
                ));
            }
            None
        }
    };
    // A window without aggregation means the query returns the raw window
    // contents (the cost model's third result class).
    let window_output: Option<WindowOutputSpec> = match (&aggregation, window) {
        (None, Some(window_ast)) => Some(WindowOutputSpec {
            window: build_window(window_ast)?,
            pre_selection: selection.clone(),
        }),
        _ => None,
    };

    // ---- template + projection -------------------------------------------
    let mut output_paths: BTreeSet<Path> = BTreeSet::new();
    let template = build_template(
        &flwr.ret,
        for_var,
        let_var,
        aggregation.is_some(),
        window_output.is_some(),
        &mut output_paths,
    )?;

    let mut operators: Vec<Operator> = Vec::new();
    if !selection.is_trivial() {
        operators.push(Operator::Selection(selection.clone()));
    }
    match (&aggregation, &window_output) {
        (Some(spec), _) => operators.push(Operator::Aggregation(spec.clone())),
        (None, Some(spec)) => operators.push(Operator::WindowOutput(spec.clone())),
        (None, None) => {
            let referenced: BTreeSet<Path> = output_paths
                .iter()
                .cloned()
                .chain(selection.variables())
                .collect();
            operators.push(Operator::Projection(ProjectionSpec {
                output: output_paths,
                referenced,
            }));
        }
    }

    let properties = Properties::single(InputProperties::new(stream_name.clone(), operators)?);

    Ok(CompiledQuery {
        input_stream: stream_name.clone(),
        stream_root,
        item_name,
        properties,
        aggregation,
        window_output,
        template,
        result_root,
    })
}

fn build_window(ast: &WindowAst) -> Result<WindowSpec, QueryError> {
    Ok(match ast {
        WindowAst::Count { size, step } => WindowSpec::count(*size, *step)?,
        WindowAst::Diff {
            reference,
            size,
            step,
        } => WindowSpec::diff(reference.clone(), *size, *step)?,
    })
}

/// Lowers a `return` expression to a template, collecting the item paths it
/// outputs.
fn build_template(
    expr: &Expr,
    for_var: &str,
    let_var: Option<&str>,
    has_agg: bool,
    has_window: bool,
    output_paths: &mut BTreeSet<Path>,
) -> Result<Template, QueryError> {
    match expr {
        Expr::Element(el) => {
            let mut children = Vec::new();
            for c in &el.content {
                match c {
                    Content::Element(nested) => {
                        children.push(build_template(
                            &Expr::Element(nested.clone()),
                            for_var,
                            let_var,
                            has_agg,
                            has_window,
                            output_paths,
                        )?);
                    }
                    Content::Enclosed(inner) => {
                        children.push(build_template(
                            inner,
                            for_var,
                            let_var,
                            has_agg,
                            has_window,
                            output_paths,
                        )?);
                    }
                    Content::Text(t) => children.push(Template::Text(t.clone())),
                }
            }
            // Query text comes from outside the process: a new tag is
            // refused once the name table is full, like any other name.
            let tag = Symbol::try_intern(&el.tag).ok_or_else(|| {
                QueryError::Xml(XmlError::TooManyNames {
                    name: el.tag.clone(),
                })
            })?;
            Ok(Template::Element { tag, children })
        }
        Expr::PathOutput(vp) => {
            if vp.var == for_var {
                if has_agg {
                    return Err(QueryError::Unsupported(
                        "returning raw item data alongside a window aggregation is outside \
                         the flat fragment"
                            .into(),
                    ));
                }
                if has_window {
                    // The window variable $w denotes the window contents.
                    if !vp.path.is_empty() {
                        return Err(QueryError::Unsupported(
                            "paths below the window variable are not supported; return \
                             the whole window with { $w }"
                                .into(),
                        ));
                    }
                    return Ok(Template::WindowContents);
                }
                output_paths.insert(vp.path.clone());
                Ok(Template::Subtree(vp.path.clone()))
            } else if Some(vp.var.as_str()) == let_var {
                if !vp.path.is_empty() {
                    return Err(QueryError::Analysis(
                        "aggregate values are scalar; no path below them exists".into(),
                    ));
                }
                Ok(Template::AggValue)
            } else {
                Err(QueryError::Analysis(format!(
                    "unbound variable ${} in return clause",
                    vp.var
                )))
            }
        }
        Expr::Sequence(items) => {
            // A sequence in a return clause concatenates constructions; we
            // model it as an anonymous element group, which only makes sense
            // nested — reject at top level for clarity.
            let mut children = Vec::new();
            for i in items {
                children.push(build_template(
                    i,
                    for_var,
                    let_var,
                    has_agg,
                    has_window,
                    output_paths,
                )?);
            }
            Ok(Template::Element {
                tag: "sequence".into(),
                children,
            })
        }
        Expr::Flwr(_) => Err(QueryError::Unsupported(
            "nested FLWR expressions (the paper's future work) are not supported".into(),
        )),
        Expr::If { .. } => Err(QueryError::Unsupported(
            "conditional expressions in return clauses are not part of the flat fragment".into(),
        )),
    }
}
