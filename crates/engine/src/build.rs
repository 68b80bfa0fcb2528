//! Builds executable operators from the operator chains recorded in
//! properties.

use dss_properties::Operator;
use dss_xml::Node;

use crate::aggregate::AggregateOp;
use crate::op::{Emit, StreamOperator};
use crate::project::ProjectOp;
use crate::select::SelectOp;

/// A deterministic user-defined operator. Unknown semantics (the system
/// only assumes determinism), modeled as an identity transform with a
/// configurable extra load — enough to exercise the sharing rules for UDFs.
#[derive(Debug)]
pub struct UdfOp {
    params: Vec<String>,
}

impl UdfOp {
    /// Creates the UDF operator.
    pub fn new(params: Vec<String>) -> UdfOp {
        UdfOp { params }
    }

    /// The UDF's input vector (parameter list).
    pub fn params(&self) -> &[String] {
        &self.params
    }
}

impl StreamOperator for UdfOp {
    fn name(&self) -> &'static str {
        "udf"
    }

    fn process_into(&mut self, item: &Node, out: &mut Emit) {
        // Identity transform: the sink gets a pointer to the same tree.
        out.push(item.clone());
    }

    fn base_load(&self) -> f64 {
        3.0
    }
}

/// Instantiates one executable operator from its properties description.
/// The returned operator is `Send` so DAG executors can run it on a worker
/// thread; a chain of them runs as
/// `OpDag::chain(ops.iter().map(build_operator))`.
pub fn build_operator(op: &Operator) -> Box<dyn StreamOperator + Send> {
    match op {
        Operator::Selection(g) => Box::new(SelectOp::new(g.clone())),
        Operator::Projection(spec) => Box::new(ProjectOp::new(spec.clone())),
        Operator::Aggregation(spec) => Box::new(AggregateOp::new(spec.clone())),
        Operator::WindowOutput(spec) => {
            Box::new(crate::window_contents::WindowContentsOp::new(spec.clone()))
        }
        Operator::Udf { params, .. } => Box::new(UdfOp::new(params.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpDag;
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_properties::{AggOp, AggregationSpec, ProjectionSpec, ResultFilter, WindowSpec};
    use dss_xml::{Decimal, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn chain(ops: &[Operator]) -> OpDag<()> {
        OpDag::chain(ops.iter().map(build_operator))
    }

    /// What the chain emits for `items`, leaving its windows open.
    fn run(dag: &mut OpDag<()>, items: &[Node]) -> Vec<Node> {
        let mut out = Vec::new();
        for item in items {
            dag.process_into(item, &mut |_, n| out.push(n.clone()));
        }
        out
    }

    #[test]
    fn builds_select_project_chain() {
        let ops = vec![
            Operator::Selection(PredicateGraph::from_atoms(&[Atom::var_const(
                p("en"),
                CompOp::Ge,
                d("1.3"),
            )])),
            Operator::Projection(ProjectionSpec::returning([p("en")])),
        ];
        let mut dag = chain(&ops);
        assert_eq!(dag.node_count(), 2);
        let hot = Node::elem(
            "photon",
            vec![Node::leaf("en", "1.5"), Node::leaf("det_time", "1")],
        );
        let out = run(&mut dag, &[hot]);
        assert_eq!(out.len(), 1);
        assert_eq!(
            dss_xml::writer::node_to_string(&out[0]),
            "<photon><en>1.5</en></photon>"
        );
        let cold = Node::elem("photon", vec![Node::leaf("en", "1.0")]);
        assert!(run(&mut dag, &[cold]).is_empty());
    }

    #[test]
    fn builds_aggregation_chain() {
        let spec = AggregationSpec {
            op: AggOp::Sum,
            element: p("en"),
            window: WindowSpec::diff(p("det_time"), d("10"), None).unwrap(),
            pre_selection: PredicateGraph::new(),
            result_filter: ResultFilter::none(),
        };
        let mut dag = chain(&[Operator::Aggregation(spec)]);
        let items: Vec<Node> = (0..25)
            .map(|t| {
                Node::elem(
                    "photon",
                    vec![
                        Node::leaf("det_time", t.to_string()),
                        Node::leaf("en", "1.0"),
                    ],
                )
            })
            .collect();
        assert_eq!(run(&mut dag, &items).len(), 2);
        let mut flushed = 0;
        dag.flush_into(&mut |_, _| flushed += 1);
        assert_eq!(flushed, 1); // the [20,30) partial
        assert_eq!(dag.node_stats()[0].stats.items_out, 3);
    }

    #[test]
    fn udf_is_identity_with_load() {
        let mut dag = chain(&[Operator::Udf {
            name: "deskew".into(),
            params: vec!["7".into()],
        }]);
        let item = Node::leaf("x", "1");
        assert_eq!(run(&mut dag, std::slice::from_ref(&item)), vec![item]);
        assert_eq!(dag.total_work(), 3.0);
    }
}
