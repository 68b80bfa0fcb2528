//! WXQuery — the paper's windowed-XQuery subscription language
//! (Definition 2.1).
//!
//! WXQuery is the fragment of XQuery the paper uses for continuous queries
//! over XML data streams, extended with the `stream(…)` input function and
//! data windows `|count Δ step µ|` / `|π diff Δ step µ|`. This crate
//! provides:
//!
//! * [`parse_query`] — a recursive-descent parser producing the [`ast`],
//! * [`compile_query`] — lowering of *flat* subscriptions (the fragment the
//!   paper's sharing approach supports; nesting is its future work) into
//!   [`dss_properties::Properties`] plus a restructuring template, and
//! * [`queries`] — the paper's Queries 1–4 verbatim, shared by tests,
//!   examples, and benchmarks.

pub mod ast;
pub mod compile;
pub mod display;
pub mod error;
pub mod parse;
pub mod queries;
#[cfg(feature = "testing")]
pub mod testing;

pub use compile::{compile_expr, compile_query, CompiledQuery};
pub use error::QueryError;
pub use parse::parse_query;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{self, Clause, Content, Expr, ForSource, WindowAst};
    use dss_engine::Template;
    use dss_predicate::{Atom, CompOp, PredicateGraph};
    use dss_properties::{match_input_properties, AggOp, PropertiesError};
    use dss_xml::{Decimal, Path};

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    // ----- parsing ---------------------------------------------------

    #[test]
    fn parses_all_paper_queries() {
        for (name, text) in queries::ALL {
            parse_query(text).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
        }
    }

    #[test]
    fn q1_ast_shape() {
        let Expr::Element(root) = parse_query(queries::Q1).unwrap() else {
            panic!("expected an element constructor");
        };
        assert_eq!(root.tag, "photons");
        assert_eq!(root.content.len(), 1);
        let Content::Enclosed(Expr::Flwr(flwr)) = &root.content[0] else {
            panic!("expected an enclosed FLWR");
        };
        assert_eq!(flwr.clauses.len(), 1);
        let Clause::For {
            var,
            source,
            path,
            conditions,
            window,
        } = &flwr.clauses[0]
        else {
            panic!("expected a for clause");
        };
        assert_eq!(var, "p");
        assert_eq!(source, &ForSource::Stream("photons".into()));
        assert_eq!(path, &p("photons/photon"));
        assert!(conditions.is_empty());
        assert!(window.is_none());
        assert_eq!(flwr.where_.len(), 4);
    }

    #[test]
    fn q3_ast_has_path_condition_and_window() {
        let expr = parse_query(queries::Q3).unwrap();
        let flwr = expr.flwrs()[0];
        assert_eq!(flwr.clauses.len(), 2);
        let Clause::For {
            conditions, window, ..
        } = &flwr.clauses[0]
        else {
            panic!("expected for clause first");
        };
        assert_eq!(conditions.len(), 4);
        assert_eq!(
            window,
            &Some(WindowAst::Diff {
                reference: p("det_time"),
                size: d("20"),
                step: Some(d("10")),
            })
        );
        let Clause::Let { var, op, source } = &flwr.clauses[1] else {
            panic!("expected let clause second");
        };
        assert_eq!(var, "a");
        assert_eq!(*op, AggOp::Avg);
        assert_eq!(source.var, "w");
        assert_eq!(source.path, p("en"));
    }

    #[test]
    fn parses_count_window_with_default_step() {
        let q = r#"<r>{ for $w in stream("s")/root/item |count 20|
                     let $a := sum($w/v) return <s>{ $a }</s> }</r>"#;
        let expr = parse_query(q).unwrap();
        let Clause::For { window, .. } = &expr.flwrs()[0].clauses[0] else {
            panic!()
        };
        assert_eq!(
            window,
            &Some(WindowAst::Count {
                size: d("20"),
                step: None
            })
        );
    }

    #[test]
    fn parses_var_to_var_predicates() {
        let q = r#"<r>{ for $p in stream("s")/root/item
                     where $p/a <= $p/b + 3.5 return <x>{ $p/a }</x> }</r>"#;
        let expr = parse_query(q).unwrap();
        let flwr = expr.flwrs()[0];
        assert_eq!(flwr.where_.len(), 1);
        match &flwr.where_[0].rhs {
            ast::PredTerm::VarPlus(vp, c) => {
                assert_eq!(vp.path, p("b"));
                assert_eq!(*c, d("3.5"));
            }
            other => panic!("unexpected rhs {other:?}"),
        }
    }

    #[test]
    fn parses_negative_offsets_and_flipped_constants() {
        let q = r#"<r>{ for $p in stream("s")/root/item
                     where $p/a >= $p/b - 2 and 5 <= $p/c
                     return <x>{ $p/a }</x> }</r>"#;
        let expr = parse_query(q).unwrap();
        let w = &expr.flwrs()[0].where_;
        match &w[0].rhs {
            ast::PredTerm::VarPlus(_, c) => assert_eq!(*c, d("-2")),
            other => panic!("unexpected {other:?}"),
        }
        // 5 <= $p/c normalized to $p/c >= 5.
        assert_eq!(w[1].op, CompOp::Ge);
        assert_eq!(w[1].lhs.path, p("c"));
    }

    #[test]
    fn parses_if_and_sequence_expressions() {
        let q = r#"<r>{ for $p in stream("s")/root/item
                     return if $p/a >= 1 then <hot>{ $p/a }</hot> else <cold/> }</r>"#;
        let expr = parse_query(q).unwrap();
        let flwr = expr.flwrs()[0];
        assert!(matches!(*flwr.ret, Expr::If { .. }));

        let q = r#"<r>{ for $p in stream("s")/root/item
                     return ( <a>{ $p/x }</a>, <b>{ $p/y }</b> ) }</r>"#;
        let expr = parse_query(q).unwrap();
        assert!(matches!(&*expr.flwrs()[0].ret, Expr::Sequence(items) if items.len() == 2));
    }

    #[test]
    fn parses_comments_and_empty_elements() {
        let q = r#"(: vela :) <r>{ for $p in stream("s")/root/item
                     return <m/> }</r>"#;
        parse_query(q).unwrap();
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "<r>",
            "<r></x>",
            r#"<r>{ for $p stream("s")/a/b return <x/> }</r>"#,
            r#"<r>{ for $p in stream("s")/a/b where return <x/> }</r>"#,
            r#"<r>{ for $p in stream("s")/a/b return }</r>"#,
            r#"<r>{ for $p in stream("s")/a/b where 1 >= 2 return <x/> }</r>"#,
            r#"<r>{ for $p in stream("s")/a/b |mystery 5| return <x/> }</r>"#,
        ] {
            assert!(parse_query(bad).is_err(), "{bad:?} should fail");
        }
    }

    // ----- compilation -----------------------------------------------

    #[test]
    fn compiles_all_paper_queries() {
        for (name, text) in queries::ALL {
            compile_query(text).unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        }
    }

    #[test]
    fn q1_compiled_properties() {
        let q1 = compile_query(queries::Q1).unwrap();
        assert_eq!(q1.input_stream, "photons");
        assert_eq!(q1.stream_root, "photons");
        assert_eq!(q1.item_name, "photon");
        assert_eq!(q1.result_root, "photons");
        assert!(q1.aggregation.is_none());
        let input = &q1.properties.inputs()[0];
        let sel = input.selection().expect("selection present");
        let expected = PredicateGraph::from_atoms(&[
            Atom::var_const(p("coord/cel/ra"), CompOp::Ge, d("120.0")),
            Atom::var_const(p("coord/cel/ra"), CompOp::Le, d("138.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Ge, d("-49.0")),
            Atom::var_const(p("coord/cel/dec"), CompOp::Le, d("-40.0")),
        ]);
        assert_eq!(sel, &expected.minimize());
        let proj = input.projection().expect("projection present");
        assert!(proj.output.contains(&p("phc")));
        assert!(proj.output.contains(&p("en")));
        assert!(proj.output.contains(&p("coord/cel/ra")));
        assert!(proj.referenced.contains(&p("coord/cel/dec")));
        assert_eq!(proj.output.len(), 5);
    }

    #[test]
    fn q2_matches_q1_stream_end_to_end() {
        // The motivating example, now from the raw query texts.
        let q1 = compile_query(queries::Q1).unwrap();
        let q2 = compile_query(queries::Q2).unwrap();
        assert!(match_input_properties(
            &q1.properties.inputs()[0],
            &q2.properties.inputs()[0]
        ));
        assert!(!match_input_properties(
            &q2.properties.inputs()[0],
            &q1.properties.inputs()[0]
        ));
    }

    #[test]
    fn q4_matches_q3_stream_end_to_end() {
        let q3 = compile_query(queries::Q3).unwrap();
        let q4 = compile_query(queries::Q4).unwrap();
        assert!(match_input_properties(
            &q3.properties.inputs()[0],
            &q4.properties.inputs()[0]
        ));
        assert!(!match_input_properties(
            &q4.properties.inputs()[0],
            &q3.properties.inputs()[0]
        ));
    }

    #[test]
    fn q3_aggregation_spec() {
        let q3 = compile_query(queries::Q3).unwrap();
        let agg = q3.aggregation.expect("Q3 aggregates");
        assert_eq!(agg.op, AggOp::Avg);
        assert_eq!(agg.element, p("en"));
        assert_eq!(agg.window.size(), d("20"));
        assert_eq!(agg.window.step(), d("10"));
        assert!(agg.result_filter.is_trivial());
        assert!(!agg.pre_selection.is_trivial());
    }

    #[test]
    fn q4_result_filter() {
        let q4 = compile_query(queries::Q4).unwrap();
        let agg = q4.aggregation.expect("Q4 aggregates");
        assert_eq!(agg.result_filter.conditions, vec![(CompOp::Ge, d("1.3"))]);
        assert_eq!(agg.window.size(), d("60"));
        assert_eq!(agg.window.step(), d("40"));
    }

    #[test]
    fn q1_template_shape() {
        let q1 = compile_query(queries::Q1).unwrap();
        let Template::Element { tag, children } = &q1.template else {
            panic!("expected an element template");
        };
        assert_eq!(tag.as_str(), "vela");
        assert_eq!(children.len(), 5);
        assert_eq!(children[0], Template::Subtree(p("coord/cel/ra")));
        assert_eq!(children[4], Template::Subtree(p("det_time")));
    }

    #[test]
    fn q3_template_uses_agg_value() {
        let q3 = compile_query(queries::Q3).unwrap();
        assert_eq!(
            q3.template,
            Template::Element {
                tag: "avg_en".into(),
                children: vec![Template::AggValue]
            }
        );
    }

    #[test]
    fn unsatisfiable_predicate_rejected_at_compile() {
        let q = r#"<r>{ for $p in stream("s")/root/item
                     where $p/en >= 2 and $p/en <= 1 return <x>{ $p/en }</x> }</r>"#;
        assert!(matches!(compile_query(q), Err(QueryError::Properties(_))));
    }

    #[test]
    fn unsupported_features_rejected() {
        // Nested FLWR.
        let nested = r#"<r>{ for $p in stream("s")/root/item
            return <x>{ for $q in stream("t")/r/i return <y/> }</x> }</r>"#;
        assert!(matches!(
            compile_query(nested),
            Err(QueryError::Unsupported(_))
        ));
        // Multiple for clauses.
        let multi = r#"<r>{ for $p in stream("s")/root/item
                           for $q in stream("t")/root/item
                           return <x/> }</r>"#;
        assert!(matches!(
            compile_query(multi),
            Err(QueryError::Unsupported(_))
        ));
        // Paths below the window variable in a window-contents query.
        let window_path = r#"<r>{ for $w in stream("s")/root/item |count 5|
                                return <x>{ $w/v }</x> }</r>"#;
        assert!(matches!(
            compile_query(window_path),
            Err(QueryError::Unsupported(_))
        ));
        // doc() source.
        let doc = r#"<r>{ for $p in doc("file")/root/item return <x/> }</r>"#;
        assert!(matches!(
            compile_query(doc),
            Err(QueryError::Unsupported(_))
        ));
    }

    /// A where clause of `n` atoms: `$p/v{i} <= $p/v{i+1} + 1` along a
    /// chain over `paths` distinct paths, closed by `$p/v0 >= 0`.
    fn chain_query(n: usize, paths: usize) -> String {
        let mut atoms = vec!["$p/v0 >= 0".to_string()];
        atoms.extend((1..n).map(|i| {
            let (a, b) = ((i - 1) % paths, i % paths);
            format!("$p/v{a} <= $p/v{b} + {i}")
        }));
        format!(
            "<r>{{ for $p in stream(\"s\")/root/item where {} return <x>{{ $p/v0 }}</x> }}</r>",
            atoms.join(" and ")
        )
    }

    /// 39 chained bounds near the top of the decimal range and one at its
    /// finest scale: inside the size caps, but the closure's sums leave the
    /// decimal range. Compile refuses the query with a typed error.
    #[test]
    fn a_where_clause_whose_bounds_overflow_is_refused() {
        let mut atoms: Vec<String> = (1..40)
            .map(|i| format!("$p/v{i} <= $p/v{} + 9999999999999999999", i + 1))
            .collect();
        atoms.push("$p/v40 <= 0.000000000000000001".into());
        let q = format!(
            "for $p in stream(\"s\")/root/item where {} return <x>{{$p/v1}}</x>",
            atoms.join(" and ")
        );
        match compile_query(&q) {
            Err(QueryError::Properties(PropertiesError::BoundOverflow { stream })) => {
                assert_eq!(stream, "s")
            }
            other => panic!("expected a bound overflow, got {other:?}"),
        }
    }

    #[test]
    fn size_caps_refuse_large_queries() {
        use crate::compile::{MAX_ATOMS, MAX_CONSTRUCTORS, MAX_PATHS};
        let too_large = |q: &str| match compile_query(q) {
            Err(QueryError::TooLarge(m)) => m,
            other => panic!("expected a size error, got {other:?}"),
        };
        // At every cap the query compiles.
        compile_query(&chain_query(MAX_ATOMS, MAX_PATHS)).unwrap();
        let m = too_large(&chain_query(MAX_ATOMS + 1, 4));
        assert_eq!(
            m,
            format!(
                "{} atomic predicates in one condition, at most {MAX_ATOMS}",
                MAX_ATOMS + 1
            )
        );
        let m = too_large(&chain_query(MAX_PATHS + 1, MAX_PATHS + 1));
        assert!(m.contains("distinct element paths"), "{m}");
        let siblings = |n: usize| {
            format!(
                "<r>{{ for $p in stream(\"s\")/root/item return <x>{}</x> }}</r>",
                "<y/>".repeat(n)
            )
        };
        // The result root and `x` are constructors too.
        compile_query(&siblings(MAX_CONSTRUCTORS - 2)).unwrap();
        let m = too_large(&siblings(MAX_CONSTRUCTORS - 1));
        assert!(m.contains("element constructors"), "{m}");
    }

    #[test]
    fn analysis_errors_rejected() {
        // Unbound variable in predicate.
        let unbound = r#"<r>{ for $p in stream("s")/root/item
                            where $q/en >= 1 return <x/> }</r>"#;
        assert!(matches!(
            compile_query(unbound),
            Err(QueryError::Analysis(_))
        ));
        // Aggregation without a window.
        let no_window = r#"<r>{ for $p in stream("s")/root/item
                               let $a := avg($p/en) return <x>{ $a }</x> }</r>"#;
        assert!(matches!(
            compile_query(no_window),
            Err(QueryError::Analysis(_))
        ));
        // Aggregate filter without a let clause.
        let no_let = r#"<r>{ for $p in stream("s")/root/item
                            where $a >= 1 return <x>{ $p/en }</x> }</r>"#;
        assert!(matches!(
            compile_query(no_let),
            Err(QueryError::Analysis(_))
        ));
    }

    #[test]
    fn window_contents_queries_compile() {
        let q = r#"<r>{ for $w in stream("s")/root/item
                       [v >= 1.0]
                       |t diff 20 step 10|
                       return <wnd>{ $w }</wnd> }</r>"#;
        let compiled = compile_query(q).unwrap();
        let spec = compiled.window_output.as_ref().expect("window output");
        assert_eq!(spec.window.size(), d("20"));
        assert_eq!(spec.window.step(), d("10"));
        assert!(!spec.pre_selection.is_trivial());
        assert!(compiled.aggregation.is_none());
        assert_eq!(
            compiled.template,
            Template::Element {
                tag: "wnd".into(),
                children: vec![Template::WindowContents]
            }
        );
        match &compiled.properties.inputs()[0].operators()[1] {
            dss_properties::Operator::WindowOutput(w) => assert_eq!(w, spec),
            other => panic!("expected WindowOutput operator, got {other:?}"),
        }
    }

    #[test]
    fn window_contents_queries_execute_end_to_end() {
        let q = r#"<r>{ for $w in stream("s")/root/item |t diff 10|
                       return <wnd>{ $w }</wnd> }</r>"#;
        let mut query = compile_query(q).unwrap().executable();
        let mut results = Vec::new();
        for t in [1, 5, 12, 25] {
            let item = dss_xml::Node::elem("item", vec![dss_xml::Node::leaf("t", t.to_string())]);
            query.process_into(&item, &mut |_, w| results.push(w.clone()));
        }
        query.flush_into(&mut |_, w| results.push(w.clone()));
        assert_eq!(results.len(), 3); // windows [0,10), [10,20), [20,30)
        assert_eq!(results[0].name(), "wnd");
        assert_eq!(results[0].children().len(), 2); // items at t=1, t=5
        assert_eq!(results[2].children().len(), 1);
    }

    #[test]
    fn compiled_query_restructures_items() {
        use dss_engine::{OpDag, StreamOperator};
        let q1 = compile_query(queries::Q1).unwrap();
        let op: Box<dyn StreamOperator + Send> = Box::new(q1.restructure_op());
        let mut dag = OpDag::chain([op]);
        let photon = dss_xml::Node::parse(
            "<photon><phc>5</phc><coord><cel><ra>130.0</ra><dec>-45.0</dec></cel></coord>\
             <en>1.5</en><det_time>10</det_time></photon>",
        )
        .unwrap();
        let mut out = Vec::new();
        dag.process_into(&photon, &mut |_, n| out.push(n.clone()));
        assert_eq!(
            dss_xml::writer::node_to_string(&out[0]),
            "<vela><ra>130.0</ra><dec>-45.0</dec><phc>5</phc><en>1.5</en>\
             <det_time>10</det_time></vela>"
        );
    }
}
