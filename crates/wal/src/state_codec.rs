//! Structural codec for [`OpState`] snapshots and the spec types they
//! embed, over the `dss_proto` primitive wire discipline (LEB128 varints,
//! length-prefixed strings, binary nodes).
//!
//! Snapshots are serialized *fully*, specs included: operator state
//! import (`import_state`) gates adoption on structural spec equality, so
//! a checkpoint must carry enough to reconstruct the exporting spec
//! bit-exactly. Every decode is defensive — malformed or hostile bytes
//! map to a typed [`RecordError`], never a panic, and collection lengths
//! drive loop counts only (no length-prefix preallocation).

use dss_engine::{AggItem, OpState, WindowItem};
use dss_predicate::{Bound, CompOp, NodeRef, PredicateGraph};
use dss_properties::{AggOp, AggregationSpec, ResultFilter, WindowOutputSpec, WindowSpec};
use dss_proto::wire::{put_bool, put_nodes, put_str, put_u32, put_u64, Reader};
use dss_xml::{Decimal, Path};

use crate::RecordError;

const STATE_AGG: u8 = 1;
const STATE_WINDOW: u8 = 2;
const STATE_REAGG: u8 = 3;
const STATE_REWINDOW: u8 = 4;

pub fn put_decimal(out: &mut Vec<u8>, d: Decimal) {
    let bits = d.units() as u128;
    put_u64(out, bits as u64);
    put_u64(out, (bits >> 64) as u64);
    put_u32(out, d.scale());
}

pub fn get_decimal(r: &mut Reader<'_>) -> Result<Decimal, RecordError> {
    let lo = r.u64()? as u128;
    let hi = r.u64()? as u128;
    let units = ((hi << 64) | lo) as i128;
    let scale = r.u32()?;
    if scale > dss_xml::decimal::MAX_SCALE {
        return Err(RecordError::Invalid("decimal scale"));
    }
    Ok(Decimal::new(units, scale))
}

pub fn put_opt_decimal(out: &mut Vec<u8>, d: Option<Decimal>) {
    match d {
        Some(d) => {
            put_bool(out, true);
            put_decimal(out, d);
        }
        None => put_bool(out, false),
    }
}

pub fn get_opt_decimal(r: &mut Reader<'_>) -> Result<Option<Decimal>, RecordError> {
    if r.bool()? {
        Ok(Some(get_decimal(r)?))
    } else {
        Ok(None)
    }
}

pub fn put_path(out: &mut Vec<u8>, p: &Path) {
    put_u64(out, p.steps().len() as u64);
    for step in p.steps() {
        put_str(out, step.as_str());
    }
}

pub fn get_path(r: &mut Reader<'_>) -> Result<Path, RecordError> {
    let n = r.u64()?;
    let mut steps = Vec::new();
    for _ in 0..n {
        steps.push(r.str()?);
    }
    Path::from_steps(steps).map_err(|_| RecordError::Invalid("path step"))
}

pub fn put_window(out: &mut Vec<u8>, w: &WindowSpec) {
    match w.reference() {
        None => put_bool(out, false),
        Some(p) => {
            put_bool(out, true);
            put_path(out, p);
        }
    }
    put_decimal(out, w.size());
    put_decimal(out, w.step());
}

pub fn get_window(r: &mut Reader<'_>) -> Result<WindowSpec, RecordError> {
    let reference = if r.bool()? { Some(get_path(r)?) } else { None };
    let size = get_decimal(r)?;
    let step = Some(get_decimal(r)?);
    let spec = match reference {
        None => WindowSpec::count(size, step),
        Some(p) => WindowSpec::diff(p, size, step),
    };
    spec.map_err(|_| RecordError::Invalid("window spec"))
}

fn put_node_ref(out: &mut Vec<u8>, n: &NodeRef) {
    match n {
        NodeRef::Zero => out.push(0),
        NodeRef::Var(p) => {
            out.push(1);
            put_path(out, p);
        }
    }
}

fn get_node_ref(r: &mut Reader<'_>) -> Result<NodeRef, RecordError> {
    match r.u8()? {
        0 => Ok(NodeRef::Zero),
        1 => Ok(NodeRef::Var(get_path(r)?)),
        _ => Err(RecordError::Invalid("predicate node tag")),
    }
}

pub fn put_predicate(out: &mut Vec<u8>, g: &PredicateGraph) {
    put_u64(out, g.edge_count() as u64);
    for (u, v, b) in g.edges() {
        put_node_ref(out, u);
        put_node_ref(out, v);
        put_decimal(out, b.weight);
        put_bool(out, b.strict);
    }
}

pub fn get_predicate(r: &mut Reader<'_>) -> Result<PredicateGraph, RecordError> {
    let n = r.u64()?;
    let mut g = PredicateGraph::new();
    for _ in 0..n {
        let u = get_node_ref(r)?;
        let v = get_node_ref(r)?;
        let weight = get_decimal(r)?;
        let strict = r.bool()?;
        g.add_edge(u, v, Bound { weight, strict });
    }
    Ok(g)
}

fn comp_op_tag(op: CompOp) -> u8 {
    match op {
        CompOp::Eq => 0,
        CompOp::Lt => 1,
        CompOp::Le => 2,
        CompOp::Gt => 3,
        CompOp::Ge => 4,
    }
}

fn comp_op_from(tag: u8) -> Result<CompOp, RecordError> {
    Ok(match tag {
        0 => CompOp::Eq,
        1 => CompOp::Lt,
        2 => CompOp::Le,
        3 => CompOp::Gt,
        4 => CompOp::Ge,
        _ => return Err(RecordError::Invalid("comparison operator tag")),
    })
}

pub fn put_result_filter(out: &mut Vec<u8>, f: &ResultFilter) {
    put_u64(out, f.conditions.len() as u64);
    for (op, c) in &f.conditions {
        out.push(comp_op_tag(*op));
        put_decimal(out, *c);
    }
}

pub fn get_result_filter(r: &mut Reader<'_>) -> Result<ResultFilter, RecordError> {
    let n = r.u64()?;
    let mut conditions = Vec::new();
    for _ in 0..n {
        let op = comp_op_from(r.u8()?)?;
        conditions.push((op, get_decimal(r)?));
    }
    Ok(ResultFilter { conditions })
}

fn agg_op_tag(op: AggOp) -> u8 {
    match op {
        AggOp::Min => 0,
        AggOp::Max => 1,
        AggOp::Sum => 2,
        AggOp::Count => 3,
        AggOp::Avg => 4,
    }
}

fn agg_op_from(tag: u8) -> Result<AggOp, RecordError> {
    Ok(match tag {
        0 => AggOp::Min,
        1 => AggOp::Max,
        2 => AggOp::Sum,
        3 => AggOp::Count,
        4 => AggOp::Avg,
        _ => return Err(RecordError::Invalid("aggregation operator tag")),
    })
}

pub fn put_agg_spec(out: &mut Vec<u8>, s: &AggregationSpec) {
    out.push(agg_op_tag(s.op));
    put_path(out, &s.element);
    put_window(out, &s.window);
    put_predicate(out, &s.pre_selection);
    put_result_filter(out, &s.result_filter);
}

pub fn get_agg_spec(r: &mut Reader<'_>) -> Result<AggregationSpec, RecordError> {
    Ok(AggregationSpec {
        op: agg_op_from(r.u8()?)?,
        element: get_path(r)?,
        window: get_window(r)?,
        pre_selection: get_predicate(r)?,
        result_filter: get_result_filter(r)?,
    })
}

pub fn put_window_output_spec(out: &mut Vec<u8>, s: &WindowOutputSpec) {
    put_window(out, &s.window);
    put_predicate(out, &s.pre_selection);
}

pub fn get_window_output_spec(r: &mut Reader<'_>) -> Result<WindowOutputSpec, RecordError> {
    Ok(WindowOutputSpec {
        window: get_window(r)?,
        pre_selection: get_predicate(r)?,
    })
}

pub fn put_agg_item(out: &mut Vec<u8>, item: &AggItem) {
    put_decimal(out, item.start);
    put_decimal(out, item.size);
    put_u64(out, item.count);
    put_opt_decimal(out, item.sum);
    put_opt_decimal(out, item.min);
    put_opt_decimal(out, item.max);
}

pub fn get_agg_item(r: &mut Reader<'_>) -> Result<AggItem, RecordError> {
    Ok(AggItem {
        start: get_decimal(r)?,
        size: get_decimal(r)?,
        count: r.u64()?,
        sum: get_opt_decimal(r)?,
        min: get_opt_decimal(r)?,
        max: get_opt_decimal(r)?,
    })
}

pub fn put_window_item(out: &mut Vec<u8>, item: &WindowItem) {
    put_decimal(out, item.start);
    put_decimal(out, item.size);
    put_nodes(out, &item.items);
}

pub fn get_window_item(r: &mut Reader<'_>) -> Result<WindowItem, RecordError> {
    Ok(WindowItem {
        start: get_decimal(r)?,
        size: get_decimal(r)?,
        items: r.nodes()?,
    })
}

/// A `(window start, value)` list — a tracker's open windows, an
/// assembler's buffered tiles — as a count and the pairs in order.
fn put_keyed<T>(out: &mut Vec<u8>, list: &[(Decimal, T)], put: impl Fn(&mut Vec<u8>, &T)) {
    put_u64(out, list.len() as u64);
    for (start, value) in list {
        put_decimal(out, *start);
        put(out, value);
    }
}

fn get_keyed<T>(
    r: &mut Reader<'_>,
    get: impl Fn(&mut Reader<'_>) -> Result<T, RecordError>,
) -> Result<Vec<(Decimal, T)>, RecordError> {
    let n = r.u64()?;
    let mut list = Vec::new();
    for _ in 0..n {
        let start = get_decimal(r)?;
        list.push((start, get(r)?));
    }
    Ok(list)
}

pub fn put_op_state(out: &mut Vec<u8>, state: &OpState) {
    match state {
        OpState::Agg {
            spec,
            open,
            youngest_start,
            items_seen,
        } => {
            out.push(STATE_AGG);
            put_agg_spec(out, spec);
            put_keyed(out, open, put_agg_item);
            put_opt_decimal(out, *youngest_start);
            put_u64(out, *items_seen);
        }
        OpState::Window {
            spec,
            open,
            youngest_start,
            items_seen,
        } => {
            out.push(STATE_WINDOW);
            put_window_output_spec(out, spec);
            put_keyed(out, open, |out, items| put_nodes(out, items));
            put_opt_decimal(out, *youngest_start);
            put_u64(out, *items_seen);
        }
        OpState::ReAgg {
            reused,
            new,
            tiles,
            next_window,
            max_seen,
        } => {
            out.push(STATE_REAGG);
            put_agg_spec(out, reused);
            put_agg_spec(out, new);
            put_keyed(out, tiles, put_agg_item);
            put_opt_decimal(out, *next_window);
            put_opt_decimal(out, *max_seen);
        }
        OpState::ReWindow {
            reused,
            new,
            tiles,
            next_window,
            max_seen,
        } => {
            out.push(STATE_REWINDOW);
            put_window_output_spec(out, reused);
            put_window_output_spec(out, new);
            put_keyed(out, tiles, put_window_item);
            put_opt_decimal(out, *next_window);
            put_opt_decimal(out, *max_seen);
        }
    }
}

pub fn get_op_state(r: &mut Reader<'_>) -> Result<OpState, RecordError> {
    // Struct fields are evaluated in the order written: the wire order.
    Ok(match r.u8()? {
        STATE_AGG => OpState::Agg {
            spec: get_agg_spec(r)?,
            open: get_keyed(r, get_agg_item)?,
            youngest_start: get_opt_decimal(r)?,
            items_seen: r.u64()?,
        },
        STATE_WINDOW => OpState::Window {
            spec: get_window_output_spec(r)?,
            open: get_keyed(r, |r| Ok(r.nodes()?))?,
            youngest_start: get_opt_decimal(r)?,
            items_seen: r.u64()?,
        },
        STATE_REAGG => OpState::ReAgg {
            reused: get_agg_spec(r)?,
            new: get_agg_spec(r)?,
            tiles: get_keyed(r, get_agg_item)?,
            next_window: get_opt_decimal(r)?,
            max_seen: get_opt_decimal(r)?,
        },
        STATE_REWINDOW => OpState::ReWindow {
            reused: get_window_output_spec(r)?,
            new: get_window_output_spec(r)?,
            tiles: get_keyed(r, get_window_item)?,
            next_window: get_opt_decimal(r)?,
            max_seen: get_opt_decimal(r)?,
        },
        _ => return Err(RecordError::Invalid("op-state tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_xml::Node;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn sample_predicate() -> PredicateGraph {
        let mut g = PredicateGraph::new();
        g.add_edge(
            NodeRef::Var(p("coord/cel/ra")),
            NodeRef::Zero,
            Bound {
                weight: d("138.0"),
                strict: false,
            },
        );
        g.add_edge(
            NodeRef::Zero,
            NodeRef::Var(p("en")),
            Bound {
                weight: d("-1.3"),
                strict: true,
            },
        );
        g
    }

    fn sample_agg_spec() -> AggregationSpec {
        AggregationSpec {
            op: AggOp::Avg,
            element: p("en"),
            window: WindowSpec::diff(p("det_time"), d("20"), Some(d("10"))).unwrap(),
            pre_selection: sample_predicate(),
            result_filter: ResultFilter {
                conditions: vec![(CompOp::Ge, d("1.3")), (CompOp::Lt, d("99"))],
            },
        }
    }

    fn round_trip_state(state: &OpState) -> OpState {
        let mut buf = Vec::new();
        put_op_state(&mut buf, state);
        let mut r = Reader::new(&buf);
        let back = get_op_state(&mut r).expect("state decodes");
        r.finish().expect("state consumes payload exactly");
        back
    }

    #[test]
    fn decimal_round_trip_covers_extremes() {
        for v in [
            Decimal::ZERO,
            d("1.3"),
            d("-49.0"),
            Decimal::new(i128::MAX / 2, 0),
            Decimal::new(i128::MIN / 2 + 1, 0),
            Decimal::new(-1, 18),
        ] {
            let mut buf = Vec::new();
            put_decimal(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(get_decimal(&mut r).unwrap(), v);
            assert!(r.is_done());
        }
    }

    #[test]
    fn decimal_rejects_oversized_scale() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 5);
        put_u64(&mut buf, 0);
        put_u32(&mut buf, 19); // > MAX_SCALE
        let mut r = Reader::new(&buf);
        assert_eq!(
            get_decimal(&mut r),
            Err(RecordError::Invalid("decimal scale"))
        );
    }

    #[test]
    fn agg_state_round_trips_spec_and_accumulators() {
        let mut acc = AggItem::empty(d("10"), d("20"));
        acc.add_value(d("1.5"));
        acc.add_value(d("2.25"));
        let state = OpState::Agg {
            spec: sample_agg_spec(),
            open: vec![(d("10"), acc), (d("20"), AggItem::empty(d("20"), d("20")))],
            youngest_start: Some(d("20")),
            items_seen: 17,
        };
        let back = round_trip_state(&state);
        let (
            OpState::Agg {
                spec,
                open,
                youngest_start,
                items_seen,
            },
            OpState::Agg {
                spec: s2,
                open: o2,
                youngest_start: y2,
                items_seen: i2,
            },
        ) = (&state, &back)
        else {
            panic!("variant changed in round trip");
        };
        assert_eq!(spec, s2);
        assert_eq!(open, o2);
        assert_eq!(youngest_start, y2);
        assert_eq!(items_seen, i2);
    }

    #[test]
    fn window_state_round_trips_contents() {
        let item = Node::elem("photon", vec![Node::leaf("en", "1.5")]);
        let spec = WindowOutputSpec {
            window: WindowSpec::count(d("4"), Some(d("2"))).unwrap(),
            pre_selection: PredicateGraph::new(),
        };
        let state = OpState::Window {
            spec,
            open: vec![(d("0"), vec![item.clone(), item.clone()]), (d("2"), vec![])],
            youngest_start: Some(d("2")),
            items_seen: 3,
        };
        let back = round_trip_state(&state);
        let OpState::Window { open, .. } = &back else {
            panic!("variant changed");
        };
        assert_eq!(open.len(), 2);
        assert_eq!(open[0].1, vec![item.clone(), item]);
    }

    #[test]
    fn reagg_and_rewindow_round_trip() {
        let reagg = OpState::ReAgg {
            reused: sample_agg_spec(),
            new: sample_agg_spec(),
            tiles: vec![(d("0"), AggItem::empty(d("0"), d("20")))],
            next_window: Some(d("0")),
            max_seen: None,
        };
        let OpState::ReAgg {
            tiles,
            next_window,
            max_seen,
            ..
        } = round_trip_state(&reagg)
        else {
            panic!("variant changed");
        };
        assert_eq!(tiles.len(), 1);
        assert_eq!(next_window, Some(d("0")));
        assert_eq!(max_seen, None);

        let wos = WindowOutputSpec {
            window: WindowSpec::diff(p("det_time"), d("60"), Some(d("40"))).unwrap(),
            pre_selection: sample_predicate(),
        };
        let rewin = OpState::ReWindow {
            reused: wos.clone(),
            new: wos,
            tiles: vec![(
                d("40"),
                WindowItem {
                    start: d("40"),
                    size: d("20"),
                    items: vec![Node::leaf("en", "2")],
                },
            )],
            next_window: None,
            max_seen: Some(d("40")),
        };
        let OpState::ReWindow { tiles, .. } = round_trip_state(&rewin) else {
            panic!("variant changed");
        };
        assert_eq!(tiles[0].1.items.len(), 1);
    }

    #[test]
    fn predicate_round_trip_is_exact() {
        let g = sample_predicate();
        let mut buf = Vec::new();
        put_predicate(&mut buf, &g);
        let mut r = Reader::new(&buf);
        assert_eq!(get_predicate(&mut r).unwrap(), g);
    }

    #[test]
    fn truncated_state_is_typed_error() {
        let mut buf = Vec::new();
        put_op_state(
            &mut buf,
            &OpState::Agg {
                spec: sample_agg_spec(),
                open: vec![],
                youngest_start: None,
                items_seen: 0,
            },
        );
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(
                get_op_state(&mut r).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
