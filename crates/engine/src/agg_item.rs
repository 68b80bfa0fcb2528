//! The wire format of window-aggregate values.
//!
//! Following Section 3.3, `avg` aggregates are internally represented — and
//! actually transmitted in the super-peer network — by their `sum` and
//! `count` values; the final `sum/count` is computed only at the subscriber's
//! super-peer. We generalize this: every aggregate item carries its window
//! coordinates (`start`, `size` — enabling window composition when sharing)
//! plus the partial values needed to merge it into coarser windows.

use dss_properties::AggOp;
use dss_xml::{Decimal, Node, XmlError};

/// One window-aggregate partial result, as shipped between peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggItem {
    /// Window start (reference value for `diff` windows, item index for
    /// `count` windows).
    pub start: Decimal,
    /// Window size Δ.
    pub size: Decimal,
    /// Number of items that fell into the window.
    pub count: u64,
    /// Sum of the aggregated element's values (present for sum/avg).
    pub sum: Option<Decimal>,
    /// Minimum (present for min).
    pub min: Option<Decimal>,
    /// Maximum (present for max).
    pub max: Option<Decimal>,
}

impl Default for AggItem {
    /// A coordinate-less empty partial; the window tracker patches
    /// `start`/`size` at emission.
    fn default() -> AggItem {
        AggItem::empty(Decimal::ZERO, Decimal::ZERO)
    }
}

impl AggItem {
    /// An empty partial for a window `[start, start + size)`.
    pub fn empty(start: Decimal, size: Decimal) -> AggItem {
        AggItem {
            start,
            size,
            count: 0,
            sum: None,
            min: None,
            max: None,
        }
    }

    /// Folds one value into the partial.
    pub fn add_value(&mut self, v: Decimal) {
        self.count += 1;
        self.sum = Some(match self.sum {
            Some(s) => s + v,
            None => v,
        });
        self.min = Some(match self.min {
            Some(m) => m.min(v),
            None => v,
        });
        self.max = Some(match self.max {
            Some(m) => m.max(v),
            None => v,
        });
    }

    /// Merges an adjacent/contained partial into `self` (window
    /// composition for sharing; Figure 5). Window coordinates of `self` are
    /// kept.
    pub fn merge(&mut self, other: &AggItem) {
        self.count += other.count;
        self.sum = match (self.sum, other.sum) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// The final aggregate value under `op`, if defined for this partial.
    /// `avg` is *not* divided here — use [`avg_value`](Self::avg_value) —
    /// because `sum/count` may not terminate in decimal; filters use exact
    /// cross-multiplied comparisons instead.
    pub fn final_value(&self, op: AggOp) -> Option<Decimal> {
        match op {
            AggOp::Count => Some(Decimal::from_int(self.count as i64)),
            AggOp::Sum => self.sum.or(Some(Decimal::ZERO)),
            AggOp::Min => self.min,
            AggOp::Max => self.max,
            AggOp::Avg => self.avg_value(6),
        }
    }

    /// `sum/count` rounded (half away from zero) to `scale` decimal
    /// places, computed exactly in integer arithmetic; `None` for an empty
    /// window or when the intermediate scaling overflows.
    pub fn avg_value(&self, scale: u32) -> Option<Decimal> {
        let sum = self.sum?;
        if self.count == 0 {
            return None;
        }
        let target = scale.max(sum.scale());
        // numerator = sum at `target+…` precision; divide by count with
        // rounding. Work at one extra digit for the rounding step.
        let extra = (target + 1).min(dss_xml::decimal::MAX_SCALE);
        let numerator = sum
            .units()
            .checked_mul(10i128.checked_pow(extra - sum.scale())?)?;
        let q = numerator / self.count as i128;
        // Round the last digit away from zero.
        let rounded = if q >= 0 { (q + 5) / 10 } else { (q - 5) / 10 };
        let value = Decimal::new(rounded, extra - 1);
        // Reduce to the requested display scale if coarser.
        if value.scale() <= scale {
            Some(value)
        } else {
            // Re-round to `scale` digits.
            let u = value.units();
            let div = 10i128.pow(value.scale() - scale);
            let half = div / 2;
            let r = if u >= 0 {
                (u + half) / div
            } else {
                (u - half) / div
            };
            Some(Decimal::new(r, scale))
        }
    }

    /// Exact comparison `avg θ c` evaluated as `sum θ c·count` (count > 0),
    /// avoiding any division. Falls back to `false` on empty windows.
    pub fn avg_compare(&self, op: dss_predicate::CompOp, c: Decimal) -> bool {
        let Some(sum) = self.sum else {
            return false;
        };
        if self.count == 0 {
            return false;
        }
        // c·count, exactly; an overflowing product means the comparison is
        // out of any realistic domain — fail closed.
        let Some(units) = c.units().checked_mul(self.count as i128) else {
            return false;
        };
        op.evaluate(sum, Decimal::new(units, c.scale()))
    }

    /// Serializes the partial as an XML stream item.
    pub fn to_node(&self) -> Node {
        let [start, size, count] = [
            Node::decimal_leaf("start", self.start),
            Node::decimal_leaf("size", self.size),
            Node::display_leaf("count", self.count),
        ];
        if let (Some(sum), Some(min), Some(max)) = (self.sum, self.min, self.max) {
            // Every partial a value was folded into: one block, filled in
            // place.
            return Node::new(
                "agg",
                None,
                [
                    start,
                    size,
                    count,
                    Node::decimal_leaf("sum", sum),
                    Node::decimal_leaf("min", min),
                    Node::decimal_leaf("max", max),
                ],
            );
        }
        let mut children = vec![start, size, count];
        for (name, value) in [("sum", self.sum), ("min", self.min), ("max", self.max)] {
            children.extend(value.map(|v| Node::decimal_leaf(name, v)));
        }
        Node::elem("agg", children)
    }

    /// Parses a partial from its XML item form.
    pub fn from_node(node: &Node) -> Result<AggItem, XmlError> {
        let get = |name: &str| -> Result<Decimal, XmlError> {
            node.child(name)
                .ok_or_else(|| XmlError::ValueParse {
                    value: format!("<agg> missing <{name}>"),
                    wanted: "agg item",
                })?
                .decimal_value()
        };
        let opt = |name: &str| -> Result<Option<Decimal>, XmlError> {
            node.child(name).map(|n| n.decimal_value()).transpose()
        };
        let count_dec = get("count")?;
        let count: u64 = if count_dec.is_integer() {
            count_dec
                .units()
                .try_into()
                .map_err(|_| XmlError::ValueParse {
                    value: count_dec.to_string(),
                    wanted: "count within u64 range",
                })?
        } else {
            return Err(XmlError::ValueParse {
                value: count_dec.to_string(),
                wanted: "non-negative integer count",
            });
        };
        Ok(AggItem {
            start: get("start")?,
            size: get("size")?,
            count,
            sum: opt("sum")?,
            min: opt("min")?,
            max: opt("max")?,
        })
    }

    /// `true` if `node` looks like an aggregate item.
    pub fn is_agg_node(node: &Node) -> bool {
        node.name() == "agg" && node.child("start").is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_predicate::CompOp;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    #[test]
    fn add_values_and_final() {
        let mut a = AggItem::empty(d("0"), d("20"));
        for v in ["1.0", "2.0", "3.0"] {
            a.add_value(d(v));
        }
        assert_eq!(a.count, 3);
        assert_eq!(a.final_value(AggOp::Sum), Some(d("6")));
        assert_eq!(a.final_value(AggOp::Count), Some(d("3")));
        assert_eq!(a.final_value(AggOp::Min), Some(d("1")));
        assert_eq!(a.final_value(AggOp::Max), Some(d("3")));
        assert_eq!(a.final_value(AggOp::Avg), Some(d("2")));
    }

    #[test]
    fn empty_window_finals() {
        let a = AggItem::empty(d("0"), d("20"));
        assert_eq!(a.final_value(AggOp::Count), Some(d("0")));
        assert_eq!(a.final_value(AggOp::Sum), Some(d("0")));
        assert_eq!(a.final_value(AggOp::Min), None);
        assert_eq!(a.final_value(AggOp::Avg), None);
    }

    #[test]
    fn merge_combines_partials() {
        let mut a = AggItem::empty(d("0"), d("20"));
        a.add_value(d("1.0"));
        a.add_value(d("5.0"));
        let mut b = AggItem::empty(d("20"), d("20"));
        b.add_value(d("3.0"));
        let mut merged = AggItem::empty(d("0"), d("40"));
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, Some(d("9")));
        assert_eq!(merged.min, Some(d("1")));
        assert_eq!(merged.max, Some(d("5")));
    }

    #[test]
    fn merge_matches_direct_aggregation() {
        // Aggregating [1,2] and [3,4] separately then merging equals
        // aggregating [1,2,3,4] directly.
        let mut left = AggItem::empty(d("0"), d("2"));
        left.add_value(d("1"));
        left.add_value(d("2"));
        let mut right = AggItem::empty(d("2"), d("2"));
        right.add_value(d("3"));
        right.add_value(d("4"));
        let mut combined = AggItem::empty(d("0"), d("4"));
        combined.merge(&left);
        combined.merge(&right);

        let mut direct = AggItem::empty(d("0"), d("4"));
        for v in ["1", "2", "3", "4"] {
            direct.add_value(d(v));
        }
        assert_eq!(combined.count, direct.count);
        assert_eq!(combined.sum, direct.sum);
        assert_eq!(combined.min, direct.min);
        assert_eq!(combined.max, direct.max);
    }

    #[test]
    fn avg_value_is_exactly_rounded() {
        let mk = |sum: &str, count: u64| AggItem {
            start: Decimal::ZERO,
            size: d("10"),
            count,
            sum: Some(sum.parse().unwrap()),
            min: None,
            max: None,
        };
        assert_eq!(mk("1", 3).avg_value(6), Some(d("0.333333")));
        assert_eq!(mk("2", 3).avg_value(6), Some(d("0.666667"))); // rounds up
        assert_eq!(mk("2", 4).avg_value(6), Some(d("0.5")));
        assert_eq!(mk("-1", 3).avg_value(6), Some(d("-0.333333")));
        assert_eq!(mk("-2", 3).avg_value(6), Some(d("-0.666667")));
        assert_eq!(mk("10.5", 2).avg_value(2), Some(d("5.25")));
        // Exact at count = 1 regardless of magnitude.
        assert_eq!(
            mk("123456789.123", 1).avg_value(6),
            Some(d("123456789.123"))
        );
        // Coarse display scale re-rounds.
        assert_eq!(mk("1", 3).avg_value(1), Some(d("0.3")));
        assert_eq!(mk("2", 3).avg_value(1), Some(d("0.7")));
    }

    #[test]
    fn from_node_rejects_overflowing_count() {
        let bad = Node::elem(
            "agg",
            vec![
                Node::leaf("start", "0"),
                Node::leaf("size", "10"),
                Node::leaf("count", "99999999999999999999"), // > u64::MAX
            ],
        );
        assert!(AggItem::from_node(&bad).is_err());
    }

    #[test]
    fn avg_compare_is_exact() {
        let mut a = AggItem::empty(d("0"), d("20"));
        a.add_value(d("1.0"));
        a.add_value(d("2.0")); // avg = 1.5
        assert!(a.avg_compare(CompOp::Ge, d("1.5")));
        assert!(!a.avg_compare(CompOp::Gt, d("1.5")));
        assert!(a.avg_compare(CompOp::Lt, d("1.6")));
        // A third value making avg = 10/3 — no finite decimal expansion.
        a.add_value(d("7.0"));
        assert!(a.avg_compare(CompOp::Gt, d("3.3333")));
        assert!(a.avg_compare(CompOp::Lt, d("3.3334")));
        assert!(!a.avg_compare(CompOp::Eq, d("3.3333")));
    }

    #[test]
    fn node_round_trip() {
        let mut a = AggItem::empty(d("40"), d("60"));
        a.add_value(d("1.3"));
        a.add_value(d("2.1"));
        let n = a.to_node();
        assert!(AggItem::is_agg_node(&n));
        assert_eq!(AggItem::from_node(&n).unwrap(), a);
    }

    #[test]
    fn empty_partial_round_trip() {
        let a = AggItem::empty(d("0"), d("10"));
        assert_eq!(AggItem::from_node(&a.to_node()).unwrap(), a);
    }

    #[test]
    fn from_node_rejects_malformed() {
        assert!(AggItem::from_node(&Node::empty("agg")).is_err());
        let bad = Node::elem(
            "agg",
            vec![
                Node::leaf("start", "0"),
                Node::leaf("size", "10"),
                Node::leaf("count", "-1"),
            ],
        );
        assert!(AggItem::from_node(&bad).is_err());
        let frac = Node::elem(
            "agg",
            vec![
                Node::leaf("start", "0"),
                Node::leaf("size", "10"),
                Node::leaf("count", "1.5"),
            ],
        );
        assert!(AggItem::from_node(&frac).is_err());
    }
}
