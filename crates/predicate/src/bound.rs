//! Bounds: the edge weights of predicate graphs.
//!
//! An edge `v → w` with bound `(c, strict)` asserts `v − w ≤ c` (non-strict)
//! or `v − w < c` (strict). Tracking strictness exactly keeps implication
//! sound over decimal-valued variables — no epsilon rewriting of `<` into
//! `≤ c − ε`, which would be wrong for values of finer scale than `ε`.

use std::fmt;

use dss_xml::Decimal;

/// A difference bound `v − w (≤|<) weight`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bound {
    /// The constant on the right-hand side.
    pub weight: Decimal,
    /// `true` for `<`, `false` for `≤`.
    pub strict: bool,
}

impl Bound {
    /// Non-strict bound `… ≤ weight`.
    pub fn le(weight: Decimal) -> Bound {
        Bound {
            weight,
            strict: false,
        }
    }

    /// Strict bound `… < weight`.
    pub fn lt(weight: Decimal) -> Bound {
        Bound {
            weight,
            strict: true,
        }
    }

    /// Bound composition along a path: `v−w ≤ c₁` and `w−x ≤ c₂` give
    /// `v−x ≤ c₁+c₂`, strict if either part is strict. `None` where
    /// `c₁+c₂` leaves the decimal range: query text can chain bounds whose
    /// sum no [`Decimal`] holds.
    pub fn compose(self, other: Bound) -> Option<Bound> {
        Some(Bound {
            weight: self.weight.checked_add(other.weight)?,
            strict: self.strict || other.strict,
        })
    }

    /// `true` if `self` is at least as tight as `other`: every assignment
    /// satisfying `v−w (≤|<) self.weight` also satisfies
    /// `v−w (≤|<) other.weight`.
    pub fn implies(self, other: Bound) -> bool {
        if other.strict {
            // need v−w < other.weight
            self.weight < other.weight || (self.weight == other.weight && self.strict)
        } else {
            // need v−w ≤ other.weight
            self.weight <= other.weight
        }
    }

    /// The tighter of the two bounds (used when merging parallel edges and
    /// relaxing in shortest-path computations).
    pub fn min(self, other: Bound) -> Bound {
        if self.implies(other) {
            self
        } else {
            other
        }
    }

    /// A cycle with this total bound witnesses unsatisfiability iff the
    /// derived constraint `0 (≤|<) weight` is false.
    pub fn cycle_is_infeasible(self) -> bool {
        self.weight < Decimal::ZERO || (self.weight == Decimal::ZERO && self.strict)
    }

    /// Evaluates the bound as the comparison `lhs (≤|<) rhs + weight`
    /// (equivalent to `lhs − rhs (≤|<) weight`, but the sum form admits an
    /// exact overflow fallback: an unrepresentable `rhs + weight` lies
    /// beyond every representable `lhs` on the side of its operands'
    /// shared sign).
    pub fn satisfied_by(self, lhs: Decimal, rhs: Decimal) -> bool {
        match rhs.checked_add(self.weight) {
            Some(bound) => within(lhs, bound, self.strict),
            // Additive overflow needs both operands on the same sign:
            // positive ⇒ the bound exceeds any lhs (satisfied), negative ⇒
            // it undercuts any lhs (violated).
            None => rhs.signum() > 0,
        }
    }
}

/// `low (≤|<) high`.
pub(crate) fn within(low: Decimal, high: Decimal, strict: bool) -> bool {
    if strict {
        low < high
    } else {
        low <= high
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", if self.strict { "<" } else { "≤" }, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    #[test]
    fn implication_table() {
        // (self, other, expected self ⇒ other)
        let cases = [
            (Bound::le(d("1")), Bound::le(d("2")), true),
            (Bound::le(d("2")), Bound::le(d("1")), false),
            (Bound::le(d("1")), Bound::le(d("1")), true),
            (Bound::lt(d("1")), Bound::le(d("1")), true),
            (Bound::le(d("1")), Bound::lt(d("1")), false),
            (Bound::lt(d("1")), Bound::lt(d("1")), true),
            (Bound::le(d("0.9")), Bound::lt(d("1")), true),
            (Bound::lt(d("1")), Bound::le(d("0.99999")), false),
        ];
        for (a, b, want) in cases {
            assert_eq!(a.implies(b), want, "{a} ⇒ {b}");
        }
    }

    #[test]
    fn compose_adds_and_propagates_strictness() {
        let c = Bound::le(d("1.5")).compose(Bound::le(d("2")));
        assert_eq!(c, Some(Bound::le(d("3.5"))));
        let c = Bound::le(d("1.5")).compose(Bound::lt(d("2")));
        assert_eq!(c, Some(Bound::lt(d("3.5"))));
        let c = Bound::lt(d("-1")).compose(Bound::lt(d("1")));
        assert_eq!(c, Some(Bound::lt(d("0"))));
    }

    #[test]
    fn compose_out_of_the_decimal_range_is_none() {
        // 10¹⁹ at 18 places takes 37 digits of units; twenty of them do
        // not fit the 128 bits.
        let (huge, tiny) = (d("9999999999999999999"), d("0.000000000000000001"));
        let mut sum = Some(Bound::le(tiny));
        for _ in 0..20 {
            sum = sum.and_then(|s| s.compose(Bound::lt(huge)));
        }
        assert_eq!(sum, None);
        assert_eq!(
            Bound::lt(d("-1")).compose(Bound::le(d("1"))),
            Some(Bound::lt(d("0")))
        );
    }

    #[test]
    fn min_prefers_tighter() {
        assert_eq!(Bound::le(d("1")).min(Bound::le(d("2"))), Bound::le(d("1")));
        assert_eq!(Bound::le(d("2")).min(Bound::le(d("1"))), Bound::le(d("1")));
        assert_eq!(Bound::lt(d("1")).min(Bound::le(d("1"))), Bound::lt(d("1")));
        assert_eq!(Bound::le(d("1")).min(Bound::lt(d("1"))), Bound::lt(d("1")));
    }

    #[test]
    fn cycle_feasibility() {
        assert!(Bound::le(d("-0.1")).cycle_is_infeasible());
        assert!(Bound::lt(d("0")).cycle_is_infeasible());
        assert!(!Bound::le(d("0")).cycle_is_infeasible());
        assert!(!Bound::lt(d("0.1")).cycle_is_infeasible());
    }

    #[test]
    fn satisfied_by_evaluates() {
        // x − y ≤ 3
        assert!(Bound::le(d("3")).satisfied_by(d("5"), d("2")));
        assert!(!Bound::lt(d("3")).satisfied_by(d("5"), d("2")));
        assert!(Bound::lt(d("3")).satisfied_by(d("4.9"), d("2")));
    }
}
