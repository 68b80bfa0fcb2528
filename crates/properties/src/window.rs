//! Data window specifications (Section 2 of the paper).
//!
//! A window is written `|count Δ [step µ]|` (item-based) or
//! `|π diff Δ [step µ]|` (value-based over an ordered reference element,
//! e.g. `det_time`). If omitted, the step size defaults to Δ (tumbling
//! windows).

use std::fmt;

use dss_xml::{Decimal, Path};

/// Window kind: item-based (`count`) or value-based (`diff`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Fixed number of items.
    Count,
    /// Fixed range of an ordered reference element (a real or abstract
    /// timestamp).
    Diff,
}

impl fmt::Display for WindowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowKind::Count => write!(f, "count"),
            WindowKind::Diff => write!(f, "diff"),
        }
    }
}

/// Errors constructing a window specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowError {
    /// Δ and µ must be positive.
    NonPositive { what: &'static str, value: Decimal },
    /// `count` windows need integer Δ and µ.
    NonIntegerCount { what: &'static str, value: Decimal },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::NonPositive { what, value } => {
                write!(f, "window {what} must be positive, got {value}")
            }
            WindowError::NonIntegerCount { what, value } => {
                write!(f, "count-window {what} must be an integer, got {value}")
            }
        }
    }
}

impl std::error::Error for WindowError {}

/// A data window specification: kind, optional reference element, window
/// size Δ, and step size µ.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    kind: WindowKind,
    /// Reference element controlling a `diff` window (`None` for `count`).
    reference: Option<Path>,
    /// Window size Δ.
    size: Decimal,
    /// Step size µ (defaults to Δ).
    step: Decimal,
}

impl WindowSpec {
    /// `|count Δ step µ|`. Pass `step = None` for the default `µ = Δ`.
    pub fn count(size: Decimal, step: Option<Decimal>) -> Result<WindowSpec, WindowError> {
        let step = step.unwrap_or(size);
        Self::check_positive(size, step)?;
        if !size.is_integer() {
            return Err(WindowError::NonIntegerCount {
                what: "size Δ",
                value: size,
            });
        }
        if !step.is_integer() {
            return Err(WindowError::NonIntegerCount {
                what: "step µ",
                value: step,
            });
        }
        Ok(WindowSpec {
            kind: WindowKind::Count,
            reference: None,
            size,
            step,
        })
    }

    /// `|reference diff Δ step µ|`. Pass `step = None` for the default
    /// `µ = Δ`.
    pub fn diff(
        reference: Path,
        size: Decimal,
        step: Option<Decimal>,
    ) -> Result<WindowSpec, WindowError> {
        let step = step.unwrap_or(size);
        Self::check_positive(size, step)?;
        Ok(WindowSpec {
            kind: WindowKind::Diff,
            reference: Some(reference),
            size,
            step,
        })
    }

    fn check_positive(size: Decimal, step: Decimal) -> Result<(), WindowError> {
        if size.signum() <= 0 {
            return Err(WindowError::NonPositive {
                what: "size Δ",
                value: size,
            });
        }
        if step.signum() <= 0 {
            return Err(WindowError::NonPositive {
                what: "step µ",
                value: step,
            });
        }
        Ok(())
    }

    /// Window kind.
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// The ordered reference element of a `diff` window.
    pub fn reference(&self) -> Option<&Path> {
        self.reference.as_ref()
    }

    /// Window size Δ.
    pub fn size(&self) -> Decimal {
        self.size
    }

    /// Step size µ.
    pub fn step(&self) -> Decimal {
        self.step
    }

    /// Tumbling window (step equals size)?
    fn is_tumbling(&self) -> bool {
        self.size == self.step
    }

    /// `true` if `a` is an exact integer multiple of `b` (`a mod b = 0` in
    /// the paper's notation), computed exactly over decimals.
    pub fn is_multiple_of(a: Decimal, b: Decimal) -> bool {
        if b == Decimal::ZERO {
            return false;
        }
        let scale = a.scale().max(b.scale());
        let (au, bu) = (a.units_at_scale(scale), b.units_at_scale(scale));
        au % bu == 0
    }

    /// Window compatibility for sharing aggregation results (Section 3.3,
    /// "Window-based Aggregation"): the window of the *new* subscription
    /// (`self`) can be assembled from the windows of the *reused* aggregate
    /// (`reused`) iff
    ///
    /// 1. both windows have the same kind and (for `diff`) the same ordered
    ///    reference element,
    /// 2. `Δ' mod Δ = 0` — a fixed number of reused windows fits into one
    ///    new window,
    /// 3. `Δ mod µ = 0` — the reused aggregate admits a sequence of
    ///    non-overlapping windows covering the whole input, and
    /// 4. `µ' mod µ = 0` — the reused aggregate delivers a value at least
    ///    each time the new aggregate must produce one.
    pub fn shareable_from(&self, reused: &WindowSpec) -> bool {
        if self.kind != reused.kind || self.reference != reused.reference {
            return false;
        }
        // Equal-size windows need no composition: every new window *is* a
        // reused window, which exists whenever the new step lands on the
        // reused step's grid (µ' mod µ = 0). The paper's three modulo
        // conditions govern composing several reused windows into a coarser
        // one and would spuriously reject e.g. |diff 60 step 40| against
        // itself because 60 mod 40 ≠ 0.
        if self.size == reused.size {
            return WindowSpec::is_multiple_of(self.step, reused.step);
        }
        WindowSpec::is_multiple_of(self.size, reused.size)
            && WindowSpec::is_multiple_of(reused.size, reused.step)
            && WindowSpec::is_multiple_of(self.step, reused.step)
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "|")?;
        if let Some(r) = &self.reference {
            write!(f, "{r} ")?;
        }
        write!(f, "{} {}", self.kind, self.size)?;
        if !self.is_tumbling() {
            write!(f, " step {}", self.step)?;
        }
        write!(f, "|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn count(size: &str, step: Option<&str>) -> WindowSpec {
        WindowSpec::count(d(size), step.map(d)).unwrap()
    }

    fn diff(size: &str, step: Option<&str>) -> WindowSpec {
        WindowSpec::diff(p("det_time"), d(size), step.map(d)).unwrap()
    }

    #[test]
    fn step_defaults_to_size() {
        let w = count("20", None);
        assert_eq!(w.step(), d("20"));
        assert!(w.is_tumbling());
        let w = diff("60", Some("40"));
        assert!(!w.is_tumbling());
    }

    #[test]
    fn validation() {
        assert!(WindowSpec::count(d("0"), None).is_err());
        assert!(WindowSpec::count(d("-5"), None).is_err());
        assert!(WindowSpec::count(d("5"), Some(d("0"))).is_err());
        assert!(WindowSpec::count(d("5.5"), None).is_err());
        assert!(WindowSpec::count(d("5"), Some(d("2.5"))).is_err());
        // diff windows may have fractional sizes.
        assert!(WindowSpec::diff(p("det_time"), d("0.5"), None).is_ok());
    }

    #[test]
    fn multiples() {
        assert!(WindowSpec::is_multiple_of(d("60"), d("20")));
        assert!(!WindowSpec::is_multiple_of(d("60"), d("40")));
        assert!(WindowSpec::is_multiple_of(d("1.5"), d("0.5")));
        assert!(!WindowSpec::is_multiple_of(d("1.5"), d("0.4")));
        assert!(WindowSpec::is_multiple_of(d("3"), d("3")));
        assert!(!WindowSpec::is_multiple_of(d("3"), d("0")));
    }

    /// The paper's Figure 5: Query 3 has |det_time diff 20 step 10|,
    /// Query 4 has |det_time diff 60 step 40|. Q4's windows can be
    /// assembled from Q3's: Δ'=60 is a multiple of Δ=20, Δ=20 is a multiple
    /// of µ=10, µ'=40 is a multiple of µ=10.
    #[test]
    fn figure5_q4_from_q3() {
        let q3 = diff("20", Some("10"));
        let q4 = diff("60", Some("40"));
        assert!(q4.shareable_from(&q3));
        assert!(!q3.shareable_from(&q4)); // 20 mod 60 ≠ 0
    }

    #[test]
    fn sharing_requires_same_kind_and_reference() {
        let c = count("20", Some("10"));
        let t = diff("20", Some("10"));
        assert!(!c.shareable_from(&t));
        assert!(!t.shareable_from(&c));
        let other_ref = WindowSpec::diff(p("en"), d("20"), Some(d("10"))).unwrap();
        assert!(!t.shareable_from(&other_ref));
    }

    #[test]
    fn sharing_requires_reused_window_covering() {
        // Reused: size 20 step 15 — 20 mod 15 ≠ 0, so no non-overlapping
        // cover exists; nothing can share it.
        let reused = count("20", Some("15"));
        let new = count("60", Some("30"));
        assert!(!new.shareable_from(&reused));
    }

    #[test]
    fn sharing_requires_step_multiple() {
        let reused = count("20", Some("10"));
        // µ' = 25 is not a multiple of µ = 10.
        let new = count("60", Some("25"));
        assert!(!new.shareable_from(&reused));
        let ok = count("60", Some("30"));
        assert!(ok.shareable_from(&reused));
    }

    #[test]
    fn identical_windows_are_shareable() {
        let w = diff("20", Some("10"));
        assert!(w.shareable_from(&w.clone()));
        let t = count("20", None);
        assert!(t.shareable_from(&t.clone()));
    }

    #[test]
    fn display() {
        assert_eq!(count("20", Some("10")).to_string(), "|count 20 step 10|");
        assert_eq!(count("20", None).to_string(), "|count 20|");
        assert_eq!(
            diff("60", Some("40")).to_string(),
            "|det_time diff 60 step 40|"
        );
    }
}
