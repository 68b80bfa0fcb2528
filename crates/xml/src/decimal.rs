//! Exact fixed-point decimals.
//!
//! The paper restricts predicate constants to "integer values or decimal
//! values with a finite number of decimal places" (Section 2). Predicate
//! graphs compare and add such constants; binary floating point would make
//! implication tests (`ζ(x) ⇐ ζ(y)`) unsound at the boundaries the paper's
//! example queries actually use (`120.0`, `-49.0`, `1.3`, …). We therefore
//! represent every value as `units · 10^-scale` with `i128` units.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::str::FromStr;

use crate::error::XmlError;

/// Maximum number of decimal places we accept. Far beyond anything the data
/// streams contain, while keeping sums of many values comfortably inside
/// `i128`.
pub const MAX_SCALE: u32 = 18;

/// Maximum magnitude (in units) accepted from *untrusted* input
/// ([`FromStr`]): 10¹⁹. Together with [`MAX_SCALE`] this keeps every
/// rescaling (`units · 10^Δscale ≤ 10¹⁹ · 10¹⁸ = 10³⁷`) inside `i128`
/// (≈ 1.7·10³⁸), so comparisons and window-grid arithmetic over parsed
/// stream values cannot overflow. Internal arithmetic (sums of many
/// values) may exceed this bound; comparisons stay safe via checked
/// rescaling.
pub const MAX_INPUT_UNITS: i128 = 10_000_000_000_000_000_000;

/// An exact decimal number: `units · 10^-scale`.
///
/// The representation is kept canonical (no trailing zero digits in the
/// fractional part, and scale 0 for integers), so derived `Eq`/`Hash` agree
/// with numeric equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Decimal {
    units: i128,
    scale: u32,
}

const POW10: [i128; 19] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
    10_000_000_000_000_000,
    100_000_000_000_000_000,
    1_000_000_000_000_000_000,
];

impl Decimal {
    /// Zero.
    pub const ZERO: Decimal = Decimal { units: 0, scale: 0 };
    /// One.
    pub const ONE: Decimal = Decimal { units: 1, scale: 0 };

    /// Builds a decimal from raw units and a scale, canonicalizing the result.
    ///
    /// # Panics
    /// Panics if `scale > MAX_SCALE`.
    pub fn new(units: i128, scale: u32) -> Decimal {
        assert!(
            scale <= MAX_SCALE,
            "decimal scale {scale} exceeds MAX_SCALE"
        );
        let mut d = Decimal { units, scale };
        d.canonicalize();
        d
    }

    /// An integer value.
    pub fn from_int(v: i64) -> Decimal {
        Decimal {
            units: v as i128,
            scale: 0,
        }
    }

    fn canonicalize(&mut self) {
        if self.units == 0 {
            self.scale = 0;
            return;
        }
        // `i128 % 10` is a library call; values that fit 64 bits (every
        // parsed stream value of up to 18 digits) strip their zeros there.
        if let Ok(mut units) = i64::try_from(self.units) {
            while self.scale > 0 && units % 10 == 0 {
                units /= 10;
                self.scale -= 1;
            }
            self.units = i128::from(units);
        } else {
            while self.scale > 0 && self.units % 10 == 0 {
                self.units /= 10;
                self.scale -= 1;
            }
        }
    }

    /// Raw units at this decimal's scale.
    pub fn units(&self) -> i128 {
        self.units
    }

    /// Number of decimal places in canonical form.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Units of this value at a *given* scale (≥ its own canonical scale).
    ///
    /// # Panics
    /// Panics if `scale` is smaller than the canonical scale (the value would
    /// not be representable) or exceeds [`MAX_SCALE`].
    pub fn units_at_scale(&self, scale: u32) -> i128 {
        assert!(scale <= MAX_SCALE);
        assert!(
            scale >= self.scale,
            "cannot rescale {self} to {scale} decimal places without loss"
        );
        self.units * POW10[(scale - self.scale) as usize]
    }

    /// Smallest positive decimal representable at `scale` decimal places
    /// (one "unit in the last place"). Used to normalize strict comparisons:
    /// over values with at most `scale` decimal places, `x < c` is exactly
    /// `x ≤ c − ulp(scale)`.
    pub fn ulp(scale: u32) -> Decimal {
        assert!(scale <= MAX_SCALE);
        Decimal::new(1, scale)
    }

    /// `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.scale == 0
    }

    /// Sign: -1, 0, or 1.
    pub fn signum(&self) -> i32 {
        match self.units.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        }
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: Decimal) -> Option<Decimal> {
        // Zero is canonical (scale 0), so the other operand is the sum as
        // it stands — the first value folded into a window, `0 + c` bounds.
        if self.units == 0 {
            return Some(rhs);
        }
        if rhs.units == 0 {
            return Some(self);
        }
        let scale = self.scale.max(rhs.scale);
        let a = self
            .units
            .checked_mul(POW10[(scale - self.scale) as usize])?;
        let b = rhs.units.checked_mul(POW10[(scale - rhs.scale) as usize])?;
        Some(Decimal::new(a.checked_add(b)?, scale))
    }

    /// Checked subtraction; `None` on overflow.
    pub fn checked_sub(self, rhs: Decimal) -> Option<Decimal> {
        self.checked_add(-rhs)
    }

    /// Converts to `f64` (for statistics and metric output only; never used
    /// in predicate reasoning).
    pub fn to_f64(&self) -> f64 {
        self.units as f64 / POW10[self.scale as usize] as f64
    }

    /// Builds the closest decimal with `scale` places to an `f64` (used by
    /// synthetic data generators; again never in predicate reasoning).
    pub fn from_f64_rounded(v: f64, scale: u32) -> Decimal {
        assert!(scale <= MAX_SCALE);
        let units = (v * POW10[scale as usize] as f64).round() as i128;
        Decimal::new(units, scale)
    }
}

impl Add for Decimal {
    type Output = Decimal;
    fn add(self, rhs: Decimal) -> Decimal {
        self.checked_add(rhs).expect("decimal addition overflow")
    }
}

impl Sub for Decimal {
    type Output = Decimal;
    fn sub(self, rhs: Decimal) -> Decimal {
        self.checked_sub(rhs).expect("decimal subtraction overflow")
    }
}

impl Neg for Decimal {
    type Output = Decimal;
    fn neg(self) -> Decimal {
        Decimal {
            units: -self.units,
            scale: self.scale,
        }
    }
}

impl Mul<i64> for Decimal {
    type Output = Decimal;
    fn mul(self, rhs: i64) -> Decimal {
        Decimal::new(
            self.units
                .checked_mul(rhs as i128)
                .expect("decimal multiplication overflow"),
            self.scale,
        )
    }
}

impl PartialOrd for Decimal {
    fn partial_cmp(&self, other: &Decimal) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Decimal {
    fn cmp(&self, other: &Decimal) -> Ordering {
        if self.scale == other.scale {
            return self.units.cmp(&other.units);
        }
        let scale = self.scale.max(other.scale);
        // Units that fit 64 bits times at most 10¹⁸ stay inside `i128`.
        if let (Ok(a), Ok(b)) = (i64::try_from(self.units), i64::try_from(other.units)) {
            let a = i128::from(a) * POW10[(scale - self.scale) as usize];
            let b = i128::from(b) * POW10[(scale - other.scale) as usize];
            return a.cmp(&b);
        }
        // At most one side actually rescales (the other multiplies by 1),
        // so an overflowing side is decided by its sign alone.
        let a = self.units.checked_mul(POW10[(scale - self.scale) as usize]);
        let b = other
            .units
            .checked_mul(POW10[(scale - other.scale) as usize]);
        match (a, b) {
            (Some(a), Some(b)) => a.cmp(&b),
            (None, _) => {
                if self.units > 0 {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (_, None) => {
                if other.units > 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
        }
    }
}

impl fmt::Display for Decimal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scale == 0 {
            return write!(f, "{}", self.units);
        }
        let sign = if self.units < 0 { "-" } else { "" };
        let abs = self.units.unsigned_abs();
        let div = POW10[self.scale as usize] as u128;
        let int = abs / div;
        let frac = abs % div;
        write!(f, "{sign}{int}.{frac:0width$}", width = self.scale as usize)
    }
}

impl Decimal {
    /// [`FromStr`] without the error value: `None` for anything that is not
    /// a decimal, at no allocation — what per-item reads call, since they
    /// skip unreadable values instead of reporting them.
    pub(crate) fn parse(s: &str) -> Option<Decimal> {
        Decimal::parse_narrow(s.as_bytes()).or_else(|| Decimal::parse_general(s))
    }

    /// An optional sign, at most 18 digits and at most one point, read in
    /// one pass in 64-bit arithmetic: 18 digits cannot overflow an `i64`,
    /// exceed [`MAX_INPUT_UNITS`] or carry more than [`MAX_SCALE`] places.
    /// `None` means "not that shape" — padding, longer digit strings and
    /// garbage are all left for [`parse_general`](Self::parse_general) to
    /// accept or reject.
    fn parse_narrow(bytes: &[u8]) -> Option<Decimal> {
        let (neg, body) = match bytes.split_first()? {
            (b'-', rest) => (true, rest),
            (b'+', rest) => (false, rest),
            _ => (false, bytes),
        };
        let mut units: i64 = 0;
        let mut digits = 0u32;
        let mut scale = None;
        for &b in body {
            match b {
                b'0'..=b'9' if digits < 18 => {
                    units = units * 10 + i64::from(b - b'0');
                    digits += 1;
                    scale = scale.map(|s| s + 1);
                }
                b'.' if scale.is_none() => scale = Some(0u32),
                _ => return None,
            }
        }
        if digits == 0 {
            return None;
        }
        Some(Decimal::new(
            i128::from(if neg { -units } else { units }),
            scale.unwrap_or(0),
        ))
    }

    /// The arbiter of what parses: surrounding whitespace, a sign, digits
    /// with at most one point and [`MAX_SCALE`] places, at most
    /// [`MAX_INPUT_UNITS`] in magnitude.
    fn parse_general(s: &str) -> Option<Decimal> {
        let t = s.trim();
        let (neg, t) = match t.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, t.strip_prefix('+').unwrap_or(t)),
        };
        let (int_part, frac_part) = t.split_once('.').unwrap_or((t, ""));
        if int_part.is_empty() && frac_part.is_empty() {
            return None;
        }
        if frac_part.len() as u32 > MAX_SCALE {
            return None;
        }
        let mut units: i128 = 0;
        for b in int_part.bytes().chain(frac_part.bytes()) {
            if !b.is_ascii_digit() {
                return None;
            }
            units = units.checked_mul(10)?.checked_add(i128::from(b - b'0'))?;
        }
        if units > MAX_INPUT_UNITS {
            return None;
        }
        Some(Decimal::new(
            if neg { -units } else { units },
            frac_part.len() as u32,
        ))
    }
}

impl FromStr for Decimal {
    type Err = XmlError;

    fn from_str(s: &str) -> Result<Decimal, XmlError> {
        Decimal::parse(s).ok_or_else(|| XmlError::ValueParse {
            value: s.to_string(),
            wanted: "decimal",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> Decimal {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        for s in [
            "0", "1", "-1", "1.3", "-49.0", "120.0", "0.001", "-0.5", "138",
        ] {
            let v = d(s);
            let back: Decimal = v.to_string().parse().unwrap();
            assert_eq!(v, back, "round trip through {s:?} -> {v}");
        }
    }

    #[test]
    fn canonical_form_strips_trailing_zeros() {
        assert_eq!(d("1.300"), d("1.3"));
        assert_eq!(d("1.300").scale(), 1);
        assert_eq!(d("-49.0"), Decimal::from_int(-49));
        assert_eq!(d("0.0"), Decimal::ZERO);
        assert_eq!(d("0.0").scale(), 0);
    }

    #[test]
    fn display_pads_fraction() {
        assert_eq!(d("0.001").to_string(), "0.001");
        assert_eq!(d("-0.001").to_string(), "-0.001");
        assert_eq!(Decimal::new(1205, 1).to_string(), "120.5");
    }

    #[test]
    fn ordering_across_scales() {
        assert!(d("1.3") > d("1.25"));
        assert!(d("-49.0") < d("-48.9"));
        assert!(d("120") < d("120.5"));
        assert_eq!(d("2.50").cmp(&d("2.5")), Ordering::Equal);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(d("1.3") + d("0.7"), Decimal::from_int(2));
        assert_eq!(d("1.3") - d("1.3"), Decimal::ZERO);
        assert_eq!(d("130.5") - d("120.0"), d("10.5"));
        assert_eq!(-d("1.5"), d("-1.5"));
    }

    #[test]
    fn ulp_is_smallest_step() {
        assert_eq!(Decimal::ulp(1), d("0.1"));
        assert_eq!(Decimal::ulp(0), Decimal::ONE);
        assert_eq!(d("1.3") - Decimal::ulp(1), d("1.2"));
    }

    #[test]
    fn units_at_scale_rescales() {
        assert_eq!(d("1.3").units_at_scale(3), 1300);
        assert_eq!(d("-2").units_at_scale(2), -200);
    }

    #[test]
    #[should_panic(expected = "without loss")]
    fn units_at_scale_rejects_lossy() {
        let _ = d("1.25").units_at_scale(1);
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", ".", "-", "1.2.3", "abc", "1e5", "--1", "1..2"] {
            assert!(s.parse::<Decimal>().is_err(), "{s:?} should not parse");
        }
    }

    #[test]
    fn parse_accepts_common_forms() {
        assert_eq!(d(".5"), Decimal::new(5, 1));
        assert_eq!(d("+1.5"), d("1.5"));
        assert_eq!(d(" 42 "), Decimal::from_int(42));
    }

    #[test]
    fn f64_conversion_is_close() {
        assert!((d("1.3").to_f64() - 1.3).abs() < 1e-12);
        assert_eq!(Decimal::from_f64_rounded(1.2999999, 2), d("1.3"));
    }

    #[test]
    fn parse_rejects_oversized_magnitudes() {
        // Values beyond MAX_INPUT_UNITS are rejected at the untrusted
        // boundary so downstream rescaling cannot overflow.
        assert!("99999999999999999999999999999999999999"
            .parse::<Decimal>()
            .is_err());
        assert!("10000000000000000001".parse::<Decimal>().is_err()); // > 10^19 units
        assert!("10000000000000000000".parse::<Decimal>().is_ok()); // exactly 10^19
        assert!("-10000000000000000001".parse::<Decimal>().is_err());
    }

    #[test]
    fn cmp_survives_internal_overflow() {
        // Internal arithmetic can exceed MAX_INPUT_UNITS; comparing such a
        // value against one of a different scale must not overflow.
        let huge = Decimal::new(i128::MAX / 2, 0);
        let small = Decimal::new(15, 1); // 1.5
        assert!(huge > small);
        assert!(small < huge);
        let neg_huge = Decimal::new(i128::MIN / 2, 0);
        assert!(neg_huge < small);
        assert!(small > neg_huge);
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let big = Decimal::new(i128::MAX / 2, 0);
        assert!(big.checked_add(big).is_none() || big.checked_add(big).is_some());
        let huge = Decimal::new(i128::MAX, 0);
        assert!(huge.checked_add(Decimal::ONE).is_none());
    }

    /// Canonical form: zero has scale 0 and a fraction ends in a non-zero
    /// digit, so equal values have equal fields.
    fn assert_canonical(v: Decimal) {
        assert!(v.scale <= MAX_SCALE, "{v:?}");
        assert!(v.units != 0 || v.scale == 0, "{v:?}");
        assert!(v.scale == 0 || v.units % 10 != 0, "{v:?}");
    }

    /// Plain `i128` arithmetic on `(units, scale)` pairs, for operands
    /// small enough (|units| ≤ 2⁶⁷) that no rescaling by 10¹⁸ overflows.
    mod reference {
        use super::{Ordering, MAX_INPUT_UNITS, MAX_SCALE, POW10};

        pub fn canonical(mut units: i128, mut scale: u32) -> (i128, u32) {
            if units == 0 {
                return (0, 0);
            }
            while scale > 0 && units % 10 == 0 {
                units /= 10;
                scale -= 1;
            }
            (units, scale)
        }

        fn aligned(a: (i128, u32), b: (i128, u32)) -> (i128, i128, u32) {
            let scale = a.1.max(b.1);
            (
                a.0 * POW10[(scale - a.1) as usize],
                b.0 * POW10[(scale - b.1) as usize],
                scale,
            )
        }

        pub fn cmp(a: (i128, u32), b: (i128, u32)) -> Ordering {
            let (a, b, _) = aligned(a, b);
            a.cmp(&b)
        }

        pub fn add(a: (i128, u32), b: (i128, u32)) -> (i128, u32) {
            let (a, b, scale) = aligned(a, b);
            canonical(a + b, scale)
        }

        /// The parser as it stood before the 64-bit pass was put in front
        /// of it: what decides which strings are decimals.
        pub fn parse(s: &str) -> Option<(i128, u32)> {
            let t = s.trim();
            if t.is_empty() {
                return None;
            }
            let (neg, t) = match t.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, t.strip_prefix('+').unwrap_or(t)),
            };
            let (int_part, frac_part) = match t.split_once('.') {
                Some((i, fr)) => (i, fr),
                None => (t, ""),
            };
            if int_part.is_empty() && frac_part.is_empty() {
                return None;
            }
            if !int_part.chars().all(|c| c.is_ascii_digit())
                || !frac_part.chars().all(|c| c.is_ascii_digit())
            {
                return None;
            }
            if frac_part.len() as u32 > MAX_SCALE {
                return None;
            }
            let mut units: i128 = 0;
            for c in int_part.chars().chain(frac_part.chars()) {
                units = units.checked_mul(10)?;
                units = units.checked_add((c as u8 - b'0') as i128)?;
            }
            if units > MAX_INPUT_UNITS {
                return None;
            }
            Some(canonical(
                if neg { -units } else { units },
                frac_part.len() as u32,
            ))
        }
    }

    fn assert_parses_like_reference(s: &str) {
        let got = Decimal::parse(s);
        assert_eq!(
            got.map(|v| (v.units, v.scale)),
            reference::parse(s),
            "parsing {s:?}"
        );
        assert_eq!(s.parse::<Decimal>().ok(), got, "from_str of {s:?}");
        if let Some(v) = got {
            assert_canonical(v);
        }
    }

    #[test]
    fn narrow_parse_agrees_with_the_general_parser_at_its_edges() {
        for s in [
            "",
            " ",
            ".",
            "+",
            "-",
            "+.",
            "-.",
            "--5",
            "+-5",
            "-+5",
            "1.",
            ".5",
            "-.5",
            "+.5",
            "1.2.3",
            "1..2",
            "1e5",
            "0x10",
            "١٢", // digits, but not ASCII
            "1\u{a0}",
            " 42 ",
            "\t-1.50\n",
            "+ 1",
            "0",
            "-0",
            "+0",
            "-0.0",
            "0.000",
            "1.300",
            "-49.0",
            // 18 digits: the longest the 64-bit pass takes.
            "999999999999999999",
            "-999999999999999999",
            "99999999999999999.9",
            ".000000000000000001",
            ".999999999999999999",
            "100000000000000000",
            // 19 and more: the general parser's.
            "1000000000000000000",
            "9999999999999999999",
            "0.000000000000000001",
            "1.000000000000000000",
            "0.0000000000000000001",
            // Leading zeros past 18 digits keep a small value small.
            "0000000000000000000001.50",
            "-00000000000000000000000000000000000000007",
            // MAX_INPUT_UNITS and its neighbours, with and without places.
            "10000000000000000000",
            "10000000000000000001",
            "-10000000000000000000",
            "-10000000000000000001",
            "10.000000000000000000",
            "10.000000000000000001",
            "99999999999999999999999999999999999999",
            "999999999999999999999999999999999999999999",
        ] {
            assert_parses_like_reference(s);
        }
        assert!(Decimal::parse_narrow(b"999999999999999999").is_some());
        assert!(Decimal::parse_narrow(b"1000000000000000000").is_none());
        assert!(Decimal::parse_narrow(b" 1").is_none());
    }

    #[test]
    fn arithmetic_agrees_with_plain_i128_for_narrow_and_wide_operands() {
        let narrow_edge = i128::from(i64::MAX);
        let units = [
            0,
            1,
            -1,
            7,
            1500,
            -120_000,
            123_456_789,
            narrow_edge - 1,
            narrow_edge,
            narrow_edge + 1,
            narrow_edge + 2,
            -narrow_edge,
            -narrow_edge - 1, // i64::MIN
            -narrow_edge - 2,
            MAX_INPUT_UNITS,
            (1 << 67) + 3,
            -(1 << 67) - 3,
        ];
        // Every scale, so every scale difference 0..=18 meets every pair.
        let values: Vec<(i128, u32)> = units
            .iter()
            .flat_map(|&u| (0..=MAX_SCALE).map(move |s| (u, s)))
            .collect();
        for &(ua, sa) in &values {
            let a = Decimal::new(ua, sa);
            assert_canonical(a);
            assert_eq!((a.units, a.scale), reference::canonical(ua, sa));
            assert_canonical(-a);
            for &(ub, sb) in &values {
                let b = Decimal::new(ub, sb);
                let order = reference::cmp((ua, sa), (ub, sb));
                assert_eq!(a.cmp(&b), order, "{a:?} cmp {b:?}");
                // Equal values have equal fields, and only they.
                assert_eq!(a == b, order == Ordering::Equal, "{a:?} == {b:?}");
                let sum = a.checked_add(b).expect("operands chosen not to overflow");
                assert_canonical(sum);
                assert_eq!(
                    (sum.units, sum.scale),
                    reference::add((ua, sa), (ub, sb)),
                    "{a:?} + {b:?}"
                );
            }
        }
    }

    mod generated {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn parse_agrees_with_reference_on_number_like_strings(
                s in "[ ]{0,1}[-+]{0,2}[0-9]{0,22}[.]{0,2}[0-9]{0,21}[ ]{0,1}",
            ) {
                assert_parses_like_reference(&s);
            }

            #[test]
            fn parse_agrees_with_reference_on_short_numbers(
                s in "[-+]{0,1}[0-9]{0,9}[.]{0,1}[0-9]{0,9}",
            ) {
                assert_parses_like_reference(&s);
            }

            #[test]
            fn parse_agrees_with_reference_on_noise(s in "[-0-9.+ a]{0,8}") {
                assert_parses_like_reference(&s);
            }

            #[test]
            fn constructors_keep_the_canonical_form(
                wide in any::<bool>(),
                raw in i64::MIN..=i64::MAX,
                shift in 0u32..4,
                scale in 0u32..=MAX_SCALE,
                k in -1000i64..=1000,
            ) {
                // Small values with trailing zeros, or values pushed past
                // the 64-bit edge.
                let units = i128::from(if wide { raw } else { raw % 100_000 })
                    * POW10[shift as usize];
                let v = Decimal::new(units, scale);
                assert_canonical(v);
                prop_assert_eq!((v.units, v.scale), reference::canonical(units, scale));
                assert_canonical(-v);
                assert_canonical(v * k);
                assert_canonical(Decimal::from_int(k));
                assert_canonical(Decimal::ulp(scale));
                assert_canonical(Decimal::from_f64_rounded(k as f64 / 8.0, scale));
                // Display prints every value; the parser takes it back
                // unless it exceeds the input bound.
                if units.abs() <= MAX_INPUT_UNITS {
                    prop_assert_eq!(Decimal::parse(&v.to_string()), Some(v));
                }
            }
        }
    }

    #[test]
    fn signum() {
        assert_eq!(d("-3.2").signum(), -1);
        assert_eq!(Decimal::ZERO.signum(), 0);
        assert_eq!(d("0.01").signum(), 1);
    }
}
