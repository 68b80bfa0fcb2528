//! Hostile input for the WXQuery front end: whatever text a subscriber
//! sends, `parse_query` followed by `compile_expr` ends in `Ok` or a typed
//! [`QueryError`], never a panic, and within a second. The texts are
//! arbitrary bytes, token soup, truncations and byte flips of the paper's
//! Queries 1–4, those queries with huge, tiny or zero constants and window
//! sizes, and with non-ASCII element, stream and variable names.

use std::panic;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use dss_wxquery::queries::ALL;
use dss_wxquery::{compile_expr, parse_query, QueryError};

/// The most one text may take, parse and compile together.
const BUDGET: Duration = Duration::from_secs(1);

/// Runs the front end on `text`: no panic, and in time.
fn front_end(text: &str) -> Result<(), TestCaseError> {
    let start = Instant::now();
    let outcome = panic::catch_unwind(|| {
        let result = parse_query(text).and_then(|expr| compile_expr(&expr));
        // The error's text is what a client is sent: it must render too.
        result.map_err(|e: QueryError| e.to_string()).map(drop)
    });
    let took = start.elapsed();
    prop_assert!(outcome.is_ok(), "the front end panicked on {:?}", text);
    prop_assert!(took < BUDGET, "{:?} took {:?}", text, took);
    Ok(())
}

/// One of the paper's queries, as bytes.
fn arb_query() -> impl Strategy<Value = Vec<u8>> {
    (0..ALL.len()).prop_map(|i| ALL[i].1.as_bytes().to_vec())
}

/// Pieces of WXQuery, so a soup of them gets past the first token.
const TOKENS: [&str; 40] = [
    "for",
    "let",
    "where",
    "return",
    "in",
    "and",
    "$p",
    "$w",
    "$a",
    "$",
    "stream(\"photons\")",
    "stream(",
    "\"",
    "/photons/photon",
    "/",
    "[",
    "]",
    "|",
    "count",
    "diff",
    "step",
    "det_time",
    ":=",
    "avg(",
    "sum(",
    "count(",
    ")",
    ">=",
    "<=",
    "=",
    "<",
    ">",
    "<photons>",
    "</photons>",
    "{",
    "}",
    "-",
    "1.3",
    "99999999999999999999999999999999999999999",
    " ",
];

fn arb_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..TOKENS.len(), 0..60).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| TOKENS[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// A decimal literal far out of any range a stream carries, or none.
fn arb_extreme_number() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("0".to_string()),
        Just("-0".to_string()),
        Just("0.0".to_string()),
        Just("18446744073709551615".to_string()),
        Just("18446744073709551616".to_string()),
        Just("170141183460469231731687303715884105727".to_string()),
        Just("-170141183460469231731687303715884105728".to_string()),
        "[1-9][0-9]{30,80}".prop_map(|s| s),
        "[-][1-9][0-9]{30,80}".prop_map(|s| s),
        "0[.]0{20,60}1".prop_map(|s| s),
        "[0-9]{1,3}[.][0-9]{20,60}".prop_map(|s| s),
        "[1-9][0-9]{0,3}".prop_map(|s| s),
        Just("1e9".to_string()),
        Just(".".to_string()),
        Just("-".to_string()),
    ]
}

/// Query 4's shape — a count or a diff window under a region selection,
/// an aggregate and its filter — with one or two of its five constants
/// (the two bounds, the window's size and step, the filter's cut) extreme.
fn arb_extreme_query() -> impl Strategy<Value = String> {
    let extremes = prop::collection::vec((0usize..5, arb_extreme_number()), 1..3);
    (any::<bool>(), extremes).prop_map(|(by_count, extremes)| {
        let mut n = ["120.0", "138.0", "20", "10", "1.3"].map(str::to_string);
        for (slot, value) in extremes {
            n[slot] = value;
        }
        let [lo, hi, size, step, cut] = n;
        let window = match by_count {
            true => format!("|count {size} step {step}|"),
            false => format!("|det_time diff {size} step {step}|"),
        };
        format!(
            "<photons> {{ for $w in stream(\"photons\")/photons/photon \
             [coord/cel/ra >= {lo} and coord/cel/ra <= {hi}] {window} \
             let $a := avg($w/en) where $a >= {cut} \
             return <avg_en> {{ $a }} </avg_en> }} </photons>"
        )
    })
}

/// A name of letters outside ASCII: Greek, accented, symbols, astral.
fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![
        "[α-ω]{1,6}".prop_map(|s| s),
        "[a-zé✓]{1,6}".prop_map(|s| s),
        "[\u{1F300}-\u{1F320}]{1,3}".prop_map(|s| s),
        "[é][0-9]{0,2}".prop_map(|s| s),
    ]
}

/// Query 2 with its element, stream, step and variable names drawn
/// outside ASCII.
fn arb_named_query() -> impl Strategy<Value = String> {
    (arb_name(), arb_name(), arb_name(), arb_name()).prop_map(|(tag, stream, step, var)| {
        format!(
            "<{tag}> {{ for ${var} in stream(\"{stream}\")/{stream}/{step} \
             where ${var}/{step} >= 1.3 and ${var}/coord/{step} <= 135.5 \
             return <{tag}> {{ ${var}/{step} }} {{ ${var}/en }} </{tag}> }} </{tag}>"
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes(bytes in prop::collection::vec(0u8..=u8::MAX, 0..256)) {
        front_end(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn token_soup(text in arb_soup()) {
        front_end(&text)?;
    }

    #[test]
    fn truncated_queries(query in arb_query(), permille in 0usize..1000) {
        let cut = query.len() * permille / 1000;
        front_end(&String::from_utf8_lossy(&query[..cut]))?;
    }

    #[test]
    fn byte_flipped_queries(
        query in arb_query(),
        flips in prop::collection::vec((0usize..1000, 0u8..8), 1..4),
    ) {
        let mut query = query;
        for (permille, bit) in flips {
            let at = query.len() * permille / 1000;
            query[at] ^= 1 << bit;
        }
        front_end(&String::from_utf8_lossy(&query))?;
    }

    #[test]
    fn extreme_constants_and_windows(text in arb_extreme_query()) {
        front_end(&text)?;
    }

    #[test]
    fn non_ascii_names(text in arb_named_query()) {
        front_end(&text)?;
    }
}

/// The generators above reach past the parser: some of their texts
/// compile, and some fail in analysis or later, not only in syntax.
#[test]
fn the_generated_texts_reach_every_stage() {
    let mut rng = TestRng::deterministic();
    let (mut compiled, mut past_syntax) = (0, 0);
    for _ in 0..300 {
        for text in [
            arb_extreme_query().sample(&mut rng),
            arb_named_query().sample(&mut rng),
        ] {
            match parse_query(&text).and_then(|expr| compile_expr(&expr)) {
                Ok(_) => compiled += 1,
                Err(QueryError::Parse { .. }) => {}
                Err(_) => past_syntax += 1,
            }
        }
    }
    assert!(compiled >= 30, "only {compiled} of 600 texts compiled");
    assert!(
        past_syntax >= 30,
        "only {past_syntax} of 600 texts failed after parsing"
    );
}
