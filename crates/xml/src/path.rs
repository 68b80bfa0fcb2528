//! Child-axis-only path expressions (the paper's `π`).
//!
//! Definition 2.1 restricts paths to relative paths that "only employ the
//! child axis ('/'); no wildcards ('*'), conditions ('[p]'), or other axes
//! (e.g. '//')". Paths with embedded conditions (`π̄`) are represented in
//! the WXQuery AST as a plain [`Path`] plus a separate condition list.

use std::fmt;
use std::str::FromStr;

use crate::decimal::Decimal;
use crate::error::XmlError;
use crate::name::Symbol;
use crate::text;
use crate::tree::Node;

/// A relative child-axis path, e.g. `coord/cel/ra`. The empty path refers to
/// the context node itself.
///
/// Steps are interned [`Symbol`]s, so evaluating a path against a tree
/// compares integers, not strings. Ordering remains lexicographic over the
/// step *names* (see the manual `Ord` impl below) so `BTreeMap<Path, _>`
/// keys sort as they did when steps were `String`s.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Path {
    steps: Vec<Symbol>,
}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Path) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Path) -> std::cmp::Ordering {
        // Symbol's Ord is lexicographic over the resolved names, so slice
        // comparison gives the same order the Vec<String> representation had.
        self.steps.cmp(&other.steps)
    }
}

impl Path {
    /// The empty path (the context node itself).
    pub fn this() -> Path {
        Path::default()
    }

    /// Builds a path from individual steps, validating each as an XML name.
    pub fn from_steps<I, S>(steps: I) -> Result<Path, XmlError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut out = Vec::new();
        for s in steps {
            text::validate_name(s.as_ref())?;
            out.push(Symbol::intern(s.as_ref()));
        }
        Ok(Path { steps: out })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for the empty path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The steps.
    pub fn steps(&self) -> &[Symbol] {
        &self.steps
    }

    /// Last step (the referenced element's name), if any.
    pub fn leaf(&self) -> Option<&str> {
        self.steps.last().map(|s| s.as_str())
    }

    /// Concatenation `self/other`.
    pub fn join(&self, other: &Path) -> Path {
        let mut steps = self.steps.clone();
        steps.extend(other.steps.iter().cloned());
        Path { steps }
    }

    /// Appends one step.
    pub fn child(&self, step: &str) -> Result<Path, XmlError> {
        text::validate_name(step)?;
        let mut steps = self.steps.clone();
        steps.push(Symbol::intern(step));
        Ok(Path { steps })
    }

    /// `true` if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.steps.len() >= self.steps.len() && other.steps[..self.steps.len()] == self.steps[..]
    }

    /// Strips `prefix` from the front, if it is a prefix.
    pub fn strip_prefix(&self, prefix: &Path) -> Option<Path> {
        if prefix.is_prefix_of(self) {
            Some(Path {
                steps: self.steps[prefix.steps.len()..].to_vec(),
            })
        } else {
            None
        }
    }

    /// All nodes reachable from `node` through this path. Each step may
    /// fan out over several same-named children.
    pub fn evaluate<'a>(&self, node: &'a Node) -> Vec<&'a Node> {
        let mut frontier = vec![node];
        for &step in &self.steps {
            let mut next = Vec::with_capacity(frontier.len());
            for n in frontier {
                next.extend(n.children().iter().filter(|c| c.symbol() == step));
            }
            if next.is_empty() {
                return Vec::new();
            }
            frontier = next;
        }
        frontier
    }

    /// Calls `f` on every node reachable through this path, depth-first,
    /// without allocating at all — the zero-allocation dual of
    /// [`evaluate`](Path::evaluate) for per-item operator hot paths.
    pub fn visit<'a, F: FnMut(&'a Node)>(&self, node: &'a Node, f: &mut F) {
        // Depth-first walk; paths are short (schema depth), so recursion
        // depth is bounded.
        fn rec<'a, F: FnMut(&'a Node)>(steps: &[Symbol], node: &'a Node, f: &mut F) {
            match steps.split_first() {
                None => f(node),
                Some((&step, rest)) => {
                    for c in node.children() {
                        if c.symbol() == step {
                            rec(rest, c, f);
                        }
                    }
                }
            }
        }
        rec(&self.steps, node, f);
    }

    /// First node reachable through this path (document order). Unlike a
    /// greedy walk through the first matching child per step, this
    /// backtracks across repeated siblings, so it agrees with
    /// `evaluate(...).first()`.
    pub fn first<'a>(&self, node: &'a Node) -> Option<&'a Node> {
        fn rec<'a>(steps: &[Symbol], node: &'a Node) -> Option<&'a Node> {
            match steps.split_first() {
                None => Some(node),
                Some((&step, rest)) => node
                    .children()
                    .iter()
                    .filter(|c| c.symbol() == step)
                    .find_map(|c| rec(rest, c)),
            }
        }
        rec(&self.steps, node)
    }

    /// Decimal value of the first reachable node; `None` when there is no
    /// such node or it holds no decimal (the first node decides — later
    /// siblings are not tried). Allocation-free, hit or miss.
    pub fn decimal(&self, node: &Node) -> Option<Decimal> {
        self.first(node)?.decimal()
    }

    /// Decimal value of the first reachable node, for callers that report
    /// the failure.
    pub fn decimal_value(&self, node: &Node) -> Result<Decimal, XmlError> {
        match self.first(node) {
            Some(n) => n.decimal_value(),
            None => Err(XmlError::ValueParse {
                value: self.to_string(),
                wanted: "decimal",
            }),
        }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            f.write_str(step.as_str())?;
        }
        Ok(())
    }
}

impl FromStr for Path {
    type Err = XmlError;

    /// Parses `coord/cel/ra`. Rejects absolute paths, `//`, wildcards, and
    /// conditions — anything outside the paper's `π` grammar.
    fn from_str(s: &str) -> Result<Path, XmlError> {
        let invalid = |message: &str| XmlError::InvalidPath {
            path: s.to_string(),
            message: message.to_string(),
        };
        if s.is_empty() {
            return Ok(Path::this());
        }
        if s.starts_with('/') {
            return Err(invalid("π is a relative path; it must not start with '/'"));
        }
        if s.contains("//") {
            return Err(invalid("the descendant axis '//' is not part of π"));
        }
        if s.contains('*') {
            return Err(invalid("wildcards are not part of π"));
        }
        if s.contains('[') || s.contains(']') {
            return Err(invalid("conditions '[p]' are not allowed inside π"));
        }
        let mut steps = Vec::new();
        for step in s.split('/') {
            text::validate_name(step)?;
            steps.push(Symbol::intern(step));
        }
        Ok(Path { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn photon() -> Node {
        Node::elem(
            "photon",
            vec![
                Node::elem(
                    "coord",
                    vec![Node::elem(
                        "cel",
                        vec![Node::leaf("ra", "130.7"), Node::leaf("dec", "-46.2")],
                    )],
                ),
                Node::leaf("en", "1.4"),
            ],
        )
    }

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(p("coord/cel/ra").to_string(), "coord/cel/ra");
        assert_eq!(p("en").len(), 1);
        assert_eq!(Path::this().to_string(), "");
        assert!(Path::this().is_empty());
    }

    #[test]
    fn parse_rejects_non_pi_grammar() {
        for s in ["/abs", "a//b", "a/*/b", "a[b>1]/c", "a/", "/"] {
            assert!(s.parse::<Path>().is_err(), "{s:?} should be rejected");
        }
    }

    #[test]
    fn evaluate_navigates() {
        let ph = photon();
        let ras = p("coord/cel/ra").evaluate(&ph);
        assert_eq!(ras.len(), 1);
        assert_eq!(ras[0].text(), Some("130.7"));
        assert!(p("coord/det").evaluate(&ph).is_empty());
        assert_eq!(Path::this().evaluate(&ph), vec![&ph]);
    }

    #[test]
    fn evaluate_fans_out_over_repeated_children() {
        let w = Node::elem(
            "w",
            vec![
                Node::elem("i", vec![Node::leaf("v", "1")]),
                Node::elem("i", vec![Node::leaf("v", "2")]),
            ],
        );
        let vs: Vec<_> = p("i/v")
            .evaluate(&w)
            .iter()
            .filter_map(|n| n.text())
            .collect();
        assert_eq!(vs, vec!["1", "2"]);
    }

    #[test]
    fn first_backtracks_over_repeated_siblings() {
        // The first <coord> lacks <cel>; a greedy walk would return None.
        let ph = Node::elem(
            "photon",
            vec![
                Node::elem(
                    "coord",
                    vec![Node::elem("det", vec![Node::leaf("dx", "1")])],
                ),
                Node::elem(
                    "coord",
                    vec![Node::elem("cel", vec![Node::leaf("ra", "120.5")])],
                ),
            ],
        );
        let path = p("coord/cel/ra");
        assert_eq!(path.first(&ph).and_then(|n| n.text()), Some("120.5"));
        assert_eq!(path.first(&ph), path.evaluate(&ph).first().copied());
    }

    #[test]
    fn first_and_decimal_value() {
        let ph = photon();
        assert_eq!(p("en").first(&ph).unwrap().text(), Some("1.4"));
        assert_eq!(
            p("coord/cel/dec").decimal_value(&ph).unwrap(),
            "-46.2".parse::<Decimal>().unwrap()
        );
        assert!(p("missing").decimal_value(&ph).is_err());
        assert_eq!(
            p("coord/cel/dec").decimal(&ph),
            p("coord/cel/dec").decimal_value(&ph).ok()
        );
        assert_eq!(p("missing").decimal(&ph), None);
        assert_eq!(p("coord").decimal(&ph), None);
    }

    #[test]
    fn prefix_relations() {
        assert!(p("coord").is_prefix_of(&p("coord/cel/ra")));
        assert!(p("coord/cel").is_prefix_of(&p("coord/cel")));
        assert!(!p("cel").is_prefix_of(&p("coord/cel")));
        assert_eq!(
            p("coord/cel/ra").strip_prefix(&p("coord")).unwrap(),
            p("cel/ra")
        );
        assert!(p("coord/cel").strip_prefix(&p("en")).is_none());
        assert!(Path::this().is_prefix_of(&p("en")));
    }

    #[test]
    fn join_and_child() {
        assert_eq!(p("coord").join(&p("cel/ra")), p("coord/cel/ra"));
        assert_eq!(p("coord").child("cel").unwrap(), p("coord/cel"));
        assert!(p("coord").child("bad name").is_err());
        assert_eq!(Path::this().join(&p("en")), p("en"));
    }

    #[test]
    fn leaf_name() {
        assert_eq!(p("coord/cel/ra").leaf(), Some("ra"));
        assert_eq!(Path::this().leaf(), None);
    }

    #[test]
    fn ordering_is_lexicographic_for_map_keys() {
        let mut v = vec![p("en"), p("coord/cel"), p("coord")];
        v.sort();
        assert_eq!(v, vec![p("coord"), p("coord/cel"), p("en")]);
    }
}
