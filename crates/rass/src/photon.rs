//! Photon records and their XML form (the paper's Section-1 DTD).

use std::sync::OnceLock;

use dss_xml::{Decimal, Node, Symbol, XmlError};

/// One detected photon.
///
/// ```text
/// photon ── phc, coord(cel(ra, dec), det(dx, dy)), en, det_time
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Photon {
    /// Photon counter.
    pub phc: u64,
    /// Celestial right ascension (degrees).
    pub ra: Decimal,
    /// Celestial declination (degrees).
    pub dec: Decimal,
    /// Detector pixel x.
    pub dx: u32,
    /// Detector pixel y.
    pub dy: u32,
    /// Energy (keV).
    pub en: Decimal,
    /// Detection time (seconds since observation start; monotone).
    pub det_time: Decimal,
}

impl Photon {
    /// Serializes the photon to its stream-item XML form.
    pub fn to_node(&self) -> Node {
        // Interned once per process, not once per element.
        static NAMES: OnceLock<[Symbol; 11]> = OnceLock::new();
        let [photon, phc, coord, cel, ra, dec, det, dx, dy, en, det_time] =
            *NAMES.get_or_init(|| {
                [
                    "photon", "phc", "coord", "cel", "ra", "dec", "det", "dx", "dy", "en",
                    "det_time",
                ]
                .map(Symbol::intern)
            });
        Node::new(
            photon,
            None,
            [
                Node::display_leaf(phc, self.phc),
                Node::new(
                    coord,
                    None,
                    [
                        Node::new(
                            cel,
                            None,
                            [
                                Node::decimal_leaf(ra, self.ra),
                                Node::decimal_leaf(dec, self.dec),
                            ],
                        ),
                        Node::new(
                            det,
                            None,
                            [
                                Node::display_leaf(dx, self.dx),
                                Node::display_leaf(dy, self.dy),
                            ],
                        ),
                    ],
                ),
                Node::decimal_leaf(en, self.en),
                Node::decimal_leaf(det_time, self.det_time),
            ],
        )
    }

    /// Parses a photon from its XML form.
    pub fn from_node(node: &Node) -> Result<Photon, XmlError> {
        let leaf = |path: &str| -> Result<Decimal, XmlError> {
            path.parse::<dss_xml::Path>()?.decimal_value(node)
        };
        let int = |path: &str| -> Result<i128, XmlError> {
            let v = leaf(path)?;
            if v.is_integer() {
                Ok(v.units())
            } else {
                Err(XmlError::ValueParse {
                    value: v.to_string(),
                    wanted: "integer",
                })
            }
        };
        Ok(Photon {
            phc: int("phc")? as u64,
            ra: leaf("coord/cel/ra")?,
            dec: leaf("coord/cel/dec")?,
            dx: int("coord/det/dx")? as u32,
            dy: int("coord/det/dy")? as u32,
            en: leaf("en")?,
            det_time: leaf("det_time")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Photon {
        Photon {
            phc: 42,
            ra: "130.7".parse().unwrap(),
            dec: "-46.2".parse().unwrap(),
            dx: 100,
            dy: 200,
            en: "1.4".parse().unwrap(),
            det_time: "1017.5".parse().unwrap(),
        }
    }

    #[test]
    fn round_trip() {
        let p = sample();
        assert_eq!(Photon::from_node(&p.to_node()).unwrap(), p);
    }

    /// The reference tree: every name given as a `&str` and interned
    /// element by element.
    fn named_by_str(p: &Photon) -> Node {
        Node::new(
            "photon",
            None,
            [
                Node::display_leaf("phc", p.phc),
                Node::new(
                    "coord",
                    None,
                    [
                        Node::new(
                            "cel",
                            None,
                            [
                                Node::decimal_leaf("ra", p.ra),
                                Node::decimal_leaf("dec", p.dec),
                            ],
                        ),
                        Node::new(
                            "det",
                            None,
                            [
                                Node::display_leaf("dx", p.dx),
                                Node::display_leaf("dy", p.dy),
                            ],
                        ),
                    ],
                ),
                Node::decimal_leaf("en", p.en),
                Node::decimal_leaf("det_time", p.det_time),
            ],
        )
    }

    #[test]
    fn interned_names_build_the_tree_str_names_build() {
        let mut gen = crate::PhotonGenerator::new(crate::GeneratorConfig::default());
        for _ in 0..2_000 {
            let p = gen.next_photon();
            let (node, want) = (p.to_node(), named_by_str(&p));
            assert_eq!(node, want);
            assert_eq!(
                dss_xml::writer::node_to_string(&node),
                dss_xml::writer::node_to_string(&want)
            );
        }
    }

    /// An item's element-name tree, e.g. `a(b,c)`.
    fn names(n: &Node) -> String {
        let children: Vec<String> = n.children().iter().map(names).collect();
        if children.is_empty() {
            n.name().to_string()
        } else {
            format!("{}({})", n.name(), children.join(","))
        }
    }

    #[test]
    fn conforms_to_paper_schema() {
        // The photon tree of the paper's Section 1.
        let paper = "photon(phc,coord(cel(ra,dec),det(dx,dy)),en,det_time)";
        assert_eq!(names(&sample().to_node()), paper);
    }

    #[test]
    fn from_node_rejects_malformed() {
        assert!(Photon::from_node(&Node::empty("photon")).is_err());
        let n = sample().to_node();
        let kept = n.children().iter().filter(|c| c.name() != "en").cloned();
        assert!(Photon::from_node(&Node::new("photon", None, kept.collect::<Vec<_>>())).is_err());
    }
}
