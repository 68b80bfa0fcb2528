//! Photon records and their XML form (the paper's Section-1 DTD).

use dss_xml::{Decimal, Node, XmlError};

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
        Node::new(
            "photon",
            None,
            [
                Node::display_leaf("phc", self.phc),
                Node::new(
                    "coord",
                    None,
                    [
                        Node::new(
                            "cel",
                            None,
                            [
                                Node::decimal_leaf("ra", self.ra),
                                Node::decimal_leaf("dec", self.dec),
                            ],
                        ),
                        Node::new(
                            "det",
                            None,
                            [
                                Node::display_leaf("dx", self.dx),
                                Node::display_leaf("dy", self.dy),
                            ],
                        ),
                    ],
                ),
                Node::decimal_leaf("en", self.en),
                Node::decimal_leaf("det_time", self.det_time),
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
    use dss_xml::schema::photon_schema;

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

    #[test]
    fn conforms_to_paper_schema() {
        photon_schema()
            .validate_complete(&sample().to_node())
            .unwrap();
    }

    #[test]
    fn from_node_rejects_malformed() {
        assert!(Photon::from_node(&Node::empty("photon")).is_err());
        let n = sample().to_node();
        let kept = n.children().iter().filter(|c| c.name() != "en").cloned();
        assert!(Photon::from_node(&Node::new("photon", None, kept.collect::<Vec<_>>())).is_err());
    }
}
