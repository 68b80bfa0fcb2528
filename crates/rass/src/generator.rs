//! Synthetic ROSAT-All-Sky-Survey photon streams.
//!
//! The paper evaluates on real RASS photon data obtained from the Max
//! Planck Institute for Extraterrestrial Physics. That data is not
//! available; per the substitution table in DESIGN.md we generate a
//! synthetic stream with the same element structure and the statistical
//! features the algorithms depend on: source regions (so region predicates
//! have non-trivial, tunable selectivity), energy spectra (for energy
//! cuts), and a strictly monotone `det_time` (value-based windows require a
//! sorted reference element).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dss_xml::{Decimal, Node};

use crate::photon::Photon;

/// A rectangular sky region in (ra, dec) degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkyRegion {
    pub ra_min: f64,
    pub ra_max: f64,
    pub dec_min: f64,
    pub dec_max: f64,
}

impl SkyRegion {
    /// `true` if the region contains the point.
    pub fn contains(&self, ra: f64, dec: f64) -> bool {
        ra >= self.ra_min && ra <= self.ra_max && dec >= self.dec_min && dec <= self.dec_max
    }
}

/// The Vela supernova remnant region (Query 1).
const VELA: SkyRegion = SkyRegion {
    ra_min: 120.0,
    ra_max: 138.0,
    dec_min: -49.0,
    dec_max: -40.0,
};

/// The RX J0852.0-4622 supernova remnant region (Query 2), contained in
/// Vela.
const RXJ0852: SkyRegion = SkyRegion {
    ra_min: 130.5,
    ra_max: 135.5,
    dec_min: -48.0,
    dec_max: -45.0,
};

/// The simulated survey field: the patch of sky the telescope scans.
const SURVEY_FIELD: SkyRegion = SkyRegion {
    ra_min: 90.0,
    ra_max: 180.0,
    dec_min: -60.0,
    dec_max: -20.0,
};

/// An X-ray source: photons cluster in its region with a characteristic
/// energy band.
#[derive(Debug, Clone, Copy)]
pub struct XraySource {
    pub region: SkyRegion,
    /// Fraction of all photons attributed to this source.
    pub weight: f64,
    /// Energy band in keV.
    pub en_min: f64,
    pub en_max: f64,
}

/// Photon stream generator configuration.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
    /// Survey field for background photons.
    pub field: SkyRegion,
    /// Clustered sources.
    pub sources: Vec<XraySource>,
    /// Background energy band in keV.
    pub background_en: (f64, f64),
    /// Mean `det_time` increment between photons (seconds); the stream's
    /// item frequency is `1 / mean_time_increment`.
    pub mean_time_increment: f64,
}

impl Default for GeneratorConfig {
    /// Vela-centric defaults: 30 % of photons from the Vela remnant, 10 %
    /// from the (contained) RX J0852.0-4622 remnant with a harder
    /// spectrum, the rest survey background.
    fn default() -> GeneratorConfig {
        GeneratorConfig {
            seed: 0x5eed_0001,
            field: SURVEY_FIELD,
            sources: vec![
                XraySource {
                    region: VELA,
                    weight: 0.3,
                    en_min: 0.4,
                    en_max: 2.4,
                },
                XraySource {
                    region: RXJ0852,
                    weight: 0.1,
                    en_min: 1.0,
                    en_max: 3.0,
                },
            ],
            background_en: (0.1, 2.0),
            mean_time_increment: 0.01, // 100 photons/s
        }
    }
}

impl GeneratorConfig {
    /// The stream's item frequency in photons per second.
    pub fn frequency(&self) -> f64 {
        1.0 / self.mean_time_increment
    }
}

/// Deterministic photon stream generator.
#[derive(Debug)]
pub struct PhotonGenerator {
    cfg: GeneratorConfig,
    rng: StdRng,
    time: f64,
    phc: u64,
}

impl PhotonGenerator {
    /// Creates a generator.
    pub fn new(cfg: GeneratorConfig) -> PhotonGenerator {
        let rng = StdRng::seed_from_u64(cfg.seed);
        PhotonGenerator {
            cfg,
            rng,
            time: 0.0,
            phc: 0,
        }
    }

    /// Generates the next photon. `det_time` is strictly monotone.
    pub fn next_photon(&mut self) -> Photon {
        // Advance time by a positive, bounded increment.
        self.time += self.rng.gen_range(0.2..1.8) * self.cfg.mean_time_increment;
        self.phc += 1;
        // Pick origin: a source (by weight) or background.
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        let mut chosen: Option<&XraySource> = None;
        for s in &self.cfg.sources {
            acc += s.weight;
            if roll < acc {
                chosen = Some(s);
                break;
            }
        }
        let (region, en_lo, en_hi) = match chosen {
            Some(s) => (s.region, s.en_min, s.en_max),
            None => (
                self.cfg.field,
                self.cfg.background_en.0,
                self.cfg.background_en.1,
            ),
        };
        let ra = self.rng.gen_range(region.ra_min..=region.ra_max);
        let dec = self.rng.gen_range(region.dec_min..=region.dec_max);
        let en = self.rng.gen_range(en_lo..=en_hi);
        Photon {
            phc: self.phc,
            ra: Decimal::from_f64_rounded(ra, 3),
            dec: Decimal::from_f64_rounded(dec, 3),
            dx: self.rng.gen_range(0..512),
            dy: self.rng.gen_range(0..512),
            en: Decimal::from_f64_rounded(en, 3),
            det_time: Decimal::from_f64_rounded(self.time, 4),
        }
    }

    /// Generates `n` photons as XML stream items.
    pub fn generate_items(&mut self, n: usize) -> Vec<Node> {
        (0..n).map(|_| self.next_photon().to_node()).collect()
    }
}

/// Convenience: `n` photon items with the default configuration and the
/// given seed.
pub fn default_photons(seed: u64, n: usize) -> Vec<Node> {
    let cfg = GeneratorConfig {
        seed,
        ..GeneratorConfig::default()
    };
    PhotonGenerator::new(cfg).generate_items(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_xml::{Node, Path};

    #[test]
    fn deterministic_given_seed() {
        let a = default_photons(7, 50);
        let b = default_photons(7, 50);
        let c = default_photons(8, 50);
        assert_eq!(a, b);
        assert_ne!(a, c);
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
    fn photons_conform_to_schema() {
        // The photon tree of the paper's Section 1.
        let paper = "photon(phc,coord(cel(ra,dec),det(dx,dy)),en,det_time)";
        for item in default_photons(1, 100) {
            assert_eq!(names(&item), paper);
        }
    }

    #[test]
    fn det_time_is_strictly_monotone() {
        let items = default_photons(2, 500);
        let path: Path = "det_time".parse().unwrap();
        let times: Vec<_> = items
            .iter()
            .map(|i| path.decimal_value(i).unwrap())
            .collect();
        for w in times.windows(2) {
            assert!(w[0] < w[1], "det_time must be strictly increasing");
        }
    }

    #[test]
    fn source_regions_are_enriched() {
        let items = default_photons(3, 2000);
        let ra: Path = "coord/cel/ra".parse().unwrap();
        let dec: Path = "coord/cel/dec".parse().unwrap();
        let in_vela = items
            .iter()
            .filter(|i| {
                VELA.contains(
                    ra.decimal_value(i).unwrap().to_f64(),
                    dec.decimal_value(i).unwrap().to_f64(),
                )
            })
            .count();
        // Vela covers ~4.5 % of the survey field but receives ≥ 30 % of
        // photons (sources) plus its share of background.
        let frac = in_vela as f64 / items.len() as f64;
        assert!(frac > 0.3, "Vela fraction {frac}");
        assert!(frac < 0.7, "Vela fraction {frac}");
    }

    #[test]
    fn rxj_photons_exist_with_high_energy() {
        let items = default_photons(4, 2000);
        let ra: Path = "coord/cel/ra".parse().unwrap();
        let dec: Path = "coord/cel/dec".parse().unwrap();
        let en: Path = "en".parse().unwrap();
        let matching = items
            .iter()
            .filter(|i| {
                RXJ0852.contains(
                    ra.decimal_value(i).unwrap().to_f64(),
                    dec.decimal_value(i).unwrap().to_f64(),
                ) && en.decimal_value(i).unwrap().to_f64() >= 1.3
            })
            .count();
        assert!(
            matching > 50,
            "got only {matching} RX J0852 photons above 1.3 keV"
        );
    }

    #[test]
    fn frequency_matches_config() {
        let cfg = GeneratorConfig::default();
        assert!((cfg.frequency() - 100.0).abs() < 1e-9);
        let mut g = PhotonGenerator::new(cfg);
        let items = g.generate_items(1000);
        let path: Path = "det_time".parse().unwrap();
        let last = path.decimal_value(items.last().unwrap()).unwrap().to_f64();
        // 1000 photons at ~100/s ⇒ ~10 s of data.
        assert!((8.0..12.0).contains(&last), "last det_time {last}");
    }
}
