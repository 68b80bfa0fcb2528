//! Synthetic ROSAT-All-Sky-Survey substrate: photon streams, WXQuery
//! workload templates, and the paper's two benchmark scenarios.
//!
//! The paper evaluates on real astrophysical data (RASS photons from MPE)
//! on a blade cluster. Neither is available here; this crate provides the
//! documented substitutes (see DESIGN.md): a deterministic photon-stream
//! generator with configurable X-ray source regions, the Section-4 query
//! template generator with predefined value sets, and builders for the
//! 8-super-peer example scenario and the 4×4-grid scenario.

pub mod generator;
pub mod photon;
pub mod scenario;
pub mod templates;

pub use generator::{default_photons, GeneratorConfig, PhotonGenerator, SkyRegion, XraySource};
pub use photon::Photon;
pub use scenario::{example_network, QueryDef, Scenario, ScenarioOutcome, StreamDef};
pub use templates::{QueryTemplateGenerator, TemplateKind, ValueSets};
