//! Application-specific controller plugins (§2.1): the MSM
//! adaptive-sampling controller and the BAR free-energy controller the
//! paper ships with.
//!
//! Besides the concrete plugins, this module hosts the [`PluginRegistry`]:
//! a name → factory table that instantiates a controller from its name
//! and a JSON config document. The server's WAL recovery path and the
//! `copernicus serve` front-end both go through it, so "which
//! controllers exist" lives in exactly one place.

use crate::controller::Controller;
use serde_json::Value;
use std::collections::BTreeMap;

pub mod fep;
pub mod msm;
pub mod repex;

pub use fep::{FepController, FepProjectConfig, FepProjectReport};
pub use msm::{
    AdaptiveMode, GenerationReport, KineticsReport, MsmController, MsmProjectConfig,
    MsmProjectReport, TrajectoryArchive,
};
pub use repex::{
    ExchangeMode, ExchangeRecord, RepexController, RepexProjectConfig, RepexProjectReport,
};

/// Factory signature for a named controller plugin: parse the JSON
/// config document and build a fresh controller (no runtime wiring —
/// telemetry, clock and seed arrive per-event via `ControllerCtx`).
pub type PluginFactory = fn(&Value) -> Result<Box<dyn Controller>, String>;

/// Name → factory table of the controller plugins this build ships.
pub struct PluginRegistry {
    factories: BTreeMap<&'static str, PluginFactory>,
}

impl PluginRegistry {
    /// Look up a plugin by name.
    pub fn get(&self, name: &str) -> Option<PluginFactory> {
        self.factories.get(name).copied()
    }

    /// Instantiate a controller from its name and config document.
    pub fn instantiate(&self, name: &str, config: &Value) -> Result<Box<dyn Controller>, String> {
        match self.get(name) {
            Some(factory) => factory(config),
            None => Err(format!(
                "unknown controller plugin {name:?} (available: {})",
                self.names().join(", ")
            )),
        }
    }

    /// The registered plugin names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.factories.keys().copied().collect()
    }
}

/// The built-in plugin registry: `"msm"` (adaptive sampling), `"fep"`
/// (stratified BAR free energies) and `"repex"` (parallel tempering).
pub fn registry() -> PluginRegistry {
    let mut factories: BTreeMap<&'static str, PluginFactory> = BTreeMap::new();
    factories.insert("msm", |config| {
        let cfg = MsmProjectConfig::from_value(config)?;
        Ok(Box::new(MsmController::new(cfg)) as Box<dyn Controller>)
    });
    factories.insert("fep", |config| {
        let cfg = FepProjectConfig::from_value(config)?;
        Ok(Box::new(FepController::new(cfg)) as Box<dyn Controller>)
    });
    factories.insert("repex", |config| {
        let cfg = RepexProjectConfig::from_value(config)?;
        Ok(Box::new(RepexController::new(cfg)) as Box<dyn Controller>)
    });
    PluginRegistry { factories }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn registry_lists_builtin_plugins() {
        let reg = registry();
        assert_eq!(reg.names(), vec!["fep", "msm", "repex"]);
        assert!(reg.get("msm").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn registry_instantiates_by_name() {
        let reg = registry();
        let msm = reg.instantiate("msm", &json!({ "n_starts": 3 })).unwrap();
        assert_eq!(msm.name(), "msm");
        let fep = reg.instantiate("fep", &json!({ "n_windows": 2 })).unwrap();
        assert_eq!(fep.name(), "fep-bar");
        let repex = reg
            .instantiate("repex", &json!({ "n_replicas": 4, "mode": "sync" }))
            .unwrap();
        assert_eq!(repex.name(), "repex");
    }

    #[test]
    fn an_empty_config_document_is_the_default_config() {
        // What `copernicus msm|fep|repex` run with no config file, and
        // what every key a config file leaves out falls back to.
        let empty = json!({});
        assert_eq!(
            MsmProjectConfig::from_value(&empty),
            Ok(MsmProjectConfig::default())
        );
        assert_eq!(
            FepProjectConfig::from_value(&empty),
            Ok(FepProjectConfig::default())
        );
        assert_eq!(
            RepexProjectConfig::from_value(&empty),
            Ok(RepexProjectConfig::default())
        );
        // A partial document overrides only what it names.
        let partial = MsmProjectConfig::from_value(&json!({ "generations": 3 })).unwrap();
        assert_eq!(
            partial,
            MsmProjectConfig {
                generations: 3,
                ..MsmProjectConfig::default()
            }
        );
        // And a full document reads back whole.
        let full = MsmProjectConfig {
            mode: AdaptiveMode::Generational,
            stop_folded_pop_stderr: Some(0.02),
            seed: 99,
            ..MsmProjectConfig::default()
        };
        assert_eq!(MsmProjectConfig::from_value(&full.to_value()), Ok(full));
    }

    #[test]
    fn registry_rejects_unknown_and_bad_config() {
        let reg = registry();
        let err = match reg.instantiate("nope", &json!({})) {
            Err(e) => e,
            Ok(_) => panic!("unknown plugin should fail"),
        };
        assert!(err.contains("unknown controller plugin"));
        assert!(err.contains("msm"));
        for bad in [
            json!({ "weighting": "Sideways" }),
            json!({ "respawn_fraction": 1.5 }),
            json!({ "chunks_per_segment": 0 }),
        ] {
            assert!(reg.instantiate("msm", &bad).is_err(), "{bad}");
        }
        assert!(reg
            .instantiate("repex", &json!({ "mode": "diagonal" }))
            .is_err());
    }
}
