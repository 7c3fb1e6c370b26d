//! The campaign specification — everything needed to (re)run a campaign
//! deterministically. The spec is journaled before the first trial so a
//! resumed campaign can verify it is continuing the same experiment.

use crate::error::{CampaignError, Result};
use crate::plan::PlanSpec;
use eco_sim_node::cpu::CpuConfig;
use serde::{Deserialize, Serialize};

/// A full campaign description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Human-readable campaign name.
    pub name: String,
    /// The configuration sweep, in canonical order.
    pub configs: Vec<CpuConfig>,
    /// The search strategy.
    pub plan: PlanSpec,
    /// Seed for the per-node BMC sensor noise — fixes the measurements.
    pub seed: u64,
    /// IPMI sampling cadence during trials (the paper samples every 2 s).
    pub sample_interval_ms: u64,
    /// Total work of a full-length trial, in GFLOP.
    pub full_work_gflop: f64,
    /// HPCG problem size (nx = ny = nz); part of the binary identity.
    pub nx: usize,
    /// Node class the campaign characterises. Widens the model's system
    /// hash via [`chronus::hash::classed_system_hash`], so a fleet can
    /// serve one model per hardware class. Empty (the serde default, for
    /// pre-class journals) keeps the legacy `(system, binary)` key.
    #[serde(default)]
    pub node_class: String,
}

impl CampaignSpec {
    /// Checks the spec is runnable.
    pub fn validate(&self) -> Result<()> {
        if self.configs.is_empty() {
            return Err(CampaignError::InvalidSpec("configuration sweep is empty".into()));
        }
        if self.sample_interval_ms == 0 {
            return Err(CampaignError::InvalidSpec("sample interval must be positive".into()));
        }
        if self.full_work_gflop <= 0.0 || self.full_work_gflop.is_nan() {
            return Err(CampaignError::InvalidSpec(format!(
                "full workload must be positive GFLOP, got {}",
                self.full_work_gflop
            )));
        }
        self.plan.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            name: "hpcg-sweep".into(),
            configs: vec![CpuConfig::new(32, 2_200_000, 1), CpuConfig::new(16, 1_500_000, 2)],
            plan: PlanSpec::default_halving(),
            seed: 42,
            sample_interval_ms: 2000,
            full_work_gflop: 250.0,
            nx: 104,
            node_class: String::new(),
        }
    }

    #[test]
    fn pre_class_journal_deserialises_with_the_default_class() {
        // a spec journaled before node classes existed
        let legacy = serde_json::to_string(&spec()).unwrap().replace(r##","node_class":"""##, "");
        assert!(!legacy.contains("node_class"));
        let s: CampaignSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(s.node_class, "", "legacy journals land in the default class");
        s.validate().unwrap();
    }

    #[test]
    fn valid_spec_roundtrips() {
        let s = spec();
        s.validate().unwrap();
        let back: CampaignSpec = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn degenerate_specs_are_rejected() {
        let mut s = spec();
        s.configs.clear();
        assert!(matches!(s.validate(), Err(CampaignError::InvalidSpec(_))));

        let mut s = spec();
        s.sample_interval_ms = 0;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.full_work_gflop = -1.0;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.plan = PlanSpec::SuccessiveHalving { fractions: vec![0.5], eta: 2 };
        assert!(s.validate().is_err(), "ladder not ending at 1.0 rejected by the plan");
    }
}
