//! Campaign plans — the rule that decides which configurations run at
//! which probe length in each round.
//!
//! [`PlanSpec::round`] is a pure function from the trial history to the
//! next round's trials. A plan holds no mutable state, so a resumed
//! campaign that replays journaled results recomputes exactly the same
//! rounds the crashed run saw — the property the crash-resume tests rely
//! on.

use crate::error::{CampaignError, Result};
use eco_sim_node::cpu::CpuConfig;
use serde::{Deserialize, Serialize};

/// One planned trial: a configuration run at a fraction of the full
/// benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialSpec {
    /// The round this trial belongs to.
    pub round: u32,
    /// The CPU configuration under test.
    pub config: CpuConfig,
    /// Fraction of the full workload to execute (1.0 = full benchmark).
    pub fraction: f64,
}

/// What a finished trial measured.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialMeasurement {
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Wall runtime in simulated seconds.
    pub runtime_s: f64,
    /// Mean system power over the IPMI samples (W).
    pub avg_system_w: f64,
    /// Mean CPU package power (W).
    pub avg_cpu_w: f64,
    /// Mean CPU temperature (°C).
    pub avg_cpu_temp_c: f64,
    /// Integrated system energy (J).
    pub system_energy_j: f64,
    /// Integrated CPU energy (J).
    pub cpu_energy_j: f64,
    /// IPMI samples taken during the run.
    pub sample_count: usize,
}

impl TrialMeasurement {
    /// The selection metric: GFLOP/s per watt of average system power.
    pub fn gflops_per_watt(&self) -> f64 {
        if self.avg_system_w <= 0.0 {
            return 0.0;
        }
        self.gflops / self.avg_system_w
    }
}

/// A trial's outcome as the plan sees it: `None` means the trial failed
/// (node crash, cancellation) and must not advance to later rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// The trial that ran.
    pub spec: TrialSpec,
    /// The measurement, if the job completed.
    pub outcome: Option<TrialMeasurement>,
}

/// Which plan to run, and the plan itself. The descriptor is stored in
/// the journal, so a resumed campaign runs exactly the rule the original
/// run used.
///
/// Every plan is successive halving over a probe-fraction ladder: round
/// `r` runs the surviving configurations at `fractions[r]` of the full
/// workload, then keeps the top `1/eta` by measured GFLOPS/W. The final
/// fraction must be 1.0 so the winners' measurements are real full-length
/// benchmarks. The paper's exhaustive baseline is the one-rung ladder
/// `[1.0]`: every configuration at full length in a single round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanSpec {
    /// Every configuration at full length.
    BruteForce,
    /// Successive halving over a probe-fraction ladder.
    SuccessiveHalving {
        /// Workload fraction per round; strictly increasing, ends at 1.0.
        fractions: Vec<f64>,
        /// Keep the top `1/eta` survivors each round.
        eta: u32,
    },
}

impl PlanSpec {
    /// The default adaptive ladder: 10% and 30% probes, then full runs,
    /// keeping the top quarter each round.
    pub fn default_halving() -> Self {
        PlanSpec::SuccessiveHalving { fractions: vec![0.1, 0.3, 1.0], eta: 4 }
    }

    /// Strategy name, for telemetry, status output and store provenance.
    pub fn name(&self) -> &'static str {
        match self {
            PlanSpec::BruteForce => "brute-force",
            PlanSpec::SuccessiveHalving { .. } => "successive-halving",
        }
    }

    /// The workload fraction of each round, in round order — the engine
    /// registers one probe binary per fraction.
    pub fn fractions(&self) -> &[f64] {
        match self {
            PlanSpec::BruteForce => &[1.0],
            PlanSpec::SuccessiveHalving { fractions, .. } => fractions,
        }
    }

    /// Rejects an unusable fraction ladder or halving factor.
    pub fn validate(&self) -> Result<()> {
        let fractions = self.fractions();
        let Some(&last) = fractions.last() else {
            return Err(CampaignError::InvalidSpec("probe fraction ladder is empty".into()));
        };
        for &f in fractions {
            if !(f > 0.0 && f <= 1.0) {
                return Err(CampaignError::InvalidSpec(format!("probe fraction {f} is outside (0, 1]")));
            }
        }
        if fractions.windows(2).any(|w| w[1] <= w[0]) {
            return Err(CampaignError::InvalidSpec("probe fractions must strictly increase".into()));
        }
        if last != 1.0 {
            return Err(CampaignError::InvalidSpec(format!(
                "final probe fraction must be 1.0 (full benchmark), got {last}"
            )));
        }
        match self {
            PlanSpec::SuccessiveHalving { eta, .. } if *eta < 2 => {
                Err(CampaignError::InvalidSpec(format!("halving factor eta must be at least 2, got {eta}")))
            }
            _ => Ok(()),
        }
    }

    /// Trials for `round` over the sweep `configs`, given the results of
    /// all previous rounds. An empty round ends the campaign.
    pub fn round(&self, configs: &[CpuConfig], round: u32, history: &[TrialResult]) -> Vec<TrialSpec> {
        let Some(&fraction) = self.fractions().get(round as usize) else { return Vec::new() };
        // position in the sweep breaks GFLOPS/W ties deterministically
        let order_of = |config: &CpuConfig| configs.iter().position(|c| c == config).unwrap_or(usize::MAX);
        let candidates: Vec<CpuConfig> = match self {
            _ if round == 0 => configs.to_vec(),
            PlanSpec::BruteForce => unreachable!("a one-rung ladder has no round after the first"),
            PlanSpec::SuccessiveHalving { eta, .. } => {
                // survivors: top 1/eta of the previous round by measured GFLOPS/W
                let mut prev: Vec<(&TrialSpec, TrialMeasurement)> = history
                    .iter()
                    .filter(|t| t.spec.round == round - 1)
                    .filter_map(|t| t.outcome.map(|m| (&t.spec, m)))
                    .collect();
                if prev.is_empty() {
                    return Vec::new();
                }
                prev.sort_by(|(sa, ma), (sb, mb)| {
                    mb.gflops_per_watt()
                        .partial_cmp(&ma.gflops_per_watt())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| order_of(&sa.config).cmp(&order_of(&sb.config)))
                });
                prev.truncate(prev.len().div_ceil(*eta as usize).max(1));
                // re-sort survivors into sweep order so rounds are stable
                prev.sort_by_key(|(s, _)| order_of(&s.config));
                prev.into_iter().map(|(s, _)| s.config).collect()
            }
        };
        candidates.into_iter().map(|config| TrialSpec { round, config, fraction }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> Vec<CpuConfig> {
        vec![
            CpuConfig::new(8, 1_500_000, 1),
            CpuConfig::new(16, 2_200_000, 1),
            CpuConfig::new(32, 2_200_000, 1),
            CpuConfig::new(32, 2_500_000, 2),
        ]
    }

    fn done(spec: TrialSpec, gflops: f64, watts: f64) -> TrialResult {
        TrialResult {
            spec,
            outcome: Some(TrialMeasurement {
                gflops,
                runtime_s: 10.0,
                avg_system_w: watts,
                avg_cpu_w: watts / 2.0,
                avg_cpu_temp_c: 50.0,
                system_energy_j: watts * 10.0,
                cpu_energy_j: watts * 5.0,
                sample_count: 5,
            }),
        }
    }

    fn halving(fractions: Vec<f64>, eta: u32) -> PlanSpec {
        PlanSpec::SuccessiveHalving { fractions, eta }
    }

    #[test]
    fn brute_force_is_one_full_round() {
        let plan = PlanSpec::BruteForce;
        let r0 = plan.round(&sweep(), 0, &[]);
        assert_eq!(r0.len(), 4);
        assert!(r0.iter().all(|t| t.fraction == 1.0 && t.round == 0));
        assert!(plan.round(&sweep(), 1, &[]).is_empty());
    }

    #[test]
    fn brute_force_is_the_one_rung_halving_ladder_over_the_full_sweep() {
        let configs = eco_sim_node::cpu::CpuSpec::epyc_7502p().all_configurations();
        assert_eq!(configs.len(), 192);
        let (brute, ladder) = (PlanSpec::BruteForce, halving(vec![1.0], 2));
        let r0 = brute.round(&configs, 0, &[]);
        assert_eq!(r0, ladder.round(&configs, 0, &[]));
        assert_eq!(r0.len(), 192);
        let history: Vec<TrialResult> =
            r0.iter().enumerate().map(|(i, &s)| done(s, 10.0 + i as f64, 100.0)).collect();
        assert!(brute.round(&configs, 1, &history).is_empty());
        assert!(ladder.round(&configs, 1, &history).is_empty());
    }

    #[test]
    fn halving_keeps_top_survivors_by_gpw() {
        let plan = halving(vec![0.1, 1.0], 2);
        let r0 = plan.round(&sweep(), 0, &[]);
        assert_eq!(r0.len(), 4);
        assert!(r0.iter().all(|t| t.fraction == 0.1));
        // best gpw: configs[2] (10/100) and configs[1] (8/100); the rest worse
        let history =
            vec![done(r0[0], 2.0, 100.0), done(r0[1], 8.0, 100.0), done(r0[2], 10.0, 100.0), done(r0[3], 4.0, 100.0)];
        let r1 = plan.round(&sweep(), 1, &history);
        assert_eq!(r1.len(), 2, "keep ceil(4/2) = 2 survivors");
        assert!(r1.iter().all(|t| t.fraction == 1.0));
        let survivors: Vec<CpuConfig> = r1.iter().map(|t| t.config).collect();
        assert_eq!(survivors, vec![sweep()[1], sweep()[2]], "sweep order preserved");
        assert!(plan.round(&sweep(), 2, &history).is_empty());
    }

    #[test]
    fn halving_drops_failed_trials_from_the_survivor_pool() {
        let plan = halving(vec![0.1, 1.0], 2);
        let r0 = plan.round(&sweep(), 0, &[]);
        let history = vec![
            TrialResult { spec: r0[0], outcome: None }, // crashed
            done(r0[1], 1.0, 100.0),
            done(r0[2], 9.0, 100.0),
            TrialResult { spec: r0[3], outcome: None }, // crashed
        ];
        let r1 = plan.round(&sweep(), 1, &history);
        assert_eq!(r1.len(), 1, "ceil(2/2) = 1 survivor from the two completions");
        assert_eq!(r1[0].config, sweep()[2]);
    }

    #[test]
    fn halving_with_no_completions_ends_the_campaign() {
        let plan = halving(vec![0.1, 1.0], 2);
        let r0 = plan.round(&sweep(), 0, &[]);
        let history: Vec<TrialResult> = r0.iter().map(|&spec| TrialResult { spec, outcome: None }).collect();
        assert!(plan.round(&sweep(), 1, &history).is_empty());
    }

    #[test]
    fn fraction_ladder_is_validated() {
        assert!(halving(vec![], 2).validate().is_err());
        assert!(halving(vec![0.5, 0.4, 1.0], 2).validate().is_err());
        assert!(halving(vec![0.1, 0.5], 2).validate().is_err(), "must end at 1.0");
        assert!(halving(vec![0.0, 1.0], 2).validate().is_err());
        assert!(halving(vec![0.1, 1.0], 1).validate().is_err(), "eta >= 2");
        assert!(halving(vec![1.0], 2).validate().is_ok());
        assert!(PlanSpec::BruteForce.validate().is_ok());
    }

    #[test]
    fn plan_spec_roundtrips_and_names_itself() {
        let spec = PlanSpec::default_halving();
        let json = serde_json::to_string(&spec).unwrap();
        let back: PlanSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.name(), "successive-halving");
        assert_eq!(spec.fractions(), [0.1, 0.3, 1.0]);
        assert_eq!(PlanSpec::BruteForce.name(), "brute-force");
        assert_eq!(PlanSpec::BruteForce.fractions(), [1.0]);
    }

    #[test]
    fn ties_break_toward_sweep_order() {
        let plan = halving(vec![0.1, 1.0], 4);
        let r0 = plan.round(&sweep(), 0, &[]);
        let history: Vec<TrialResult> = r0.iter().map(|&s| done(s, 5.0, 100.0)).collect();
        let r1 = plan.round(&sweep(), 1, &history);
        assert_eq!(r1.len(), 1);
        assert_eq!(r1[0].config, sweep()[0], "all tied: earliest sweep entry survives");
    }
}
