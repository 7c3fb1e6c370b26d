//! The canary controller: a pure state machine judging a refit
//! candidate on a subset of the fleet before trusting it everywhere.
//!
//! The PR 5 quorum rollout is all-or-nothing; the canary generalizes
//! it to *partial* rollout. The driver pushes the candidate generation
//! to the canary replicas only, then feeds the controller observed
//! efficiency per arm — canary replicas serving the candidate, control
//! replicas still serving the baseline. Once both arms have enough
//! samples, the controller renders a verdict: promote the candidate
//! fleet-wide, or roll it back through the ledger rollback path. The
//! controller itself performs no I/O — the simulation world and the
//! daemon drive it — which is what makes every decision replayable.

/// Tuning for the canary comparison.
#[derive(Debug, Clone, Copy)]
pub struct CanaryConfig {
    /// Observations each arm needs before a verdict.
    pub min_samples_per_arm: usize,
    /// Allowed shortfall of the canary arm's mean efficiency relative
    /// to control before the candidate is rolled back: the candidate
    /// survives while `canary_mean >= control_mean * (1 - tolerance)`.
    pub tolerance: f64,
}

impl Default for CanaryConfig {
    fn default() -> CanaryConfig {
        CanaryConfig { min_samples_per_arm: 8, tolerance: 0.05 }
    }
}

/// The controller's phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CanaryState {
    /// No candidate under judgment.
    Idle,
    /// A candidate generation is serving on the canary arm.
    Canarying {
        /// The generation under judgment.
        candidate_generation: u64,
        /// The generation the control arm still serves (the rollback
        /// target if the candidate fails).
        baseline_generation: u64,
    },
}

/// The judgment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate held up: push it to the rest of the fleet.
    Promote,
    /// The candidate underperformed control: roll the store back to
    /// the baseline generation and restore the canary replicas.
    Rollback,
}

/// A rendered verdict with the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct CanaryVerdict {
    /// Promote or roll back.
    pub verdict: Verdict,
    /// The judged candidate generation.
    pub candidate_generation: u64,
    /// The baseline generation (rollback target).
    pub baseline_generation: u64,
    /// Mean observed GFLOPS/W on the canary arm.
    pub canary_mean: f64,
    /// Mean observed GFLOPS/W on the control arm.
    pub control_mean: f64,
    /// Samples per arm at decision time.
    pub samples: (usize, usize),
}

/// The canary state machine.
#[derive(Debug, Clone)]
pub struct CanaryController {
    cfg: CanaryConfig,
    state: CanaryState,
    canary: Vec<f64>,
    control: Vec<f64>,
}

impl Default for CanaryController {
    fn default() -> Self {
        CanaryController::new(CanaryConfig::default())
    }
}

impl CanaryController {
    /// An idle controller with explicit tuning.
    pub fn new(cfg: CanaryConfig) -> CanaryController {
        CanaryController { cfg, state: CanaryState::Idle, canary: Vec::new(), control: Vec::new() }
    }

    /// Starts judging `candidate_generation` against
    /// `baseline_generation`. Replaces any judgment in progress —
    /// a newer candidate supersedes an undecided older one.
    pub fn begin(&mut self, candidate_generation: u64, baseline_generation: u64) {
        self.state = CanaryState::Canarying { candidate_generation, baseline_generation };
        self.canary.clear();
        self.control.clear();
    }

    /// The current phase.
    pub fn state(&self) -> &CanaryState {
        &self.state
    }

    /// The phase as a one-line label, sample counts included.
    pub fn state_label(&self) -> String {
        match &self.state {
            CanaryState::Idle => "idle".to_string(),
            CanaryState::Canarying { candidate_generation, baseline_generation } => format!(
                "canary gen {candidate_generation} vs {baseline_generation} ({}/{} canary, {}/{} control)",
                self.canary.len(),
                self.cfg.min_samples_per_arm,
                self.control.len(),
                self.cfg.min_samples_per_arm,
            ),
        }
    }

    /// Feeds one observed efficiency value from a canary replica.
    /// Ignored while idle.
    pub fn observe_canary(&mut self, gflops_per_watt: f64) {
        if self.state != CanaryState::Idle && gflops_per_watt.is_finite() {
            self.canary.push(gflops_per_watt);
        }
    }

    /// Feeds one observed efficiency value from a control replica.
    /// Ignored while idle.
    pub fn observe_control(&mut self, gflops_per_watt: f64) {
        if self.state != CanaryState::Idle && gflops_per_watt.is_finite() {
            self.control.push(gflops_per_watt);
        }
    }

    /// Renders the verdict once both arms have enough samples,
    /// returning the controller to idle. `None` while idle or while
    /// either arm is still short.
    pub fn decide(&mut self) -> Option<CanaryVerdict> {
        let CanaryState::Canarying { candidate_generation, baseline_generation } = self.state else {
            return None;
        };
        let need = self.cfg.min_samples_per_arm.max(1);
        if self.canary.len() < need || self.control.len() < need {
            return None;
        }
        let canary_mean = self.canary.iter().sum::<f64>() / self.canary.len() as f64;
        let control_mean = self.control.iter().sum::<f64>() / self.control.len() as f64;
        let verdict = if canary_mean >= control_mean * (1.0 - self.cfg.tolerance) {
            Verdict::Promote
        } else {
            Verdict::Rollback
        };
        let samples = (self.canary.len(), self.control.len());
        self.state = CanaryState::Idle;
        self.canary.clear();
        self.control.clear();
        Some(CanaryVerdict { verdict, candidate_generation, baseline_generation, canary_mean, control_mean, samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CanaryConfig {
        CanaryConfig { min_samples_per_arm: 4, tolerance: 0.05 }
    }

    fn feed(c: &mut CanaryController, canary: f64, control: f64, n: usize) -> Option<CanaryVerdict> {
        let mut verdict = None;
        for _ in 0..n {
            c.observe_canary(canary);
            c.observe_control(control);
            verdict = verdict.or(c.decide());
        }
        verdict
    }

    #[test]
    fn better_candidate_promotes() {
        let mut c = CanaryController::new(cfg());
        c.begin(5, 4);
        let v = feed(&mut c, 0.20, 0.14, 4).expect("both arms filled");
        assert_eq!(v.verdict, Verdict::Promote);
        assert_eq!((v.candidate_generation, v.baseline_generation), (5, 4));
        assert_eq!(v.samples, (4, 4));
        assert_eq!(c.state(), &CanaryState::Idle, "a verdict ends the judgment");
    }

    #[test]
    fn poisoned_candidate_rolls_back() {
        let mut c = CanaryController::new(cfg());
        c.begin(6, 4);
        let v = feed(&mut c, 0.09, 0.14, 4).expect("both arms filled");
        assert_eq!(v.verdict, Verdict::Rollback);
        assert_eq!(v.baseline_generation, 4, "the rollback target is the baseline");
        assert!(v.canary_mean < v.control_mean);
    }

    #[test]
    fn roughly_equal_arms_promote_within_tolerance() {
        let mut c = CanaryController::new(cfg());
        c.begin(5, 4);
        // 3% shortfall: inside the 5% tolerance band
        let v = feed(&mut c, 0.97, 1.0, 4).unwrap();
        assert_eq!(v.verdict, Verdict::Promote);
        // 8% shortfall: outside
        c.begin(6, 4);
        let v = feed(&mut c, 0.92, 1.0, 4).unwrap();
        assert_eq!(v.verdict, Verdict::Rollback);
    }

    #[test]
    fn no_verdict_until_both_arms_have_enough() {
        let mut c = CanaryController::new(cfg());
        c.begin(5, 4);
        for _ in 0..16 {
            c.observe_canary(0.2);
        }
        assert_eq!(c.decide(), None, "control arm still empty");
        assert!(c.state_label().contains("canary gen 5 vs 4"));
        for _ in 0..4 {
            c.observe_control(0.2);
        }
        assert!(c.decide().is_some());
    }

    #[test]
    fn idle_controller_ignores_observations() {
        let mut c = CanaryController::new(cfg());
        feed(&mut c, 0.2, 0.2, 32);
        assert_eq!(c.decide(), None);
        assert_eq!(c.state_label(), "idle");
        // and a fresh judgment starts from zero samples
        c.begin(5, 4);
        assert!(c.state_label().contains("0/4 canary"));
    }

    #[test]
    fn a_newer_candidate_supersedes_an_undecided_one() {
        let mut c = CanaryController::new(cfg());
        c.begin(5, 4);
        c.observe_canary(0.01);
        c.observe_control(0.5);
        c.begin(6, 4);
        // the superseded samples are gone: the new judgment sees only
        // the healthy traffic below
        let v = feed(&mut c, 0.2, 0.2, 4).unwrap();
        assert_eq!(v.verdict, Verdict::Promote);
        assert_eq!(v.candidate_generation, 6);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut c = CanaryController::new(cfg());
        c.begin(5, 4);
        c.observe_canary(f64::NAN);
        c.observe_control(f64::INFINITY);
        assert!(c.state_label().contains("0/4 canary, 0/4 control"));
    }
}
