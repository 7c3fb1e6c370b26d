//! Multifactor job priority — the plugin Niagara's deployment highlights
//! (paper §2.1): a weighted sum of job age, job size, QoS and the user's
//! fair share.

use crate::job::Job;
use eco_sim_node::clock::SimTime;
use std::collections::HashMap;

/// Weights of the multifactor priority plugin (`PriorityWeight*` knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityWeights {
    /// Weight of queue age (normalised against `age_saturation_s`).
    pub age: f64,
    /// Weight of job size (larger jobs first, as Slurm's default favours).
    pub size: f64,
    /// Weight of the QoS factor.
    pub qos: f64,
    /// Weight of the user's fair-share factor.
    pub fairshare: f64,
    /// Queue age (seconds) at which the age factor saturates to 1.
    pub age_saturation_s: f64,
}

impl Default for PriorityWeights {
    fn default() -> Self {
        PriorityWeights { age: 1000.0, size: 300.0, qos: 2000.0, fairshare: 3000.0, age_saturation_s: 7.0 * 86_400.0 }
    }
}

/// Tracks per-user historical usage for the fair-share factor.
#[derive(Debug, Clone, Default)]
pub struct FairShare {
    usage_s: HashMap<String, f64>,
    total_s: f64,
}

impl FairShare {
    /// A tracker with no recorded usage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `core_seconds` of usage for `user`.
    pub fn record(&mut self, user: &str, core_seconds: f64) {
        assert!(core_seconds >= 0.0);
        *self.usage_s.entry(user.to_string()).or_insert(0.0) += core_seconds;
        self.total_s += core_seconds;
    }

    /// The fair-share factor in [0, 1]: 1 for users with no usage, falling
    /// toward 0 as a user dominates the recorded usage.
    pub fn factor(&self, user: &str) -> f64 {
        if self.total_s == 0.0 {
            return 1.0;
        }
        let share = self.usage_s.get(user).copied().unwrap_or(0.0) / self.total_s;
        1.0 - share
    }
}

/// Computes a job's multifactor priority at `now`.
pub fn multifactor_priority(
    job: &Job,
    now: SimTime,
    total_cores: u32,
    weights: &PriorityWeights,
    fairshare: &FairShare,
) -> f64 {
    let age_s = (now - job.submit_time).as_secs_f64();
    let age_factor = (age_s / weights.age_saturation_s).min(1.0);
    let size_factor = (job.descriptor.num_tasks as f64 / total_cores.max(1) as f64).min(1.0);
    let qos_factor = job.descriptor.qos.factor();
    let fs_factor = fairshare.factor(&job.descriptor.user);
    weights.age * age_factor + weights.size * size_factor + weights.qos * qos_factor + weights.fairshare * fs_factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobDescriptor, JobId, JobState, Qos};

    fn job_at(submit_s: u64, tasks: u32, user: &str, qos: Qos) -> Job {
        let mut d = JobDescriptor::new("j", user, "/bin/app");
        d.num_tasks = tasks;
        d.qos = qos;
        Job {
            id: JobId(1),
            descriptor: d,
            state: JobState::Pending,
            submit_time: SimTime::from_secs(submit_s),
            start_time: None,
            end_time: None,
            node: None,
            reason: None,
            partition: 0,
        }
    }

    #[test]
    fn older_jobs_rank_higher() {
        let w = PriorityWeights::default();
        let fs = FairShare::new();
        let now = SimTime::from_secs(100_000);
        let old = multifactor_priority(&job_at(0, 4, "a", Qos::Normal), now, 32, &w, &fs);
        let new = multifactor_priority(&job_at(99_000, 4, "a", Qos::Normal), now, 32, &w, &fs);
        assert!(old > new);
    }

    #[test]
    fn age_factor_saturates() {
        let w = PriorityWeights { age_saturation_s: 100.0, ..Default::default() };
        let fs = FairShare::new();
        let now = SimTime::from_secs(10_000);
        let a = multifactor_priority(&job_at(0, 4, "a", Qos::Normal), now, 32, &w, &fs);
        let b = multifactor_priority(&job_at(5_000, 4, "a", Qos::Normal), now, 32, &w, &fs);
        assert_eq!(a, b, "both past saturation age");
    }

    #[test]
    fn bigger_jobs_rank_higher() {
        let w = PriorityWeights::default();
        let fs = FairShare::new();
        let now = SimTime::from_secs(10);
        let big = multifactor_priority(&job_at(0, 32, "a", Qos::Normal), now, 32, &w, &fs);
        let small = multifactor_priority(&job_at(0, 1, "a", Qos::Normal), now, 32, &w, &fs);
        assert!(big > small);
    }

    #[test]
    fn qos_dominates_when_weighted() {
        let w = PriorityWeights::default();
        let fs = FairShare::new();
        let now = SimTime::from_secs(10);
        let high = multifactor_priority(&job_at(0, 1, "a", Qos::High), now, 32, &w, &fs);
        let low = multifactor_priority(&job_at(0, 1, "a", Qos::Low), now, 32, &w, &fs);
        assert!(high > low);
    }

    #[test]
    fn fairshare_penalises_heavy_users() {
        let w = PriorityWeights::default();
        let mut fs = FairShare::new();
        fs.record("hog", 10_000.0);
        fs.record("light", 100.0);
        let now = SimTime::from_secs(10);
        let hog = multifactor_priority(&job_at(0, 4, "hog", Qos::Normal), now, 32, &w, &fs);
        let light = multifactor_priority(&job_at(0, 4, "light", Qos::Normal), now, 32, &w, &fs);
        assert!(light > hog);
    }

    #[test]
    fn fairshare_factor_bounds() {
        let mut fs = FairShare::new();
        assert_eq!(fs.factor("anyone"), 1.0);
        fs.record("only", 500.0);
        assert!(fs.factor("only") < 1e-9, "sole user has zero remaining share");
        assert_eq!(fs.factor("other"), 1.0);
    }
}
