//! Bounded per-key reservoirs of production outcomes.
//!
//! The daemon accumulates every accepted [`ObservedOutcome`] into the
//! reservoir of its `(system_hash, binary_hash)` key. A reservoir is a
//! sliding window — once full, each new outcome evicts the oldest — so
//! the re-fit always folds *recent* production behaviour into the
//! stored benchmark data, and a long-running daemon's memory stays
//! bounded no matter how much traffic it serves.

use std::collections::BTreeMap;

use chronus::ObservedOutcome;

/// Default outcomes kept per key. At the plugin's submit rates a few
/// hundred rows span hours of production — enough for a re-fit, small
/// enough that a daemon serving hundreds of keys stays in megabytes.
pub const DEFAULT_RESERVOIR_CAP: usize = 512;

/// One key's bounded sliding window of outcomes.
#[derive(Debug, Clone)]
pub struct Reservoir {
    cap: usize,
    rows: std::collections::VecDeque<ObservedOutcome>,
    ingested: u64,
}

impl Reservoir {
    fn new(cap: usize) -> Reservoir {
        Reservoir { cap: cap.max(1), rows: std::collections::VecDeque::new(), ingested: 0 }
    }

    fn push(&mut self, outcome: ObservedOutcome) {
        if self.rows.len() == self.cap {
            self.rows.pop_front();
        }
        self.rows.push_back(outcome);
        self.ingested += 1;
    }

    /// The rows currently held, oldest first.
    pub fn rows(&self) -> impl Iterator<Item = &ObservedOutcome> {
        self.rows.iter()
    }

    /// Rows currently held.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total outcomes ever folded in (evicted rows included).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }
}

/// Every key's reservoir, under one ingest path.
#[derive(Debug, Clone)]
pub struct ReservoirSet {
    cap: usize,
    by_key: BTreeMap<(u64, u64), Reservoir>,
}

impl Default for ReservoirSet {
    fn default() -> Self {
        ReservoirSet::new(DEFAULT_RESERVOIR_CAP)
    }
}

impl ReservoirSet {
    /// An empty set whose reservoirs each hold at most `cap` rows.
    pub fn new(cap: usize) -> ReservoirSet {
        ReservoirSet { cap, by_key: BTreeMap::new() }
    }

    /// Folds one *already validated* outcome into its key's reservoir.
    /// Validation ([`ObservedOutcome::is_valid`]) is the caller's job so
    /// rejection can be counted where the wire frame is handled.
    pub fn ingest(&mut self, key: (u64, u64), outcome: ObservedOutcome) {
        self.by_key.entry(key).or_insert_with(|| Reservoir::new(self.cap)).push(outcome);
    }

    /// One key's reservoir, if any outcome ever arrived for it.
    pub fn get(&self, key: (u64, u64)) -> Option<&Reservoir> {
        self.by_key.get(&key)
    }

    /// Takes every row held for `key`, leaving its reservoir empty —
    /// the hand-off to a re-fit, which must not re-fold the same rows
    /// on the next round.
    pub fn drain(&mut self, key: (u64, u64)) -> Vec<ObservedOutcome> {
        match self.by_key.get_mut(&key) {
            Some(r) => std::mem::take(&mut r.rows).into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Count of keys with at least one row held right now.
    pub fn populated(&self) -> u64 {
        self.by_key.values().filter(|r| !r.is_empty()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_sim_node::cpu::CpuConfig;

    fn outcome(gflops: f64) -> ObservedOutcome {
        ObservedOutcome {
            config: CpuConfig::new(32, 2_200_000, 1),
            gflops,
            watts: 200.0,
            duration_s: 60.0,
            node_class: String::new(),
        }
    }

    #[test]
    fn reservoir_is_a_sliding_window() {
        let mut set = ReservoirSet::new(3);
        for i in 0..5 {
            set.ingest((1, 2), outcome(i as f64));
        }
        let r = set.get((1, 2)).unwrap();
        assert_eq!(r.len(), 3, "bounded at cap");
        assert_eq!(r.ingested(), 5, "but every ingest is counted");
        let held: Vec<f64> = r.rows().map(|o| o.gflops).collect();
        assert_eq!(held, vec![2.0, 3.0, 4.0], "oldest rows evicted first");
    }

    #[test]
    fn drain_hands_off_and_empties() {
        let mut set = ReservoirSet::new(8);
        set.ingest((1, 2), outcome(1.0));
        set.ingest((1, 2), outcome(2.0));
        set.ingest((3, 4), outcome(9.0));
        assert_eq!(set.populated(), 2);
        let rows = set.drain((1, 2));
        assert_eq!(rows.len(), 2);
        assert_eq!(set.populated(), 1, "drained key no longer counts as populated");
        assert!(set.drain((1, 2)).is_empty(), "a second drain hands off nothing");
        assert!(set.drain((7, 7)).is_empty(), "unknown keys drain empty");
        assert_eq!(set.get((1, 2)).unwrap().ingested(), 2, "lifetime count survives the drain");
    }
}
