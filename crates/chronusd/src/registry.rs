//! The daemon's answer table: a map from `(system_hash, binary_hash)`
//! to the pre-computed most energy-efficient configuration, exactly as
//! the model store's serving fold holds it.
//!
//! Predictions are read-mostly and latency-critical (they sit on the
//! scheduler's submit path), so the table stores the *answer* — the
//! optimizer's argmax over the system's configuration space, computed
//! once at commit — rather than the optimizer itself. It is one
//! `RwLock<HashMap>`: a lookup takes the read lock and copies its entry
//! out, and writes nothing.
//!
//! The one writer is the service's refresh ([`crate::service`]), which
//! runs under the store's lock: it installs each serving record at its
//! ledger generation, drops the keys the fold no longer serves and
//! records the ledger high-water mark the table has reached
//! ([`ModelRegistry::generation`]). There is no capacity: the table
//! holds what the ledger serves, a few words per key.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use eco_sim_node::cpu::CpuConfig;
use parking_lot::RwLock;

/// Registry key: the plugin's identity pair (§4.2.1).
pub type ModelKey = (u64, u64);

/// One served answer: the ledger record it came from and its
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resident {
    /// The ledger generation of the record.
    pub generation: u64,
    /// The repository id of the model this answer came from.
    pub model_id: i64,
    /// The pre-computed best configuration.
    pub config: CpuConfig,
}

/// The answer table and the ledger generation it reflects.
#[derive(Default)]
pub struct ModelRegistry {
    entries: RwLock<HashMap<ModelKey, Resident>>,
    generation: AtomicU64,
}

impl ModelRegistry {
    /// An empty table at generation 0. Both arguments are ignored (the
    /// table holds what the fold serves); they stay because
    /// `benchmark/src/micro.rs` calls `new(shards, capacity)`.
    pub fn new(_shards: usize, _capacity: usize) -> ModelRegistry {
        ModelRegistry::default()
    }

    /// The ledger high-water mark the table has been brought to (0 before
    /// the first refresh).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The answer held for `key`, if any.
    pub fn lookup(&self, key: &ModelKey) -> Option<Resident> {
        self.entries.read().get(key).copied()
    }

    /// Brings the table to a fold in one write: drops every key `serves`
    /// refuses, installs `fresh`, and records `high_water`.
    pub(crate) fn sync(&self, serves: impl Fn(&ModelKey) -> bool, fresh: Vec<(ModelKey, Resident)>, high_water: u64) {
        let mut entries = self.entries.write();
        entries.retain(|key, _| serves(key));
        entries.extend(fresh);
        self.generation.store(high_water, Ordering::Release);
    }

    /// Models held.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Installs an answer at generation 0. Kept, with its ignored model
    /// type, because `benchmark/src/micro.rs` fills a standalone table
    /// through it; the daemon installs only through a refresh.
    pub fn insert(&self, key: ModelKey, model_id: i64, model_type: String, config: CpuConfig) {
        self.insert_at(key, model_id, model_type, config, 0);
    }

    /// [`Self::insert`] at `generation`, for `benchmark/src/micro.rs`.
    pub fn insert_at(&self, key: ModelKey, model_id: i64, _model_type: String, config: CpuConfig, generation: u64) {
        self.entries.write().insert(key, Resident { generation, model_id, config });
    }

    /// The generation after the table's. Allocates nothing and moves
    /// nothing: generations are the ledger's. Kept for
    /// `benchmark/src/micro.rs`.
    pub fn begin_rollout(&self) -> u64 {
        self.generation() + 1
    }

    /// Does nothing: only a refresh moves the table's generation. Kept
    /// for `benchmark/src/micro.rs`.
    pub fn commit_rollout(&self, _generation: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cores: u32) -> CpuConfig {
        CpuConfig::new(cores, 2_200_000, 1)
    }

    fn at(generation: u64, model_id: i64, config: CpuConfig) -> Resident {
        Resident { generation, model_id, config }
    }

    #[test]
    fn lookup_returns_what_insert_stored() {
        let reg = ModelRegistry::new(1, 8);
        assert_eq!(reg.lookup(&(1, 2)), None);
        reg.insert((1, 2), 7, "brute-force".into(), cfg(32));
        assert_eq!(reg.lookup(&(1, 2)), Some(at(0, 7, cfg(32))));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn a_sync_installs_drops_and_records_the_high_water_mark() {
        let reg = ModelRegistry::new(1, 1);
        reg.sync(|_| true, vec![((1, 1), at(1, 1, cfg(8))), ((2, 2), at(2, 2, cfg(16)))], 2);
        assert_eq!((reg.len(), reg.generation()), (2, 2), "no capacity: both keys are held");
        // the fold moved: (2, 2) no longer serves, (1, 1) serves generation 4
        reg.sync(|key| *key == (1, 1), vec![((1, 1), at(4, 1, cfg(32)))], 4);
        assert_eq!(reg.lookup(&(1, 1)), Some(at(4, 1, cfg(32))));
        assert_eq!(reg.lookup(&(2, 2)), None);
        assert_eq!(reg.generation(), 4);
        // the rollout pair moves nothing
        assert_eq!(reg.begin_rollout(), 5);
        reg.commit_rollout(9);
        assert_eq!(reg.generation(), 4);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_entries() {
        let reg = std::sync::Arc::new(ModelRegistry::new(1, 8));
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move |_| {
                    for i in 0..100u64 {
                        let key = (t, i);
                        reg.insert(key, (t * 100 + i) as i64, "bf".into(), cfg(32));
                        assert!(reg.lookup(&key).is_some());
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(reg.len(), 400);
    }

    #[test]
    fn readers_racing_refreshes_never_miss_and_never_go_back() {
        // A reader racing a stream of refreshes sees the generation move
        // forward only, each key's answer move forward only, and no key
        // ever missing. Each refresh installs model_id == generation for
        // every key, so a served model_id is the refresh the answer
        // belongs to.
        const KEYS: u64 = 8;
        const REFRESHES: u64 = 200;
        let reg = std::sync::Arc::new(ModelRegistry::new(1, 1));
        reg.sync(|_| true, (0..KEYS).map(|k| ((k, k), at(0, 0, cfg(8)))).collect(), 0);
        crossbeam::scope(|s| {
            let writer = std::sync::Arc::clone(&reg);
            s.spawn(move |_| {
                for g in 1..=REFRESHES {
                    writer.sync(|_| true, (0..KEYS).map(|k| ((k, k), at(g, g as i64, cfg(8)))).collect(), g);
                }
            });
            for _ in 0..3 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move |_| {
                    let mut last_gen = 0u64;
                    let mut last_seen = vec![0i64; KEYS as usize];
                    loop {
                        let before = reg.generation();
                        assert!(before >= last_gen, "generation went backwards: {before} < {last_gen}");
                        last_gen = before;
                        for k in 0..KEYS {
                            let Some(Resident { model_id, .. }) = reg.lookup(&(k, k)) else {
                                panic!("key {k} vanished during a refresh")
                            };
                            let last = &mut last_seen[k as usize];
                            assert!(model_id >= *last, "key {k} regressed from {last} to {model_id}");
                            *last = model_id;
                        }
                        if last_gen >= REFRESHES {
                            break;
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(reg.generation(), REFRESHES);
        for k in 0..KEYS {
            assert_eq!(reg.lookup(&(k, k)).map(|r| r.generation), Some(REFRESHES), "every key ends on the last");
        }
    }
}
