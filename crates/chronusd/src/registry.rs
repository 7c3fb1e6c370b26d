//! The daemon's model registry: an LRU-bounded map from
//! `(system_hash, binary_hash)` to the pre-computed most
//! energy-efficient configuration.
//!
//! Predictions are read-mostly and latency-critical (they sit on the
//! scheduler's submit path), so the registry stores the *answer* — the
//! optimizer's argmax over the system's configuration space, computed
//! once at preload — rather than the optimizer itself. The registry is
//! one `RwLock<HashMap>`: a lookup takes the read lock and refreshes its
//! entry's LRU stamp, an atomic, under it; writers (preloads, cold-miss
//! inserts, evictions) change the map in place under the write lock. An
//! insert is visible to the next lookup of its key: installing a model
//! is one step.
//!
//! Capacity is one budget for the whole registry: a new key arriving at
//! capacity evicts the entry with the oldest LRU stamp, under the same
//! write lock as the insert, so "count, pick the victim, insert" is one
//! decision and [`ModelRegistry::len`] never reads above capacity.
//!
//! The registry also numbers rollouts: [`ModelRegistry::begin_rollout`]
//! allocates a generation, [`ModelRegistry::commit_rollout`] publishes
//! it as [`ModelRegistry::generation`]. Entries carry no generation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use eco_sim_node::cpu::CpuConfig;
use parking_lot::RwLock;

/// Registry key: the plugin's identity pair (§4.2.1).
pub type ModelKey = (u64, u64);

/// One resident model.
struct ResidentModel {
    /// The repository id of the model this answer came from.
    model_id: i64,
    /// The pre-computed best configuration.
    config: CpuConfig,
    /// Logical timestamp of the last lookup (LRU).
    last_used: AtomicU64,
}

/// Outcome of a registry lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A resident entry answered.
    Hit { model_id: i64, config: CpuConfig },
    /// No entry for the key.
    Miss,
}

/// LRU registry with one capacity.
pub struct ModelRegistry {
    models: RwLock<HashMap<ModelKey, ResidentModel>>,
    capacity: usize,
    clock: AtomicU64,
    evictions: AtomicU64,
    /// Latest committed rollout generation.
    committed_gen: AtomicU64,
    /// Generation allocator for rollouts.
    next_gen: AtomicU64,
}

impl ModelRegistry {
    /// A registry with room for `capacity` models (at least 1). `_shards`
    /// is ignored: the registry is one map. It stays in the signature
    /// because `benchmark/src/micro.rs` calls `new(shards, capacity)`.
    pub fn new(_shards: usize, capacity: usize) -> ModelRegistry {
        ModelRegistry {
            models: RwLock::default(),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            committed_gen: AtomicU64::new(0),
            next_gen: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The latest committed rollout generation (0 before any rollout).
    pub fn generation(&self) -> u64 {
        self.committed_gen.load(Ordering::Acquire)
    }

    /// Allocates a fresh rollout generation; [`Self::generation`] reads
    /// it only once [`Self::commit_rollout`] publishes it. A number
    /// allocated for a rollout that fails is never reused.
    pub fn begin_rollout(&self) -> u64 {
        self.next_gen.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publishes rollout generation `gen` (a lower one than the current
    /// is ignored).
    pub fn commit_rollout(&self, gen: u64) {
        self.committed_gen.fetch_max(gen, Ordering::AcqRel);
    }

    /// Looks `key` up, refreshing its LRU stamp on a hit.
    pub fn lookup(&self, key: &ModelKey) -> Lookup {
        match self.models.read().get(key) {
            None => Lookup::Miss,
            Some(m) => {
                m.last_used.store(self.tick(), Ordering::Relaxed);
                Lookup::Hit { model_id: m.model_id, config: m.config }
            }
        }
    }

    /// Inserts (or replaces) a model, visible to the next lookup,
    /// evicting the registry's least recently used entry if the key is
    /// new and the registry is full. The model type is not kept: a
    /// lookup answers with the id and the configuration only. The
    /// argument stays because `benchmark/src/micro.rs` passes one.
    pub fn insert(&self, key: ModelKey, model_id: i64, _model_type: String, config: CpuConfig) {
        let stamp = self.tick();
        let mut models = self.models.write();
        if models.len() >= self.capacity && !models.contains_key(&key) {
            let coldest = models.iter().min_by_key(|(_, m)| m.last_used.load(Ordering::Relaxed)).map(|(k, _)| *k);
            if let Some(victim) = coldest {
                models.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        models.insert(key, ResidentModel { model_id, config, last_used: AtomicU64::new(stamp) });
    }

    /// [`Self::insert`]; `_gen` is not kept. Kept under its own name
    /// because `benchmark/src/micro.rs` times a rollout through it.
    pub fn insert_at(&self, key: ModelKey, model_id: i64, model_type: String, config: CpuConfig, _gen: u64) {
        self.insert(key, model_id, model_type, config);
    }

    /// Models resident.
    pub fn len(&self) -> usize {
        self.models.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// LRU evictions since start.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cores: u32) -> CpuConfig {
        CpuConfig::new(cores, 2_200_000, 1)
    }

    #[test]
    fn lookup_returns_what_insert_stored() {
        let reg = ModelRegistry::new(1, 8);
        assert_eq!(reg.lookup(&(1, 2)), Lookup::Miss);
        reg.insert((1, 2), 7, "brute-force".into(), cfg(32));
        assert_eq!(reg.lookup(&(1, 2)), Lookup::Hit { model_id: 7, config: cfg(32) });
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let reg = ModelRegistry::new(1, 1);
        reg.insert((1, 1), 1, "a".into(), cfg(8));
        reg.insert((1, 1), 2, "b".into(), cfg(16));
        assert_eq!(reg.evictions(), 0);
        assert_eq!(reg.lookup(&(1, 1)), Lookup::Hit { model_id: 2, config: cfg(16) });
    }

    #[test]
    fn lru_eviction_picks_the_coldest_entry() {
        let reg = ModelRegistry::new(1, 2);
        reg.insert((1, 0), 1, "a".into(), cfg(1));
        reg.insert((2, 0), 2, "a".into(), cfg(2));
        // touch (1,0) so (2,0) becomes the LRU victim
        assert!(matches!(reg.lookup(&(1, 0)), Lookup::Hit { .. }));
        reg.insert((3, 0), 3, "a".into(), cfg(3));
        assert_eq!(reg.evictions(), 1);
        assert!(matches!(reg.lookup(&(1, 0)), Lookup::Hit { .. }), "recently used entry survives");
        assert_eq!(reg.lookup(&(2, 0)), Lookup::Miss, "cold entry was evicted");
        assert!(matches!(reg.lookup(&(3, 0)), Lookup::Hit { .. }));
    }

    #[test]
    fn a_new_key_at_capacity_evicts_the_globally_coldest_entry() {
        let reg = ModelRegistry::new(1, 4);
        for i in 0..4u64 {
            reg.insert((i, 0), i as i64, "a".into(), cfg(1));
        }
        // touch everything but (2,0)
        for i in [0u64, 1, 3] {
            assert!(matches!(reg.lookup(&(i, 0)), Lookup::Hit { .. }));
        }
        reg.insert((5, 0), 5, "a".into(), cfg(1));
        assert_eq!(reg.lookup(&(2, 0)), Lookup::Miss, "the coldest entry went");
        assert!(
            matches!(reg.lookup(&(1, 0)), Lookup::Hit { .. }) && matches!(reg.lookup(&(5, 0)), Lookup::Hit { .. })
        );
        assert_eq!((reg.len(), reg.evictions()), (4, 1));
        // replacing a resident key at capacity evicts nothing
        reg.insert((5, 0), 6, "a".into(), cfg(2));
        assert_eq!((reg.len(), reg.evictions()), (4, 1));
    }

    #[test]
    fn concurrent_inserts_never_exceed_capacity() {
        let reg = std::sync::Arc::new(ModelRegistry::new(1, 16));
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move |_| {
                    for i in 0..200u64 {
                        reg.insert((t, i), i as i64, "a".into(), cfg(1));
                        assert!(reg.len() <= 16);
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(reg.len(), 16);
        assert_eq!(reg.evictions(), 4 * 200 - 16);
    }

    #[test]
    fn an_insert_serves_at_once_and_only_a_commit_moves_the_generation() {
        let reg = ModelRegistry::new(1, 8);
        let gen = reg.begin_rollout();
        assert_eq!((gen, reg.generation()), (1, 0));
        reg.insert_at((1, 2), 9, "auto".into(), cfg(32), gen);
        assert_eq!(reg.lookup(&(1, 2)), Lookup::Hit { model_id: 9, config: cfg(32) });
        reg.commit_rollout(gen);
        assert_eq!(reg.generation(), 1);
        // a number allocated and never committed is not reused
        let (lost, next) = (reg.begin_rollout(), reg.begin_rollout());
        reg.commit_rollout(next);
        assert_eq!((lost, next, reg.generation()), (2, 3, 3));
        assert_eq!(reg.lookup(&(9, 9)), Lookup::Miss);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_entries() {
        let reg = std::sync::Arc::new(ModelRegistry::new(1, 1024));
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move |_| {
                    for i in 0..100u64 {
                        let key = (t, i);
                        reg.insert(key, (t * 100 + i) as i64, "bf".into(), cfg(32));
                        assert!(matches!(reg.lookup(&key), Lookup::Hit { .. }));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(reg.len(), 400);
        assert_eq!(reg.evictions(), 0);
    }

    #[test]
    fn readers_racing_evictions_see_only_their_own_keys_config() {
        // every insert at capacity evicts while two readers look up keys
        // being evicted and keys being inserted: a hit must never carry
        // another key's entry, and the budget must come out exact
        const CAP: usize = 32;
        const MORE: u64 = 64;
        let reg = ModelRegistry::new(1, CAP);
        for k in 0..CAP as u64 {
            reg.insert((k, k), k as i64, "bf".into(), cfg(k as u32 + 1));
        }
        let start = std::sync::Barrier::new(3);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    loop {
                        let last_pass = done.load(Ordering::Acquire);
                        for k in 0..64u64 {
                            if let Lookup::Hit { model_id, config } = reg.lookup(&(k, k)) {
                                assert_eq!(
                                    (model_id, config),
                                    (k as i64, cfg(k as u32 + 1)),
                                    "key {k} served another entry"
                                );
                            }
                        }
                        if last_pass {
                            break;
                        }
                    }
                });
            }
            start.wait();
            for k in CAP as u64..CAP as u64 + MORE {
                reg.insert((k, k), k as i64, "bf".into(), cfg(k as u32 + 1));
            }
            done.store(true, Ordering::Release);
        });
        let inserts = CAP as u64 + MORE;
        assert_eq!(reg.len(), CAP);
        assert_eq!(reg.evictions(), inserts - CAP as u64);
    }

    #[test]
    fn a_touched_entry_survives_an_unrelated_write() {
        // a touch protects the entry from eviction even after another
        // write
        let reg = ModelRegistry::new(1, 3);
        reg.insert((1, 0), 1, "a".into(), cfg(1));
        reg.insert((2, 0), 2, "a".into(), cfg(2));
        reg.insert((3, 0), 3, "a".into(), cfg(3));
        assert!(matches!(reg.lookup(&(1, 0)), Lookup::Hit { .. })); // stamps (1,0) as the most recent
        reg.insert((3, 0), 3, "a".into(), cfg(3)); // an unrelated write
        reg.insert((4, 0), 4, "a".into(), cfg(4)); // now someone must go
        assert!(matches!(reg.lookup(&(1, 0)), Lookup::Hit { .. }), "the touched entry survived the republish");
        assert_eq!(reg.lookup(&(2, 0)), Lookup::Miss, "the untouched entry was the LRU victim");
        assert_eq!(reg.evictions(), 1);
    }

    #[test]
    fn readers_racing_hot_rollouts_never_miss_and_never_go_back() {
        // A reader racing a stream of rollouts sees the committed
        // generation move forward only, each key's answer move forward
        // only, and no key ever missing. Each rollout installs model_id
        // == generation for every key, so a served model_id is the
        // rollout the answer belongs to.
        const KEYS: u64 = 8;
        const ROLLOUTS: i64 = 200;
        let reg = std::sync::Arc::new(ModelRegistry::new(1, 64));
        for k in 0..KEYS {
            reg.insert((k, k), 0, "bf".into(), cfg(8));
        }
        crossbeam::scope(|s| {
            let writer = std::sync::Arc::clone(&reg);
            s.spawn(move |_| {
                for _ in 0..ROLLOUTS {
                    let gen = writer.begin_rollout();
                    for k in 0..KEYS {
                        writer.insert_at((k, k), gen as i64, "bf".into(), cfg(8), gen);
                    }
                    writer.commit_rollout(gen);
                }
            });
            for _ in 0..3 {
                let reg = std::sync::Arc::clone(&reg);
                s.spawn(move |_| {
                    let mut last_gen = 0u64;
                    let mut last_seen = vec![0i64; KEYS as usize];
                    loop {
                        let before = reg.generation();
                        assert!(before >= last_gen, "committed generation went backwards: {before} < {last_gen}");
                        last_gen = before;
                        for k in 0..KEYS {
                            match reg.lookup(&(k, k)) {
                                Lookup::Hit { model_id, .. } => {
                                    assert!(
                                        model_id >= last_seen[k as usize],
                                        "key {k} regressed from {} to {model_id}",
                                        last_seen[k as usize]
                                    );
                                    last_seen[k as usize] = model_id;
                                }
                                Lookup::Miss => panic!("key {k} vanished during rollout"),
                            }
                        }
                        if last_gen >= ROLLOUTS as u64 {
                            break;
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(reg.generation(), ROLLOUTS as u64);
        for k in 0..KEYS {
            assert!(
                matches!(reg.lookup(&(k, k)), Lookup::Hit { model_id: ROLLOUTS, .. }),
                "every key ends on the final generation"
            );
        }
    }
}
