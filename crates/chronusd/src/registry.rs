//! The daemon's model registry: a sharded, LRU-bounded map from
//! `(system_hash, binary_hash)` to the pre-computed most
//! energy-efficient configuration.
//!
//! Predictions are read-mostly and latency-critical (they sit on the
//! scheduler's submit path), so the registry stores the *answer* — the
//! optimizer's argmax over the system's configuration space, computed
//! once at preload — rather than the optimizer itself. Each shard is one
//! `RwLock<HashMap>`: a lookup takes its shard's read lock, and writers
//! (preloads, cold-miss inserts, evictions) change the map in place
//! under the write lock. A hit refreshes its entry's LRU stamp, an
//! atomic, under the read lock.
//!
//! Capacity is one budget for the whole registry, not a share per
//! shard: a new key arriving at capacity evicts the entry with the
//! globally oldest LRU stamp, whichever shard holds it. Inserts are
//! serialized by one registry-wide mutex so "count, pick the victim,
//! insert" is a single decision; under it the victim's shard and the
//! key's shard are written one after the other, never nested.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use eco_sim_node::cpu::CpuConfig;
use parking_lot::{Mutex, RwLock};

/// Registry key: the plugin's identity pair (§4.2.1).
pub type ModelKey = (u64, u64);

/// One resident model.
struct ResidentModel {
    /// The repository id of the model this answer came from.
    model_id: i64,
    /// The pre-computed best configuration.
    config: CpuConfig,
    /// The rollout generation this entry was installed under.
    generation: u64,
    /// Logical timestamp of the last lookup (LRU).
    last_used: AtomicU64,
}

/// Outcome of a generation-aware registry lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A committed entry answered.
    Hit { model_id: i64, config: CpuConfig },
    /// No entry for the key.
    Miss,
    /// An entry exists but belongs to an uncommitted rollout generation;
    /// it must never be served (the caller should fall back to a miss).
    Stale,
}

type Shard = RwLock<HashMap<ModelKey, ResidentModel>>;

/// Sharded LRU registry with one global capacity.
pub struct ModelRegistry {
    shards: Vec<Shard>,
    capacity: usize,
    /// Serializes inserts, so the capacity check, the choice of victim
    /// and the insert are one decision. Readers never touch it.
    budget: Mutex<()>,
    clock: AtomicU64,
    evictions: AtomicU64,
    /// Latest committed rollout generation; entries above it are invisible.
    committed_gen: AtomicU64,
    /// Generation allocator for in-flight rollouts.
    next_gen: AtomicU64,
}

impl ModelRegistry {
    /// A registry with `shards` shards and room for `capacity` models
    /// in total, however they hash. Both are clamped to at least 1.
    pub fn new(shards: usize, capacity: usize) -> ModelRegistry {
        ModelRegistry {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            capacity: capacity.max(1),
            budget: Mutex::new(()),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            committed_gen: AtomicU64::new(0),
            next_gen: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &ModelKey) -> &Shard {
        // cheap mix of both hashes; the shard count is small
        let mixed = key.0 ^ key.1.rotate_left(17);
        &self.shards[(mixed % self.shards.len() as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The latest committed rollout generation (0 before any rollout).
    pub fn generation(&self) -> u64 {
        self.committed_gen.load(Ordering::Acquire)
    }

    /// Allocates a fresh, *uncommitted* rollout generation. Entries
    /// inserted under it stay invisible to lookups until
    /// [`Self::commit_rollout`] publishes the generation.
    pub fn begin_rollout(&self) -> u64 {
        self.next_gen.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Publishes a rollout generation: entries tagged `gen` (and below)
    /// become servable atomically.
    pub fn commit_rollout(&self, gen: u64) {
        self.committed_gen.fetch_max(gen, Ordering::AcqRel);
    }

    /// Generation-aware lookup, refreshing the LRU stamp. Entries from
    /// an uncommitted generation are reported as [`Lookup::Stale`] and
    /// never served.
    pub fn lookup(&self, key: &ModelKey) -> Lookup {
        let committed = self.generation();
        match self.shard_for(key).read().get(key) {
            None => Lookup::Miss,
            Some(m) if m.generation > committed => Lookup::Stale,
            Some(m) => {
                m.last_used.store(self.tick(), Ordering::Relaxed);
                Lookup::Hit { model_id: m.model_id, config: m.config }
            }
        }
    }

    /// Inserts (or replaces) a model at the current committed
    /// generation, evicting the registry's least recently used entry
    /// if the key is new and the registry is full.
    pub fn insert(&self, key: ModelKey, model_id: i64, model_type: String, config: CpuConfig) {
        self.insert_at(key, model_id, model_type, config, self.generation());
    }

    /// Inserts (or replaces) a model tagged with rollout generation
    /// `gen`. If `gen` is uncommitted the entry stays invisible until
    /// [`Self::commit_rollout`]. The model type is not kept: a lookup
    /// answers with the id and the configuration only.
    pub fn insert_at(&self, key: ModelKey, model_id: i64, _model_type: String, config: CpuConfig, gen: u64) {
        let stamp = self.tick();
        let _budget = self.budget.lock();
        let shard = self.shard_for(&key);
        // each guard is released before the next lock is taken: `len`
        // and `coldest` read every shard, this one included
        let resident = shard.read().contains_key(&key);
        if !resident && self.len() >= self.capacity {
            if let Some(victim) = self.coldest() {
                self.shard_for(&victim).write().remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let entry = ResidentModel { model_id, config, generation: gen, last_used: AtomicU64::new(stamp) };
        shard.write().insert(key, entry);
    }

    /// The key with the oldest LRU stamp in the whole registry.
    fn coldest(&self) -> Option<ModelKey> {
        let coldest_in = |shard: &Shard| {
            let entries = shard.read();
            entries.iter().map(|(key, m)| (m.last_used.load(Ordering::Relaxed), *key)).min()
        };
        self.shards.iter().filter_map(coldest_in).min().map(|(_, key)| key)
    }

    /// Models resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
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
        let reg = ModelRegistry::new(4, 8);
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
    fn capacity_is_one_budget_however_the_keys_hash() {
        // every key lands in one shard of eight: under a per-shard share
        // (64 / 8) all but eight of them would have been evicted
        let reg = ModelRegistry::new(8, 64);
        for i in 0..64u64 {
            reg.insert((i * 8, 0), i as i64, "a".into(), cfg(1));
        }
        assert_eq!((reg.len(), reg.evictions()), (64, 0));
        assert!((0..64u64).all(|i| matches!(reg.lookup(&(i * 8, 0)), Lookup::Hit { .. })));
    }

    #[test]
    fn a_new_key_at_capacity_evicts_the_globally_coldest_entry() {
        let reg = ModelRegistry::new(4, 4);
        for i in 0..4u64 {
            reg.insert((i, 0), i as i64, "a".into(), cfg(1));
        }
        // touch everything but (2,0); the new key (5,0) hashes to (1,0)'s shard
        for i in [0u64, 1, 3] {
            assert!(matches!(reg.lookup(&(i, 0)), Lookup::Hit { .. }));
        }
        reg.insert((5, 0), 5, "a".into(), cfg(1));
        assert_eq!(reg.lookup(&(2, 0)), Lookup::Miss, "the coldest entry went, whichever shard held it");
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
        let reg = std::sync::Arc::new(ModelRegistry::new(8, 16));
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
    fn uncommitted_generation_is_stale_until_committed() {
        let reg = ModelRegistry::new(2, 8);
        assert_eq!(reg.generation(), 0);
        let gen = reg.begin_rollout();
        assert_eq!(gen, 1);
        reg.insert_at((1, 2), 9, "auto".into(), cfg(32), gen);
        // half-rolled-out: visible as Stale, never served
        assert_eq!(reg.lookup(&(1, 2)), Lookup::Stale);
        assert!(!matches!(reg.lookup(&(1, 2)), Lookup::Hit { .. }));
        reg.commit_rollout(gen);
        assert_eq!(reg.generation(), 1);
        assert_eq!(reg.lookup(&(1, 2)), Lookup::Hit { model_id: 9, config: cfg(32) });
    }

    #[test]
    fn plain_inserts_serve_at_the_current_generation() {
        let reg = ModelRegistry::new(1, 8);
        let gen = reg.begin_rollout();
        reg.commit_rollout(gen);
        // cold-miss repopulation during/after rollouts stays servable
        reg.insert((5, 6), 4, "lr".into(), cfg(16));
        assert_eq!(reg.lookup(&(5, 6)), Lookup::Hit { model_id: 4, config: cfg(16) });
        assert_eq!(reg.lookup(&(9, 9)), Lookup::Miss);
    }

    #[test]
    fn concurrent_readers_and_writers_do_not_lose_entries() {
        let reg = std::sync::Arc::new(ModelRegistry::new(8, 1024));
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
        let reg = ModelRegistry::new(8, CAP);
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
        // write to the same shard
        let reg = ModelRegistry::new(1, 3);
        reg.insert((1, 0), 1, "a".into(), cfg(1));
        reg.insert((2, 0), 2, "a".into(), cfg(2));
        reg.insert((3, 0), 3, "a".into(), cfg(3));
        assert!(matches!(reg.lookup(&(1, 0)), Lookup::Hit { .. })); // stamps (1,0) as the most recent
        reg.insert((3, 0), 3, "a".into(), cfg(3)); // an unrelated write to the same shard
        reg.insert((4, 0), 4, "a".into(), cfg(4)); // now someone must go
        assert!(matches!(reg.lookup(&(1, 0)), Lookup::Hit { .. }), "the touched entry survived the republish");
        assert_eq!(reg.lookup(&(2, 0)), Lookup::Miss, "the untouched entry was the LRU victim");
        assert_eq!(reg.evictions(), 1);
    }

    #[test]
    fn readers_racing_hot_rollouts_see_only_complete_committed_generations() {
        // The rollout contract: a reader may see the generation before
        // or after a racing rollout, never a half-rolled-out one — and
        // what it observes moves monotonically. Each rollout installs
        // model_id == generation for every key, so a served model_id
        // *is* the generation the answer belongs to.
        const KEYS: u64 = 8;
        const ROLLOUTS: i64 = 200;
        let reg = std::sync::Arc::new(ModelRegistry::new(2, 64));
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
                                    // a hit is always a *committed* generation…
                                    assert!(
                                        model_id as u64 <= reg.generation(),
                                        "served uncommitted generation {model_id}"
                                    );
                                    // …and per reader, a key never goes back in time
                                    assert!(
                                        model_id >= last_seen[k as usize],
                                        "key {k} regressed from {} to {model_id}",
                                        last_seen[k as usize]
                                    );
                                    last_seen[k as usize] = model_id;
                                }
                                // mid-rollout, the replaced entry is stale: refused, never served
                                Lookup::Stale => {}
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
