//! The daemon's model registry: a sharded, LRU-bounded map from
//! `(system_hash, binary_hash)` to the pre-computed most
//! energy-efficient configuration.
//!
//! Predictions are read-mostly and latency-critical (they sit on the
//! scheduler's submit path), so the registry stores the *answer* — the
//! optimizer's argmax over the system's configuration space, computed
//! once at preload — rather than the optimizer itself. Since the
//! batching PR, reads are **lock-free**: each shard publishes an
//! immutable snapshot of its map behind an atomic pointer, and a
//! lookup pins the snapshot with one counter increment, reads it, and
//! unpins — no lock, no writer can ever block a reader. Writers
//! (preloads, cold-miss inserts, evictions) are rare; each one builds
//! the next snapshot off to the side under a per-shard mutex, swaps it
//! in, and reclaims the old snapshot only after every reader pinned to
//! it has left.
//!
//! Capacity is one budget for the whole registry, not a share per
//! shard: a new key arriving at capacity evicts the entry with the
//! globally oldest LRU stamp, whichever shard holds it. Inserts are
//! serialized by one registry-wide mutex so "count, pick the victim,
//! insert" is a single decision; under it the victim's shard and the
//! key's shard are written one after the other, never nested.
//!
//! ## Reclamation protocol
//!
//! Each shard keeps an `epoch` counter and two reader counts indexed by
//! epoch parity. A reader pins the current parity, re-checks the epoch
//! (retrying if a writer slipped in between), reads the snapshot
//! pointer, and unpins. A writer — alone, under the shard's write
//! mutex — swaps the snapshot pointer, bumps the epoch (flipping the
//! parity new readers pin), waits for the *old* parity's pin count to
//! drain to zero, and only then frees the old snapshot. The next
//! writer cannot run until this one releases the mutex, so the only
//! thread that could free the *new* snapshot is gated behind the drain
//! of everyone who might still be reading the old one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use eco_sim_node::cpu::CpuConfig;
use parking_lot::Mutex;

/// Registry key: the plugin's identity pair (§4.2.1).
pub type ModelKey = (u64, u64);

/// One resident model. Entries are shared between successive snapshots
/// via `Arc`, so the LRU stamp lives in one place no matter how many
/// snapshots an entry survives.
#[derive(Debug)]
pub struct ResidentModel {
    /// The repository id of the model this answer came from.
    pub model_id: i64,
    /// The optimizer type string.
    pub model_type: String,
    /// The pre-computed best configuration.
    pub config: CpuConfig,
    /// The rollout generation this entry was installed under.
    pub generation: u64,
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

/// The immutable map a shard publishes to readers. Cloning one (to
/// build the next) clones `Arc`s, not models.
type Snapshot = HashMap<ModelKey, Arc<ResidentModel>>;

struct Shard {
    /// The live snapshot. Owned by the shard; freed by the writer that
    /// replaces it (after draining readers) or by `Drop`.
    current: AtomicPtr<Snapshot>,
    /// Bumped once per published snapshot; its parity picks which
    /// reader count new readers pin.
    epoch: AtomicU64,
    /// Pinned-reader counts, indexed by epoch parity.
    readers: [AtomicU64; 2],
    /// Serializes writers. Readers never touch it.
    write: Mutex<()>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            current: AtomicPtr::new(Box::into_raw(Box::new(Snapshot::new()))),
            epoch: AtomicU64::new(0),
            readers: [AtomicU64::new(0), AtomicU64::new(0)],
            write: Mutex::new(()),
        }
    }

    /// Runs `f` against the live snapshot, lock-free. Pin → re-check →
    /// read → unpin; the re-check retries if a writer published between
    /// the epoch load and the pin, so a pinned parity always covers the
    /// pointer the reader is about to load (or a newer one, which is
    /// also safe: the newer snapshot cannot be freed until the *next*
    /// writer runs, and that writer is blocked behind this pin's drain).
    fn read<R>(&self, f: impl FnOnce(&Snapshot) -> R) -> R {
        let parity = loop {
            let e = self.epoch.load(Ordering::Acquire);
            let p = (e & 1) as usize;
            self.readers[p].fetch_add(1, Ordering::AcqRel);
            if self.epoch.load(Ordering::Acquire) == e {
                break p;
            }
            // a writer flipped the epoch mid-pin: unpin and retry on
            // the fresh parity so we never hold up the wrong drain
            self.readers[p].fetch_sub(1, Ordering::Release);
        };
        // SAFETY: `current` is never null, and the snapshot it points
        // to outlives this borrow: it is freed only by a writer that
        // first drains the parity we are pinned on (or, for a snapshot
        // published after our pin, by a later writer serialized behind
        // that drain).
        let result = f(unsafe { &*self.current.load(Ordering::Acquire) });
        self.readers[parity].fetch_sub(1, Ordering::Release);
        result
    }

    /// Clones the live snapshot, lets `f` mutate the clone, publishes
    /// it, and frees the old snapshot once no reader can still hold it.
    fn update<R>(&self, f: impl FnOnce(&mut Snapshot) -> R) -> R {
        let _writer = self.write.lock();
        // SAFETY: only writers free snapshots, writers are serialized
        // by `write`, and we hold it — the pointer is live.
        let mut next = unsafe { (*self.current.load(Ordering::Relaxed)).clone() };
        let result = f(&mut next);
        let old = self.current.swap(Box::into_raw(Box::new(next)), Ordering::AcqRel);
        let flipped = self.epoch.fetch_add(1, Ordering::AcqRel);
        let old_parity = (flipped & 1) as usize;
        let mut spins = 0u32;
        while self.readers[old_parity].load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: every reader that could have loaded `old` pinned the
        // old parity before the epoch flip, and that count just hit
        // zero; readers pinned since the flip load the new pointer.
        drop(unsafe { Box::from_raw(old) });
        result
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no reader or writer is live.
        drop(unsafe { Box::from_raw(*self.current.get_mut()) });
    }
}

/// Sharded LRU registry with lock-free reads and one global capacity.
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
            shards: (0..shards.max(1)).map(|_| Shard::new()).collect(),
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
    /// never served. Lock-free: pins the shard's snapshot, never blocks
    /// on a concurrent preload or eviction.
    pub fn lookup(&self, key: &ModelKey) -> Lookup {
        let committed = self.generation();
        self.shard_for(key).read(|entries| match entries.get(key) {
            None => Lookup::Miss,
            Some(m) if m.generation > committed => Lookup::Stale,
            Some(m) => {
                m.last_used.store(self.tick(), Ordering::Relaxed);
                Lookup::Hit { model_id: m.model_id, config: m.config }
            }
        })
    }

    /// Looks up the best configuration for a key, refreshing its LRU
    /// stamp. Lock-free.
    pub fn get(&self, key: &ModelKey) -> Option<CpuConfig> {
        match self.lookup(key) {
            Lookup::Hit { config, .. } => Some(config),
            _ => None,
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
    /// [`Self::commit_rollout`].
    pub fn insert_at(&self, key: ModelKey, model_id: i64, model_type: String, config: CpuConfig, gen: u64) {
        let stamp = self.tick();
        let _budget = self.budget.lock();
        let shard = self.shard_for(&key);
        if !shard.read(|entries| entries.contains_key(&key)) && self.len() >= self.capacity {
            // the victim goes before the key's shard is locked: the two
            // may be different shards, and their locks must not nest
            if let Some(victim) = self.coldest() {
                self.shard_for(&victim).update(|entries| entries.remove(&victim));
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.update(|entries| {
            entries.insert(
                key,
                Arc::new(ResidentModel {
                    model_id,
                    model_type,
                    config,
                    generation: gen,
                    last_used: AtomicU64::new(stamp),
                }),
            );
        });
    }

    /// The key with the oldest LRU stamp in the whole registry.
    fn coldest(&self) -> Option<ModelKey> {
        let coldest_in =
            |entries: &Snapshot| entries.iter().map(|(key, m)| (m.last_used.load(Ordering::Relaxed), *key)).min();
        self.shards.iter().filter_map(|s| s.read(coldest_in)).min().map(|(_, key)| key)
    }

    /// Models resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read(|entries| entries.len())).sum()
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
    fn get_returns_what_insert_stored() {
        let reg = ModelRegistry::new(4, 8);
        assert!(reg.get(&(1, 2)).is_none());
        reg.insert((1, 2), 7, "brute-force".into(), cfg(32));
        assert_eq!(reg.get(&(1, 2)), Some(cfg(32)));
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
        assert!(reg.get(&(1, 0)).is_some());
        reg.insert((3, 0), 3, "a".into(), cfg(3));
        assert_eq!(reg.evictions(), 1);
        assert!(reg.get(&(1, 0)).is_some(), "recently used entry survives");
        assert!(reg.get(&(2, 0)).is_none(), "cold entry was evicted");
        assert!(reg.get(&(3, 0)).is_some());
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
        assert!((0..64u64).all(|i| reg.get(&(i * 8, 0)).is_some()));
    }

    #[test]
    fn a_new_key_at_capacity_evicts_the_globally_coldest_entry() {
        let reg = ModelRegistry::new(4, 4);
        for i in 0..4u64 {
            reg.insert((i, 0), i as i64, "a".into(), cfg(1));
        }
        // touch everything but (2,0); the new key (5,0) hashes to (1,0)'s shard
        for i in [0u64, 1, 3] {
            assert!(reg.get(&(i, 0)).is_some());
        }
        reg.insert((5, 0), 5, "a".into(), cfg(1));
        assert!(reg.get(&(2, 0)).is_none(), "the coldest entry went, whichever shard held it");
        assert!(reg.get(&(1, 0)).is_some() && reg.get(&(5, 0)).is_some());
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
        assert!(reg.get(&(1, 2)).is_none());
        reg.commit_rollout(gen);
        assert_eq!(reg.generation(), 1);
        assert_eq!(reg.get(&(1, 2)), Some(cfg(32)));
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
                        assert!(reg.get(&key).is_some());
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(reg.len(), 400);
        assert_eq!(reg.evictions(), 0);
    }

    #[test]
    fn lru_stamps_survive_snapshot_republishes() {
        // the Arc'd entries share one LRU cell across snapshots, so a
        // touch recorded in one snapshot still protects the entry after
        // an unrelated write republishes the shard
        let reg = ModelRegistry::new(1, 3);
        reg.insert((1, 0), 1, "a".into(), cfg(1));
        reg.insert((2, 0), 2, "a".into(), cfg(2));
        reg.insert((3, 0), 3, "a".into(), cfg(3));
        assert!(reg.get(&(1, 0)).is_some()); // stamp lands in the live snapshot
        reg.insert((3, 0), 3, "a".into(), cfg(3)); // republish: clones the map, carrying the stamp
        reg.insert((4, 0), 4, "a".into(), cfg(4)); // now someone must go
        assert!(reg.get(&(1, 0)).is_some(), "the touched entry survived the republish");
        assert!(reg.get(&(2, 0)).is_none(), "the untouched entry was the LRU victim");
        assert_eq!(reg.evictions(), 1);
    }

    #[test]
    fn readers_racing_hot_rollouts_see_only_complete_committed_generations() {
        // The arc-swap contract: a reader may see the generation before
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
