//! Property-based tests for the store's journal codec, mirroring the
//! core wire-codec proptests: arbitrary records survive encode →
//! recover identically, arbitrary junk never panics recovery, and a
//! truncated tail always recovers to the longest valid prefix. Then the
//! store itself: the fold a handle keeps record by record answers every
//! query as a whole-ledger re-fold would, on the writer, on a live
//! reader and on a freshly opened store.

use chronus::integrations::codec::{crc32, encode_record, recover, MAX_RECORD_LEN, RECORD_HEADER_LEN};
use eco_sim_node::cpu::CpuConfig;
use eco_store::{
    LedgerRecord, MemBackend, ModelBlob, ModelRecord, ModelStore, Provenance, ProvenanceSource, JOURNAL_FILE,
};
use proptest::prelude::*;

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..512)
}

fn arb_provenance() -> impl Strategy<Value = Provenance> {
    (
        ("[a-z0-9-]{0,16}", "[a-z0-9-]{0,12}"),
        0u64..=u64::MAX,
        "[a-z-]{0,12}",
        0u64..500,
        0u64..500,
        0.0f64..1e6,
        (0.0f64..10.0, 0u32..3, 0u64..1_000),
    )
        .prop_map(
            |(
                (campaign, node_class),
                seed,
                plan,
                trials_run,
                trials_skipped,
                trial_seconds,
                (gpw, src, refit_of),
            )| {
                Provenance {
                    campaign,
                    seed,
                    plan,
                    trials_run,
                    trials_skipped,
                    trial_seconds,
                    best_gflops_per_watt: gpw,
                    node_class,
                    source: if src == 0 { ProvenanceSource::Adaptation } else { ProvenanceSource::Campaign },
                    refit_of,
                }
            },
        )
}

fn arb_config() -> impl Strategy<Value = CpuConfig> {
    (1u32..=64, prop::sample::select(vec![1_500_000u64, 2_200_000, 2_500_000]), 1u32..=2)
        .prop_map(|(c, f, t)| CpuConfig::new(c, f, t))
}

fn arb_commit() -> impl Strategy<Value = ModelRecord> {
    (
        1u64..=1_000,
        0u64..=1_000,
        -1_000i64..=1_000_000,
        ".{0,24}",
        (0u64..=u64::MAX, 0u64..=u64::MAX),
        arb_config(),
        ("[0-9a-f]{16}", arb_provenance()),
    )
        .prop_map(|(generation, parent, model_id, model_type, (sys, bin), config, (blob_hash, provenance))| {
            ModelRecord {
                generation,
                parent,
                model_id,
                model_type,
                system_hash: sys,
                binary_hash: bin,
                config,
                blob_hash,
                provenance,
            }
        })
}

fn arb_record() -> impl Strategy<Value = LedgerRecord> {
    // One in five records is a rollback (the vendored proptest has no
    // `prop_oneof`, so the variant is picked by a selector integer).
    (0u32..5, arb_commit(), (1u64..=1_000, ".{0,40}")).prop_map(|(kind, commit, (to_generation, reason))| {
        if kind == 0 {
            LedgerRecord::Rollback { to_generation, reason }
        } else {
            LedgerRecord::Commit(commit)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of payloads survives encode → recover in order,
    /// byte for byte, with nothing truncated.
    #[test]
    fn payloads_roundtrip(payloads in prop::collection::vec(arb_payload(), 0..8)) {
        let mut wire = Vec::new();
        for p in &payloads {
            encode_record(p, &mut wire).unwrap();
        }
        let got = recover(&wire);
        prop_assert_eq!(&got.records, &payloads);
        prop_assert_eq!(got.valid_len, wire.len());
        prop_assert!(!got.truncated);
    }

    /// Real ledger records (commits with provenance, rollbacks)
    /// roundtrip through JSON + framing identically.
    #[test]
    fn ledger_records_roundtrip(records in prop::collection::vec(arb_record(), 1..6)) {
        let mut wire = Vec::new();
        for r in &records {
            encode_record(&serde_json::to_vec(r).unwrap(), &mut wire).unwrap();
        }
        let got = recover(&wire);
        let decoded: Vec<LedgerRecord> = got
            .records
            .iter()
            .map(|p| serde_json::from_slice(p).unwrap())
            .collect();
        prop_assert_eq!(decoded, records);
    }

    /// Arbitrary junk never panics recovery — every byte soup yields a
    /// (possibly empty) valid prefix and a consistent `valid_len`.
    #[test]
    fn junk_never_panics_recovery(junk in prop::collection::vec(0u8..=255, 0..1024)) {
        let got = recover(&junk);
        prop_assert!(got.valid_len <= junk.len());
        // Whatever survived must itself re-recover cleanly.
        let again = recover(&junk[..got.valid_len]);
        prop_assert_eq!(again.records, got.records);
        prop_assert!(!again.truncated);
    }

    /// Truncating a valid journal anywhere keeps exactly the records
    /// whose frames survived whole — the longest valid prefix.
    #[test]
    fn truncated_tail_recovers_longest_valid_prefix(
        payloads in prop::collection::vec(arb_payload(), 1..6),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        let mut boundaries = vec![0usize];
        for p in &payloads {
            encode_record(p, &mut wire).unwrap();
            boundaries.push(wire.len());
        }
        let cut = (wire.len() as f64 * cut_fraction) as usize;
        let got = recover(&wire[..cut]);
        // Expected: every record whose frame ends at or before the cut.
        let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(got.records.len(), whole);
        prop_assert_eq!(&got.records[..], &payloads[..whole]);
        prop_assert_eq!(got.valid_len, boundaries[whole]);
        prop_assert_eq!(got.truncated, cut != boundaries[whole]);
    }

    /// Appending junk after a valid journal never loses the valid
    /// records, only the junk.
    #[test]
    fn junk_tail_never_eats_valid_records(
        payloads in prop::collection::vec(arb_payload(), 1..5),
        junk in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            encode_record(p, &mut wire).unwrap();
        }
        let clean_len = wire.len();
        wire.extend_from_slice(&junk);
        let got = recover(&wire);
        // The junk may happen to parse as one-or-more valid frames, but
        // it can never corrupt or drop the real prefix.
        prop_assert!(got.records.len() >= payloads.len());
        prop_assert_eq!(&got.records[..payloads.len()], &payloads[..]);
        prop_assert!(got.valid_len >= clean_len);
    }

    /// A flipped bit anywhere inside a record's frame truncates at that
    /// record (or a later one if the flip hit only already-read bytes —
    /// impossible here since each frame is self-contained).
    #[test]
    fn flipped_bit_never_yields_a_wrong_record(
        payloads in prop::collection::vec(arb_payload(), 1..4),
        flip_at_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            encode_record(p, &mut wire).unwrap();
        }
        let flip_at = ((wire.len() - 1) as f64 * flip_at_fraction) as usize;
        wire[flip_at] ^= 1 << bit;
        let got = recover(&wire);
        // Every recovered record must be one of the originals, in
        // order; the flip may cost records but can never invent bytes
        // (a 1-bit flip cannot survive the CRC).
        prop_assert!(got.records.len() <= payloads.len());
        for (got_rec, want) in got.records.iter().zip(&payloads) {
            prop_assert_eq!(got_rec, want);
        }
    }

    /// The framing constants hold: encoded size is header + payload,
    /// and the CRC in the header is the payload's CRC.
    #[test]
    fn frame_layout_is_stable(payload in arb_payload()) {
        let mut wire = Vec::new();
        let written = encode_record(&payload, &mut wire).unwrap();
        prop_assert_eq!(written, RECORD_HEADER_LEN + payload.len());
        prop_assert_eq!(wire.len(), written);
        prop_assert!(payload.len() <= MAX_RECORD_LEN);
        let sum = u32::from_be_bytes([wire[4], wire[5], wire[6], wire[7]]);
        prop_assert_eq!(sum, crc32(&payload));
    }
}

/// The fold as the store computed it when every query re-walked the
/// whole ledger, kept verbatim as the reference for the fold it keeps.
mod reference {
    use eco_store::{LedgerRecord, ModelRecord};

    fn commits(records: &[LedgerRecord]) -> impl Iterator<Item = &ModelRecord> {
        records.iter().filter_map(|r| match r {
            LedgerRecord::Commit(m) => Some(m),
            LedgerRecord::Rollback { .. } => None,
        })
    }

    pub fn serving(records: &[LedgerRecord]) -> Vec<&ModelRecord> {
        use std::collections::BTreeMap;
        let mut state: Vec<&ModelRecord> = Vec::new();
        let mut snapshots: BTreeMap<u64, Vec<&ModelRecord>> = BTreeMap::new();
        for record in records {
            match record {
                LedgerRecord::Commit(m) => {
                    state.push(m);
                    snapshots.insert(m.generation, state.clone());
                }
                LedgerRecord::Rollback { to_generation, .. } => {
                    if let Some(s) = snapshots.get(to_generation) {
                        state = s.clone();
                    }
                }
            }
        }
        let mut latest: BTreeMap<(u64, u64), &ModelRecord> = BTreeMap::new();
        for m in state {
            latest.insert((m.system_hash, m.binary_hash), m);
        }
        let mut out: Vec<&ModelRecord> = latest.into_values().collect();
        out.sort_by_key(|m| m.generation);
        out
    }

    pub fn record(records: &[LedgerRecord], generation: u64) -> Option<&ModelRecord> {
        commits(records).find(|m| m.generation == generation)
    }

    pub fn current_generation(records: &[LedgerRecord]) -> u64 {
        let mut at = 0u64;
        for record in records {
            match record {
                LedgerRecord::Commit(m) => at = m.generation,
                LedgerRecord::Rollback { to_generation, .. } => at = *to_generation,
            }
        }
        at
    }

    pub fn high_water(records: &[LedgerRecord]) -> u64 {
        commits(records).map(|m| m.generation).max().unwrap_or(0)
    }
}

const KEYS: [(u64, u64); 3] = [(7, 1), (7, 2), (8, 1)];

/// Everything a store answers from its fold: `serving()`, `serving_for`
/// of every key, the current and high-water generations, and `record`
/// of every generation up to one past the high-water mark.
type View<'a> = (Vec<&'a ModelRecord>, Vec<Option<&'a ModelRecord>>, u64, u64, Vec<Option<&'a ModelRecord>>);

fn view(store: &ModelStore) -> View<'_> {
    let high_water = store.high_water();
    (
        store.serving(),
        KEYS.iter().map(|&(s, b)| store.serving_for(s, b)).collect(),
        store.current_generation(),
        high_water,
        (0..=high_water + 1).map(|g| store.record(g)).collect(),
    )
}

fn reference_view(ledger: &[LedgerRecord]) -> View<'_> {
    let serving = reference::serving(ledger);
    let high_water = reference::high_water(ledger);
    (
        serving.clone(),
        KEYS.iter().map(|&key| serving.iter().copied().rfind(|r| (r.system_hash, r.binary_hash) == key)).collect(),
        reference::current_generation(ledger),
        high_water,
        (0..=high_water + 1).map(|g| reference::record(ledger, g)).collect(),
    )
}

/// A store opened over a copy of `mem`'s journal, so its recovery
/// cannot truncate what the handles under test read.
fn fresh_copy(mem: &MemBackend) -> ModelStore {
    let copy = MemBackend::new();
    copy.put_raw(JOURNAL_FILE, mem.get_raw(JOURNAL_FILE).unwrap_or_default());
    ModelStore::open(Box::new(copy)).unwrap()
}

/// One step of a writer's life: commit (ops 0–4), roll back to a
/// committed generation picked by `pick` (5–6), tear an append as a
/// crash would and reopen (7), reopen (8), or reopen the reader (9) —
/// then, when `refresh` is set, the reader refreshes.
fn arb_step() -> impl Strategy<Value = (u32, usize, f64, bool)> {
    (0u32..10, 0usize..KEYS.len(), 0.0f64..1.0, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kept fold answers as the reference re-fold does over each
    /// handle's own ledger, and as a freshly opened store does: across
    /// commits, rollbacks, torn appends, reopens and a live reader.
    #[test]
    fn the_kept_fold_answers_as_the_whole_ledger_refold(steps in prop::collection::vec(arb_step(), 1..48)) {
        let mem = MemBackend::new();
        let open = || ModelStore::open(Box::new(mem.clone())).unwrap();
        let (mut writer, mut reader) = (open(), open());
        for (n, &(op, key, pick, refresh)) in steps.iter().enumerate() {
            let high_water = writer.high_water();
            let picked = (pick * high_water as f64) as u64;
            let mut torn = None;
            match op {
                0..=4 => {
                    let (system_hash, binary_hash) = KEYS[key];
                    let blob = ModelBlob {
                        model_type: "brute-force".into(),
                        system_hash,
                        binary_hash,
                        config: CpuConfig::new(1 + n as u32, 2_200_000, 1),
                        benchmarks: Vec::new(),
                    };
                    let source = if picked > 0 { ProvenanceSource::Adaptation } else { ProvenanceSource::Campaign };
                    let provenance = Provenance { source, refit_of: picked, ..Provenance::default() };
                    writer.commit(&blob, n as i64, provenance).unwrap();
                }
                5 | 6 if high_water > 0 => {
                    writer.rollback_to(picked + 1, "proptest").unwrap();
                }
                7 => {
                    let record = LedgerRecord::Rollback { to_generation: high_water.max(1), reason: "torn".into() };
                    let mut frame = Vec::new();
                    encode_record(&serde_json::to_vec(&record).unwrap(), &mut frame).unwrap();
                    let mut bytes = mem.get_raw(JOURNAL_FILE).unwrap_or_default();
                    let cut = (pick * frame.len() as f64) as usize;
                    bytes.extend_from_slice(&frame[..cut]);
                    mem.put_raw(JOURNAL_FILE, bytes);
                    torn = Some(cut);
                }
                8 => writer = open(),
                9 => reader = open(),
                _ => {}
            }
            if refresh {
                reader.refresh().unwrap();
            }
            let fresh = fresh_copy(&mem);
            prop_assert_eq!(fresh.ledger(), writer.ledger(), "step {}", n);
            for (name, store) in [("writer", &writer), ("reader", &reader), ("fresh", &fresh)] {
                prop_assert_eq!(view(store), reference_view(store.ledger()), "step {}: {}", n, name);
            }
            prop_assert_eq!(view(&writer), view(&fresh), "step {}", n);
            if refresh || op == 9 {
                prop_assert_eq!(view(&reader), view(&fresh), "step {}: a reader just refreshed", n);
            }
            if let Some(cut) = torn {
                writer = open();
                prop_assert_eq!(writer.recovered_truncation(), cut > 0, "step {}", n);
            }
        }
    }
}
