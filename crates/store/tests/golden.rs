//! The store's bytes, pinned as literals printed before the JSON writer
//! streamed: a fixed blob's canonical encoding and content address, and
//! the journal frame its commit appends. Blobs already on disk verify
//! only while these hold.

use chronus::domain::Benchmark;
use eco_sim_node::cpu::CpuConfig;
use eco_store::{blob_hash, MemBackend, ModelBlob, ModelStore, Provenance, ProvenanceSource, BLOB_DIR, JOURNAL_FILE};

fn blob() -> ModelBlob {
    let row = |id: i64, cores: u32, khz: u64, tpc: u32, gflops: f64| Benchmark {
        id,
        system_id: 3,
        binary_hash: u64::MAX,
        config: CpuConfig::new(cores, khz, tpc),
        gflops,
        runtime_s: 1108.25,
        avg_system_w: -0.0,
        avg_cpu_w: 5e-324,
        avg_cpu_temp_c: 1.7976931348623157e308,
        system_energy_j: 0.1 + 0.2,
        cpu_energy_j: 1e21,
        sample_count: 554,
    };
    ModelBlob {
        model_type: "random-tree \"q\" \\ é\n\u{1}".to_string(),
        system_hash: 0x8b0f_3c2d_11aa_5e77,
        binary_hash: 42,
        config: CpuConfig::new(32, 2_200_000, 1),
        benchmarks: vec![row(-1, 32, 2_200_000, 1, 18.75), row(i64::MIN, 16, 1_500_000, 2, 3.0)],
    }
}

fn provenance() -> Provenance {
    Provenance {
        campaign: "golden".to_string(),
        seed: 7,
        plan: "brute-force".to_string(),
        trials_run: 2,
        trials_skipped: 0,
        trial_seconds: 2216.5,
        best_gflops_per_watt: 0.0625,
        node_class: "epyc".to_string(),
        source: ProvenanceSource::Campaign,
        refit_of: 0,
    }
}

/// `serde_json::to_string(&blob())`: escapes, non-ASCII text, `-0.0`,
/// the smallest subnormal, `f64::MAX`, `u64::MAX` and `i64::MIN`.
const BLOB_JSON: &str = r#"{"model_type":"random-tree \"q\" \\ é\n\u0001","system_hash":10020293860190215799,"binary_hash":42,"config":{"cores":32,"frequency":2200000,"threads_per_core":1},"benchmarks":[{"id":-1,"system_id":3,"binary_hash":18446744073709551615,"config":{"cores":32,"frequency":2200000,"threads_per_core":1},"gflops":18.75,"runtime_s":1108.25,"avg_system_w":-0.0,"avg_cpu_w":5e-324,"avg_cpu_temp_c":1.7976931348623157e308,"system_energy_j":0.30000000000000004,"cpu_energy_j":1e21,"sample_count":554},{"id":-9223372036854775808,"system_id":3,"binary_hash":18446744073709551615,"config":{"cores":16,"frequency":1500000,"threads_per_core":2},"gflops":3.0,"runtime_s":1108.25,"avg_system_w":-0.0,"avg_cpu_w":5e-324,"avg_cpu_temp_c":1.7976931348623157e308,"system_energy_j":0.30000000000000004,"cpu_energy_j":1e21,"sample_count":554}]}"#;

/// `blob_hash(&blob())`.
const BLOB_ADDRESS: &str = "a9efe6314b31a67a";

/// The one frame `commit(&blob(), 9, provenance())` appends to an empty
/// journal: big-endian length and CRC-32, then the payload.
const FRAME_HEADER: [u8; 8] = [0x00, 0x00, 0x01, 0xc1, 0x2c, 0xf6, 0xbd, 0xb4];
const FRAME_PAYLOAD: &str = r#"{"Commit":{"generation":1,"parent":0,"model_id":9,"model_type":"random-tree \"q\" \\ é\n\u0001","system_hash":10020293860190215799,"binary_hash":42,"config":{"cores":32,"frequency":2200000,"threads_per_core":1},"blob_hash":"a9efe6314b31a67a","provenance":{"campaign":"golden","seed":7,"plan":"brute-force","trials_run":2,"trials_skipped":0,"trial_seconds":2216.5,"best_gflops_per_watt":0.0625,"node_class":"epyc","source":"campaign","refit_of":0}}}"#;

#[test]
fn a_fixed_blob_encodes_and_hashes_as_pinned() {
    assert_eq!(serde_json::to_string(&blob()).unwrap(), BLOB_JSON);
    assert_eq!(serde_json::to_vec(&blob()).unwrap(), BLOB_JSON.as_bytes());
    assert_eq!(blob_hash(&blob()), BLOB_ADDRESS);
    assert_eq!(serde_json::from_str::<ModelBlob>(BLOB_JSON).unwrap(), blob());
}

#[test]
fn a_commit_writes_the_pinned_blob_and_journal_frame() {
    let mem = MemBackend::new();
    let mut store = ModelStore::open(Box::new(mem.clone())).unwrap();
    let record = store.commit(&blob(), 9, provenance()).unwrap();
    assert_eq!(record.blob_hash, BLOB_ADDRESS);
    let name = format!("{BLOB_DIR}/{BLOB_ADDRESS}");
    assert_eq!(mem.get_raw(&name).unwrap(), BLOB_JSON.as_bytes());
    let frame = mem.get_raw(JOURNAL_FILE).unwrap();
    assert_eq!(frame[..8], FRAME_HEADER);
    assert_eq!(std::str::from_utf8(&frame[8..]).unwrap(), FRAME_PAYLOAD);
}

#[test]
fn a_store_written_before_the_streaming_writer_still_verifies() {
    let mem = MemBackend::new();
    mem.put_raw(&format!("{BLOB_DIR}/{BLOB_ADDRESS}"), BLOB_JSON.as_bytes().to_vec());
    mem.put_raw(JOURNAL_FILE, [&FRAME_HEADER[..], FRAME_PAYLOAD.as_bytes()].concat());
    let store = ModelStore::open(Box::new(mem)).unwrap();
    assert!(store.verify().is_empty(), "{:?}", store.verify());
    let serving = store.serving_for(blob().system_hash, blob().binary_hash).expect("the pinned commit serves");
    assert_eq!(store.load_blob(serving).unwrap(), blob());
}
