//! Process-level test of the `chronus` binary: the paper's §3.3 workflow
//! run as a real CLI across separate invocations, with state persisting in
//! `$CHRONUS_HOME`.

use std::path::PathBuf;
use std::process::Command;

fn chronus(home: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_chronus"))
        .args(args)
        .env("CHRONUS_HOME", home)
        .env("CHRONUS_SCALE", "0.005")
        .output()
        .expect("spawn chronus");
    let text = format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.success(), text)
}

#[test]
fn workflow_across_separate_processes() {
    let home = std::env::temp_dir().join(format!("eco-clibin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home).unwrap();

    // benchmark three configurations
    let cfg = home.join("configurations.json");
    std::fs::write(
        &cfg,
        r#"[{"cores": 32, "threads_per_core": 1, "frequency": 2500000},
            {"cores": 32, "threads_per_core": 1, "frequency": 2200000},
            {"cores": 16, "threads_per_core": 2, "frequency": 1500000}]"#,
    )
    .unwrap();
    let (ok, out) = chronus(&home, &["benchmark", "/opt/hpcg/bin/xhpcg", "--configurations", cfg.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("3 benchmark(s) complete"), "{out}");

    // a separate process sees the persisted benchmarks and trains
    let (ok, out) = chronus(&home, &["init-model", "--model", "brute-force", "--system", "1"]);
    assert!(ok, "{out}");
    assert!(out.contains("Model 1 saved"), "{out}");

    // stage the model
    let (ok, out) = chronus(&home, &["load-model", "--model", "1"]);
    assert!(ok, "{out}");
    assert!(out.contains("downloaded to"), "{out}");

    // grab the hashes, then predict from yet another process
    let (ok, hashes) = chronus(&home, &["hashes"]);
    assert!(ok, "{hashes}");
    let sys = hashes.lines().next().unwrap().rsplit(' ').next().unwrap().to_string();
    let bin = hashes.lines().nth(1).unwrap().rsplit(' ').next().unwrap().to_string();
    let (ok, json) = chronus(&home, &["slurm-config", &sys, &bin]);
    assert!(ok, "{json}");
    let v: serde_json::Value = serde_json::from_str(json.trim()).expect("plugin-protocol JSON");
    assert_eq!(v["cores"], 32, "{json}");
    assert_eq!(v["frequency"], 2_200_000, "{json}");

    // a bad command exits non-zero
    let (ok, _) = chronus(&home, &["frobnicate"]);
    assert!(!ok);
}

/// The model-store audit surface as separate processes: `chronus models
/// list|show|verify|rollback` against a store directory on disk,
/// including a deliberately corrupted blob that `verify` must catch
/// with a non-zero exit.
#[test]
fn models_cli_audits_and_rolls_back_a_store() {
    use chronusd::store::{ModelBlob, ModelStore, Provenance};
    use eco_sim_node::cpu::CpuConfig;

    let home = std::env::temp_dir().join(format!("eco-clibin-models-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home).unwrap();
    let dir = home.join("store");
    let dir_s = dir.to_str().unwrap().to_string();

    // Two committed generations, written the way a campaign would.
    let blob = |config| ModelBlob {
        model_type: "brute-force".into(),
        system_hash: 10,
        binary_hash: 20,
        config,
        benchmarks: Vec::new(),
    };
    let gen2_hash = {
        let mut store = ModelStore::open_dir(&dir_s).unwrap();
        store
            .commit(
                &blob(CpuConfig::new(32, 2_200_000, 1)),
                1,
                Provenance { campaign: "night-1".into(), ..Provenance::default() },
            )
            .unwrap();
        store
            .commit(
                &blob(CpuConfig::new(16, 1_500_000, 2)),
                2,
                Provenance { campaign: "night-2".into(), ..Provenance::default() },
            )
            .unwrap()
            .blob_hash
    };

    let (ok, out) = chronus(&home, &["models", "list", "--store", &dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("2 commit(s), high-water generation 2, serving generation 2"), "{out}");
    assert!(out.contains("campaign \"night-1\""), "{out}");

    let (ok, out) = chronus(&home, &["models", "show", "2", "--store", &dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("[serving]"), "{out}");
    assert!(out.contains("verified (0 benchmark row(s))"), "{out}");

    let (ok, out) = chronus(&home, &["models", "verify", "--store", &dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("0 issue(s)"), "{out}");

    // Rollback appends to the ledger; the next list shows both the
    // rollback record and the restored serving generation.
    let (ok, out) = chronus(&home, &["models", "rollback", "1", "--store", &dir_s, "--reason", "regression"]);
    assert!(ok, "{out}");
    assert!(out.contains("rolled back to generation 1"), "{out}");
    let (ok, out) = chronus(&home, &["models", "list", "--store", &dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("serving generation 1"), "{out}");
    assert!(out.contains("rollback -> gen 1  (\"regression\")"), "{out}");
    assert!(out.contains("high-water generation 2"), "{out}");

    // Flip one byte in generation 2's blob: verify must name the
    // damaged generation and exit non-zero.
    let blob_path = dir.join("blobs").join(&gen2_hash);
    let mut bytes = std::fs::read(&blob_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&blob_path, bytes).unwrap();
    let (ok, out) = chronus(&home, &["models", "verify", "--store", &dir_s]);
    assert!(!ok, "verify must fail on a corrupt blob: {out}");
    assert!(out.contains("failed verification"), "{out}");

    // But a generation whose blob is intact still shows verified.
    let (ok, out) = chronus(&home, &["models", "show", "1", "--store", &dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("verified"), "{out}");

    let _ = std::fs::remove_dir_all(&home);
}

/// Adaptation lineage on the audit surface: a re-fit committed by the
/// adaptation loop names the generation it superseded, and `show`
/// walks a refit-of-refit chain back to the original campaign.
#[test]
fn models_cli_shows_adaptation_lineage() {
    use chronusd::store::{ModelBlob, ModelStore, Provenance, ProvenanceSource};
    use eco_sim_node::cpu::CpuConfig;

    let home = std::env::temp_dir().join(format!("eco-clibin-lineage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home).unwrap();
    let dir = home.join("store");
    let dir_s = dir.to_str().unwrap().to_string();

    let blob = |config| ModelBlob {
        model_type: "brute-force".into(),
        system_hash: 10,
        binary_hash: 20,
        config,
        benchmarks: Vec::new(),
    };
    {
        let mut store = ModelStore::open_dir(&dir_s).unwrap();
        store
            .commit(
                &blob(CpuConfig::new(32, 2_200_000, 1)),
                1,
                Provenance { campaign: "night-1".into(), ..Provenance::default() },
            )
            .unwrap();
        store
            .commit(
                &blob(CpuConfig::new(32, 1_500_000, 1)),
                2,
                Provenance {
                    campaign: "adapt:night-1".into(),
                    plan: "incremental-refit".into(),
                    source: ProvenanceSource::Adaptation,
                    refit_of: 1,
                    ..Provenance::default()
                },
            )
            .unwrap();
        store
            .commit(
                &blob(CpuConfig::new(32, 1_500_000, 1)),
                3,
                Provenance {
                    campaign: "adapt:night-1".into(),
                    plan: "incremental-refit".into(),
                    source: ProvenanceSource::Adaptation,
                    refit_of: 2,
                    ..Provenance::default()
                },
            )
            .unwrap();
    }

    // list: campaign rows stay unchanged, refits carry their lineage tag
    let (ok, out) = chronus(&home, &["models", "list", "--store", &dir_s]);
    assert!(ok, "{out}");
    let night1 = out.lines().find(|l| l.contains("campaign \"night-1\"")).expect("gen 1 row");
    assert!(!night1.contains("refit"), "{night1}");
    assert!(out.contains("[refit of gen 1]"), "{out}");
    assert!(out.contains("[refit of gen 2]"), "{out}");

    // show: the source line plus the chain back to the campaign
    let (ok, out) = chronus(&home, &["models", "show", "1", "--store", &dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("source:     campaign"), "{out}");
    assert!(!out.contains("lineage:"), "{out}");

    let (ok, out) = chronus(&home, &["models", "show", "3", "--store", &dir_s]);
    assert!(ok, "{out}");
    assert!(out.contains("source:     adaptation"), "{out}");
    assert!(out.contains("lineage:    adaptation refit of gen 2 (originally campaign \"night-1\", gen 1)"), "{out}");

    let _ = std::fs::remove_dir_all(&home);
}

/// `chronus campaign` across processes: a brute-force sweep interrupted
/// after two trials, its journal read back by `status`, and a resume that
/// finishes the sweep from the journal and rolls the rebuilt model into a
/// live daemon.
#[test]
fn campaign_resumes_from_its_journal_and_rolls_out() {
    use chronus::integrations::storage::EtcStorage;
    use chronusd::{PredictServer, ServerConfig, StorageBackend};
    use std::sync::Arc;

    let home = std::env::temp_dir().join(format!("eco-clibin-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&home);
    std::fs::create_dir_all(&home).unwrap();

    let run = ["campaign", "run", "--plan", "brute-force", "--nodes", "4", "--max-trials", "2"];
    let (ok, out) = chronus(&home, &run);
    assert!(ok, "{out}");
    assert!(out.contains("campaign interrupted after 2 trial(s)"), "{out}");

    let (ok, out) = chronus(&home, &["campaign", "status"]);
    assert!(ok, "{out}");
    assert!(out.contains("(plan brute-force, seed 42, 192 configurations)"), "{out}");
    assert!(out.contains("round 0: 2 done, 0 failed"), "{out}");

    // the daemon serves what the resume stages in the same home
    let server = PredictServer::start(
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..ServerConfig::default() },
        Arc::new(StorageBackend::new(Box::new(EtcStorage::new(&home)))),
    )
    .unwrap();
    let addr = server.addr().to_string();
    let (ok, out) = chronus(&home, &["campaign", "resume", "--nodes", "4", "--rollout", &addr]);
    server.shutdown();
    assert!(ok, "{out}");
    assert!(out.contains("1 round(s), 190 trial(s) run, 2 resumed from journal, 0 failed"), "{out}");
    assert!(out.contains("best configuration: 32 cores @ 2.2 GHz, no-HT"), "{out}");
    let rollouts: Vec<&str> = out.lines().filter(|l| l.starts_with("rollout into")).collect();
    assert_eq!(
        rollouts,
        [format!("rollout into {addr}: model 1 committed at generation 1 on 1/1 replica(s)")],
        "{out}"
    );
}
