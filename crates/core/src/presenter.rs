//! The presenter layer — maps application data to what the CLI prints and
//! what `job_submit_eco` consumes (the paper's green ring in Figure 11).

use crate::domain::{Benchmark, ModelMetadata, SystemEntry};
use crate::remote::StatsSnapshot;
use eco_sim_node::cpu::CpuConfig;
use serde_json::json;

/// Renders a configuration as the JSON `slurm-config` returns to the eco
/// plugin — exactly the paper's §3.3 shape:
/// `{"cores": 32, "threads_per_core": 2, "frequency": 2200000}`.
pub fn config_json(config: &CpuConfig) -> String {
    json!({
        "cores": config.cores,
        "threads_per_core": config.threads_per_core,
        "frequency": config.frequency_khz,
    })
    .to_string()
}

/// Parses a configuration from the plugin-protocol JSON.
pub fn config_from_json(s: &str) -> Result<CpuConfig, serde_json::Error> {
    serde_json::from_str(s)
}

/// Parses the `--configurations` file: a JSON array of configurations
/// (the paper's §3.3 example).
pub fn configs_from_json(s: &str) -> Result<Vec<CpuConfig>, serde_json::Error> {
    serde_json::from_str(s)
}

/// Renders the "Available Systems" listing `init-model` shows when no
/// system id is given (paper Figure 8).
pub fn systems_table(systems: &[SystemEntry]) -> String {
    let mut out =
        String::from("Available Systems\nID   CPU                                      Cores  Threads/core  RAM\n");
    for s in systems {
        out.push_str(&format!(
            "{:<4} {:<40} {:<6} {:<13} {} GB\n",
            s.id, s.facts.cpu_name, s.facts.cores, s.facts.threads_per_core, s.facts.ram_gb
        ));
    }
    out.push_str("Specify the system id with --system <id>\n");
    out
}

/// Renders the "Available Models" listing `load-model` shows when no
/// model id is given (paper Figure 9).
pub fn models_table(models: &[ModelMetadata]) -> String {
    let mut out = String::from("Available Models\nID   Type               System  Rows  R2      Blob\n");
    for m in models {
        out.push_str(&format!(
            "{:<4} {:<18} {:<7} {:<5} {:<7.4} {}\n",
            m.id, m.model_type, m.system_id, m.train_rows, m.fit_r2, m.blob_path
        ));
    }
    out.push_str("Specify the model id with --model <id>\n");
    out
}

/// Renders a benchmark sweep as a GFLOPS/W table in the paper's
/// Tables 4–6 format.
pub fn benchmarks_table(benchmarks: &[Benchmark]) -> String {
    let mut rows: Vec<&Benchmark> = benchmarks.iter().collect();
    rows.sort_by(|a, b| b.gflops_per_watt().partial_cmp(&a.gflops_per_watt()).expect("finite gpw"));
    let mut out = String::from("Cores  GHz  GFLOPS p/ watt  Hyper-thread\n");
    for b in rows {
        out.push_str(&format!(
            "{:<6} {:<4.1} {:<15.6} {}\n",
            b.config.cores,
            b.config.ghz(),
            b.gflops_per_watt(),
            if b.config.hyper_threading() { "True" } else { "False" }
        ));
    }
    out
}

/// Renders a daemon counters snapshot for `chronus stats`: the request
/// mix, cache behaviour, connection gauges and the service-latency
/// percentiles the telemetry histogram tracks.
pub fn stats_table(s: &StatsSnapshot) -> String {
    let hit_rate = if s.predictions > 0 { 100.0 * s.cache_hits as f64 / s.predictions as f64 } else { 0.0 };
    let avg_batch = if s.batches > 0 { s.batched_keys as f64 / s.batches as f64 } else { 0.0 };
    let title = if s.replica.is_empty() {
        "chronusd statistics".to_string()
    } else {
        format!("chronusd statistics (replica {})", s.replica)
    };
    // every daemon serves a store and names it; a snapshot without one
    // came from a daemon that predates stores
    let store = if s.store_dir.is_empty() {
        "not reported (a daemon that predates stores)".to_string()
    } else {
        format!("{} (generation {}, {} catch-ups)", s.store_dir, s.store_generation, s.store_catchups)
    };
    // per-node-class serving counts: a line only when the daemon's store
    // reports classes, so pre-class daemons render byte-identically
    let classes = if s.models_by_class.is_empty() {
        String::new()
    } else {
        let mix = s.models_by_class.iter().map(|(c, n)| format!("{c}={n}")).collect::<Vec<_>>().join(", ");
        format!("model classes       {mix}\n")
    };
    // the outcome block renders only once the daemon has measured an
    // outcome, so a daemon nobody reports to prints none; refits and
    // canary verdicts are the store ledger's (`chronus models`)
    let adapt_active =
        s.outcomes_ingested + s.outcomes_rejected + s.outcome_reservoirs + s.drift_trips + s.drift_clears > 0;
    let adapt = if adapt_active {
        format!(
            "outcomes            {} ingested / {} rejected, {} reservoir(s)\n\
             drift               {} trip(s) / {} clear(s), worst score {:.3}\n",
            s.outcomes_ingested,
            s.outcomes_rejected,
            s.outcome_reservoirs,
            s.drift_trips,
            s.drift_clears,
            s.drift_score_milli as f64 / 1_000.0,
        )
    } else {
        String::new()
    };
    format!(
        "{title}\n\
         requests            {}\n\
         predictions         {} ({} hits / {} misses, {hit_rate:.1}% hit rate)\n\
         batched             {} keys over {} PredictMany frames (avg {avg_batch:.1} keys/frame)\n\
         busy rejections     {}\n\
         deadline exceeded   {}\n\
         errors              {}\n\
         connections         {}/{} open\n\
         models resident     {}\n\
         model generation    {}\n\
         store               {store}\n\
         {classes}{adapt}service latency     p50 {}us  p99 {}us  max {}us\n",
        s.requests_total,
        s.predictions,
        s.cache_hits,
        s.cache_misses,
        s.batched_keys,
        s.batches,
        s.busy_rejections,
        s.deadline_exceeded,
        s.errors,
        s.connections,
        s.max_connections,
        s.models_resident,
        s.model_generation,
        s.latency_p50_us,
        s.latency_p99_us,
        s.latency_max_us,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_sim_node::sysinfo::SystemFacts;

    #[test]
    fn config_json_matches_paper_shape() {
        let c = CpuConfig::new(32, 2_200_000, 2);
        let json = config_json(&c);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["cores"], 32);
        assert_eq!(v["threads_per_core"], 2);
        assert_eq!(v["frequency"], 2_200_000);
    }

    #[test]
    fn config_json_roundtrip() {
        let c = CpuConfig::new(16, 1_500_000, 1);
        assert_eq!(config_from_json(&config_json(&c)).unwrap(), c);
    }

    #[test]
    fn configs_from_json_parses_paper_example() {
        // the paper's §3.3 configuration file
        let s = r#"[
            {"cores": 32, "threads_per_core": 2, "frequency": 2200000}
        ]"#;
        let v = configs_from_json(s).unwrap();
        assert_eq!(v, vec![CpuConfig::new(32, 2_200_000, 2)]);
        assert!(configs_from_json("not json").is_err());
    }

    #[test]
    fn tables_render() {
        let systems = vec![SystemEntry {
            id: 1,
            facts: SystemFacts {
                cpu_name: "AMD EPYC 7502P 32-Core Processor".into(),
                cores: 32,
                threads_per_core: 2,
                frequencies_khz: vec![1_500_000],
                ram_gb: 256,
            },
            system_hash: 5,
        }];
        let t = systems_table(&systems);
        assert!(t.contains("Available Systems"));
        assert!(t.contains("EPYC 7502P"));
        assert!(t.contains("--system <id>"));

        let models = vec![ModelMetadata {
            id: 3,
            model_type: "random-tree".into(),
            system_id: 1,
            binary_hash: 9,
            blob_path: "models/x.json".into(),
            created_at_ms: 0,
            train_rows: 138,
            fit_r2: 0.98,
        }];
        let t = models_table(&models);
        assert!(t.contains("Available Models"));
        assert!(t.contains("random-tree"));
        assert!(t.contains("--model <id>"));
    }

    #[test]
    fn stats_table_shows_counters_and_percentiles() {
        let snap = StatsSnapshot {
            requests_total: 10,
            predictions: 8,
            cache_hits: 6,
            cache_misses: 2,
            latency_p50_us: 4,
            latency_p99_us: 128,
            latency_max_us: 250,
            connections: 2,
            max_connections: 64,
            models_resident: 1,
            model_generation: 3,
            batches: 2,
            batched_keys: 6,
            ..StatsSnapshot::default()
        };
        let t = stats_table(&snap);
        assert!(t.contains("predictions         8 (6 hits / 2 misses, 75.0% hit rate)"), "{t}");
        assert!(t.contains("batched             6 keys over 2 PredictMany frames (avg 3.0 keys/frame)"), "{t}");
        assert!(t.contains("model generation    3\n"), "{t}");
        assert!(t.contains("connections         2/64 open\n"), "{t}");
        assert!(t.contains("p50 4us  p99 128us  max 250us"), "{t}");
        // a snapshot that names no store renders as one from a daemon that predates stores
        assert!(t.contains("store               not reported (a daemon that predates stores)\n"), "{t}");
        // empty snapshot must not divide by zero
        assert!(stats_table(&StatsSnapshot::default()).contains("0.0% hit rate"));
    }

    #[test]
    fn stats_table_shows_outcomes_only_when_reported() {
        // a daemon nobody reported an outcome to renders no outcome block
        let quiet = stats_table(&StatsSnapshot::default());
        assert!(!quiet.contains("outcomes"), "{quiet}");
        assert!(!quiet.contains("drift"), "{quiet}");

        let snap = StatsSnapshot {
            outcomes_ingested: 40,
            outcomes_rejected: 2,
            outcome_reservoirs: 3,
            drift_score_milli: 180,
            drift_trips: 1,
            drift_clears: 1,
            ..StatsSnapshot::default()
        };
        let t = stats_table(&snap);
        assert!(t.contains("outcomes            40 ingested / 2 rejected, 3 reservoir(s)"), "{t}");
        assert!(t.contains("drift               1 trip(s) / 1 clear(s), worst score 0.180"), "{t}");
    }

    #[test]
    fn stats_table_reports_store_status_per_replica() {
        let snap = StatsSnapshot {
            replica: "r1".into(),
            store_dir: "/var/lib/chronus/store".into(),
            store_generation: 4,
            store_catchups: 2,
            ..StatsSnapshot::default()
        };
        let t = stats_table(&snap);
        assert!(t.contains("chronusd statistics (replica r1)"), "{t}");
        assert!(t.contains("store               /var/lib/chronus/store (generation 4, 2 catch-ups)"), "{t}");
        assert!(!t.contains("model classes"), "no classes reported, no line: {t}");
    }

    #[test]
    fn stats_table_lists_models_by_class_when_reported() {
        let snap = StatsSnapshot {
            models_by_class: vec![("default".into(), 2), ("dense64".into(), 3)],
            ..StatsSnapshot::default()
        };
        let t = stats_table(&snap);
        assert!(t.contains("model classes       default=2, dense64=3"), "{t}");
    }

    #[test]
    fn benchmarks_table_sorted_descending() {
        let mk = |cores: u32, gflops: f64| Benchmark {
            id: -1,
            system_id: 1,
            binary_hash: 1,
            config: CpuConfig::new(cores, 2_200_000, 1),
            gflops,
            runtime_s: 10.0,
            avg_system_w: 100.0,
            avg_cpu_w: 50.0,
            avg_cpu_temp_c: 50.0,
            system_energy_j: 1000.0,
            cpu_energy_j: 500.0,
            sample_count: 5,
        };
        let t = benchmarks_table(&[mk(8, 2.0), mk(32, 9.0)]);
        let first_data_line = t.lines().nth(1).unwrap();
        assert!(first_data_line.starts_with("32"), "{t}");
    }
}
