//! The CSV repository: the paper's second Repository implementation.
//! Three files in a directory — `systems.csv`, `benchmarks.csv`,
//! `models.csv` — with RFC-4180-style quoting, rewritten atomically on
//! every save (datasets here are hundreds of rows, not millions).

use crate::domain::{Benchmark, ModelMetadata, SystemEntry};
use crate::error::{ChronusError, Result};
use crate::integrations::storage::publish;
use crate::interfaces::Repository;
use eco_sim_node::cpu::CpuConfig;
use eco_sim_node::sysinfo::SystemFacts;
use std::path::{Path, PathBuf};

/// The CSV-backed repository.
#[derive(Debug)]
pub struct CsvRepository {
    dir: PathBuf,
    systems: Vec<SystemEntry>,
    benchmarks: Vec<Benchmark>,
    models: Vec<ModelMetadata>,
}

impl CsvRepository {
    /// Opens (or creates) a repository directory.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut repo = CsvRepository { dir, systems: Vec::new(), benchmarks: Vec::new(), models: Vec::new() };
        repo.load()?;
        Ok(repo)
    }

    fn load(&mut self) -> Result<()> {
        self.systems = read_csv(&self.dir.join("systems.csv"))?
            .into_iter()
            .map(|row| parse_system(&row))
            .collect::<Result<_>>()?;
        self.benchmarks = read_csv(&self.dir.join("benchmarks.csv"))?
            .into_iter()
            .map(|row| parse_benchmark(&row))
            .collect::<Result<_>>()?;
        self.models = read_csv(&self.dir.join("models.csv"))?
            .into_iter()
            .map(|row| parse_model(&row))
            .collect::<Result<_>>()?;
        Ok(())
    }

    fn flush_systems(&self) -> Result<()> {
        let rows: Vec<Vec<String>> = self.systems.iter().map(system_row).collect();
        write_csv(&self.dir.join("systems.csv"), SYSTEM_HEADER, &rows)
    }

    fn flush_benchmarks(&self) -> Result<()> {
        let rows: Vec<Vec<String>> = self.benchmarks.iter().map(benchmark_row).collect();
        write_csv(&self.dir.join("benchmarks.csv"), BENCH_HEADER, &rows)
    }

    fn flush_models(&self) -> Result<()> {
        let rows: Vec<Vec<String>> = self.models.iter().map(model_row).collect();
        write_csv(&self.dir.join("models.csv"), MODEL_HEADER, &rows)
    }

    fn next_id(items: impl Iterator<Item = i64>) -> i64 {
        items.max().unwrap_or(0) + 1
    }
}

impl Repository for CsvRepository {
    fn save_system(&mut self, entry: &SystemEntry) -> Result<i64> {
        if let Some(existing) = self.systems.iter().find(|s| s.system_hash == entry.system_hash) {
            return Ok(existing.id);
        }
        let id = Self::next_id(self.systems.iter().map(|s| s.id));
        let mut stored = entry.clone();
        stored.id = id;
        self.systems.push(stored);
        self.flush_systems()?;
        Ok(id)
    }

    fn systems(&self) -> Result<Vec<SystemEntry>> {
        Ok(self.systems.clone())
    }

    fn save_benchmark(&mut self, benchmark: &Benchmark) -> Result<i64> {
        let id = Self::next_id(self.benchmarks.iter().map(|b| b.id));
        let mut stored = benchmark.clone();
        stored.id = id;
        self.benchmarks.push(stored);
        self.flush_benchmarks()?;
        Ok(id)
    }

    fn benchmarks(&self, system_id: i64, binary_hash: u64) -> Result<Vec<Benchmark>> {
        Ok(self
            .benchmarks
            .iter()
            .filter(|b| b.system_id == system_id && b.binary_hash == binary_hash)
            .cloned()
            .collect())
    }

    fn all_benchmarks(&self) -> Result<Vec<Benchmark>> {
        Ok(self.benchmarks.clone())
    }

    fn save_model(&mut self, meta: &ModelMetadata) -> Result<i64> {
        let id = Self::next_id(self.models.iter().map(|m| m.id));
        let mut stored = meta.clone();
        stored.id = id;
        self.models.push(stored);
        self.flush_models()?;
        Ok(id)
    }

    fn models(&self) -> Result<Vec<ModelMetadata>> {
        Ok(self.models.clone())
    }

    fn model(&self, id: i64) -> Result<Option<ModelMetadata>> {
        Ok(self.models.iter().find(|m| m.id == id).cloned())
    }
}

// ---- CSV primitives ----

/// Quotes a field when it contains a separator, quote or newline.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Splits one CSV line honouring quoted fields with doubled quotes.
fn csv_split(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if field.is_empty() => quoted = true,
            ',' if !quoted => {
                out.push(std::mem::take(&mut field));
            }
            c => field.push(c),
        }
    }
    out.push(field);
    out
}

fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) -> Result<()> {
    let mut content = String::from(header);
    content.push('\n');
    for row in rows {
        let line: Vec<String> = row.iter().map(|f| csv_escape(f)).collect();
        content.push_str(&line.join(","));
        content.push('\n');
    }
    Ok(publish(path, content.as_bytes(), false)?)
}

fn read_csv(path: &Path) -> Result<Vec<Vec<String>>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let content = std::fs::read_to_string(path)?;
    Ok(content.lines().skip(1).filter(|l| !l.trim().is_empty()).map(csv_split).collect())
}

// ---- row codecs ----

const SYSTEM_HEADER: &str = "id,system_hash,cpu_name,cores,threads_per_core,frequencies_khz,ram_gb";
const BENCH_HEADER: &str = "id,system_id,binary_hash,cores,frequency_khz,threads_per_core,gflops,runtime_s,avg_system_w,avg_cpu_w,avg_cpu_temp_c,system_energy_j,cpu_energy_j,sample_count";
const MODEL_HEADER: &str = "id,model_type,system_id,binary_hash,blob_path,created_at_ms,train_rows,fit_r2";

fn system_row(s: &SystemEntry) -> Vec<String> {
    let freqs: Vec<String> = s.facts.frequencies_khz.iter().map(|f| f.to_string()).collect();
    vec![
        s.id.to_string(),
        s.system_hash.to_string(),
        s.facts.cpu_name.clone(),
        s.facts.cores.to_string(),
        s.facts.threads_per_core.to_string(),
        freqs.join(" "),
        s.facts.ram_gb.to_string(),
    ]
}

fn field(row: &[String], i: usize) -> Result<&str> {
    row.get(i).map(String::as_str).ok_or_else(|| ChronusError::InvalidInput(format!("csv row missing column {i}")))
}

fn num<T: std::str::FromStr>(row: &[String], i: usize) -> Result<T> {
    let f = field(row, i)?;
    f.parse().map_err(|_| ChronusError::InvalidInput(format!("bad csv value '{f}' in column {i}")))
}

fn parse_system(row: &[String]) -> Result<SystemEntry> {
    let freqs = field(row, 5)?
        .split_whitespace()
        .map(|f| f.parse().map_err(|_| ChronusError::InvalidInput(format!("bad frequency '{f}'"))))
        .collect::<Result<Vec<u64>>>()?;
    Ok(SystemEntry {
        id: num(row, 0)?,
        system_hash: num(row, 1)?,
        facts: SystemFacts {
            cpu_name: field(row, 2)?.to_string(),
            cores: num(row, 3)?,
            threads_per_core: num(row, 4)?,
            frequencies_khz: freqs,
            ram_gb: num(row, 6)?,
        },
    })
}

fn benchmark_row(b: &Benchmark) -> Vec<String> {
    vec![
        b.id.to_string(),
        b.system_id.to_string(),
        b.binary_hash.to_string(),
        b.config.cores.to_string(),
        b.config.frequency_khz.to_string(),
        b.config.threads_per_core.to_string(),
        b.gflops.to_string(),
        b.runtime_s.to_string(),
        b.avg_system_w.to_string(),
        b.avg_cpu_w.to_string(),
        b.avg_cpu_temp_c.to_string(),
        b.system_energy_j.to_string(),
        b.cpu_energy_j.to_string(),
        b.sample_count.to_string(),
    ]
}

fn parse_benchmark(row: &[String]) -> Result<Benchmark> {
    Ok(Benchmark {
        id: num(row, 0)?,
        system_id: num(row, 1)?,
        binary_hash: num(row, 2)?,
        config: CpuConfig::new(num(row, 3)?, num(row, 4)?, num(row, 5)?),
        gflops: num(row, 6)?,
        runtime_s: num(row, 7)?,
        avg_system_w: num(row, 8)?,
        avg_cpu_w: num(row, 9)?,
        avg_cpu_temp_c: num(row, 10)?,
        system_energy_j: num(row, 11)?,
        cpu_energy_j: num(row, 12)?,
        sample_count: num(row, 13)?,
    })
}

fn model_row(m: &ModelMetadata) -> Vec<String> {
    vec![
        m.id.to_string(),
        m.model_type.clone(),
        m.system_id.to_string(),
        m.binary_hash.to_string(),
        m.blob_path.clone(),
        m.created_at_ms.to_string(),
        m.train_rows.to_string(),
        m.fit_r2.to_string(),
    ]
}

fn parse_model(row: &[String]) -> Result<ModelMetadata> {
    Ok(ModelMetadata {
        id: num(row, 0)?,
        model_type: field(row, 1)?.to_string(),
        system_id: num(row, 2)?,
        binary_hash: num(row, 3)?,
        blob_path: field(row, 4)?.to_string(),
        created_at_ms: num(row, 5)?,
        train_rows: num(row, 6)?,
        fit_r2: num(row, 7)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eco-csvrepo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn facts() -> SystemFacts {
        SystemFacts {
            cpu_name: "AMD EPYC 7502P 32-Core Processor".into(),
            cores: 32,
            threads_per_core: 2,
            frequencies_khz: vec![1_500_000, 2_200_000, 2_500_000],
            ram_gb: 256,
        }
    }

    fn bench(system_id: i64) -> Benchmark {
        Benchmark {
            id: -1,
            system_id,
            binary_hash: 7,
            config: CpuConfig::new(32, 2_200_000, 2),
            gflops: 9.26,
            runtime_s: 1127.0,
            avg_system_w: 190.1,
            avg_cpu_w: 97.4,
            avg_cpu_temp_c: 53.8,
            system_energy_j: 214_400.0,
            cpu_energy_j: 109_800.0,
            sample_count: 563,
        }
    }

    #[test]
    fn csv_quoting_roundtrip() {
        for s in ["plain", "with,comma", "with \"quotes\"", "both,\",\""] {
            let esc = csv_escape(s);
            let back = csv_split(&esc);
            assert_eq!(back, vec![s.to_string()], "via {esc}");
        }
    }

    #[test]
    fn csv_split_multiple_fields() {
        assert_eq!(csv_split("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(csv_split("a,\"b,c\",d"), vec!["a", "b,c", "d"]);
        assert_eq!(csv_split(""), vec![""]);
        assert_eq!(csv_split("a,,c"), vec!["a", "", "c"]);
    }

    #[test]
    fn save_and_reload_all_tables() {
        let dir = tmpdir("roundtrip");
        let (sys_id, bench_id, model_id);
        {
            let mut repo = CsvRepository::open(&dir).unwrap();
            sys_id = repo.save_system(&SystemEntry { id: -1, facts: facts(), system_hash: 555 }).unwrap();
            bench_id = repo.save_benchmark(&bench(sys_id)).unwrap();
            model_id = repo
                .save_model(&ModelMetadata {
                    id: -1,
                    model_type: "random-tree".into(),
                    system_id: sys_id,
                    binary_hash: 7,
                    blob_path: "m/1.json".into(),
                    created_at_ms: 42,
                    train_rows: 138,
                    fit_r2: 0.98,
                })
                .unwrap();
        }
        let repo = CsvRepository::open(&dir).unwrap();
        let systems = repo.systems().unwrap();
        assert_eq!(systems.len(), 1);
        assert_eq!(systems[0].id, sys_id);
        assert_eq!(systems[0].facts, facts());
        let benches = repo.benchmarks(sys_id, 7).unwrap();
        assert_eq!(benches.len(), 1);
        assert_eq!(benches[0].id, bench_id);
        assert!((benches[0].gflops - 9.26).abs() < 1e-12);
        assert_eq!(benches[0].config, CpuConfig::new(32, 2_200_000, 2));
        let model = repo.model(model_id).unwrap().unwrap();
        assert_eq!(model.model_type, "random-tree");
    }

    #[test]
    fn system_dedup_by_hash() {
        let dir = tmpdir("dedup");
        let mut repo = CsvRepository::open(&dir).unwrap();
        let e = SystemEntry { id: -1, facts: facts(), system_hash: 1 };
        let a = repo.save_system(&e).unwrap();
        let b = repo.save_system(&e).unwrap();
        assert_eq!(a, b);
        assert_eq!(repo.systems().unwrap().len(), 1);
    }

    #[test]
    fn ids_increment() {
        let dir = tmpdir("ids");
        let mut repo = CsvRepository::open(&dir).unwrap();
        let a = repo.save_benchmark(&bench(1)).unwrap();
        let b = repo.save_benchmark(&bench(1)).unwrap();
        assert_eq!(b, a + 1);
    }

    #[test]
    fn empty_repo_reads_cleanly() {
        let dir = tmpdir("empty");
        let repo = CsvRepository::open(&dir).unwrap();
        assert!(repo.systems().unwrap().is_empty());
        assert!(repo.all_benchmarks().unwrap().is_empty());
        assert!(repo.models().unwrap().is_empty());
        assert!(repo.model(1).unwrap().is_none());
    }

    #[test]
    fn files_are_human_readable() {
        let dir = tmpdir("readable");
        let mut repo = CsvRepository::open(&dir).unwrap();
        repo.save_benchmark(&bench(1)).unwrap();
        let content = std::fs::read_to_string(dir.join("benchmarks.csv")).unwrap();
        assert!(content.starts_with("id,system_id,binary_hash,cores,frequency_khz"), "{content}");
        assert!(content.lines().count() == 2);
    }
}
