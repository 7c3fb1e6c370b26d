//! The seeded input generator. Everything the program under test sees —
//! batch scripts, the order keys are asked for, job traces, benchmark
//! rows, outcome feeds — is made here from `--seed`, so the same seed
//! gives byte-identical inputs and the program receives only generated
//! inputs, never the seed or the workload's name.

use std::sync::Arc;

use chronus::domain::Benchmark;
use chronus::hash::{binary_hash, classed_system_hash, system_hash};
use chronus::ObservedOutcome;
use eco_hpcg::paper_data::GFLOPS_PER_WATT;
use eco_hpcg::workload::{ScalingKind, SyntheticWorkload, Workload};
use eco_sim_node::class::NodeClass;
use eco_sim_node::cpu::CpuConfig;

/// Prediction keys (binary × node class) every workload fits, commits
/// and serves.
pub const KEYS: usize = 64;

/// Install paths registered with the plugin. With four classes this
/// makes the 512-key prefetch batch the issue asks for.
pub const INSTALLS: usize = 128;

/// Submissions between two untimed drains on the daemon workloads. Each
/// segment draws distinct keys, so no partition is asked for more nodes
/// than it has and every job starts at once.
pub const SEGMENT: usize = 32;

/// Jobs in one `sched-deep` trace.
pub const TRACE_JOBS: usize = 256;

/// Opted-in jobs in one `sched-deep` trace: few enough (3 %) that the
/// round's p95 submit latency is a scheduler pass, not the staged-model
/// read the paper's local path performs per opted-in submission.
pub const TRACE_OPT_INS: usize = 8;

/// Outcomes fed back before each refit.
pub const OUTCOMES_PER_REFRESH: usize = 32;

/// SplitMix64: tiny, seedable, and owned by the benchmark so a change to
/// the vendored `rand` shim can never change the generated inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed, so adding a stream
    /// never shifts the numbers another stream draws.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0). The modulo bias is below 2^-50 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One distinct executable: its name and the contents the plugin hashes.
#[derive(Debug, Clone)]
pub struct Binary {
    pub name: String,
    pub contents: String,
}

/// The static part of a workload's world: node classes (one partition
/// each), executables and their install paths. It does not depend on the
/// seed — the seed decides what is asked of it, in which order.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Node classes; partition `i` is named after class `i`.
    pub classes: Vec<NodeClass>,
    /// Nodes per class.
    pub nodes_per_class: usize,
    /// Distinct executables; `classes.len() * binaries.len() == KEYS`.
    pub binaries: Vec<Binary>,
    /// `(install path, binary index)`: several byte-identical installs
    /// (module versions, per-project copies) of each executable.
    pub installs: Vec<(String, usize)>,
}

impl Catalog {
    /// Four classes × 16 executables: the daemon workloads. 16 nodes per
    /// class, so a 32-job segment of distinct keys always starts at once.
    pub fn four_class() -> Catalog {
        let mut big_mem = NodeClass::sr650();
        big_mem.name = "sr650-hm".to_string();
        big_mem.ram_gb = 512;
        let mut low_power = NodeClass::dense64();
        low_power.name = "dense64-lp".to_string();
        low_power.power.platform_w = 84.0;
        Catalog::over(vec![NodeClass::sr650(), NodeClass::dense64(), big_mem, low_power], 16)
    }

    /// Two classes × 32 executables: `sched-deep`'s 8 + 8 node cluster.
    pub fn two_class() -> Catalog {
        Catalog::over(vec![NodeClass::sr650(), NodeClass::dense64()], 8)
    }

    fn over(classes: Vec<NodeClass>, nodes_per_class: usize) -> Catalog {
        let n_bin = KEYS / classes.len();
        let binaries: Vec<Binary> = (0..n_bin)
            .map(|i| Binary {
                name: format!("app{i:02}"),
                contents: format!("ELF app{i:02} build 2023.{:02} -O3 -march=znver2", i + 1),
            })
            .collect();
        let copies = INSTALLS / n_bin;
        let installs = (0..INSTALLS)
            .map(|i| {
                let b = i % n_bin;
                (format!("/opt/apps/{}/v{}/bin/{}", binaries[b].name, 1 + i / n_bin % copies, binaries[b].name), b)
            })
            .collect();
        Catalog { classes, nodes_per_class, binaries, installs }
    }

    /// The system hash of the head node the plugin is loaded on (class 0).
    pub fn head_system_hash(&self) -> u64 {
        system_hash(&self.classes[0].spec, self.classes[0].ram_gb)
    }

    /// Key index of `(class, binary)`.
    pub fn key_index(&self, class: usize, binary: usize) -> usize {
        class * self.binaries.len() + binary
    }

    /// The `(class, binary)` indices of key index `k`.
    pub fn key_parts(&self, k: usize) -> (usize, usize) {
        (k / self.binaries.len(), k % self.binaries.len())
    }

    /// The `(classed system hash, binary hash)` pair the pipeline keys
    /// on, for key index `k`.
    pub fn key(&self, k: usize) -> (u64, u64) {
        let (class, binary) = self.key_parts(k);
        (
            classed_system_hash(self.head_system_hash(), &self.classes[class].name),
            binary_hash(&self.binaries[binary].contents),
        )
    }

    /// The node class name of key `k`.
    pub fn key_class(&self, k: usize) -> &str {
        &self.classes[self.key_parts(k).0].name
    }
}

/// The paper's 138 measured configurations, in Appendix A order: the
/// candidate list every fit chooses among.
pub fn candidates() -> Vec<CpuConfig> {
    GFLOPS_PER_WATT
        .iter()
        .map(|&(cores, ghz, _, ht)| CpuConfig::new(cores, (ghz * 1e6).round() as u64, if ht { 2 } else { 1 }))
        .collect()
}

/// Benchmark rows for key `k`: the paper's sweep with a seeded
/// per-key perturbation of up to ±15 % in efficiency, so the optimum
/// differs from key to key and from seed to seed.
pub fn benchmark_rows(seed: u64, k: usize, binary_hash: u64) -> Vec<Benchmark> {
    let mut rng = Rng::stream(seed, 0x10_0000 + k as u64);
    GFLOPS_PER_WATT
        .iter()
        .zip(candidates())
        .enumerate()
        .map(|(i, (&(cores, ghz, gpw, _), config))| {
            let watts = 95.0 + 3.1 * cores as f64 * ghz;
            let gflops = gpw * (0.85 + 0.30 * rng.unit()) * watts;
            let runtime_s = 4000.0 / gflops.max(0.1);
            Benchmark {
                id: 1 + i as i64,
                system_id: 1,
                binary_hash,
                config,
                gflops,
                runtime_s,
                avg_system_w: watts,
                avg_cpu_w: watts * 0.62,
                avg_cpu_temp_c: 40.0 + 0.5 * cores as f64,
                system_energy_j: watts * runtime_s,
                cpu_energy_j: watts * 0.62 * runtime_s,
                sample_count: (runtime_s / 2.0) as usize,
            }
        })
        .collect()
}

/// One batch script. `opt_in` adds the paper's `--comment "chronus"`.
pub fn script(partition: &str, path: &str, ntasks: u32, user_tag: &str, opt_in: bool) -> String {
    let comment = if opt_in { "#SBATCH --comment \"chronus\"\n" } else { "" };
    format!(
        "#!/bin/bash\n#SBATCH --job-name={user_tag}\n#SBATCH --partition={partition}\n#SBATCH --nodes=1\n\
         #SBATCH --ntasks={ntasks}\n{comment}\nsrun --mpi=pmix_v4 {path}\n"
    )
}

/// A pre-rendered script and the key an opted-in submission of it asks
/// the model for.
#[derive(Debug, Clone)]
pub struct Script {
    pub text: String,
    pub key: usize,
}

/// Every `(class, install)` script of the daemon workloads, all opted in.
/// Script `c * INSTALLS + i` runs install `i` on class `c`.
pub fn daemon_scripts(catalog: &Catalog) -> Vec<Script> {
    let mut out = Vec::with_capacity(catalog.classes.len() * INSTALLS);
    for (c, class) in catalog.classes.iter().enumerate() {
        for (path, b) in &catalog.installs {
            out.push(Script {
                text: script(&class.name, path, class.spec.cores, &catalog.binaries[*b].name, true),
                key: catalog.key_index(c, *b),
            });
        }
    }
    out
}

/// The order scripts are submitted in: an endless seeded stream of
/// [`SEGMENT`]-sized blocks, each over distinct keys.
pub struct SubmitStream {
    rng: Rng,
    keys: Vec<usize>,
    n_bin: usize,
    copies: usize,
}

impl SubmitStream {
    pub fn new(seed: u64, catalog: &Catalog) -> SubmitStream {
        let n_bin = catalog.binaries.len();
        SubmitStream { rng: Rng::stream(seed, 0x20_0000), keys: (0..KEYS).collect(), n_bin, copies: INSTALLS / n_bin }
    }

    /// Fills `out` with the script indices of the next segment.
    pub fn next_segment(&mut self, out: &mut [usize; SEGMENT]) {
        self.rng.shuffle(&mut self.keys);
        for (slot, &k) in out.iter_mut().zip(&self.keys) {
            let (class, binary) = (k / self.n_bin, k % self.n_bin);
            let install = binary + self.n_bin * self.rng.below(self.copies);
            *slot = class * INSTALLS + install;
        }
    }
}

/// One job of a `sched-deep` trace.
#[derive(Debug, Clone)]
pub struct TraceJob {
    pub script: String,
    pub user: &'static str,
    /// The key the plugin must rewrite this job from, when it opted in.
    pub opted_in_key: Option<usize>,
}

/// The key `sched-deep` stages to local storage: the paper's staged path
/// holds one model, so only jobs of this key opt in.
pub const STAGED_KEY: usize = 0;

/// A [`TRACE_JOBS`]-job burst over both partitions. What is in a trace
/// and the order it arrives in are fixed — every (class, size,
/// executable, user) combination in turn, a third of the executables
/// memory-bound so packing has complementary pairs to find,
/// [`TRACE_OPT_INS`] opted-in jobs of the staged key, shuffled once with
/// a constant — and the seed decides only which install of its
/// executable each job runs. Arrival order alone moves the scheduler's
/// cost per pass by a factor of two, so a trace whose order followed the
/// seed would make the reading depend on the seed more than on the code;
/// this way every round of every seed asks the scheduler for the same
/// work, and a difference between two timings is noise, not input.
pub fn sched_trace(seed: u64, catalog: &Catalog) -> Vec<TraceJob> {
    let mut rng = Rng::stream(seed, 0x30_0000);
    let n_bin = catalog.binaries.len();
    let mut jobs: Vec<TraceJob> = (0..TRACE_JOBS)
        .map(|j| {
            let opted_in = j < TRACE_OPT_INS;
            let (class, binary) = if opted_in {
                (STAGED_KEY / n_bin, STAGED_KEY % n_bin)
            } else {
                (j % catalog.classes.len(), j * 7 % n_bin)
            };
            let install = binary + n_bin * rng.below(INSTALLS / n_bin);
            let cores = catalog.classes[class].spec.cores;
            let ntasks = [cores / 4, cores / 2, cores][j / 2 % 3];
            TraceJob {
                script: script(
                    &catalog.classes[class].name,
                    &catalog.installs[install].0,
                    ntasks,
                    &format!("{}-{j}", catalog.binaries[binary].name),
                    opted_in,
                ),
                user: ["alice", "bob", "carol"][j / 6 % 3],
                opted_in_key: opted_in.then_some(catalog.key_index(class, binary)),
            }
        })
        .collect();
    Rng::stream(0x0a55_1bed, 0x30_0001).shuffle(&mut jobs);
    jobs
}

/// What executable `binary` does when a job runs it. The daemon
/// workloads give every job a millisecond of work (they measure the
/// submit path; the job must only vacate its node before the next
/// segment); `sched-deep` gives jobs tens of simulated seconds so the
/// queue stays deep while it drains.
pub fn job_workload(binary: usize, deep: bool) -> Arc<dyn Workload> {
    if !deep {
        return Arc::new(SyntheticWorkload::new("quick", ScalingKind::ComputeBound, 0.001, 1.0));
    }
    let nominal_s = [12.0, 18.0, 27.0, 36.0][binary / 3 % 4];
    if binary % 3 == 2 {
        Arc::new(SyntheticWorkload::new("stream", ScalingKind::MemoryBound, 6.7 * nominal_s, 1.0))
    } else {
        Arc::new(SyntheticWorkload::new("dgemm", ScalingKind::ComputeBound, 32.0 * nominal_s, 1.0))
    }
}

/// The two regions of the grid an outcome feed reports on: many cores at
/// the lowest clock, and half the cores at the highest.
const REGIONS: [(&[u32], u64); 2] = [(&[27, 28, 30, 32], 1_500_000), (&[14, 15, 16, 18], 2_500_000)];

/// The [`OUTCOMES_PER_REFRESH`] production outcomes fed back before the
/// `nth` refit (0-based) of key `k`, whose serving optimum is `current`:
/// two reports at each of sixteen configurations, eight per region. The
/// region `current` sits in reports a degraded efficiency, the other a
/// clearly better one — production drifted, and the optimum moved. Fresh
/// rows supersede stored ones per configuration, so every refit moves
/// the key's optimum to the other region, which is how a run can tell
/// that a submission was served by the new generation.
pub fn outcome_feed(seed: u64, k: usize, nth: usize, class: &str, current: &CpuConfig) -> Vec<ObservedOutcome> {
    let mut rng = Rng::stream(seed, 0x40_0000 + ((k as u64) << 20) + nth as u64);
    let target = if current.frequency_khz == REGIONS[0].1 { 1 } else { 0 };
    (0..OUTCOMES_PER_REFRESH)
        .map(|i| {
            let region = i / 8 % 2;
            let (cores, khz) = REGIONS[region];
            let config = CpuConfig::new(cores[i % 4], khz, 1 + (i / 4 % 2) as u32);
            let watts = 140.0 + 2.0 * config.cores as f64 + 4.0 * rng.unit();
            // the first configuration of the target region is the clear winner
            let gpw = match (region == target, i % 8 == 0) {
                (true, true) => 0.115,
                (true, false) => 0.100,
                (false, _) => 0.020,
            };
            ObservedOutcome {
                config,
                gflops: gpw * (0.99 + 0.02 * rng.unit()) * watts,
                watts,
                duration_s: 60.0 + 30.0 * rng.unit(),
                node_class: class.to_string(),
            }
        })
        .collect()
}

/// Which key each refresh cycle of a run refits, in order.
pub struct RefreshOrder {
    rng: Rng,
}

impl RefreshOrder {
    pub fn new(seed: u64) -> RefreshOrder {
        RefreshOrder { rng: Rng::stream(seed, 0x50_0000) }
    }

    pub fn next(&mut self) -> usize {
        self.rng.below(KEYS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let cat = Catalog::four_class();
        let deep = Catalog::two_class();
        for seed in [0u64, 1, 42, u64::MAX] {
            let (mut a, mut b) = (SubmitStream::new(seed, &cat), SubmitStream::new(seed, &cat));
            let (mut sa, mut sb) = ([0usize; SEGMENT], [0usize; SEGMENT]);
            for _ in 0..50 {
                a.next_segment(&mut sa);
                b.next_segment(&mut sb);
                assert_eq!(sa, sb);
            }
            let (ta, tb) = (sched_trace(seed, &deep), sched_trace(seed, &deep));
            assert_eq!(ta.len(), TRACE_JOBS);
            for (x, y) in ta.iter().zip(&tb) {
                assert_eq!(x.script.as_bytes(), y.script.as_bytes());
                assert_eq!((x.user, x.opted_in_key), (y.user, y.opted_in_key));
            }
            let at = CpuConfig::new(32, 2_200_000, 1);
            assert_eq!(outcome_feed(seed, 3, 1, "sr650", &at), outcome_feed(seed, 3, 1, "sr650", &at));
            assert_eq!(benchmark_rows(seed, 5, 9), benchmark_rows(seed, 5, 9));
            let (mut ra, mut rb) = (RefreshOrder::new(seed), RefreshOrder::new(seed));
            assert_eq!(
                (0..200).map(|_| ra.next()).collect::<Vec<_>>(),
                (0..200).map(|_| rb.next()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn different_seed_gives_a_different_key_order() {
        let cat = Catalog::four_class();
        let order = |seed| {
            let mut s = SubmitStream::new(seed, &cat);
            let mut seg = [0usize; SEGMENT];
            s.next_segment(&mut seg);
            seg
        };
        assert_ne!(order(1), order(2));
        let installs =
            |seed| sched_trace(seed, &Catalog::two_class()).into_iter().map(|j| j.script).collect::<Vec<_>>();
        assert_ne!(installs(1), installs(2), "the seed picks the installs");
        assert_ne!(benchmark_rows(1, 0, 9), benchmark_rows(2, 0, 9));
    }

    #[test]
    fn scripts_do_not_depend_on_the_seed_and_cover_512_prefetch_keys() {
        let cat = Catalog::four_class();
        let scripts = daemon_scripts(&cat);
        assert_eq!(scripts.len(), 512, "4 classes x 128 installs: the issue's 512-key prefetch batch");
        let distinct: std::collections::BTreeSet<usize> = scripts.iter().map(|s| s.key).collect();
        assert_eq!(distinct.len(), KEYS);
        assert!(scripts.iter().all(|s| s.text.contains("--comment \"chronus\"")));
        let keys: std::collections::BTreeSet<(u64, u64)> = (0..KEYS).map(|k| cat.key(k)).collect();
        assert_eq!(keys.len(), KEYS, "the 64 keys hash apart");
    }

    #[test]
    fn every_segment_fits_its_partitions() {
        let cat = Catalog::four_class();
        let mut stream = SubmitStream::new(7, &cat);
        let mut seg = [0usize; SEGMENT];
        for _ in 0..200 {
            stream.next_segment(&mut seg);
            let mut per_class = [0usize; 4];
            for s in seg {
                per_class[s / INSTALLS] += 1;
            }
            assert!(per_class.iter().all(|&n| n <= cat.nodes_per_class), "{per_class:?}");
        }
    }

    #[test]
    fn sched_trace_opts_in_only_the_staged_key() {
        let cat = Catalog::two_class();
        for seed in 0..20 {
            let trace = sched_trace(seed, &cat);
            let opted: Vec<&TraceJob> = trace.iter().filter(|j| j.opted_in_key.is_some()).collect();
            assert_eq!(opted.len(), TRACE_OPT_INS);
            assert!(opted.iter().all(|j| j.opted_in_key == Some(STAGED_KEY) && j.script.contains("chronus")));
            assert!(trace.iter().filter(|j| j.opted_in_key.is_none()).all(|j| !j.script.contains("chronus")));
        }
    }

    #[test]
    fn generated_scripts_parse() {
        let cat = Catalog::four_class();
        let s = &daemon_scripts(&cat)[130];
        let d = eco_slurm_sim::parse_script(&s.text, "alice").unwrap();
        assert_eq!(d.partition.as_deref(), Some("dense64"));
        assert_eq!(d.comment, "chronus");
        assert_eq!(d.num_tasks, 64);
        assert!(d.binary_path.starts_with("/opt/apps/app"));
    }
}
