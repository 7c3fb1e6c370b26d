//! User-command facades beyond `sbatch`: `srun` command-line parsing,
//! job arrays (`--array`), and `sacct` accounting output.

use crate::error::SlurmError;
use crate::job::JobDescriptor;
use crate::script::array_value;

/// Parses an `srun` command line into a descriptor (interactive submission
/// — paper §3.1: "srun is used to submit an interactive job and directly
/// run it on the allocated resources").
///
/// Supported options: `--ntasks`, `--nodes`, `--cpu-freq`,
/// `--ntasks-per-core`, `--job-name`, `--mpi` (ignored), trailing
/// executable path.
pub fn parse_srun(argv: &[&str], user: &str) -> Result<JobDescriptor, SlurmError> {
    if argv.first().copied() != Some("srun") {
        return Err(SlurmError::InvalidScript("srun command must start with 'srun'".into()));
    }
    let mut desc = JobDescriptor::new("srun", user, "");
    for tok in &argv[1..] {
        if let Some(v) = tok.strip_prefix("--ntasks=") {
            desc.num_tasks = parse(v, "--ntasks")?;
        } else if let Some(v) = tok.strip_prefix("--nodes=") {
            desc.num_nodes = parse(v, "--nodes")?;
        } else if let Some(v) = tok.strip_prefix("--cpu-freq=") {
            let khz: u64 = parse(v, "--cpu-freq")?;
            desc.min_frequency_khz = Some(khz);
            desc.max_frequency_khz = Some(khz);
        } else if let Some(v) = tok.strip_prefix("--ntasks-per-core=") {
            desc.threads_per_cpu = parse(v, "--ntasks-per-core")?;
        } else if let Some(v) = tok.strip_prefix("--job-name=") {
            desc.name = v.to_string();
        } else if tok.starts_with("--") {
            // tolerated, like unmodelled sbatch options
        } else {
            desc.binary_path = tok.to_string();
        }
    }
    if desc.binary_path.is_empty() {
        return Err(SlurmError::InvalidScript("srun needs an executable".into()));
    }
    Ok(desc)
}

/// A parsed `--array` specification: the task indices to submit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    /// Task indices, in submission order.
    pub indices: Vec<u32>,
}

/// Parses Slurm `--array` syntax: `N`, `N-M`, `N-M:STEP`, and
/// comma-separated combinations (`0,3,7-9`).
pub fn parse_array_spec(spec: &str) -> Result<ArraySpec, SlurmError> {
    let bad = |m: &str| SlurmError::InvalidScript(format!("bad --array '{spec}': {m}"));
    let mut indices = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(bad("empty element"));
        }
        let (range, step) = match part.split_once(':') {
            Some((r, s)) => (r, s.parse::<u32>().map_err(|_| bad("bad step"))?),
            None => (part, 1),
        };
        if step == 0 {
            return Err(bad("step must be positive"));
        }
        match range.split_once('-') {
            Some((lo, hi)) => {
                let lo: u32 = lo.parse().map_err(|_| bad("bad range start"))?;
                let hi: u32 = hi.parse().map_err(|_| bad("bad range end"))?;
                if hi < lo {
                    return Err(bad("range end before start"));
                }
                let mut i = lo;
                while i <= hi {
                    indices.push(i);
                    i += step;
                }
            }
            None => indices.push(range.parse().map_err(|_| bad("bad index"))?),
        }
    }
    if indices.is_empty() {
        return Err(bad("no indices"));
    }
    Ok(ArraySpec { indices })
}

/// Extracts the `--array` directive from a batch script, if present: the
/// first `#SBATCH --array=V` or `#SBATCH --array V` line.
pub fn array_directive(script: &str) -> Result<Option<ArraySpec>, SlurmError> {
    script
        .lines()
        .find_map(|raw| raw.trim().strip_prefix("#SBATCH").and_then(|rest| array_value(rest.trim())))
        .map(parse_array_spec)
        .transpose()
}

fn parse<T: std::str::FromStr>(v: &str, opt: &str) -> Result<T, SlurmError> {
    v.parse().map_err(|_| SlurmError::InvalidScript(format!("bad value '{v}' for {opt}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srun_parses_paper_invocation() {
        // the paper's Listing 6 srun line
        let d = parse_srun(&["srun", "--mpi=pmix_v4", "--ntasks-per-core=2", "/opt/hpcg/bin/xhpcg"], "aaen").unwrap();
        assert_eq!(d.threads_per_cpu, 2);
        assert_eq!(d.binary_path, "/opt/hpcg/bin/xhpcg");
        assert_eq!(d.user, "aaen");
        assert_eq!(d.name, "srun");
    }

    #[test]
    fn srun_full_options() {
        let d = parse_srun(
            &["srun", "--ntasks=16", "--nodes=2", "--cpu-freq=2200000", "--job-name=probe", "/bin/app"],
            "u",
        )
        .unwrap();
        assert_eq!(d.num_tasks, 16);
        assert_eq!(d.num_nodes, 2);
        assert_eq!(d.max_frequency_khz, Some(2_200_000));
        assert_eq!(d.name, "probe");
    }

    #[test]
    fn srun_requires_executable() {
        assert!(parse_srun(&["srun", "--ntasks=4"], "u").is_err());
        assert!(parse_srun(&["sbatch", "/bin/app"], "u").is_err());
        assert!(parse_srun(&["srun", "--ntasks=x", "/bin/app"], "u").is_err());
    }

    #[test]
    fn array_spec_forms() {
        assert_eq!(parse_array_spec("3").unwrap().indices, vec![3]);
        assert_eq!(parse_array_spec("0-3").unwrap().indices, vec![0, 1, 2, 3]);
        assert_eq!(parse_array_spec("0-8:3").unwrap().indices, vec![0, 3, 6]);
        assert_eq!(parse_array_spec("1,5,7-9").unwrap().indices, vec![1, 5, 7, 8, 9]);
    }

    #[test]
    fn array_spec_rejects_garbage() {
        assert!(parse_array_spec("").is_err());
        assert!(parse_array_spec("5-2").is_err());
        assert!(parse_array_spec("1-5:0").is_err());
        assert!(parse_array_spec("a-b").is_err());
        assert!(parse_array_spec("1,,2").is_err());
    }

    #[test]
    fn array_directive_detection() {
        let script = "#!/bin/bash\n#SBATCH --array=0-2\nsrun /bin/app\n";
        assert_eq!(array_directive(script).unwrap().unwrap().indices, vec![0, 1, 2]);
        assert!(array_directive("srun /bin/app\n").unwrap().is_none());
        assert!(array_directive("#SBATCH --array=9-1\nsrun /b\n").is_err());
    }
}
