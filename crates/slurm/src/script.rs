//! sbatch batch-script parsing.
//!
//! Understands the directives Chronus generates (paper Listing 6) plus the
//! common ones a production script carries:
//!
//! ```text
//! #!/bin/bash
//! #SBATCH --nodes=1
//! #SBATCH --ntasks=32
//! #SBATCH --cpu-freq=2200000
//! #SBATCH --comment "chronus"
//!
//! srun --mpi=pmix_v4 --ntasks-per-core=2 /opt/hpcg/bin/xhpcg
//! ```

use crate::commands::{parse_array_spec, ArraySpec};
use crate::error::SlurmError;
use crate::job::{JobDescriptor, Qos};
use eco_sim_node::clock::{SimDuration, SimTime};

/// Parses an sbatch script into a [`JobDescriptor`] for `user`.
///
/// Recognised `#SBATCH` options: `--nodes`, `--ntasks`, `--cpu-freq`,
/// `--comment`, `--job-name`, `--time`, `--qos`, `--begin`. The `srun` line
/// supplies `--ntasks-per-core` and the binary path. Unknown `#SBATCH`
/// options are ignored (as Slurm tolerates plenty we don't model);
/// malformed values are errors.
pub fn parse_script(script: &str, user: &str) -> Result<JobDescriptor, SlurmError> {
    Scan::of(script).map(|scan| scan.descriptor(user))
}

/// What `sbatch` reads from a script: [`parse_script`]'s descriptor and
/// [`crate::commands::array_directive`]'s array, in one pass. Results and
/// errors are those two calls' in that order: any error `parse_script`
/// reports comes before a bad `--array` value.
pub fn parse_submission(script: &str, user: &str) -> Result<(JobDescriptor, Option<ArraySpec>), SlurmError> {
    let scan = Scan::of(script)?;
    let array = scan.array.map(parse_array_spec).transpose()?;
    Ok((scan.descriptor(user), array))
}

/// The value of an `--array` directive (the text after `#SBATCH`,
/// trimmed): `--array=V` or `--array V`, `V` trimmed and quotes kept.
pub(crate) fn array_value(directive: &str) -> Option<&str> {
    directive.strip_prefix("--array=").or_else(|| directive.strip_prefix("--array ")).map(str::trim)
}

/// One pass over a script. Strings stay borrowed from it until
/// [`Scan::descriptor`] copies the ones the descriptor keeps.
struct Scan<'s> {
    /// Every field but the strings below.
    desc: JobDescriptor,
    name: &'s str,
    comment: &'s str,
    partition: Option<&'s str>,
    binary_path: &'s str,
    /// The first `--array` value, parsed only once the script is known good.
    array: Option<&'s str>,
}

impl<'s> Scan<'s> {
    fn of(script: &'s str) -> Result<Scan<'s>, SlurmError> {
        let mut scan = Scan {
            desc: JobDescriptor::new("", "", ""),
            name: "sbatch",
            comment: "",
            partition: None,
            binary_path: "",
            array: None,
        };
        let mut saw_srun = false;
        for raw in script.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("#SBATCH") {
                let directive = rest.trim();
                if scan.array.is_none() {
                    scan.array = array_value(directive);
                }
                scan.sbatch_directive(directive)?;
            } else if line.starts_with("srun") {
                scan.srun_line(line)?;
                saw_srun = true;
            }
        }
        if !saw_srun || scan.binary_path.is_empty() {
            return Err(SlurmError::InvalidScript("script has no srun line with an executable".into()));
        }
        Ok(scan)
    }

    fn sbatch_directive(&mut self, directive: &'s str) -> Result<(), SlurmError> {
        let (key, value) = split_option(directive);
        let desc = &mut self.desc;
        match key {
            "--nodes" => desc.num_nodes = parse_num(key, value)?,
            "--ntasks" => desc.num_tasks = parse_num(key, value)?,
            "--cpu-freq" => {
                let khz: u64 = parse_num(key, value)?;
                desc.min_frequency_khz = Some(khz);
                desc.max_frequency_khz = Some(khz);
            }
            "--comment" => self.comment = value,
            "--partition" => self.partition = Some(value),
            "--job-name" => self.name = value,
            "--time" => desc.time_limit = Some(parse_time(value)?),
            "--qos" => {
                desc.qos = match value {
                    "high" => Qos::High,
                    "normal" => Qos::Normal,
                    "low" => Qos::Low,
                    other => return Err(SlurmError::InvalidScript(format!("unknown qos '{other}'"))),
                }
            }
            "--begin" => desc.begin_time = Some(SimTime::from_secs(parse_num(key, value)?)),
            _ => {} // tolerated, like real Slurm with unmodelled options
        }
        Ok(())
    }

    fn srun_line(&mut self, line: &'s str) -> Result<(), SlurmError> {
        for tok in line.split_whitespace().skip(1) {
            if let Some(v) = tok.strip_prefix("--ntasks-per-core=") {
                self.desc.threads_per_cpu =
                    v.parse().map_err(|_| SlurmError::InvalidScript(format!("bad --ntasks-per-core '{v}'")))?;
            } else if !tok.starts_with('-') {
                self.binary_path = tok;
            }
        }
        Ok(())
    }

    fn descriptor(self, user: &str) -> JobDescriptor {
        JobDescriptor {
            name: self.name.to_string(),
            user: user.to_string(),
            comment: self.comment.to_string(),
            partition: self.partition.map(str::to_string),
            binary_path: self.binary_path.to_string(),
            ..self.desc
        }
    }
}

/// Splits `--key=value`, `--key value` or `--key "value"` forms. When both
/// separators appear, the first one wins, so an `=` inside a quoted value
/// (`--comment "chronus deadline=3600"`) stays in the value.
fn split_option(s: &str) -> (&str, &str) {
    match s.find(|c: char| c == '=' || c.is_whitespace()) {
        Some(i) => {
            let (k, v) = s.split_at(i);
            (k.trim(), v[1..].trim().trim_matches('"'))
        }
        None => (s, ""),
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SlurmError> {
    value.parse().map_err(|_| SlurmError::InvalidScript(format!("bad value '{value}' for {key}")))
}

/// Parses Slurm `--time` formats: `MM`, `MM:SS`, `HH:MM:SS`, `D-HH:MM:SS`.
fn parse_time(value: &str) -> Result<SimDuration, SlurmError> {
    let bad = || SlurmError::InvalidScript(format!("bad --time '{value}'"));
    let (days, rest) = match value.split_once('-') {
        Some((d, r)) => (d.parse::<u64>().map_err(|_| bad())?, r),
        None => (0, value),
    };
    let mut nums = [0u64; 3];
    let mut n = 0;
    for part in rest.split(':') {
        let num = part.parse().map_err(|_| bad())?;
        *nums.get_mut(n).ok_or_else(bad)? = num;
        n += 1;
    }
    let secs = match nums[..n] {
        [m] => m * 60,
        [m, s] => m * 60 + s,
        [h, m, s] => h * 3600 + m * 60 + s,
        _ => return Err(bad()),
    };
    Ok(SimDuration::from_secs(days * 86_400 + secs))
}

/// Renders the Chronus-generated benchmark script for a configuration —
/// the exact shape of the paper's Listing 6.
pub fn generate_hpcg_script(cores: u32, frequency_khz: u64, threads_per_core: u32, hpcg_path: &str) -> String {
    format!(
        "#!/bin/bash\n\
         #SBATCH --nodes=1\n\
         #SBATCH --ntasks={cores}\n\
         #SBATCH --cpu-freq={frequency_khz}\n\
         \n\
         srun --mpi=pmix_v4 --ntasks-per-core={threads_per_core} {hpcg_path}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listing_6_script() {
        let script = generate_hpcg_script(32, 2_200_000, 2, "/opt/hpcg/bin/xhpcg");
        let d = parse_script(&script, "aaen").unwrap();
        assert_eq!(d.num_nodes, 1);
        assert_eq!(d.num_tasks, 32);
        assert_eq!(d.min_frequency_khz, Some(2_200_000));
        assert_eq!(d.max_frequency_khz, Some(2_200_000));
        assert_eq!(d.threads_per_cpu, 2);
        assert_eq!(d.binary_path, "/opt/hpcg/bin/xhpcg");
        assert_eq!(d.user, "aaen");
    }

    #[test]
    fn parses_comment_opt_in() {
        // the paper's opt-in line: #SBATCH --comment "chronus"
        let script = "#!/bin/bash\n#SBATCH --comment \"chronus\"\nsrun /bin/app\n";
        let d = parse_script(script, "u").unwrap();
        assert_eq!(d.comment, "chronus");
    }

    #[test]
    fn comment_value_may_contain_equals() {
        // the deadline extension's opt-in form
        let script = "#SBATCH --comment \"chronus deadline=3600\"\nsrun /bin/app";
        let d = parse_script(script, "u").unwrap();
        assert_eq!(d.comment, "chronus deadline=3600");
    }

    #[test]
    fn parses_equals_and_space_forms() {
        let script = "#SBATCH --ntasks=8\n#SBATCH --job-name myjob\nsrun /bin/app";
        let d = parse_script(script, "u").unwrap();
        assert_eq!(d.num_tasks, 8);
        assert_eq!(d.name, "myjob");
    }

    #[test]
    fn parses_time_formats() {
        assert_eq!(parse_time("30").unwrap(), SimDuration::from_secs(1800));
        assert_eq!(parse_time("10:30").unwrap(), SimDuration::from_secs(630));
        assert_eq!(parse_time("1:00:00").unwrap(), SimDuration::from_secs(3600));
        assert_eq!(parse_time("1-01:00:00").unwrap(), SimDuration::from_secs(90_000));
        assert!(parse_time("abc").is_err());
        assert!(parse_time("1:2:3:4").is_err());
    }

    #[test]
    fn parses_qos() {
        for (s, q) in [("high", Qos::High), ("normal", Qos::Normal), ("low", Qos::Low)] {
            let script = format!("#SBATCH --qos={s}\nsrun /bin/app");
            assert_eq!(parse_script(&script, "u").unwrap().qos, q);
        }
        assert!(parse_script("#SBATCH --qos=vip\nsrun /bin/app", "u").is_err());
    }

    #[test]
    fn missing_srun_is_error() {
        let err = parse_script("#!/bin/bash\n#SBATCH --ntasks=4\n", "u").unwrap_err();
        assert!(matches!(err, SlurmError::InvalidScript(_)));
    }

    #[test]
    fn bad_numeric_value_is_error() {
        assert!(parse_script("#SBATCH --ntasks=many\nsrun /bin/app", "u").is_err());
        assert!(parse_script("#SBATCH --cpu-freq=fast\nsrun /bin/app", "u").is_err());
    }

    #[test]
    fn unknown_directives_tolerated() {
        let script = "#SBATCH --mem=32G\n#SBATCH --output=out.txt\nsrun /bin/app";
        assert!(parse_script(script, "u").is_ok());
    }

    #[test]
    fn partition_parsed() {
        let d = parse_script("#SBATCH --partition=debug\nsrun /bin/app", "u").unwrap();
        assert_eq!(d.partition.as_deref(), Some("debug"));
        let d = parse_script("srun /bin/app", "u").unwrap();
        assert_eq!(d.partition, None);
    }

    #[test]
    fn begin_time_parsed() {
        let d = parse_script("#SBATCH --begin=3600\nsrun /bin/app", "u").unwrap();
        assert_eq!(d.begin_time, Some(eco_sim_node::clock::SimTime::from_secs(3600)));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let script = "#!/bin/bash\n\n# a plain comment\necho hello\nsrun --ntasks-per-core=1 /bin/x\n";
        let d = parse_script(script, "u").unwrap();
        assert_eq!(d.binary_path, "/bin/x");
        assert_eq!(d.threads_per_cpu, 1);
    }
}
