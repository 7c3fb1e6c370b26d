//! The one-pass `sbatch` parse against the two-pass parse it replaced.
//!
//! `reference` below is `parse_script` and `array_directive` as they
//! were before `parse_submission` folded them into one borrowing pass:
//! a `String` per directive, a `Vec` per `srun` line, and the script
//! scanned a second time for `--array`. Over a few thousand generated
//! scripts — tabs, quoted values holding `=`, repeated directives,
//! several `srun` lines, `srunx`, bad numbers, qos and times, every
//! `--array` spelling, no `srun` at all — the new parse must answer
//! exactly what the reference answers, error text and precedence
//! included, and `sbatch` must submit the same jobs or fail the same way.

use std::sync::Arc;

use eco_hpcg::workload::{ScalingKind, SyntheticWorkload};
use eco_sim_node::SimNode;
use eco_slurm_sim::{
    array_directive, parse_script, parse_submission, ArraySpec, Cluster, JobDescriptor, JobId, SlurmError,
};

/// `parse_script` + `array_directive` before the one-pass parse, kept
/// verbatim but for names.
mod reference {
    use eco_sim_node::clock::SimDuration;
    use eco_slurm_sim::{parse_array_spec, ArraySpec, JobDescriptor, Qos, SlurmError};

    pub fn parse_script(script: &str, user: &str) -> Result<JobDescriptor, SlurmError> {
        let mut desc = JobDescriptor::new("sbatch", user, "");
        let mut saw_srun = false;

        for raw in script.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("#SBATCH") {
                parse_sbatch_directive(rest.trim(), &mut desc)?;
            } else if line.starts_with("srun") {
                parse_srun_line(line, &mut desc)?;
                saw_srun = true;
            }
        }

        if !saw_srun || desc.binary_path.is_empty() {
            return Err(SlurmError::InvalidScript("script has no srun line with an executable".into()));
        }
        Ok(desc)
    }

    fn parse_sbatch_directive(directive: &str, desc: &mut JobDescriptor) -> Result<(), SlurmError> {
        let (key, value) = split_option(directive);
        match key {
            "--nodes" => desc.num_nodes = parse_num(key, &value)?,
            "--ntasks" => desc.num_tasks = parse_num(key, &value)?,
            "--cpu-freq" => {
                let khz: u64 = parse_num(key, &value)?;
                desc.min_frequency_khz = Some(khz);
                desc.max_frequency_khz = Some(khz);
            }
            "--comment" => desc.comment = value,
            "--partition" => desc.partition = Some(value),
            "--job-name" => desc.name = value,
            "--time" => desc.time_limit = Some(parse_time(&value)?),
            "--qos" => {
                desc.qos = match value.as_str() {
                    "high" => Qos::High,
                    "normal" => Qos::Normal,
                    "low" => Qos::Low,
                    other => return Err(SlurmError::InvalidScript(format!("unknown qos '{other}'"))),
                }
            }
            "--begin" => {
                let secs: u64 = parse_num(key, &value)?;
                desc.begin_time = Some(eco_sim_node::clock::SimTime::from_secs(secs));
            }
            _ => {}
        }
        Ok(())
    }

    fn parse_srun_line(line: &str, desc: &mut JobDescriptor) -> Result<(), SlurmError> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let mut i = 1;
        while i < tokens.len() {
            let tok = tokens[i];
            if let Some(v) = tok.strip_prefix("--ntasks-per-core=") {
                desc.threads_per_cpu =
                    v.parse().map_err(|_| SlurmError::InvalidScript(format!("bad --ntasks-per-core '{v}'")))?;
            } else if !tok.starts_with('-') {
                desc.binary_path = tok.to_string();
            }
            i += 1;
        }
        Ok(())
    }

    fn split_option(s: &str) -> (&str, String) {
        let eq = s.find('=');
        let sp = s.find(char::is_whitespace);
        let cut = match (eq, sp) {
            (Some(e), Some(w)) => Some(e.min(w)),
            (one, None) => one,
            (None, one) => one,
        };
        match cut {
            Some(i) => {
                let (k, v) = s.split_at(i);
                (k.trim(), unquote(v[1..].trim()))
            }
            None => (s, String::new()),
        }
    }

    fn unquote(s: &str) -> String {
        s.trim_matches('"').to_string()
    }

    fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, SlurmError> {
        value.parse().map_err(|_| SlurmError::InvalidScript(format!("bad value '{value}' for {key}")))
    }

    fn parse_time(value: &str) -> Result<SimDuration, SlurmError> {
        let bad = || SlurmError::InvalidScript(format!("bad --time '{value}'"));
        let (days, rest) = match value.split_once('-') {
            Some((d, r)) => (d.parse::<u64>().map_err(|_| bad())?, r),
            None => (0, value),
        };
        let parts: Vec<&str> = rest.split(':').collect();
        let nums: Vec<u64> = parts.iter().map(|p| p.parse::<u64>().map_err(|_| bad())).collect::<Result<_, _>>()?;
        let secs = match nums.as_slice() {
            [m] => m * 60,
            [m, s] => m * 60 + s,
            [h, m, s] => h * 3600 + m * 60 + s,
            _ => return Err(bad()),
        };
        Ok(SimDuration::from_secs(days * 86_400 + secs))
    }

    pub fn array_directive(script: &str) -> Result<Option<ArraySpec>, SlurmError> {
        for raw in script.lines() {
            let line = raw.trim();
            if let Some(rest) = line.strip_prefix("#SBATCH") {
                let rest = rest.trim();
                if let Some(v) = rest.strip_prefix("--array=") {
                    return parse_array_spec(v.trim()).map(Some);
                }
                if let Some(v) = rest.strip_prefix("--array ") {
                    return parse_array_spec(v.trim()).map(Some);
                }
            }
        }
        Ok(None)
    }

    /// What `sbatch_array` parsed before the one-pass parse.
    pub fn parse_submission(script: &str, user: &str) -> Result<(JobDescriptor, Option<ArraySpec>), SlurmError> {
        parse_script(script, user).and_then(|desc| Ok((desc, array_directive(script)?)))
    }
}

/// xorshift64*: a fixed, dependency-free stream of script choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[(self.next() % from.len() as u64) as usize]
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const BINARIES: [&str; 2] = ["/bin/app", "/opt/hpcg/bin/xhpcg"];

/// One `#SBATCH` line: a known, unknown or empty key, each separator
/// spelling, and values good, bad, quoted, empty or holding `=`.
fn directive(rng: &mut Rng) -> String {
    let prefix = rng.pick(&["#SBATCH ", "#SBATCH\t", "  #SBATCH  ", "#SBATCH", "\t#SBATCH \t"]);
    let key = rng.pick(&[
        "--nodes",
        "--ntasks",
        "--cpu-freq",
        "--comment",
        "--partition",
        "--job-name",
        "--time",
        "--qos",
        "--begin",
        "--array",
        "--mem",
        "-n",
        "",
    ]);
    let value = if rng.chance(60) {
        match key {
            "--nodes" | "--ntasks" | "--begin" => "1",
            "--cpu-freq" => "2200000",
            "--time" => "10:30",
            "--qos" => "high",
            "--array" => "0-2",
            _ => "\"chronus\"",
        }
    } else {
        match key {
            "--nodes" | "--ntasks" => rng.pick(&["1", "2", "4", "32", "0", "many", "-1", "\"8\"", ""]),
            "--cpu-freq" => rng.pick(&["2200000", "1500000", "fast", "\"2200000\"", "2.2GHz"]),
            "--time" => rng.pick(&[
                "30",
                "10:30",
                "1:00:00",
                "1-01:00:00",
                "abc",
                "1:2:3:4",
                "",
                "1-",
                "-5",
                "99999999999999999999",
            ]),
            "--qos" => rng.pick(&["high", "normal", "low", "vip", "\"high\"", "HIGH", ""]),
            "--begin" => rng.pick(&["0", "3600", "soon", "\"60\""]),
            "--array" => rng.pick(&["1-4", "\"1-4\"", "0-8:3", "9-1", "", "1,,2", "3", "1,5,7-9", "1-5:0", " 0-2 "]),
            "--comment" => {
                rng.pick(&["\"chronus\"", "chronus", "\"chronus deadline=3600\"", "\"a = b\"", "\"\"", ""])
            }
            _ => rng.pick(&["hpcg", "debug", "\"my job\"", "a=b", "32G", "", "\"\"quoted\"\""]),
        }
    };
    let sep = if rng.chance(60) { "=" } else { rng.pick(&[" ", "\t", " = ", "  ", "=\"", ""]) };
    let tail = if rng.chance(5) { rng.pick(&[" ", "\t", " extra", "\""]) } else { "" };
    format!("{prefix}{key}{sep}{value}{tail}")
}

/// One `srun` (or `srunx`, or bare `srun`) line.
fn srun(rng: &mut Rng) -> String {
    let mut line = rng.pick(&["srun", "srun", "srun", "srunx", "  srun"]).to_string();
    for _ in 0..rng.next() % 5 {
        line.push_str(rng.pick(&[" ", "\t", "  "]));
        line.push_str(rng.pick(&[
            "--mpi=pmix_v4",
            "--ntasks-per-core=1",
            "--ntasks-per-core=2",
            "--ntasks-per-core=x",
            "-n",
            "4",
            "--exclusive",
            BINARIES[0],
            BINARIES[1],
            "/bin/missing",
        ]));
    }
    line
}

/// A script of a few lines, at least one of them a directive.
fn script(rng: &mut Rng) -> String {
    let mut lines = Vec::new();
    if rng.chance(70) {
        lines.push("#!/bin/bash".to_string());
    }
    for _ in 0..1 + rng.next() % 9 {
        lines.push(match rng.next() % 10 {
            0 => String::new(),
            1 => rng.pick(&["# a comment", "echo hello", "#SBATCHED", "module load hpcg"]).to_string(),
            2 | 3 => srun(rng),
            _ => directive(rng),
        });
    }
    if rng.chance(60) {
        lines.push(format!("srun --mpi=pmix_v4 {}", rng.pick(&BINARIES)));
    }
    let eol = if rng.chance(10) { "\r\n" } else { "\n" };
    let mut text = lines.join(eol);
    if rng.chance(80) {
        text.push_str(eol);
    }
    text
}

/// A four-node cluster that knows both binaries, so `sbatch` can accept.
fn cluster() -> Cluster {
    let mut c = Cluster::new((0..4).map(|_| SimNode::sr650()).collect());
    for path in BINARIES {
        c.register_binary(path, Arc::new(SyntheticWorkload::new("app", ScalingKind::ComputeBound, 1.0, 1.0)));
    }
    c
}

/// What `sbatch_array` did before the one-pass parse: the reference
/// parse, then one submission per array element.
fn reference_sbatch(cluster: &mut Cluster, script: &str, user: &str) -> Result<Vec<JobId>, SlurmError> {
    match reference::parse_submission(script, user)? {
        (desc, None) => Ok(vec![cluster.submit(desc)?]),
        (desc, Some(ArraySpec { indices })) => {
            let mut ids = Vec::new();
            for idx in indices {
                let mut element: JobDescriptor = desc.clone();
                element.name = format!("{}_[{}]", desc.name, idx);
                ids.push(cluster.submit(element)?);
            }
            Ok(ids)
        }
    }
}

#[test]
fn the_one_pass_parse_answers_what_the_two_pass_parse_answered() {
    const SCRIPTS: usize = 3_000;
    let mut rng = Rng(0x5eed_0f5b_a7c4);
    let (mut ours, mut theirs) = (cluster(), cluster());
    let (mut accepted, mut refused, mut arrays) = (0, 0, 0);
    for n in 0..SCRIPTS {
        if n % 200 == 0 {
            (ours, theirs) = (cluster(), cluster());
        }
        let text = script(&mut rng);
        let user = if n % 2 == 0 { "alice" } else { "bob" };
        let want = reference::parse_submission(&text, user);
        assert_eq!(parse_submission(&text, user), want, "parse_submission on {text:?}");
        assert_eq!(parse_script(&text, user), reference::parse_script(&text, user), "parse_script on {text:?}");
        assert_eq!(array_directive(&text), reference::array_directive(&text), "array_directive on {text:?}");

        let submitted = ours.sbatch_array(&text, user);
        assert_eq!(submitted, reference_sbatch(&mut theirs, &text, user), "sbatch_array on {text:?}");
        match (&want, &submitted) {
            (Ok((_, Some(_))), Ok(_)) => arrays += 1,
            (_, Ok(_)) => accepted += 1,
            _ => refused += 1,
        }
    }
    // the generator reaches every branch, not just the error paths
    assert!(
        accepted > 200 && arrays > 20 && refused > 200,
        "{accepted} accepted, {arrays} arrays, {refused} refused"
    );
}

#[test]
fn every_listed_shape_is_parsed_as_before() {
    let shapes = [
        "#SBATCH --array=\"1-4\"\nsrun /bin/app\n",
        "#SBATCH --array\t1-4\nsrun /bin/app\n",
        "#SBATCH --array 1-4\nsrun /bin/app\n",
        "#SBATCH --array=9-1\n",
        "#SBATCH --array=9-1\n#SBATCH --ntasks=many\nsrun /bin/app\n",
        "#SBATCH --array=0-2\n#SBATCH --array=bad\nsrun /bin/app\n",
        "#SBATCH --comment \"chronus deadline=3600\"\n#SBATCH\t--job-name\tj\nsrun /bin/app\n",
        "#SBATCH --ntasks=4\n#SBATCH --ntasks=8\nsrun /bin/a\nsrun --ntasks-per-core=2\nsrunx /bin/b -x\n",
        "#SBATCH --qos=vip\n#SBATCH --time=abc\nsrun /bin/app\n",
        "#SBATCH --time=1:2:3:4\nsrun /bin/app\n",
        "srun --ntasks-per-core=x /bin/app\n#SBATCH --nodes=zero\n",
        "srun\n",
        "#!/bin/bash\necho no srun here\n",
        "",
    ];
    for text in shapes {
        assert_eq!(parse_submission(text, "u"), reference::parse_submission(text, "u"), "{text:?}");
    }
}
