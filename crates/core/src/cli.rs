//! The one command-line parser behind `hls_congest` and `experiments`.
//! [`RunOptions::from_args`] reads arguments against [`FLAGS`], so a switch
//! never swallows the next token and an unknown flag is an error naming it.
//! The options then apply `serve`'s robustness flags to its
//! [`SupervisorPolicy`], and write the shared output flags from an
//! [`ObsRecord`], stamped by [`kernel_stamps`].
//!
//! ```
//! use congestion_core::cli::RunOptions;
//!
//! let opts = RunOptions::from_args(&["dataset", "a.mhls", "--workers", "2"])?;
//! assert_eq!(opts.selector.as_deref(), Some("dataset"));
//! assert_eq!(opts.positionals, ["a.mhls"]);
//! assert_eq!(opts.parse::<usize>("--workers")?, Some(2));
//! # Ok::<(), congestion_core::cli::ArgError>(())
//! ```

use crate::features::ExtractKernel;
use faultkit::{FaultPlan, SupervisorPolicy};
use fpga_fabric::{MazeKernel, PlaceKernel};
use mlkit::GbrtKernel;
use obskit::{ObsRecord, RunRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Every flag either binary accepts, grouped by who reads it. A trailing
/// `=` marks a flag that takes the next token as its value; the others are
/// switches.
pub const FLAGS: &str = "
    output:             --trace-out= --metrics-out= --ledger-out= --profile --version
    experiments:        --fast --grid-search
    implement/dataset:  -o= --out= --workers= --router-stats --fingerprint-out=
    train/predict:      --model= --target= --model-out= --model-version= --data=
    serve:              --addr= --golden= --mae-band= --expect-features= --queue-capacity=
                        --serve-workers= --deadline-ms= --batch-max-rows= --cache-capacity=
                        --journal= --fault-plan= --max-retries=
    serve-client:       --id= --status --shutdown --rollback --swap= --rows-from= --limit=
                        --source=
";

/// Flags only `serve` reads; every other command refuses them rather than
/// silently ignoring them.
const SERVE_ONLY: [&str; 2] = ["--fault-plan", "--max-retries"];

/// The table entry for `token`: its name and whether it takes a value.
fn lookup(token: &str) -> Option<(&'static str, bool)> {
    let entry = |word: &'static str| word.strip_suffix('=').map_or((word, false), |f| (f, true));
    let flags = FLAGS
        .split_whitespace()
        .filter(|word| word.starts_with('-'));
    flags.map(entry).find(|(flag, _)| *flag == token)
}

/// A command line the parser refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A token that starts with `-` but is not in [`FLAGS`].
    UnknownFlag(String),
    /// A value flag at the end of the line or followed by another flag.
    MissingValue(&'static str),
    /// `(flag, value)`: a value the flag cannot use.
    BadValue(&'static str, String),
    /// A `serve` flag given to another command.
    ServeOnly(&'static str),
    /// `(path, reason)`: a `--fault-plan` file that cannot be used.
    FaultPlan(String, String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            ArgError::BadValue(flag, value) => write!(f, "bad value `{value}` for `{flag}`"),
            ArgError::ServeOnly(flag) => write!(f, "`{flag}` applies only to `serve`"),
            ArgError::FaultPlan(path, reason) => write!(f, "bad --fault-plan {path}: {reason}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Who writes an output file: the identity stamped into metrics snapshots
/// and ledger records.
#[derive(Debug, Clone, Copy)]
pub struct Tool {
    /// Tool name (`hls-congest`, `experiments`, `congestd`).
    pub name: &'static str,
    /// Crate version of the binary.
    pub version: &'static str,
    /// Git hash the binary was built from (`unknown` outside a checkout).
    pub git: &'static str,
}

impl Tool {
    /// A binary's identity; pass its `option_env!("GIT_HASH")`.
    pub const fn new(name: &'static str, version: &'static str, git: Option<&'static str>) -> Tool {
        let git = match git {
            Some(git) => git,
            None => "unknown",
        };
        Tool { name, version, git }
    }

    /// The `--version` line.
    pub fn version_line(&self) -> String {
        format!("{} {} (git {})", self.name, self.version, self.git)
    }
}

/// The kernel each stage runs in production, as `(stage, kernel)` pairs:
/// the `kernel.*` meta stamps of every bench artifact and the `kernels` of
/// every ledger record.
pub fn kernel_stamps() -> [(&'static str, &'static str); 4] {
    [
        ("extract", ExtractKernel::default().name()),
        ("place", PlaceKernel::default().name()),
        ("route", MazeKernel::default().name()),
        ("gbrt", GbrtKernel::default().name()),
    ]
}

/// A parsed command line.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// The first positional: `hls_congest`'s subcommand or the experiment
    /// `experiments` runs.
    pub selector: Option<String>,
    /// The positionals after the selector, in order.
    pub positionals: Vec<String>,
    values: BTreeMap<&'static str, String>,
    switches: BTreeSet<&'static str>,
    max_retries: Option<u32>,
    command_line: String,
}

impl RunOptions {
    /// Parse an argument list (without the program name). A flag given
    /// twice keeps its first value.
    ///
    /// # Errors
    /// An unknown flag, a value flag without a value, a `--max-retries`
    /// that does not parse, or `--fault-plan` or `--max-retries` on a
    /// command other than `serve`.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<RunOptions, ArgError> {
        let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
        let mut opts = RunOptions {
            command_line: args.join(" "),
            ..RunOptions::default()
        };
        let mut tokens = args.into_iter().peekable();
        while let Some(token) = tokens.next() {
            if !token.starts_with('-') || token == "-" {
                match opts.selector {
                    None => opts.selector = Some(token.to_string()),
                    Some(_) => opts.positionals.push(token.to_string()),
                }
                continue;
            }
            match lookup(token) {
                None => return Err(ArgError::UnknownFlag(token.to_string())),
                Some((flag, false)) => {
                    opts.switches.insert(flag);
                }
                Some((flag, true)) => {
                    let value = tokens
                        .next_if(|next| lookup(next).is_none())
                        .ok_or(ArgError::MissingValue(flag))?;
                    opts.values.entry(flag).or_insert_with(|| value.to_string());
                }
            }
        }
        if opts.selector.as_deref() != Some("serve") {
            if let Some(flag) = SERVE_ONLY.into_iter().find(|f| opts.values.contains_key(f)) {
                return Err(ArgError::ServeOnly(flag));
            }
        }
        opts.max_retries = opts.parse("--max-retries")?;
        Ok(opts)
    }

    /// The value given to `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        debug_assert_eq!(lookup(flag).map(|f| f.1), Some(true), "{flag}");
        self.values.get(flag).map(String::as_str)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        debug_assert_eq!(lookup(flag).map(|f| f.1), Some(false), "{flag}");
        self.switches.contains(flag)
    }

    /// The value given to `flag`, parsed as a `T`.
    ///
    /// # Errors
    /// [`ArgError::BadValue`] when the value does not parse.
    pub fn parse<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, ArgError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| ArgError::BadValue(flag, v.to_string()))
        };
        self.value(flag).map(parse).transpose()
    }

    /// A digest of the whole command line, for ledger records whose
    /// configuration is the command line itself.
    pub fn command_digest(&self) -> u64 {
        obskit::fnv1a(&[self.command_line.as_bytes()])
    }

    /// The `--fault-plan` file, read and parsed.
    ///
    /// # Errors
    /// [`ArgError::FaultPlan`] when the file cannot be read or parsed.
    pub fn fault_plan(&self) -> Result<Option<FaultPlan>, ArgError> {
        let Some(path) = self.value("--fault-plan") else {
            return Ok(None);
        };
        let plan = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| FaultPlan::from_json(&text).map_err(|e| e.to_string()))
            .map_err(|reason| ArgError::FaultPlan(path.to_string(), reason))?;
        eprintln!("armed fault plan {path} (seed {})", plan.seed);
        Ok(Some(plan))
    }

    /// Apply `--max-retries` to congestd's supervision policy.
    pub fn apply_to_policy(&self, policy: &mut SupervisorPolicy) {
        policy.max_retries = self.max_retries.unwrap_or(policy.max_retries);
    }

    /// Honour `--trace-out` (Chrome trace), `--metrics-out` (snapshot
    /// stamped with `tool`) and `--profile` (span table on stdout).
    ///
    /// # Errors
    /// Any failure to write a requested file.
    pub fn write_outputs(&self, tool: &Tool, rec: &ObsRecord) -> std::io::Result<()> {
        if let Some(path) = self.value("--trace-out") {
            std::fs::write(path, obskit::sink::chrome_trace_json(&rec.events))?;
            eprintln!("wrote Chrome trace to {path} (load in chrome://tracing or ui.perfetto.dev)");
        }
        if let Some(path) = self.value("--metrics-out") {
            let meta = [
                ("tool", tool.name),
                ("version", tool.version),
                ("git", tool.git),
            ];
            std::fs::write(path, obskit::sink::metrics_json(&rec.metrics, &meta))?;
            eprintln!("wrote metrics snapshot to {path}");
        }
        if self.switch("--profile") {
            println!("{}", obskit::sink::profile_table(rec));
        }
        Ok(())
    }

    /// Honour `--ledger-out`: append one `obskit.run.v1` record — identity,
    /// config digest, [`kernel_stamps`], metrics, then whatever `extra` adds.
    ///
    /// # Errors
    /// Any failure to append to the ledger file.
    pub fn append_ledger(
        &self,
        tool: &Tool,
        kind: &str,
        config_digest: u64,
        rec: &ObsRecord,
        extra: impl FnOnce(&mut RunRecord),
    ) -> std::io::Result<()> {
        let Some(path) = self.value("--ledger-out") else {
            return Ok(());
        };
        let mut run = RunRecord::new(tool.name, kind, tool.version, tool.git);
        run.config_digest = format!("{config_digest:016x}");
        for (stage, kernel) in kernel_stamps() {
            run.kernel(stage, kernel);
        }
        run.absorb_metrics(&rec.metrics);
        extra(&mut run);
        run.append_to(Path::new(path))?;
        eprintln!("appended run record to {path}");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RunOptions, ArgError> {
        RunOptions::from_args(&line.split_whitespace().collect::<Vec<_>>())
    }

    #[test]
    fn switches_keep_the_next_token_and_value_flags_take_it() {
        let line =
            "dataset --router-stats --fingerprint-out d a.mhls b.mhls -o out.csv --workers 2";
        let opts = parse(line).unwrap();
        assert_eq!(opts.selector.as_deref(), Some("dataset"));
        assert_eq!(opts.positionals, ["a.mhls", "b.mhls"]);
        assert!(opts.switch("--router-stats") && !opts.switch("--profile"));
        assert_eq!(opts.value("--fingerprint-out"), Some("d"));
        assert_eq!(opts.value("-o"), Some("out.csv"));
        assert_eq!(opts.parse::<usize>("--workers").unwrap(), Some(2));
        // CI's bench smoke: the selector skips the ledger path.
        let opts = parse("--fast --ledger-out reports/runs.jsonl router-bench").unwrap();
        assert_eq!(opts.selector.as_deref(), Some("router-bench"));
        assert!(opts.positionals.is_empty() && opts.switch("--fast"));
        // A value that looks like a group label of the table is still a value.
        assert_eq!(
            parse("train --model serve:").unwrap().value("--model"),
            Some("serve:")
        );
    }

    #[test]
    fn bad_command_lines_are_typed_errors() {
        use ArgError::*;
        let unknown = |flag: &str| UnknownFlag(flag.into());
        let cases = [
            ("--place-kernel reference a.mhls", unknown("--place-kernel")),
            ("dataset --extract-kernel soa", unknown("--extract-kernel")),
            ("--gbrt-kernel exact table4", unknown("--gbrt-kernel")),
            ("train d.csv --gbrt-bins 64", unknown("--gbrt-bins")),
            (
                "serve --batch-max-wait-ms 2",
                unknown("--batch-max-wait-ms"),
            ),
            ("dataset a.mhls --resume", unknown("--resume")),
            (
                "dataset --checkpoint-dir ckpt a.mhls",
                unknown("--checkpoint-dir"),
            ),
            (
                "--stage-timeout-ms 250 dataset",
                unknown("--stage-timeout-ms"),
            ),
            ("dataset a.mhls -o", MissingValue("-o")),
            (
                "dataset --fingerprint-out --router-stats",
                MissingValue("--fingerprint-out"),
            ),
            (
                "serve --max-retries x",
                BadValue("--max-retries", "x".into()),
            ),
            // Only `serve` reads the fault plan and the retry budget.
            (
                "dataset a.mhls --fault-plan p.json",
                ServeOnly("--fault-plan"),
            ),
            ("dataset --max-retries 5 a.mhls", ServeOnly("--max-retries")),
            ("--fault-plan p.json dataset", ServeOnly("--fault-plan")),
            ("--fast --max-retries 1 table4", ServeOnly("--max-retries")),
            ("--max-retries 1", ServeOnly("--max-retries")),
            (
                "serve-client --fault-plan p.json",
                ServeOnly("--fault-plan"),
            ),
            ("train d.csv --max-retries x", ServeOnly("--max-retries")),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line).unwrap_err(), want, "{line}");
        }
        assert_eq!(
            unknown("--gbrt-bins").to_string(),
            "unknown flag `--gbrt-bins`"
        );
        assert_eq!(
            ServeOnly("--fault-plan").to_string(),
            "`--fault-plan` applies only to `serve`"
        );
    }

    /// Only `serve` takes the robustness flags; every other command
    /// refuses them (`bad_command_lines_are_typed_errors`).
    #[test]
    fn robustness_flags_reach_the_flow_and_the_policy() {
        let opts = parse("serve --max-retries 5").unwrap();
        let mut policy = SupervisorPolicy::default();
        opts.apply_to_policy(&mut policy);
        assert_eq!(policy.max_retries, 5);
        let mut policy = SupervisorPolicy::default();
        parse("serve").unwrap().apply_to_policy(&mut policy);
        assert_eq!(policy, SupervisorPolicy::default());
        let missing = parse("serve --fault-plan /nonexistent/plan.json").unwrap();
        assert!(matches!(missing.fault_plan(), Err(ArgError::FaultPlan(..))));
    }

    #[test]
    fn ledger_records_carry_every_kernel_stamp() {
        let path = std::env::temp_dir().join(format!("core-cli-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = RunOptions::from_args(&["--ledger-out", path.to_str().unwrap()]).unwrap();
        let tool = Tool::new("t", "0", None);
        let note = |r: &mut RunRecord| {
            r.note("model", "GBRT");
        };
        opts.append_ledger(&tool, "train", 0xab, &ObsRecord::default(), note)
            .unwrap();
        let mut want = RunRecord::new("t", "train", "0", "unknown");
        want.config_digest = "00000000000000ab".into();
        for (stage, kernel) in kernel_stamps() {
            want.kernel(stage, kernel);
        }
        note(&mut want);
        let line = std::fs::read_to_string(&path).unwrap();
        assert_eq!(line, want.to_json_line() + "\n");
        std::fs::remove_file(&path).ok();
    }
}
