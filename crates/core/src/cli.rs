//! The one command-line parser behind `hls_congest` and `experiments`.
//! [`RunOptions::from_args`] reads arguments against [`FLAGS`], so a switch
//! never swallows the next token, an unknown flag is an error naming it,
//! and a flag of another command is an error naming the flag and the
//! command rather than a flag silently ignored. The options then write
//! the output flags from an [`ObsRecord`], stamped by [`kernel_stamps`].
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
use fpga_fabric::PlaceKernel;
use mlkit::GbrtKernel;
use obskit::{ObsRecord, RunRecord};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// Every flag either binary accepts, as `(commands, flags)` groups: the
/// `hls_congest` commands that read the flags, or `every` for the flag
/// every command of both binaries reads, or `experiments` for the flags
/// every experiment of `experiments` reads. A trailing `=` marks a flag
/// that takes the next token as its value; the others are switches. A
/// flag may sit in several groups; it takes a value in all or in none.
/// An output flag sits with the commands that write it: `serve` records
/// no spans, so it writes no trace and no profile.
pub const FLAGS: [(&str, &str); 11] = [
    (EVERY, "--version"),
    (
        EXPERIMENTS,
        "--fast --grid-search --trace-out= --metrics-out= --ledger-out= --profile",
    ),
    ("implement dataset train predict", "--trace-out= --profile"),
    ("implement dataset train predict serve", "--metrics-out="),
    ("dataset train serve", "--ledger-out="),
    ("implement dataset", "--router-stats"),
    ("dataset", "-o= --out= --workers= --fingerprint-out="),
    ("train", "--model= --target= --model-out= --model-version="),
    ("predict", "--data="),
    (
        "serve",
        "--model= --addr= --golden= --mae-band= --expect-features= --queue-capacity= \
         --serve-workers= --deadline-ms= --batch-max-rows= --cache-capacity= --journal= \
         --fault-plan=",
    ),
    (
        "serve-client",
        "--addr= --deadline-ms= --id= --status --shutdown --rollback --swap= --rows-from= \
         --limit= --source=",
    ),
];

/// The [`FLAGS`] group every command reads.
const EVERY: &str = "every";

/// The [`FLAGS`] group every experiment reads.
const EXPERIMENTS: &str = "experiments";

/// The experiment `experiments` runs when given none.
const DEFAULT_EXPERIMENT: &str = "all";

/// Every table entry for `token`: the commands of its group, its name
/// and whether it takes a value.
fn entries(token: &str) -> impl Iterator<Item = (&'static str, &'static str, bool)> + '_ {
    FLAGS.into_iter().flat_map(move |(commands, flags)| {
        flags.split_whitespace().filter_map(move |word| {
            let (flag, value) = word.strip_suffix('=').map_or((word, false), |f| (f, true));
            (flag == token).then_some((commands, flag, value))
        })
    })
}

/// The table's name for `token`, and whether it takes a value.
fn lookup(token: &str) -> Option<(&'static str, bool)> {
    entries(token).next().map(|(_, flag, value)| (flag, value))
}

/// Which binary's command line is parsed: the commands that read a flag
/// are named differently in each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Program {
    /// `hls_congest`: the selector is a command.
    HlsCongest,
    /// `experiments`: the selector is an experiment, `all` when absent.
    Experiments,
}

/// Whether `command` of `program` reads `flag` (a table name).
fn reads(program: Program, command: &str, flag: &str) -> bool {
    entries(flag).any(|(commands, _, _)| match commands {
        EVERY => true,
        EXPERIMENTS => program == Program::Experiments,
        commands => {
            program == Program::HlsCongest && commands.split_whitespace().any(|c| c == command)
        }
    })
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
    /// `(flag, command)`: a flag given to a command that does not read
    /// it. The command is empty when the line names none.
    NotForCommand(&'static str, String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ArgError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            ArgError::BadValue(flag, value) => write!(f, "bad value `{value}` for `{flag}`"),
            ArgError::NotForCommand(flag, command) if command.is_empty() => {
                write!(f, "`{flag}` needs a command that reads it")
            }
            ArgError::NotForCommand(flag, command) => {
                write!(f, "`{flag}` does not apply to `{command}`")
            }
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
pub fn kernel_stamps() -> [(&'static str, &'static str); 3] {
    [
        ("extract", ExtractKernel::default().name()),
        ("place", PlaceKernel::default().name()),
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
    command_line: String,
}

impl RunOptions {
    /// Parse an `hls_congest` argument list (without the program name):
    /// the selector is the command. A flag given twice keeps its first
    /// value.
    ///
    /// # Errors
    /// An unknown flag, a value flag without a value, or a flag the
    /// command does not read.
    pub fn from_args<S: AsRef<str>>(args: &[S]) -> Result<RunOptions, ArgError> {
        Self::parse_for(Program::HlsCongest, args)
    }

    /// Parse an `experiments` argument list (without the program name):
    /// the selector is the experiment, `all` when there is none.
    ///
    /// # Errors
    /// As [`Self::from_args`].
    pub fn from_experiment_args<S: AsRef<str>>(args: &[S]) -> Result<RunOptions, ArgError> {
        Self::parse_for(Program::Experiments, args)
    }

    fn parse_for<S: AsRef<str>>(program: Program, args: &[S]) -> Result<RunOptions, ArgError> {
        let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
        let mut given = Vec::new();
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
            let entry = lookup(token).ok_or_else(|| ArgError::UnknownFlag(token.to_string()))?;
            given.push(entry.0);
            match entry {
                (flag, false) => {
                    opts.switches.insert(flag);
                }
                (flag, true) => {
                    let value = tokens
                        .next_if(|next| lookup(next).is_none())
                        .ok_or(ArgError::MissingValue(flag))?;
                    opts.values.entry(flag).or_insert_with(|| value.to_string());
                }
            }
        }
        let command = match (program, opts.selector.as_deref()) {
            (_, Some(selector)) => selector,
            (Program::Experiments, None) => DEFAULT_EXPERIMENT,
            (Program::HlsCongest, None) => "",
        };
        if let Some(flag) = given.into_iter().find(|f| !reads(program, command, f)) {
            return Err(ArgError::NotForCommand(flag, command.to_string()));
        }
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

    fn parse_experiment(line: &str) -> Result<RunOptions, ArgError> {
        RunOptions::from_experiment_args(&line.split_whitespace().collect::<Vec<_>>())
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
        let opts = parse_experiment("--fast --ledger-out reports/runs.jsonl place-bench").unwrap();
        assert_eq!(opts.selector.as_deref(), Some("place-bench"));
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
            // congestd runs each stage once: there is no retry budget.
            ("serve --max-retries 2", unknown("--max-retries")),
            ("dataset a.mhls -o", MissingValue("-o")),
            (
                "dataset --fingerprint-out --router-stats",
                MissingValue("--fingerprint-out"),
            ),
            // Only `serve` reads the fault plan.
            (
                "dataset a.mhls --fault-plan p.json",
                NotForCommand("--fault-plan", "dataset".into()),
            ),
            (
                "--fault-plan p.json dataset",
                NotForCommand("--fault-plan", "dataset".into()),
            ),
            (
                "serve-client --fault-plan p.json",
                NotForCommand("--fault-plan", "serve-client".into()),
            ),
            // An output flag is refused by a command that writes no such
            // output.
            (
                "compile mac16.mhls --metrics-out m.json",
                NotForCommand("--metrics-out", "compile".into()),
            ),
            (
                "implement mac16.mhls --ledger-out l.jsonl",
                NotForCommand("--ledger-out", "implement".into()),
            ),
            (
                "predict a.mhls --data d.csv --ledger-out l.jsonl",
                NotForCommand("--ledger-out", "predict".into()),
            ),
            (
                "serve-client --addr a:1 --status --trace-out t.json",
                NotForCommand("--trace-out", "serve-client".into()),
            ),
            // congestd records no spans: no trace, no profile.
            (
                "serve --trace-out t.json",
                NotForCommand("--trace-out", "serve".into()),
            ),
            (
                "serve --profile",
                NotForCommand("--profile", "serve".into()),
            ),
            (
                "--metrics-out m.json",
                NotForCommand("--metrics-out", String::new()),
            ),
            // Another command's flag is refused, not ignored.
            (
                "dataset mac16.mhls -o x.csv --journal j.jsonl",
                NotForCommand("--journal", "dataset".into()),
            ),
            (
                "dataset a.mhls --fast",
                NotForCommand("--fast", "dataset".into()),
            ),
            (
                "predict a.mhls --data d.csv --model gbrt",
                NotForCommand("--model", "predict".into()),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse(line).unwrap_err(), want, "{line}");
        }
        for (line, want) in [
            ("--fast --max-retries 1 table4", unknown("--max-retries")),
            (
                "--fast --addr 1.2.3.4:5 --journal j table1",
                NotForCommand("--addr", "table1".into()),
            ),
            ("--workers 2", NotForCommand("--workers", "all".into())),
            ("dataset -o x.csv", NotForCommand("-o", "dataset".into())),
        ] {
            assert_eq!(parse_experiment(line).unwrap_err(), want, "{line}");
        }
        assert_eq!(
            unknown("--gbrt-bins").to_string(),
            "unknown flag `--gbrt-bins`"
        );
        assert_eq!(
            NotForCommand("--journal", "dataset".into()).to_string(),
            "`--journal` does not apply to `dataset`"
        );
        assert_eq!(
            NotForCommand("--workers", String::new()).to_string(),
            "`--workers` needs a command that reads it"
        );
        // A value is parsed where it is read.
        assert_eq!(
            parse("serve --queue-capacity x")
                .unwrap()
                .parse::<usize>("--queue-capacity"),
            Err(BadValue("--queue-capacity", "x".into()))
        );
    }

    /// What each command reads, written out by hand from the binaries
    /// (beside `--version`, which every command reads): the table must
    /// admit exactly these, and refuse every other flag on every command.
    #[test]
    fn every_flag_is_refused_by_every_command_that_does_not_read_it() {
        use ArgError::NotForCommand;
        let every = "--version";
        let hls_congest = [
            ("compile", ""),
            ("synth", ""),
            (
                "implement",
                "--router-stats --trace-out --metrics-out --profile",
            ),
            (
                "dataset",
                "-o --out --workers --router-stats --fingerprint-out --trace-out --metrics-out \
                 --ledger-out --profile",
            ),
            (
                "train",
                "--model --target --model-out --model-version --trace-out --metrics-out \
                 --ledger-out --profile",
            ),
            ("predict", "--data --trace-out --metrics-out --profile"),
            ("drift", ""),
            (
                "serve",
                "--model --addr --golden --mae-band --expect-features --queue-capacity \
                 --serve-workers --deadline-ms --batch-max-rows --cache-capacity --journal \
                 --fault-plan --metrics-out --ledger-out",
            ),
            (
                "serve-client",
                "--addr --deadline-ms --id --status --shutdown --rollback --swap --rows-from \
                 --limit --source",
            ),
        ];
        let experiment_reads =
            "--fast --grid-search --trace-out --metrics-out --ledger-out --profile";
        let experiments = [
            "table1",
            "table4",
            "fig6",
            "dataset",
            "serve-bench",
            "regress",
        ];
        let among = |list: &str, flag: &str| list.split_whitespace().any(|f| f == flag);
        let mut flags: Vec<(&str, bool)> = FLAGS
            .iter()
            .flat_map(|(_, flags)| flags.split_whitespace())
            .map(|word| word.strip_suffix('=').map_or((word, false), |f| (f, true)))
            .collect();
        flags.sort_unstable();
        flags.dedup();
        assert!(
            flags.windows(2).all(|w| w[0].0 != w[1].0),
            "a flag takes a value in every group or in none: {flags:?}"
        );
        assert_eq!(flags.len(), 36, "{flags:?}");
        let mut refused = 0;
        for &(flag, value) in &flags {
            let line = |command: Option<&'static str>| {
                let mut line: Vec<&str> = command.into_iter().collect();
                line.push(flag);
                if value {
                    line.push("1");
                }
                line
            };
            for (command, reads) in hls_congest {
                let got = RunOptions::from_args(&line(Some(command)));
                if among(every, flag) || among(reads, flag) {
                    assert!(got.is_ok(), "{command} {flag}: {got:?}");
                } else {
                    let want = NotForCommand(flag, command.to_string());
                    assert_eq!(got.unwrap_err(), want);
                    refused += 1;
                }
            }
            let got = RunOptions::from_args(&line(None));
            assert_eq!(got.is_ok(), among(every, flag), "{flag}: {got:?}");
            for command in experiments.map(Some).into_iter().chain([None]) {
                let got = RunOptions::from_experiment_args(&line(command));
                if among(every, flag) || among(experiment_reads, flag) {
                    assert!(got.is_ok(), "{command:?} {flag}: {got:?}");
                } else {
                    let want = NotForCommand(flag, command.unwrap_or("all").to_string());
                    assert_eq!(got.unwrap_err(), want);
                    refused += 1;
                }
            }
        }
        assert!(refused > 300, "{refused}");
    }

    #[test]
    fn ledger_records_carry_every_kernel_stamp() {
        let path = std::env::temp_dir().join(format!("core-cli-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts =
            RunOptions::from_args(&["train", "--ledger-out", path.to_str().unwrap()]).unwrap();
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
