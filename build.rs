//! Embeds the short git hash at build time so `--version` can report exact
//! build provenance. `congestion-bench` runs this same script for
//! `experiments`. Builds outside a git checkout (e.g. a source tarball)
//! simply omit the `GIT_HASH` env var; consumers fall back via `option_env!`.
//!
//! The script reruns when the commit `HEAD` names can have moved: `HEAD`
//! itself, `packed-refs`, the loose ref of the branch `HEAD` points at,
//! which a commit on that branch rewrites while `HEAD` stays
//! `ref: refs/heads/<branch>`, and `HEAD`'s reflog, which every move of
//! `HEAD` appends to. The reflog covers a branch kept only in
//! `packed-refs`: its next commit writes a loose ref that did not exist
//! when the script last ran. Only files that exist are watched: Cargo
//! counts a missing path as changed and would rerun the script on every
//! build.

use std::path::Path;
use std::process::Command;

fn main() {
    let branch = git(&["symbolic-ref", "-q", "HEAD"]);
    let watched = ["HEAD", "packed-refs", "logs/HEAD"];
    for name in watched.into_iter().chain(branch.as_deref()) {
        if let Some(path) = git(&["rev-parse", "--git-path", name]) {
            if Path::new(&path).exists() {
                println!("cargo:rerun-if-changed={path}");
            }
        }
    }
    if let Some(hash) = git(&["rev-parse", "--short=12", "HEAD"]) {
        println!("cargo:rustc-env=GIT_HASH={hash}");
    }
}

/// The trimmed output of a successful `git` run, if it printed anything.
/// Paths it prints are relative to the package directory, which is both
/// the script's working directory and what Cargo resolves a relative
/// `rerun-if-changed` path against.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (out.status.success() && !text.is_empty()).then(|| text.to_string())
}
