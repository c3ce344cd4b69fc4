//! The `experiments` CLI rejects malformed invocations up front: an unknown
//! flag, a flag without a value or a value that does not parse prints the
//! usage and exits with status 2 before anything runs or is written.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh scratch directory for one invocation, so no run writes into
/// the repository's `results/`.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("experiments-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn experiments(name: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = scratch(name);
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run experiments");
    (output, dir)
}

/// The invocation exits with status 2, names `needle` on stderr, prints
/// the usage, and writes nothing.
fn assert_rejected(name: &str, args: &[&str], needle: &str) {
    let (output, dir) = experiments(name, args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} ran something");
    assert!(!dir.join("results").exists(), "{args:?} wrote results");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn an_unparseable_value_is_rejected() {
    assert_rejected("jobs", &["fig5", "--jobs", "abc"], "--jobs");
    assert_rejected("hours", &["fig5", "--hours", "-3"], "--hours");
}

#[test]
fn an_unknown_flag_is_rejected() {
    assert_rejected("bogus", &["fig5", "--bogus", "1"], "--bogus");
}

/// The runtime reference modes the CLI once selected, as `(command, flag
/// name, value)`: a stale script passing one must fail loudly instead of
/// silently running the production path.
const REMOVED_MODE_FLAGS: [(&str, &str, &str); 2] = [
    ("fig13", "scoring", "scalar"),
    ("shard-smoke", "replication", "full"),
];

#[test]
fn the_removed_mode_flags_are_rejected() {
    for (command, name, value) in REMOVED_MODE_FLAGS {
        let flag = format!("--{name}");
        assert_rejected(name, &[command, &flag, value], &flag);
    }
}

#[test]
fn a_missing_or_repeated_value_is_rejected() {
    assert_rejected("missing", &["fig5", "--seed"], "--seed");
    assert_rejected("twice", &["fig5", "--seed", "1", "--seed", "2"], "--seed");
}

#[test]
fn the_removed_commands_are_rejected() {
    for command in ["bench", "scale", "shard-scale"] {
        assert_rejected(command, &[command], command);
    }
}

#[test]
fn a_well_formed_invocation_runs() {
    let (output, dir) = experiments("ok", &["fig5", "--seed", "7", "--scenario", "static"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("scale-up  applicability: 0.600"),
        "{stdout}"
    );
    assert!(dir.join("results/timings.csv").exists());
    std::fs::remove_dir_all(dir).ok();
}
