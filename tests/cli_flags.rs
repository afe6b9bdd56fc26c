//! The `sentinel` command line rejects a bad flag value the way it
//! rejects an unknown flag: one stderr line naming the flag and exit
//! code 2, never a panic.

use std::process::Command;

/// Runs `sentinel` with `args` and asserts a usage error naming `flag`.
fn rejects(args: &[&str], flag: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_sentinel"))
        .args(args)
        .output()
        .expect("the sentinel binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    rejects(&["stream", "--threads", "2"], "--threads");
}

#[test]
fn unparsable_values_are_usage_errors() {
    rejects(&["stream", "--capacity", "abc"], "--capacity");
    rejects(&["stream", "--simulate", "abc"], "--simulate");
    rejects(&["train", "--runs", "-3"], "--runs");
    rejects(
        &["stream", "--simulate", "4", "--stagger-ms", "1.5"],
        "--stagger-ms",
    );
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    for flag in [
        "--runs",
        "--seed",
        "--run",
        "--save",
        "--load",
        "--capacity",
        "--simulate",
        "--stagger-ms",
    ] {
        rejects(&["stream", flag], flag);
    }
}
