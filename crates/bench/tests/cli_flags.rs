//! The reproduction binaries reject a bad flag value the way `sentinel`
//! does: one stderr line naming the flag and exit code 2, never a panic
//! and never a silent fall-back to the default.

use std::process::Command;

/// Runs `binary` with `args` and asserts a usage error naming `flag`.
fn rejects(binary: &str, args: &[&str], flag: &str) {
    let output = Command::new(binary)
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?}: nothing runs");
}

#[test]
fn an_unparsable_value_is_a_usage_error() {
    let table3 = env!("CARGO_BIN_EXE_table3_confusion");
    rejects(table3, &["--runs", "abc"], "--runs");
    rejects(table3, &["--quick", "--seed", "-1"], "--seed");
}

#[test]
fn an_unknown_mode_is_a_usage_error() {
    rejects(
        env!("CARGO_BIN_EXE_fig5_accuracy"),
        &["--quick", "--mode", "xyz"],
        "--mode",
    );
}

#[test]
fn a_flag_without_its_value_is_a_usage_error() {
    let table3 = env!("CARGO_BIN_EXE_table3_confusion");
    rejects(table3, &["--quick", "--runs"], "--runs");
    rejects(table3, &["--runs", "--quick"], "--runs");
    rejects(env!("CARGO_BIN_EXE_fig5_accuracy"), &["--mode"], "--mode");
}
