//! The `sentinel` command line rejects a bad flag value the way it
//! rejects an unknown flag: one stderr line naming the flag and exit
//! code 2, never a panic. `sentinel fingerprint` reads a capture's frames
//! through the wire scan: it prints what `extract` gives on the packets
//! the capture was written from, skips a frame the scan rejects as the
//! gateway does, and a capture it cannot read is one `error:` line and
//! exit code 1.

use std::path::PathBuf;
use std::process::{Command, Output};

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::fingerprint::extract;
use iot_sentinel::netproto::pcap::PcapReader;
use iot_sentinel::netproto::{Packet, RawFeatures};

fn sentinel(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sentinel"))
        .args(args)
        .output()
        .expect("the sentinel binary runs")
}

/// A capture path of this test process's own, removed on drop.
struct TempCapture(PathBuf);

impl TempCapture {
    fn new(name: &str) -> Self {
        let file = format!("sentinel-cli-{}-{name}.pcap", std::process::id());
        TempCapture(std::env::temp_dir().join(file))
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("a UTF-8 temp path")
    }
}

impl Drop for TempCapture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs `sentinel` with `args` and asserts a usage error naming `flag`.
fn rejects(args: &[&str], flag: &str) {
    let output = sentinel(args);
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

#[test]
fn fingerprint_prints_the_columns_extract_gives_on_the_same_trace() {
    let devices = catalog();
    let hue = devices
        .iter()
        .find(|d| d.info.identifier == "HueBridge")
        .expect("catalog");
    let testbed = Testbed::new(42);
    let traces = [
        ("setup", testbed.setup_run(&hue.profile, 0)),
        ("standby", testbed.standby_run(&hue.profile, 0, 3)),
    ];
    for (kind, trace) in traces {
        let capture = TempCapture::new(kind);
        let mut simulate = vec!["simulate", "HueBridge", capture.path()];
        if kind == "standby" {
            simulate.push("--standby");
        }
        assert!(sentinel(&simulate).status.success(), "{kind}");
        let output = sentinel(&["fingerprint", capture.path()]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{kind}: {stdout}");
        let packets = format!("{}: {} packets", capture.path(), trace.packets.len());
        assert_eq!(stdout.lines().next(), Some(packets.as_str()), "{kind}");
        let columns = format!(
            "fingerprint F: {} packet columns (consecutive duplicates removed)",
            extract(&trace.packets).len()
        );
        assert!(
            stdout.lines().any(|line| line == columns),
            "{kind}: {stdout}"
        );
    }
}

/// Writes `capture` to a file and asserts that `sentinel fingerprint`
/// fails on it with one `error:` line saying what decoding the capture
/// (`PcapReader::read_all`) says, exit code 1 and no panic.
fn fails_as_decoding_does(name: &str, capture: &[u8]) {
    let decoded = PcapReader::new(capture).and_then(|mut reader| reader.read_all());
    let expected = format!("error: {}", decoded.expect_err("an unreadable capture"));
    let file = TempCapture::new(name);
    std::fs::write(&file.0, capture).unwrap();
    let output = sentinel(&["fingerprint", file.path()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
    assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    assert_eq!(stderr.lines().collect::<Vec<_>>(), [expected], "{name}");
}

#[test]
fn an_unreadable_capture_fails_and_a_frame_the_scan_rejects_is_skipped() {
    let devices = catalog();
    let testbed = Testbed::new(42);
    let trace = testbed.setup_run(&devices[0].profile, 0);
    let mut capture = Vec::new();
    testbed.export_pcap(&trace, &mut capture).unwrap();

    // A capture cut inside its last frame.
    fails_as_decoding_does("cut", &capture[..capture.len() - 30]);

    // A frame whose IPv4 header checksum is wrong, after the good ones:
    // the scan rejects it with the decoder's own error, and the command
    // skips it as the gateway does, saying so on one stderr line.
    let ipv4 = trace
        .packets
        .iter()
        .find(|p| matches!(p.dst_ip(), Some(std::net::IpAddr::V4(_))))
        .expect("an IPv4 packet");
    let mut bad = ipv4.encode();
    bad[24] ^= 0xff;
    let parse_error = Packet::parse(&bad, ipv4.timestamp).expect_err("a bad checksum");
    assert_eq!(RawFeatures::from_frame(&bad).err(), Some(parse_error));
    let file = TempCapture::new("bad-frame");
    std::fs::write(&file.0, &capture).unwrap();
    let clean = sentinel(&["fingerprint", file.path()]);
    assert!(clean.status.success());
    assert!(clean.stderr.is_empty());
    let len = (bad.len() as u32).to_le_bytes();
    capture.extend([[0; 4], [0; 4], len, len].as_flattened());
    capture.extend_from_slice(&bad);
    std::fs::write(&file.0, &capture).unwrap();
    let output = sentinel(&["fingerprint", file.path()]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");
    let skipped = format!("{}: skipped malformed frames: 1", file.path());
    assert_eq!(stderr.lines().collect::<Vec<_>>(), [skipped]);
    assert_eq!(output.stdout, clean.stdout);
}
