//! `sentinel` — command-line front end for the IoT Sentinel pipeline.
//!
//! ```text
//! sentinel devices                          list the device-type catalog
//! sentinel simulate <device> <out.pcap>     export a simulated setup capture
//! sentinel fingerprint <capture.pcap>       print the capture's fingerprint
//! sentinel train --save <model.snap>        train and persist a binary snapshot
//! sentinel identify <capture.pcap>          identify the device-type + verdict
//!          [--load <model.snap>]            (booting from a binary snapshot)
//! sentinel stream <capture.pcap>            stream an interleaved capture through
//!          [--capacity N]                   the Security Gateway runtime
//! sentinel stream --simulate N              …or a simulated N-device workload
//! ```
//!
//! `identify` and `stream` train the IoT Security Service on the
//! built-in catalog (20 setup runs per type, seed 42 — override with
//! `--runs`/`--seed`) unless `--load` points at a binary snapshot
//! (`sentinel-snapshot` format; written by `train --save`). Snapshot boot skips training entirely and
//! restores a service that assesses bit-identically to the trained one.

use std::process::ExitCode;
use std::time::Duration;

use sentinel_core::{FingerprintDataset, IoTSecurityService, SecurityService, ServiceConfig};
use sentinel_devicesim::{catalog, interleave, Testbed};
use sentinel_fingerprint::{extract, FixedFingerprint, FEATURE_NAMES};
use sentinel_netproto::pcap::PcapReader;
use sentinel_netproto::stream::{FrameSource, MemoryFrameSource};
use sentinel_snapshot::{Snapshot, SnapshotBoot};
use sentinel_stream::{StreamConfig, StreamRuntime};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut runs: u64 = 20;
    let mut seed: u64 = 42;
    let mut run: u64 = 0;
    let mut standby = false;
    let mut save: Option<String> = None;
    let mut load: Option<String> = None;
    let mut capacity: usize = 4096;
    let mut simulate_count: Option<usize> = None;
    let mut stagger_ms: u64 = 25;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--runs" => runs = parse_flag(iter.next(), "--runs"),
            "--seed" => seed = parse_flag(iter.next(), "--seed"),
            "--run" => run = parse_flag(iter.next(), "--run"),
            "--standby" => standby = true,
            "--save" => save = iter.next().cloned(),
            "--load" => load = iter.next().cloned(),
            "--capacity" => capacity = parse_flag(iter.next(), "--capacity"),
            "--simulate" => simulate_count = Some(parse_flag(iter.next(), "--simulate")),
            "--stagger-ms" => stagger_ms = parse_flag(iter.next(), "--stagger-ms"),
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
            other => positional.push(other.to_owned()),
        }
    }
    let result = match positional.first().map(String::as_str) {
        Some("devices") => devices(),
        Some("simulate") => simulate(&positional[1..], run, seed, standby),
        Some("fingerprint") => fingerprint(&positional[1..]),
        Some("train") => train(&positional[1..], runs, seed, save.as_deref()),
        Some("identify") => identify(&positional[1..], runs, seed, load.as_deref()),
        Some("stream") => stream(
            &positional[1..],
            runs,
            seed,
            load.as_deref(),
            capacity,
            simulate_count,
            stagger_ms,
        ),
        _ => {
            eprintln!(
                "usage: sentinel <devices|simulate|fingerprint|train|identify|stream> …\n\
                 \n  sentinel devices\
                 \n  sentinel simulate <device> <out.pcap> [--run N] [--seed S] [--standby]\
                 \n  sentinel fingerprint <capture.pcap>\
                 \n  sentinel train --save model.snap [--runs N] [--seed S]\
                 \n  sentinel identify <capture.pcap> [--load model.snap] [--runs N] [--seed S]\
                 \n  sentinel stream <capture.pcap> [--load model.snap] [--capacity N]\
                 \n  sentinel stream --simulate N [--stagger-ms M] [--capacity N]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flag<T: std::str::FromStr>(value: Option<&String>, name: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} needs a numeric value"))
}

fn devices() -> Result<(), Box<dyn std::error::Error>> {
    for device in catalog() {
        println!("{:<18} {}", device.info.identifier, device.info.model);
    }
    Ok(())
}

fn simulate(
    args: &[String],
    run: u64,
    seed: u64,
    standby: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    let [device_name, out_path] = args else {
        return Err("usage: sentinel simulate <device> <out.pcap>".into());
    };
    let devices = catalog();
    let device = devices
        .iter()
        .find(|d| d.info.identifier.eq_ignore_ascii_case(device_name))
        .ok_or_else(|| format!("unknown device {device_name:?} (try `sentinel devices`)"))?;
    let testbed = Testbed::new(seed);
    let trace = if standby {
        testbed.standby_run(&device.profile, run, 3)
    } else {
        testbed.setup_run(&device.profile, run)
    };
    let file = std::fs::File::create(out_path)?;
    testbed.export_pcap(&trace, file)?;
    println!(
        "wrote {} packets ({} capture of {}, run {run}) to {out_path}",
        trace.packets.len(),
        if standby { "standby" } else { "setup" },
        device.info.identifier
    );
    Ok(())
}

fn read_capture(path: &str) -> Result<Vec<sentinel_netproto::Packet>, Box<dyn std::error::Error>> {
    let mut reader = PcapReader::new(std::fs::File::open(path)?)?;
    Ok(reader.read_all()?)
}

fn fingerprint(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let [path] = args else {
        return Err("usage: sentinel fingerprint <capture.pcap>".into());
    };
    let packets = read_capture(path)?;
    println!("{}: {} packets", path, packets.len());
    let full = extract(&packets);
    let fixed = FixedFingerprint::from_fingerprint(&full);
    println!(
        "fingerprint F: {} packet columns (consecutive duplicates removed)",
        full.len()
    );
    println!("fingerprint F': {} dimensions", fixed.dimensions());
    for (i, vector) in full.iter().take(12).enumerate() {
        println!(
            "  p{:<2} protocols [{}] size {} dst#{} ports {}/{}",
            i + 1,
            vector.protocols,
            vector.packet_size,
            vector.dst_ip_counter,
            vector.src_port_class.to_u8(),
            vector.dst_port_class.to_u8(),
        );
    }
    if full.len() > 12 {
        println!("  … {} more columns", full.len() - 12);
    }
    let _ = FEATURE_NAMES; // (feature order documented in sentinel-fingerprint)
    Ok(())
}

fn train(
    args: &[String],
    runs: u64,
    seed: u64,
    save: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let ([], Some(snap_path)) = (args, save) else {
        return Err("usage: sentinel train --save <model.snap>".into());
    };
    eprintln!("training the IoT Security Service ({runs} runs/type, seed {seed})…");
    let service = train_service(runs, seed);
    Snapshot::of_service(&service).save(snap_path)?;
    let bytes = std::fs::metadata(snap_path)?.len();
    println!(
        "wrote binary snapshot ({} device-types, {bytes} bytes) to {snap_path}",
        service.identifier().type_names().len()
    );
    Ok(())
}

fn train_service(runs: u64, seed: u64) -> IoTSecurityService {
    let dataset = FingerprintDataset::collect(&catalog(), runs, seed);
    IoTSecurityService::train(&dataset, &ServiceConfig::default())
}

/// Boots from a binary snapshot, or trains the service on the catalog.
fn build_service(
    load: Option<&str>,
    runs: u64,
    seed: u64,
) -> Result<IoTSecurityService, Box<dyn std::error::Error>> {
    if let Some(snap_path) = load {
        eprintln!("booting from snapshot {snap_path}…");
        return Ok(IoTSecurityService::from_snapshot(snap_path)?);
    }
    eprintln!("training the IoT Security Service ({runs} runs/type, seed {seed})…");
    Ok(train_service(runs, seed))
}

fn stream(
    args: &[String],
    runs: u64,
    seed: u64,
    load: Option<&str>,
    capacity: usize,
    simulate: Option<usize>,
    stagger_ms: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let service = build_service(load, runs, seed)?;
    let config = StreamConfig {
        max_sessions: capacity,
        ..StreamConfig::default()
    };
    let mut runtime = StreamRuntime::with_config(service, config);
    // One ingest path for both inputs: raw frames through the wire
    // scanner, never decoding a Packet for certifiable frames (and never
    // aborting on malformed ones — a live tap's semantics). A capture
    // replays through one reused buffer; the simulator's packets are
    // encoded once up front.
    let mut source: Box<dyn FrameSource> = match simulate {
        Some(n) => {
            let devices = catalog();
            let testbed = Testbed::new(seed ^ 0x57ea);
            let traces: Vec<_> = (0..n)
                .map(|i| {
                    let device = &devices[i % devices.len()];
                    testbed.setup_run(&device.profile, 1000 + (i / devices.len()) as u64)
                })
                .collect();
            let packets = interleave(&traces, Duration::from_millis(stagger_ms));
            eprintln!(
                "streaming {} interleaved simulated setups ({} packets)…",
                n,
                packets.len()
            );
            Box::new(MemoryFrameSource::from_packets(&packets))
        }
        None => {
            let [path] = args else {
                return Err("usage: sentinel stream <capture.pcap> (or --simulate N)".into());
            };
            eprintln!("streaming {path}…");
            Box::new(PcapReader::new(std::fs::File::open(path)?)?)
        }
    };
    // A capture cut mid-record still prints what was decided before the
    // cut, then fails.
    let mut reports = Vec::new();
    let run = runtime.run_frames(&mut *source, &mut reports);
    for report in &reports {
        println!("{report}");
    }
    println!("\n{}", runtime.stats());
    Ok(run?)
}

fn identify(
    args: &[String],
    runs: u64,
    seed: u64,
    load: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let [path] = args else {
        return Err("usage: sentinel identify <capture.pcap>".into());
    };
    let packets = read_capture(path)?;
    let service = build_service(load, runs, seed)?;
    let full = extract(&packets);
    let fixed = FixedFingerprint::from_fingerprint(&full);
    let response = service.assess(&full, &fixed);
    println!("identification: {}", response.identification);
    println!("isolation level: {}", response.isolation);
    if !response.permitted_endpoints.is_empty() {
        println!("permitted endpoints: {:?}", response.permitted_endpoints);
    }
    if let Some(notice) = &response.user_notification {
        println!("USER ACTION REQUIRED: {notice}");
    }
    Ok(())
}
