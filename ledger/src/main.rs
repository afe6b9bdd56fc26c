//! `ledger` — the repository's benchmark: five fixed workloads, driven
//! from outside through the library crates' public functions, each
//! measured end to end and, in a second traced run, layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- --workload onboard_noshed --seed 42
//! cargo run --release --manifest-path ledger/Cargo.toml -- --smoke
//! cargo run --release --manifest-path ledger/Cargo.toml -- --compare a.json b.json
//! ```
//!
//! See `README.md` next to this package for why each workload exists,
//! the metric ↔ layer table and the bounds.
//!
//! # Library surface the ledger calls
//!
//! Only what ROADMAP item 2 says survives, so API-collapse and
//! header-view changes can land without editing benchmark files:
//!
//! * `sentinel-core`: `FingerprintDataset::collect`,
//!   `IoTSecurityService::{train, identifier, vulndb,
//!   enable_verdict_cache, verdict_cache_stats}`,
//!   `SecurityService::{assess_keyed_batch, assess_keyed_batch_into}`,
//!   `AssessScratch`, `AssessKey`, `Identifier::classify_batch_in` +
//!   `ClassifyScratch` (stage-1 replay),
//!   `VulnerabilityDatabase::{assess, vendor_endpoints}` (replay);
//! * `sentinel-snapshot`: `Snapshot::{of_service, encode, decode,
//!   into_service}`;
//! * `sentinel-stream`: `StreamRuntime::{with_config, ingest_frames,
//!   ingest_frames_deferred, flush, flush_deferred, reset, enforce,
//!   stats, resident_sessions, enforcement, enforcement_mut, switch,
//!   switch_mut}`, `apply_onboarding`, `Completion`, `StreamConfig`,
//!   `StreamStats`;
//! * `sentinel-netproto`: `Packet::{parse, encode}`, `WireScan::scan`;
//! * `sentinel-fingerprint`: `FeatureExtractor::{with_capacity,
//!   push_raw, finish}`, `FixedFingerprint::from_fingerprint`,
//!   `extract_frames`;
//! * `sentinel-sdn`: `EnforcementModule::{new, cache}`,
//!   `RuleCache::{get, len, hits, lookups, memory_bytes}`,
//!   `FlowTable::{action, expire_idle}`, `FlowKey::of`;
//! * `sentinel-fleet`: `FleetConfig`, `workload::build_home_workload`,
//!   `run_fleet` (oracle and the never-gated simulator figure);
//! * `sentinel-devicesim`: `catalog`, `confusable_groups`, `Testbed`,
//!   `interleave_at` (synthesis only, before the clock).

mod alloc;
mod clock;
mod compare;
mod host;
mod json;
mod measure;
mod model;
mod output;
mod registry;
mod stats;
mod synth;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use clock::Laps;
use json::Json;
use model::Model;
use stats::Summary;
use workloads::{Failed, Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Full set-ups per untraced run; `setup_s` is built from their stages.
const SETUPS: u32 = 5;
/// Measuring time of a workload run when `--seconds` is not given: 12 s
/// per mode, the window at which medians repeat to within the bounds.
const DEFAULT_SECONDS: f64 = 24.0;
/// Longest traced run, and longest untraced reference inside one.
const TRACED_SECONDS: f64 = 5.0;
const REFERENCE_SECONDS: f64 = 3.0;

const USAGE: &str = "usage:
  ledger --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--json <path>]
  ledger --smoke [--seed <u64>] [--json <path>]
  ledger --compare <a.json> <b.json>
workloads: onboard_noshed onboard_shed iotssp_confusable enforce_steady fleet_presynth";

enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        /// `Some(false)`: untraced run only; `Some(true)`: traced run
        /// only; `None`: both.
        trace: Option<bool>,
        json: Option<PathBuf>,
    },
    Smoke {
        seed: u64,
        json: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = None;
    let mut json = None;
    let mut smoke = false;
    let mut compare = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !registry::is_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                workload = Some(name);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number of seconds in (0, 3600]")?;
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--json" => json = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (compare, smoke, workload) {
        (Some((a, b)), false, None) => Ok(Command::Compare(a, b)),
        (None, true, None) => Ok(Command::Smoke { seed, json }),
        (None, false, Some(workload)) => Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
            json,
        }),
        _ => Err("give exactly one of --workload, --smoke and --compare".into()),
    }
}

/// The set-up rounds of a run. Each is lapped stage by stage, and
/// `setup_s` is the sum of each stage's fastest repetition (see
/// `clock::Laps`); the per-round totals give the quartiles beside it.
#[derive(Default)]
struct SetUps {
    quiet_stages: Vec<u64>,
    rounds: Vec<f64>,
}

impl SetUps {
    fn record(&mut self, stages: &[u64]) {
        self.rounds.push(stages.iter().sum::<u64>() as f64 / 1e9);
        clock::keep_fastest(&mut self.quiet_stages, stages);
    }

    fn setup_s(mut self) -> Summary {
        Summary {
            value: self.quiet_stages.iter().sum::<u64>() as f64 / 1e9,
            ..Summary::of(&mut self.rounds).expect("at least one set-up")
        }
    }
}

/// One full set-up charged from `start`: trains, snapshots, synthesizes
/// and runs every oracle. `then` gets what it built, and the stage laps.
fn set_up<R>(
    (name, seed, scale): (&str, u64, Scale),
    start: Instant,
    then: impl FnOnce(&Model, &mut dyn Workload, &[u64]) -> Result<R, Failed>,
) -> Result<R, Failed> {
    let mut stages = Vec::new();
    let mut clock = Laps::start_at(&mut stages, start);
    let model = Model::build(&mut clock)?;
    let mut workload = workloads::build(name, &model, seed, scale, &mut clock)?;
    clock.lap();
    then(&model, workload.as_mut(), &stages)
}

/// One workload, measured. Prints every metric, then returns the
/// `--json` document (when `document` asks for it: it fingerprints the
/// host, which a driver run confined to its checkout must not) and the
/// driver's result line.
#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    scale: Scale,
    setups: u32,
    process_start: Instant,
    document: bool,
) -> Result<(Option<Json>, String), Failed> {
    let what = (name, seed, scale);
    // The first set-up, charged from process start, is the one measured
    // on; the others are only timed, spread over the untraced run.
    set_up(what, process_start, |model, workload, stages| {
        let mut set_ups = SetUps::default();
        set_ups.record(stages);
        let mut again = || {
            set_up(what, Instant::now(), |_, _, stages| {
                set_ups.record(stages);
                Ok(())
            })
        };
        let no_pause = &mut || Ok(());

        let n_types = sentinel_devicesim::catalog().len();
        let traced_seconds = (seconds * 0.5).min(TRACED_SECONDS);
        let (untraced, traced) = match trace {
            Some(true) => {
                let reference_seconds = (seconds * 0.3).min(REFERENCE_SECONDS);
                let reference = measure::untraced(workload, reference_seconds, 0, no_pause)?;
                let traced = measure::traced(workload, traced_seconds, &reference, n_types)?;
                (None, Some(traced))
            }
            _ => {
                let untraced = measure::untraced(workload, seconds, setups - 1, &mut again)?;
                let traced = match trace {
                    Some(_) => None,
                    None => Some(measure::traced(
                        workload,
                        traced_seconds,
                        &untraced,
                        n_types,
                    )?),
                };
                (Some(untraced), traced)
            }
        };
        let run = output::Run {
            workload: name,
            seed,
            smoke: scale.devices != Scale::FULL.devices,
            setup_s: set_ups.setup_s(),
            facts: workload.facts(),
            model,
            untraced: untraced.as_ref(),
            traced: traced.as_ref(),
        };
        run.print();
        if let (Some(traced), Some(path)) = (&traced, output::trace_path(name)) {
            match output::write_file(&path, &trace::to_json(&traced.spans).to_line()) {
                Ok(()) => println!("trace_file {}", path.display()),
                Err(error) => eprintln!("ledger: cannot write {}: {error}", path.display()),
            }
        }
        Ok((document.then(|| run.document()), run.driver_line()))
    })
}

fn write_json(path: &Path, document: &Json) -> Result<(), String> {
    output::write_file(path, &document.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(problem) => {
            eprintln!("ledger: {problem}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome: Result<(), String> = match command {
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
            json,
        } => {
            // `setup_s` is only reported by an untraced run.
            let setups = if trace == Some(true) { 1 } else { SETUPS };
            run_workload(
                &workload,
                seed,
                seconds,
                trace,
                Scale::FULL,
                setups,
                process_start,
                json.is_some(),
            )
            .map_err(|failed| failed.to_string())
            .and_then(|(document, line)| {
                if let (Some(path), Some(document)) = (json, document) {
                    write_json(&path, &document)?;
                }
                println!("{line}");
                Ok(())
            })
        }
        Command::Smoke { seed, json } => registry::WORKLOADS
            .iter()
            .map(|(name, _)| {
                let now = Instant::now();
                run_workload(name, seed, 1.0, None, Scale::SMOKE, 1, now, json.is_some())
                    .map(|(document, _)| document)
                    .map_err(|failed| format!("{name}: {failed}"))
            })
            .collect::<Result<Vec<_>, _>>()
            .and_then(|documents| match &json {
                Some(path) => {
                    write_json(path, &Json::Arr(documents.into_iter().flatten().collect()))
                }
                None => Ok(()),
            }),
        Command::Compare(a, b) => read_json(&a)
            .and_then(|a| Ok((a, read_json(&b)?)))
            .and_then(|(a, b)| compare::compare(&a, &b))
            .and_then(|clean| {
                if clean {
                    Ok(())
                } else {
                    Err("at least one metric regressed".into())
                }
            }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(problem) => {
            eprintln!("ledger: {problem}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
            json,
        }) = parse_args(&args(
            "--workload fleet_presynth --seed 7 --seconds 20 --trace 1",
        ))
        else {
            panic!("did not parse as a run");
        };
        assert_eq!(
            (workload.as_str(), seed, seconds),
            ("fleet_presynth", 7, 20.0)
        );
        assert_eq!((trace, json), (Some(true), None));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload onboard_shed --smoke",
            "--workload onboard_shed --seed -1",
            "--workload onboard_shed --seconds 0",
            "--workload onboard_shed --trace 2",
            "--workload onboard_shed --threads 2",
            "--compare a.json",
            "--seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?} must be refused");
        }
        assert!(matches!(
            parse_args(&args("--smoke --seed 9")),
            Ok(Command::Smoke { seed: 9, .. })
        ));
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Command::Compare(..))
        ));
    }

    /// One smoke pass of every workload, all oracles on, through both
    /// the untraced and the traced run.
    #[test]
    fn every_workload_passes_its_oracles_at_smoke_scale() {
        for (name, _) in registry::WORKLOADS {
            let (document, line) =
                run_workload(name, 42, 0.2, None, Scale::SMOKE, 1, Instant::now(), true)
                    .unwrap_or_else(|failed| panic!("{name}: {failed}"));
            let document = document.expect("asked for");
            let result = Json::parse(&line).unwrap();
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap();
            for metric in registry::END_TO_END {
                let value = metrics.get(metric.name).and_then(|m| m.get("value"));
                // Test threads share the counting allocator, so a live-heap
                // difference taken here can be anything, 0 included.
                let floor = if metric.name == "resident_bytes_per_unit" {
                    0.0
                } else {
                    f64::MIN_POSITIVE
                };
                assert!(
                    value.and_then(Json::as_f64).is_some_and(|v| v >= floor),
                    "{name}: {} must be reported and never 0",
                    metric.name
                );
            }
            assert!(!document
                .get("checks")
                .unwrap_or(&Json::Null)
                .to_line()
                .is_empty());
            let layers = document.get("layers").unwrap();
            assert!(layers.get("stream.residual_share").is_some(), "{name}");
            assert!(layers.get("trace_overhead_share").is_some(), "{name}");
        }
    }

    /// After a traced run the driver's line carries every per-layer
    /// metric of the table, and nothing else.
    #[test]
    fn a_traced_run_reports_every_per_layer_metric() {
        let (document, line) = run_workload(
            "enforce_steady",
            3,
            0.2,
            Some(true),
            Scale::SMOKE,
            1,
            Instant::now(),
            true,
        )
        .unwrap();
        let document = document.expect("asked for");
        let result = Json::parse(&line).unwrap();
        let reported: Vec<&str> = result
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(name, _)| name.as_str())
            .collect();
        let table: Vec<&str> = registry::PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(reported, table);
        // Every layer the run measured is one the table knows.
        for (name, _) in document.get("layers").unwrap().fields() {
            assert!(
                table.contains(&name.as_str()) || name == "stream.threads2_ratio",
                "{name} is reported but not in the per-layer table"
            );
        }
        let value = |name: &str| {
            result
                .get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert!(value("sdn.switch_ns_per_packet").unwrap() > 0.0);
        assert_eq!(
            value("netproto.scan_ns_per_frame"),
            Some(0.0),
            "not on this path"
        );
    }
}
