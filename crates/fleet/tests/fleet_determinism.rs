//! Fleet-level determinism: a run is a pure function of `(model, seed,
//! config shape)` — thread count and gateway-construction order must
//! not leak into a single byte of the report.

use std::time::Duration;

use sentinel_core::{FingerprintDataset, IoTSecurityService, ServiceConfig};
use sentinel_devicesim::catalog;
use sentinel_fleet::{roamer_route, run_fleet, run_home, FleetConfig};
use sentinel_stream::StreamStats;

fn trained_service() -> IoTSecurityService {
    let devices: Vec<_> = catalog().into_iter().take(6).collect();
    let dataset = FingerprintDataset::collect(&devices, 8, 42);
    IoTSecurityService::train(&dataset, &ServiceConfig::default())
}

fn small_config() -> FleetConfig {
    FleetConfig {
        homes: 9,
        devices_per_home: 3,
        ..FleetConfig::default()
    }
}

#[test]
fn byte_identical_across_thread_counts() {
    let service = trained_service();
    let config = small_config();
    let baseline = run_fleet(&service, &config);
    let baseline_bytes = serde_json::to_vec(&baseline).unwrap();

    for threads in [1usize, 2, 4] {
        // Exercise both explicit thread counts and the SENTINEL_THREADS
        // auto path (threads: 0).
        let explicit = run_fleet(
            &service,
            &FleetConfig {
                threads,
                ..config.clone()
            },
        );
        assert_eq!(
            serde_json::to_vec(&explicit).unwrap(),
            baseline_bytes,
            "threads={threads} diverged from baseline"
        );

        std::env::set_var("SENTINEL_THREADS", threads.to_string());
        let auto = run_fleet(
            &service,
            &FleetConfig {
                threads: 0,
                ..config.clone()
            },
        );
        std::env::remove_var("SENTINEL_THREADS");
        assert_eq!(
            serde_json::to_vec(&auto).unwrap(),
            baseline_bytes,
            "SENTINEL_THREADS={threads} diverged from baseline"
        );
    }
}

#[test]
fn byte_identical_across_gateway_construction_order() {
    let service = trained_service();
    let config = small_config();
    let fleet = run_fleet(&service, &config);

    // Rebuild every gateway by hand in reverse order: identical homes.
    let devices = catalog();
    let mut homes: Vec<_> = (0..config.homes)
        .rev()
        .map(|home| run_home(&service, &config, &devices, home))
        .collect();
    homes.reverse();
    assert_eq!(
        serde_json::to_vec(&fleet.homes).unwrap(),
        serde_json::to_vec(&homes).unwrap()
    );
}

#[test]
fn same_seed_same_report_fresh_services() {
    // Even the trained service is reproducible: two runs from scratch.
    let a = run_fleet(&trained_service(), &small_config());
    let b = run_fleet(&trained_service(), &small_config());
    assert_eq!(
        serde_json::to_vec(&a).unwrap(),
        serde_json::to_vec(&b).unwrap()
    );
    assert_ne!(
        serde_json::to_vec(&a).unwrap(),
        serde_json::to_vec(&run_fleet(
            &trained_service(),
            &FleetConfig {
                seed: 43,
                ..small_config()
            }
        ))
        .unwrap(),
        "different seed must produce a different fleet"
    );
}

/// A roaming device completes part of its setup at the origin gateway
/// and the rest at the destination: it must be assessed exactly once
/// per gateway it completes setup on, and nowhere else.
#[test]
fn roamer_assessed_exactly_once_per_gateway() {
    let service = trained_service();
    let config = small_config();
    let report = run_fleet(&service, &config);

    let mut saw_roamer = false;
    for home in 0..config.homes {
        let Some((origin, destination)) = roamer_route(&config, home) else {
            continue;
        };
        let origin_home = report.home(origin);
        let destination_home = report.home(destination);
        let Some(mac) = origin_home.roam_out else {
            continue;
        };
        saw_roamer = true;
        assert_eq!(destination_home.roam_in, Some(mac));
        let at_origin = origin_home.reports.iter().filter(|r| r.mac == mac).count();
        let at_destination = destination_home
            .reports
            .iter()
            .filter(|r| r.mac == mac)
            .count();
        assert_eq!(at_origin, 1, "roamer {mac} at origin home {origin}");
        assert_eq!(
            at_destination, 1,
            "roamer {mac} at destination home {destination}"
        );
        for (index, other) in report.homes.iter().enumerate() {
            if index == origin || index == destination {
                continue;
            }
            assert!(
                other.reports.iter().all(|r| r.mac != mac),
                "roamer {mac} leaked into home {index}"
            );
        }
    }
    assert!(saw_roamer, "config produced no roaming device");
}

#[test]
fn fleet_counters_are_consistent() {
    let service = trained_service();
    let config = small_config();
    let report = run_fleet(&service, &config);
    let stats = &report.stats;

    assert_eq!(stats.homes, config.homes);
    assert_eq!(
        stats.onboarded,
        report
            .homes
            .iter()
            .map(|h| h.reports.len() as u64)
            .sum::<u64>()
    );
    assert_eq!(stats.onboarded, stats.identified + stats.unknown);
    assert_eq!(stats.onboarded, stats.rules_installed);
    // Every onboarding fires one own-MAC probe and one stranger probe.
    assert_eq!(stats.cache_lookups, 2 * stats.onboarded);
    assert_eq!(
        stats.probes_allowed + stats.probes_denied,
        stats.cache_lookups
    );
    assert!(
        stats.cache_hits >= stats.onboarded,
        "own-MAC probes must hit"
    );
    assert!(stats.hit_ratio() > 0.0 && stats.hit_ratio() <= 1.0);
    assert!(stats.rules_removed > 0, "leave cadence produced no leaves");
    assert_eq!(
        stats.rules_resident,
        stats.rules_installed - stats.rules_removed
    );
    // Ingest has no decode fallback, and the simulator emits nothing
    // the decoder would reject.
    assert_eq!(stats.frames_decoded, 0);
    assert_eq!(stats.frames_malformed, 0);
    assert!(stats.roams > 0);
}

/// The tick is a scheduling granularity: it decides when leaves land,
/// never what a device is identified as or how a gateway counts it. A
/// zero tick reads as one microsecond.
#[test]
fn reports_do_not_depend_on_the_tick() {
    let service = trained_service();
    let config = small_config();
    let baseline = run_fleet(&service, &config);
    for tick in [
        Duration::ZERO,
        Duration::from_micros(1),
        Duration::from_millis(1),
        Duration::from_secs(10),
    ] {
        let report = run_fleet(
            &service,
            &FleetConfig {
                tick,
                ..config.clone()
            },
        );
        for (home, expected) in report.homes.iter().zip(&baseline.homes) {
            let at = format!("tick {tick:?}, home {}", home.home);
            assert_eq!(home.reports, expected.reports, "{at}");
            // Sampled once per ingest call, so it follows the tick.
            let stats = StreamStats {
                peak_resident_sessions: expected.stats.peak_resident_sessions,
                ..home.stats.clone()
            };
            assert_eq!(stats, expected.stats, "{at}");
            assert_eq!(
                home.rules_installed,
                home.rules_removed + home.rules_resident,
                "{at}"
            );
        }
    }
}

#[test]
fn display_is_stable() {
    let service = trained_service();
    let report = run_fleet(&service, &small_config());
    let line = report.stats.to_string();
    assert!(line.contains("9 homes"));
    assert!(line.contains("max home peak"));
}
