//! The tick-driven multi-gateway fleet simulation.
//!
//! # One home, one gateway
//!
//! [`run_fleet`] is one fork/join over homes. Each worker owns a pooled
//! gateway — one [`StreamRuntime`], reset between homes with its session
//! table and assessment scratch kept warm, and one reusable
//! [`HomeWorkload`] buffer — and runs every home it claims through the
//! path a standalone gateway uses. Per tick, the devices due to leave
//! are forgotten ([`StreamRuntime::remove_device`]), the tick's frames
//! go through [`StreamRuntime::ingest_frames`] (which assesses the
//! tick's completed setups in keyed batches and installs their rules
//! in `(seq, mac)` order), and every new report fires its data-plane
//! probes on the gateway's own enforcement module. The end-of-stream
//! [`StreamRuntime::flush`] settles the same way, and one last leave
//! drain ends the home. No state flows between homes, so which worker
//! runs which home cannot change a byte of the report.

use std::net::IpAddr;

use serde::Serialize;

use sentinel_core::{OnboardingReport, SecurityService};
use sentinel_devicesim::{catalog, DeviceModel};
use sentinel_ml::parallel::{effective_threads, map_indexed_init};
use sentinel_netproto::{MacAddr, Timestamp};
use sentinel_sdn::topology::Topology;
use sentinel_sdn::Destination;
use sentinel_stream::{StreamRuntime, StreamStats};

use crate::workload::HomeWorkload;
use crate::{FleetConfig, FleetStats};

/// Everything one home gateway produced: its streaming counters, the
/// onboarding reports in deterministic `(seq, mac)` emission order, and
/// its enforcement-side accounting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HomeOutcome {
    /// Home index in `0..config.homes`.
    pub home: usize,
    /// The gateway's streaming counters.
    pub stats: StreamStats,
    /// Onboarding reports, in emission order.
    pub reports: Vec<OnboardingReport>,
    /// MAC that roamed away mid-setup, if any.
    pub roam_out: Option<MacAddr>,
    /// MAC that roamed in from the neighbouring home, if any.
    pub roam_in: Option<MacAddr>,
    /// Enforcement rules installed by this gateway.
    pub rules_installed: u64,
    /// Rules removed because the device left.
    pub rules_removed: u64,
    /// Rules still cached when the run ended.
    pub rules_resident: u64,
    /// Rule-cache hits at this gateway.
    pub cache_hits: u64,
    /// Rule-cache lookups at this gateway.
    pub cache_lookups: u64,
    /// Data-plane probe flows allowed.
    pub probes_allowed: u64,
    /// Data-plane probe flows denied.
    pub probes_denied: u64,
}

/// The result of a whole fleet run: summed stats plus every home's
/// outcome, in home order — `PartialEq`/`Serialize` so thread-count
/// sweeps can assert bit-for-bit equality.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Aggregated fleet counters (see [`FleetStats`] for the rules).
    pub stats: FleetStats,
    /// Per-home outcomes, indexed by home.
    pub homes: Vec<HomeOutcome>,
}

impl FleetReport {
    /// The outcome of one home.
    pub fn home(&self, home: usize) -> &HomeOutcome {
        &self.homes[home]
    }
}

/// A MAC no simulated device uses: probing it is a guaranteed cache
/// miss, decided by the gateway's default (strict) level.
const STRANGER: MacAddr = MacAddr::new([0x02, 0xff, 0xff, 0xff, 0xff, 0xfe]);

/// One fleet worker's pooled gateway: a stream runtime whose tables and
/// scratch stay warm across every home the worker claims, plus a
/// reusable workload buffer. Pure scratch under the fork/join contract:
/// [`StreamRuntime::reset`] restores freshly-constructed behavior, so
/// which worker simulates which home cannot influence any result.
struct GatewayPool<'a, S> {
    runtime: StreamRuntime<&'a S>,
    workload: HomeWorkload,
    /// Onboarded devices that leave at the next tick boundary.
    leaving: Vec<MacAddr>,
    /// The lab topology's remote server, every probe's destination.
    remote_ip: IpAddr,
}

impl<'a, S: SecurityService> GatewayPool<'a, S> {
    fn new(service: &'a S, config: &FleetConfig) -> Self {
        let remote = Topology::lab()
            .host("Sremote")
            .expect("lab topology has a remote server")
            .ip;
        GatewayPool {
            runtime: StreamRuntime::with_config(service, config.stream_config()),
            workload: HomeWorkload::default(),
            leaving: Vec::new(),
            remote_ip: IpAddr::V4(remote),
        }
    }

    /// Runs one home end to end on this worker's gateway.
    fn run_home(
        &mut self,
        config: &FleetConfig,
        devices: &[DeviceModel],
        home: usize,
    ) -> HomeOutcome {
        self.runtime.reset();
        self.workload.rebuild(config, devices, home);
        let mut outcome = HomeOutcome {
            home,
            stats: StreamStats::default(),
            reports: Vec::new(),
            roam_out: self.workload.roam_out,
            roam_in: self.workload.roam_in,
            rules_installed: 0,
            rules_removed: 0,
            rules_resident: 0,
            cache_hits: 0,
            cache_lookups: 0,
            probes_allowed: 0,
            probes_denied: 0,
        };
        // Whole microseconds, the capture clock's resolution. A tick
        // without frames only ever drained leaves before the next tick's
        // ingest, so each step runs to the end of the next frame's tick.
        let tick = config.tick.as_micros().max(1);
        let tick_of = |(at, _): &(Timestamp, Vec<u8>)| u128::from(at.as_micros()) / tick;
        let mut cursor = 0;
        while let Some(next) = self.workload.frames().get(cursor).map(tick_of) {
            // Leaves land on tick boundaries, one tick after onboarding.
            self.leave(&mut outcome);
            let frames = &self.workload.frames()[cursor..];
            let end = frames.partition_point(|frame| tick_of(frame) == next);
            let reports = self.runtime.ingest_frames(&frames[..end]);
            self.settle(reports, &mut outcome);
            cursor += end;
        }
        // The end-of-stream flush is not a tick boundary.
        let reports = self.runtime.flush();
        self.settle(reports, &mut outcome);
        self.leave(&mut outcome);

        let cache = self.runtime.enforcement().cache();
        outcome.stats = self.runtime.stats().clone();
        outcome.rules_installed = outcome.reports.len() as u64;
        outcome.rules_resident = cache.len() as u64;
        outcome.cache_hits = cache.hits();
        outcome.cache_lookups = cache.lookups();
        outcome
    }

    /// Forgets the devices queued to leave, their rules with them.
    fn leave(&mut self, outcome: &mut HomeOutcome) {
        for mac in self.leaving.drain(..) {
            if self.runtime.remove_device(mac).is_some() {
                outcome.rules_removed += 1;
            }
        }
    }

    /// Fires one own-MAC and one stranger probe per new report, in
    /// report order, and queues the reported devices that will leave.
    fn settle(&mut self, reports: Vec<OnboardingReport>, outcome: &mut HomeOutcome) {
        let internet = Destination::Internet(self.remote_ip);
        for report in reports {
            let module = self.runtime.enforcement_mut();
            for mac in [report.mac, STRANGER] {
                if module.decide(mac, internet).is_allow() {
                    outcome.probes_allowed += 1;
                } else {
                    outcome.probes_denied += 1;
                }
            }
            if self.workload.leavers.binary_search(&report.mac).is_ok() {
                self.leaving.push(report.mac);
            }
            outcome.reports.push(report);
        }
    }
}

/// Runs the whole fleet: `config.homes` independent home networks
/// against one shared trained service, one home at a time per worker
/// (see the module docs).
///
/// Each home's result is a pure function of `(service, config, home
/// index)` — the v2 keyed RNG contract makes assessment independent of
/// batching and order, and no state flows between homes — so the report
/// is bit-identical at any thread count and for any home-evaluation
/// order.
pub fn run_fleet<S: SecurityService + Sync>(service: &S, config: &FleetConfig) -> FleetReport {
    let devices = catalog();
    let homes = map_indexed_init(
        config.homes,
        effective_threads(config.threads),
        || GatewayPool::new(service, config),
        |pool, home| pool.run_home(config, &devices, home),
    );
    let mut stats = FleetStats {
        homes: config.homes,
        ..FleetStats::default()
    };
    for outcome in &homes {
        stats.absorb(outcome);
    }
    FleetReport { stats, homes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{is_roam_origin, roam_destination};
    use sentinel_core::{FingerprintDataset, IoTSecurityService, ServiceConfig};

    /// Which home a roamer from `home` lands in.
    fn roamer_route(config: &FleetConfig, home: usize) -> Option<(usize, usize)> {
        is_roam_origin(config, home).then(|| (home, roam_destination(config, home)))
    }

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
    fn byte_identical_across_gateway_construction_order() {
        let service = trained_service();
        let config = small_config();
        let fleet = run_fleet(&service, &config);

        // Run every home on a fresh gateway, in reverse order: the path
        // each pooled worker runs, so the homes are identical.
        let devices = catalog();
        let mut homes: Vec<_> = (0..config.homes)
            .rev()
            .map(|home| GatewayPool::new(&service, &config).run_home(&config, &devices, home))
            .collect();
        homes.reverse();
        assert_eq!(
            serde_json::to_vec(&fleet.homes).unwrap(),
            serde_json::to_vec(&homes).unwrap()
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
}
