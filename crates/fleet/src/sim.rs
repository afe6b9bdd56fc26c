//! The tick-driven multi-gateway fleet simulation.
//!
//! # The lockstep fleet tick
//!
//! [`run_fleet`] is structured as three passes over the fleet, all
//! justified by one invariant: keyed assessment is a pure function of
//! `(trained model, fingerprints, AssessKey)` (the v2 pinned RNG
//! contract), so *when* and *where* a completion is assessed can never
//! change its answer.
//!
//! 1. **Ingest (parallel, pooled).** Homes advance through their tick
//!    loops on a pool of per-worker gateways: each worker owns one
//!    [`StreamRuntime`] (reset between homes, allocations kept warm)
//!    and one reusable [`HomeWorkload`] buffer. Completed setups are
//!    *deferred* — collected as [`Completion`]s per ingest group (one
//!    group per tick plus a final flush group) instead of being
//!    assessed home by home.
//! 2. **Assess (parallel, fleet-wide batches).** All homes' deferred
//!    completions are concatenated and pushed through
//!    [`SecurityService::assess_keyed_batch_into`] in large chunks
//!    ([`FleetConfig::assess_batch_rows`]), where the batched stage-1
//!    kernels (and the stage-1 verdict cache, when enabled) amortize
//!    across gateways — hundreds of rows per service call instead of a
//!    handful per home tick.
//! 3. **Settle (parallel over homes).** Each home replays its serial
//!    enforcement tail — rule installs in `(seq, mac)` order, leaves on
//!    tick boundaries, data-plane probes — against its own enforcement
//!    module, consuming the responses pass 2 produced. The op sequence
//!    is exactly the one the inline per-home loop ran, so every counter
//!    (rule cache hits, probes, removals) is byte-identical.

use std::net::IpAddr;

use serde::Serialize;

use sentinel_core::{AssessScratch, OnboardingReport, SecurityService, ServiceResponse};
use sentinel_devicesim::{catalog, DeviceModel};
use sentinel_ml::parallel::{effective_threads, map_indexed, map_indexed_init};
use sentinel_netproto::{MacAddr, Timestamp};
use sentinel_sdn::topology::Topology;
use sentinel_sdn::{Destination, EnforcementModule};
use sentinel_stream::{apply_onboarding, Completion, StreamRuntime, StreamStats};

use crate::workload::{is_roam_origin, roam_destination, HomeWorkload};
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

/// One home's ingest-pass output: everything pass 3 needs to replay the
/// serial enforcement tail once pass 2 has assessed the completions.
struct IngestedHome {
    home: usize,
    /// Ingest-side streaming counters (onboarding counters are added
    /// during settle, through the same [`apply_onboarding`] path the
    /// inline runtime uses).
    stats: StreamStats,
    /// Deferred completions, concatenated in group order; each group is
    /// internally `(seq, mac)`-sorted — exactly the order the inline
    /// loop onboarded them in.
    completions: Vec<Completion>,
    /// Completions per ingest group: one entry per tick, then one final
    /// flush group (always present, possibly zero).
    groups: Vec<u32>,
    roam_out: Option<MacAddr>,
    roam_in: Option<MacAddr>,
    /// Sorted by MAC (see [`HomeWorkload::leavers`]).
    leavers: Vec<MacAddr>,
}

/// One fleet worker's pooled gateway: a stream runtime whose tables and
/// scratch stay warm across every home the worker claims, plus a
/// reusable workload buffer. Pure scratch under the fork/join contract:
/// [`StreamRuntime::reset`] restores freshly-constructed behavior, so
/// which worker simulates which home cannot influence any result.
struct GatewayPool<'a, S> {
    runtime: StreamRuntime<&'a S>,
    workload: HomeWorkload,
}

impl<'a, S: SecurityService + Sync> GatewayPool<'a, S> {
    fn new(service: &'a S, config: &FleetConfig) -> Self {
        GatewayPool {
            runtime: StreamRuntime::with_config(service, config.stream_config()),
            workload: HomeWorkload::default(),
        }
    }

    /// Pass 1 for one home: rebuild its workload, drive the tick loop
    /// through the deferred ingest path, and hand back the grouped
    /// completions with the ingest-side stats.
    fn ingest_home(
        &mut self,
        config: &FleetConfig,
        devices: &[DeviceModel],
        home: usize,
    ) -> IngestedHome {
        self.runtime.reset();
        self.workload.rebuild(config, devices, home);
        let frames = self.workload.frames();
        let mut completions = Vec::new();
        let mut groups = Vec::new();
        let mut cursor = 0usize;
        let mut tick_end = config.tick;
        while cursor < frames.len() {
            let limit = Timestamp::ZERO + tick_end;
            let mut end = cursor;
            while end < frames.len() && frames[end].0 < limit {
                end += 1;
            }
            let appended = self
                .runtime
                .ingest_frames_deferred(&frames[cursor..end], &mut completions);
            groups.push(appended as u32);
            cursor = end;
            tick_end += config.tick;
        }
        let appended = self.runtime.flush_deferred(&mut completions);
        groups.push(appended as u32);
        IngestedHome {
            home,
            stats: self.runtime.stats().clone(),
            completions,
            groups,
            roam_out: self.workload.roam_out,
            roam_in: self.workload.roam_in,
            leavers: self.workload.leavers.clone(),
        }
    }
}

/// The lab topology's remote-server IP, the probe destination every
/// gateway uses. Hoisted out of the per-home loops: the topology is
/// identical for every home, so one construction serves the fleet.
fn remote_probe_ip() -> IpAddr {
    IpAddr::V4(
        Topology::lab()
            .host("Sremote")
            .expect("lab topology has a remote server")
            .ip,
    )
}

/// Runs the whole fleet: `config.homes` independent home networks
/// against one shared trained service, through the three-pass lockstep
/// tick (see the module docs).
///
/// Each home's result is a pure function of `(service, config, home
/// index)` — the v2 keyed RNG contract makes assessment independent of
/// batching and order, and no state flows between homes — so the report
/// is bit-identical at any thread count, any assessment batch size, and
/// for any home-evaluation order.
pub fn run_fleet<S: SecurityService + Sync>(service: &S, config: &FleetConfig) -> FleetReport {
    let devices = catalog();
    let threads = effective_threads(config.threads);

    // Pass 1: parallel pooled ingest, one warm gateway per worker.
    let ingested = map_indexed_init(
        config.homes,
        threads,
        || GatewayPool::new(service, config),
        |pool, home| pool.ingest_home(config, &devices, home),
    );

    // Pass 2: assess every deferred completion in fleet-wide keyed
    // batches. Chunk boundaries are a pure throughput knob (keyed
    // purity), sized so the batched stage-1 kernels see hundreds of
    // rows per call.
    let items: Vec<_> = ingested
        .iter()
        .flat_map(|home| {
            home.completions
                .iter()
                .map(|c| (&c.full, &c.fixed, c.assess_key()))
        })
        .collect();
    let rows = items.len();
    let batch_rows = config.assess_batch_rows.max(1);
    let batches = rows.div_ceil(batch_rows);
    let chunked = {
        let items = &items;
        map_indexed_init(
            batches,
            threads,
            AssessScratch::default,
            move |scratch, chunk| {
                let start = chunk * batch_rows;
                let end = (start + batch_rows).min(rows);
                let mut responses = Vec::with_capacity(end - start);
                service.assess_keyed_batch_into(&items[start..end], scratch, &mut responses);
                responses
            },
        )
    };
    let responses: Vec<ServiceResponse> = chunked.into_iter().flatten().collect();

    // Pass 3: parallel settle — each home replays its serial
    // enforcement tail against its own slice of the responses.
    let mut offsets = Vec::with_capacity(config.homes + 1);
    offsets.push(0usize);
    for home in &ingested {
        offsets.push(offsets.last().unwrap() + home.completions.len());
    }
    let remote_ip = remote_probe_ip();
    let outcomes = {
        let ingested = &ingested;
        let responses = &responses;
        let offsets = &offsets;
        map_indexed(config.homes, threads, move |home| {
            settle_home(
                &ingested[home],
                &responses[offsets[home]..offsets[home + 1]],
                remote_ip,
            )
        })
    };

    let mut stats = FleetStats {
        homes: config.homes,
        ..FleetStats::default()
    };
    for outcome in &outcomes {
        stats.absorb(outcome);
    }
    FleetReport {
        stats,
        homes: outcomes,
    }
}

/// Simulates one home network end to end — the single-home composition
/// of exactly the three passes [`run_fleet`] runs fleet-wide (ingest,
/// keyed assessment, settle), so its outcome is byte-identical to the
/// home's entry in a fleet report, for any construction order.
pub fn run_home<S: SecurityService + Sync>(
    service: &S,
    config: &FleetConfig,
    devices: &[DeviceModel],
    home: usize,
) -> HomeOutcome {
    let mut pool = GatewayPool::new(service, config);
    let ingested = pool.ingest_home(config, devices, home);
    let items: Vec<_> = ingested
        .completions
        .iter()
        .map(|c| (&c.full, &c.fixed, c.assess_key()))
        .collect();
    let mut scratch = AssessScratch::default();
    let mut responses = Vec::with_capacity(items.len());
    service.assess_keyed_batch_into(&items, &mut scratch, &mut responses);
    settle_home(&ingested, &responses, remote_probe_ip())
}

/// Pass 3 for one home: replays the serial enforcement tail the inline
/// per-home loop would have run, in the identical operation order —
/// per tick group: pending leaves first, then every onboarding's rule
/// install in `(seq, mac)` order, then per report one own-MAC probe and
/// one stranger probe; the flush group settles without a preceding
/// leave drain; one final drain ends the run. Identical op order on a
/// fresh [`EnforcementModule`] reproduces every rule-cache counter
/// byte for byte.
fn settle_home(
    ingested: &IngestedHome,
    responses: &[ServiceResponse],
    remote_ip: IpAddr,
) -> HomeOutcome {
    // A MAC no simulated device uses: probing it is a guaranteed cache
    // miss, decided by the gateway's default (strict) level.
    let stranger = MacAddr::new([0x02, 0xff, 0xff, 0xff, 0xff, 0xfe]);
    let mut module = EnforcementModule::new();
    let mut outcome = HomeOutcome {
        home: ingested.home,
        stats: ingested.stats.clone(),
        reports: Vec::with_capacity(ingested.completions.len()),
        roam_out: ingested.roam_out,
        roam_in: ingested.roam_in,
        rules_installed: 0,
        rules_removed: 0,
        rules_resident: 0,
        cache_hits: 0,
        cache_lookups: 0,
        probes_allowed: 0,
        probes_denied: 0,
    };
    let mut pending_leaves: Vec<MacAddr> = Vec::new();
    let flush_group = ingested.groups.len() - 1;
    let mut offset = 0usize;
    for (group, &count) in ingested.groups.iter().enumerate() {
        // Leaves land on tick boundaries, one tick after onboarding;
        // the end-of-stream flush is not a tick boundary.
        if group != flush_group {
            for mac in pending_leaves.drain(..) {
                if module.remove_rule(mac).is_some() {
                    outcome.rules_removed += 1;
                }
            }
        }
        let end = offset + count as usize;
        let first_report = outcome.reports.len();
        for (completion, response) in ingested.completions[offset..end]
            .iter()
            .zip(&responses[offset..end])
        {
            outcome.reports.push(apply_onboarding(
                &mut outcome.stats,
                &mut module,
                completion,
                response.clone(),
            ));
        }
        offset = end;
        for report in first_report..outcome.reports.len() {
            let mac = outcome.reports[report].mac;
            outcome.rules_installed += 1;
            let probe = module.decide(mac, Destination::Internet(remote_ip));
            if probe.is_allow() {
                outcome.probes_allowed += 1;
            } else {
                outcome.probes_denied += 1;
            }
            let miss = module.decide(stranger, Destination::Internet(remote_ip));
            if miss.is_allow() {
                outcome.probes_allowed += 1;
            } else {
                outcome.probes_denied += 1;
            }
            if ingested.leavers.binary_search(&mac).is_ok() {
                pending_leaves.push(mac);
            }
        }
    }
    for mac in pending_leaves.drain(..) {
        if module.remove_rule(mac).is_some() {
            outcome.rules_removed += 1;
        }
    }
    let cache = module.cache();
    outcome.rules_resident = cache.len() as u64;
    outcome.cache_hits = cache.hits();
    outcome.cache_lookups = cache.lookups();
    outcome
}

/// Re-export for determinism tests: which home a roamer from `home`
/// lands in.
pub fn roamer_route(config: &FleetConfig, home: usize) -> Option<(usize, usize)> {
    is_roam_origin(config, home).then(|| (home, roam_destination(config, home)))
}
