//! `sentinel-fleet`: multi-gateway fleet simulation.
//!
//! The paper evaluates one Security Gateway on one home network
//! (Sect. V). Deployed at an ISP or smart-building scale, Sentinel is a
//! *fleet*: hundreds of home networks, each with its own SDN switch and
//! its own gateway, all classifying against one shared trained model.
//! This crate simulates that deployment shape end to end:
//!
//! * [`FleetConfig`] — fleet shape and storm knobs: homes, devices per
//!   home, join waves, tick length, roam/leave cadence, seed, threads.
//! * [`run_fleet`] — instantiates `homes` independent home networks.
//!   Each gets the Fig. 4 lab [`sentinel_sdn::topology::Topology`] and
//!   its own gateway, a [`sentinel_stream::StreamRuntime`] that
//!   assesses its own devices against the shared model and enforces
//!   through its own [`sentinel_sdn::EnforcementModule`]. Each home runs
//!   a deterministic tick loop: devices join in staggered onboarding
//!   storms, some leave (rule removal) one tick after onboarding, and
//!   some roam to the neighbouring home mid-setup, finishing their
//!   device setup there.
//! * [`FleetReport`] / [`FleetStats`] — per-home outcomes plus fleet
//!   totals. Counters are **summed** (cache hit ratio from summed
//!   hits/lookups, never averaged per-gateway ratios); the one max is
//!   `max_home_peak_resident`.
//!
//! # Determinism
//!
//! A home's workload is a pure function of `(config, home index)`, a
//! gateway ingests its frames serially in stream order, and the
//! v2 keyed RNG contract makes every assessment a pure function of
//! `(model, fingerprints, key)`. Fleet parallelism is *across* homes:
//! one deterministic fork/join in which each worker runs whole homes on
//! its pooled gateway, so a run is bit-identical for any
//! `SENTINEL_THREADS`, any `threads` setting and any home-evaluation
//! order.
//!
//! # Example
//!
//! ```
//! use sentinel_core::{FingerprintDataset, IoTSecurityService, ServiceConfig};
//! use sentinel_devicesim::catalog;
//! use sentinel_fleet::{run_fleet, FleetConfig};
//!
//! // Train the shared IoTSSP model once.
//! let devices: Vec<_> = catalog().into_iter().take(3).collect();
//! let dataset = FingerprintDataset::collect(&devices, 8, 42);
//! let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());
//!
//! // Simulate a small fleet: 6 homes, 3 devices each.
//! let config = FleetConfig {
//!     homes: 6,
//!     devices_per_home: 3,
//!     ..FleetConfig::default()
//! };
//! let report = run_fleet(&service, &config);
//! assert_eq!(report.homes.len(), 6);
//! assert_eq!(report.stats.onboarded, report.stats.rules_installed);
//! assert!(report.stats.roams > 0);
//! // Identical fleet, any thread count: bit-equal report.
//! let again = run_fleet(&service, &FleetConfig { threads: 2, ..config });
//! assert_eq!(report, again);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod sim;
mod stats;
pub mod workload;

pub use config::FleetConfig;
pub use sim::{run_fleet, FleetReport, HomeOutcome};
pub use stats::FleetStats;
