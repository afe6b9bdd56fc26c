//! SDN enforcement substrate for the IoT Sentinel reproduction
//! (Sect. V of the paper).
//!
//! The paper's Security Gateway runs Open vSwitch managed by a custom
//! Floodlight controller module. This crate rebuilds that stack
//! in-process:
//!
//! * [`EnforcementRule`] / [`IsolationLevel`] — the per-device rules of
//!   Fig. 2, keyed by MAC address, with the three isolation levels of
//!   Fig. 3 (*strict*, *restricted*, *trusted*); a restricted type's
//!   [`Whitelist`] is built once and shared by its devices' rules.
//! * [`RuleCache`] — the hash-table enforcement-rule cache whose memory
//!   footprint Fig. 6c measures.
//! * [`FlowTable`] / [`OvsSwitch`] — an OpenFlow-style switch with
//!   exact-match flows and packet-in on miss.
//! * [`EnforcementModule`] — the controller module that turns rules +
//!   network overlays into per-flow verdicts.
//! * [`overlay`] — the trusted/untrusted virtual network overlays.
//! * [`netem`] — a calibrated network-cost model (latency, CPU, memory)
//!   reproducing the Raspberry-Pi gateway measurements of Tables V–VI
//!   and Fig. 6.
//!
//! # Example
//!
//! ```
//! use sentinel_sdn::{EnforcementRule, IsolationLevel, RuleCache};
//! use sentinel_netproto::MacAddr;
//!
//! let mac: MacAddr = "13-73-74-7E-A9-C2".parse().unwrap();
//! let rule = EnforcementRule::restricted(mac, ["52.29.100.7".parse().unwrap()]);
//! let mut cache = RuleCache::new();
//! cache.insert(rule);
//! assert_eq!(cache.get(mac).unwrap().level, IsolationLevel::Restricted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod controller;
mod flow;
pub mod netem;
pub mod overlay;
mod rule;
pub mod stats;
mod switch;
pub mod topology;

pub use cache::RuleCache;
pub use controller::{Destination, EnforcementModule, Verdict};
pub use flow::{FlowAction, FlowKey, FlowTable};
pub use rule::{EnforcementRule, IsolationLevel, Whitelist};
pub use switch::{OvsSwitch, SwitchDecision};
