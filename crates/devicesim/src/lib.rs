//! Behaviour-model simulator for the 27 IoT device-types evaluated in
//! the paper (Table II).
//!
//! The paper's measurement lab connected real off-the-shelf devices to a
//! hostapd access point and recorded their setup-phase traffic with
//! tcpdump, 20 runs per device with a factory reset in between. This
//! crate substitutes that lab: each device-type is a [`DeviceProfile`] —
//! an ordered list of [`Phase`]s (EAPoL handshake, DHCP, ARP probing,
//! DNS lookups, NTP, cloud TLS sessions, SSDP/mDNS chatter, proprietary
//! bursts) with stochastic per-run variation — and the [`Testbed`]
//! replays the setup procedure, producing the packet sequence the
//! Security Gateway would capture.
//!
//! The catalog preserves the similarity structure the paper reports:
//! the D-Link sensor family, the two TP-Link plugs, the two Edimax plugs
//! and the two Smarter appliances share (near-)identical firmware
//! behaviour, which is what produces the ≈50 % confusion block of
//! Table III. Everything else is behaviourally distinct.
//!
//! # Example
//!
//! ```
//! use sentinel_devicesim::{catalog, Testbed};
//!
//! let devices = catalog();
//! assert_eq!(devices.len(), 27);
//! let testbed = Testbed::new(42);
//! let trace = testbed.setup_run(&devices[0].profile, 0);
//! assert!(trace.packets.len() >= 8, "a setup run produces a packet burst");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod generator;
mod interleave;
mod phases;
mod profile;
mod testbed;

pub use catalog::{catalog, confusable_groups, Connectivity, DeviceInfo, DeviceModel};
pub use generator::SetupTrace;
pub use interleave::{interleave, interleave_at, interleave_order};
pub use phases::{Phase, RawDest};
pub use profile::{DeviceProfile, Endpoint};
pub use testbed::Testbed;
