//! Facade crate for the IoT Sentinel reproduction.
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! * [`netproto`] — packet model, wire codecs, pcap I/O.
//! * [`fingerprint`] — Table I features, `F`/`F'` extraction, edit distance.
//! * [`ml`] — decision trees, Random Forest, cross-validation, metrics.
//! * [`devicesim`] — behaviour models for the 27 Table II device-types.
//! * [`sdn`] — OpenFlow-style switch, controller, overlays, rule cache.
//! * [`core`] — the IoT Security Service: two-stage identification,
//!   vulnerability assessment, isolation-level decisions.
//! * [`stream`] — the Security Gateway: a bounded-memory streaming
//!   onboarding runtime for interleaved multi-device traffic.
//! * [`fleet`] — multi-gateway fleet simulation: many home networks,
//!   each with its own switch and gateway, under one shared model.
//! * [`snapshot`] — versioned, checksummed binary model snapshots for
//!   instant-boot gateways.
//!
//! See the [README](https://example.invalid/iot-sentinel) for a quickstart
//! and `examples/` for runnable end-to-end scenarios.

#![forbid(unsafe_code)]

pub use sentinel_core as core;
pub use sentinel_devicesim as devicesim;
pub use sentinel_fingerprint as fingerprint;
pub use sentinel_fleet as fleet;
pub use sentinel_ml as ml;
pub use sentinel_netproto as netproto;
pub use sentinel_sdn as sdn;
pub use sentinel_snapshot as snapshot;
pub use sentinel_stream as stream;

/// Commonly used types: the service side from [`core`], the gateway
/// from [`stream`].
pub mod prelude {
    pub use sentinel_core::prelude::*;
    pub use sentinel_stream::{StreamConfig, StreamRuntime};
}
