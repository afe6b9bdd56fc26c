//! `sentinel-stream`: the Security Gateway — bounded-memory streaming
//! onboarding for interleaved multi-device traffic.
//!
//! The paper's Security Gateway (Sect. III-A, V) fingerprints the first
//! packets a new MAC sends, as they appear on the wire. A production
//! gateway watches one continuous, interleaved stream in which hundreds
//! of devices may be mid-setup simultaneously. This crate is that
//! gateway — the only one in the workspace — and raw frames are its only
//! ingest unit:
//!
//! * [`StreamRuntime`] — pulls timestamped raw Ethernet frames from a
//!   [`FrameSource`] ([`StreamRuntime::run_frames`]; or takes batches
//!   directly through [`StreamRuntime::ingest_frames`] /
//!   [`StreamRuntime::ingest_frames_deferred`]), runs the single-pass
//!   wire scanner (`sentinel_netproto::scan`) over each — it certifies
//!   every frame the owning decoder accepts, so ingest never decodes —
//!   demultiplexes by source MAC into one session table, runs
//!   setup-end detection (idle gap, packet cap, byte cap), assesses
//!   each round's completed setups as one keyed batch against the IoT
//!   Security Service and enforces the verdicts through the SDN switch.
//!   Decisions are those of onboarding each device alone, at any batch
//!   size. Each onboarding report is handed to the caller once; the
//!   gateway keeps the device's onboarded mark and its enforcement rule.
//!   Callers that hold decoded packets (simulator streams) encode them
//!   once through [`MemoryFrameSource::from_packets`];
//!   [`StreamRuntime::remove_device`] forgets a device that left.
//! * [`Session`] — per-device setup monitoring that feeds each frame's
//!   features straight into the incremental feature extractor, so raw
//!   frames are never retained; a session holds the columns of `F` its
//!   setup has sent so far (16 B each, a small reservation that grows),
//!   bounded by the detector's packet cap (plus an optional byte cap).
//! * [`SessionTable`] — a capacity-bounded session slab behind a one-probe
//!   MAC index, with deterministic LRU shedding as the explicit overflow
//!   policy: the victim is the head of an intrusive recency list, and its
//!   slot is re-opened in place.
//! * [`StreamStats`] — the counters an operator needs: throughput,
//!   session lifecycle, shedding, peak concurrency, outcome mix.
//!
//! # Example
//!
//! ```
//! use sentinel_core::{FingerprintDataset, IoTSecurityService, ServiceConfig};
//! use sentinel_devicesim::{catalog, interleave, Testbed};
//! use sentinel_stream::{MemoryFrameSource, StreamConfig, StreamRuntime};
//! use std::time::Duration;
//!
//! // Train the IoTSSP once.
//! let devices: Vec<_> = catalog().into_iter().take(3).collect();
//! let dataset = FingerprintDataset::collect(&devices, 8, 42);
//! let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());
//!
//! // Five devices set up concurrently on one interface.
//! let testbed = Testbed::new(7);
//! let traces: Vec<_> = (0..5)
//!     .map(|i| testbed.setup_run(&devices[i % 3].profile, 90 + i as u64))
//!     .collect();
//! let stream = interleave(&traces, Duration::from_millis(25));
//!
//! let mut runtime = StreamRuntime::with_config(service, StreamConfig::default());
//! let mut reports = Vec::new();
//! runtime
//!     .run_frames(MemoryFrameSource::from_packets(&stream), &mut reports)
//!     .unwrap();
//! assert_eq!(reports.len(), 5);
//! assert_eq!(runtime.stats().sessions_completed(), 5);
//! assert_eq!(runtime.stats().frames_malformed, 0);
//! // The gateway keeps each device's rule, not its report.
//! assert!(reports
//!     .iter()
//!     .all(|report| runtime.enforcement().cache().get(report.mac).is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runtime;
mod session;
mod stats;
mod table;

pub use runtime::{apply_onboarding, Completion, StreamConfig, StreamRuntime};
pub use session::{CompletionReason, Session, SessionEvent};
pub use stats::StreamStats;
pub use table::{Probe, SessionTable};

pub use sentinel_netproto::stream::{FrameSource, MemoryFrameSource};
