//! Experiment harness for the IoT Sentinel reproduction.
//!
//! One reproduction binary per paper table/figure (see `src/bin/`), all
//! built on the shared machinery here:
//!
//! * [`evaluation`] — the stratified 10-fold × 10-repetition
//!   cross-validation of Sect. VI-B (Fig. 5, Table III) with ablation
//!   knobs (truncation length, negative ratio, reference count,
//!   pipeline mode).
//! * [`timing`] — wall-clock measurement of the identification stages
//!   (Table IV).
//! * [`enforcement`] — the gateway latency/CPU/memory experiments
//!   (Tables V–VI, Fig. 6).
//! * [`tables`] — plain-text table rendering shared by the binaries.
//! * [`results`] — the JSON writer `table4_timing --json` records its
//!   BENCH JSON through.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod enforcement;
pub mod evaluation;
pub mod results;
pub mod tables;
pub mod timing;
