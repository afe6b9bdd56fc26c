//! Experiment harness for the IoT Sentinel reproduction.
//!
//! One reproduction binary per paper table/figure (see `src/bin/`), all
//! built on the shared machinery here:
//!
//! * [`evaluation`] — the stratified 10-fold × 10-repetition
//!   cross-validation of Sect. VI-B (Fig. 5, Table III) with ablation
//!   knobs (truncation length, negative ratio, reference count,
//!   pipeline mode), and the held-out identifications whose stages
//!   Table IV counts (the ledger times them).
//! * [`enforcement`] — the gateway latency/CPU/memory experiments
//!   (Tables V–VI, Fig. 6).
//! * [`tables`] — plain-text table rendering shared by the binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod enforcement;
pub mod evaluation;
pub mod tables;
