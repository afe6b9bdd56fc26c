//! IoT Sentinel device fingerprints (Sect. IV-A of the paper).
//!
//! A device fingerprint is built from the frames a new device sends
//! during its setup phase:
//!
//! 1. Each frame is scanned in place
//!    ([`sentinel_netproto::RawFeatures::from_frame`]) and mapped to a
//!    23-dimensional [`FeatureVector`] (Table I): 16 binary protocol
//!    indicators, 2 IP-option indicators, packet size, raw-data presence,
//!    a destination-IP counter and the source/destination port classes.
//! 2. The sequence of vectors, with *consecutive duplicates removed*, is
//!    the variable-length fingerprint [`Fingerprint`] (the paper's
//!    `23 × n` matrix `F`).
//! 3. The first 12 *unique* vectors, concatenated and zero-padded, form
//!    the fixed 276-dimensional [`FixedFingerprint`] (`F'`) consumed by
//!    the per-device-type classifiers.
//!
//! Fingerprints never look at payload contents, so they work on encrypted
//! traffic.
//!
//! # Example
//!
//! ```
//! use sentinel_fingerprint::{extract_frames, FixedFingerprint};
//! use sentinel_netproto::{MacAddr, Packet};
//!
//! let mac = MacAddr::new([2, 0, 0, 0, 0, 1]);
//! let frames = [
//!     Packet::eapol_key(sentinel_netproto::Timestamp::ZERO, mac, MacAddr::ZERO, 2).encode(),
//!     Packet::dhcp_discover(mac, 1, 50_000).encode(),
//! ];
//! let fingerprint = extract_frames(&frames).expect("well-formed frames");
//! assert_eq!(fingerprint.len(), 2);
//! let fixed = FixedFingerprint::from_fingerprint(&fingerprint);
//! assert_eq!(fixed.as_slice().len(), 276);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod editdist;
mod extract;
mod features;
mod fixed;
mod intern;
mod matrix;
pub mod setup;

pub use extract::{extract, extract_frames, FeatureExtractor};
pub use features::{FeatureVector, PortClass, FEATURE_COUNT, FEATURE_NAMES};
pub use fixed::{FixedFingerprint, FIXED_DIMENSIONS, FIXED_PACKETS};
pub use intern::{InternedFingerprint, SymbolTable};
pub use matrix::Fingerprint;
