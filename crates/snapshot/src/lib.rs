//! Model persistence for IoT Sentinel: versioned, checksummed binary
//! snapshots of a trained IoT Security Service, for instant boot.
//!
//! Training the 27-classifier bank takes on the order of a hundred
//! milliseconds per run *per gateway*; a fleet of access gateways
//! booting from the same model should pay that cost once, centrally.
//! This crate serializes everything a gateway's service needs — the
//! stage-1 Random Forest bank (every tree's structure-of-arrays
//! content), the stage-2 reference fingerprints (interned: a pool of
//! distinct feature vectors plus id sequences), the identifier
//! configuration, and the vulnerability-database tier — into one
//! compact file, and restores it to a bit-identical service: the same
//! [`AssessKey`](sentinel_core::AssessKey)ed assessment against the
//! loaded service and the originally trained one produces the same
//! bytes of report.
//!
//! # Container format (version 2)
//!
//! All integers little-endian, fixed-width; the layout is designed so
//! a future loader can map sections in place without re-parsing the
//! header.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SENTSNAP"
//!      8     4  format version (u32, currently 2)
//!     12     4  section count (u32)
//!     16   28n  section table: per section
//!                 id (u32)  — 1 config, 2 bank, 3 references, 4 vulndb
//!                 offset (u64, from file start)
//!                 length (u64)
//!                 checksum (u64, XXH64 of the payload, seed 0)
//!  16+28n    ..  section payloads, in table order
//! ```
//!
//! Integrity is enforced per section ([`hash::xxh64`]); decoding is
//! panic-free for arbitrary input and every failure is a typed
//! [`SnapshotError`]. Unknown *section ids* are ignored (forward
//! compatibility for additive sections); a known id listed twice is
//! refused, so the table a reader sees is the model that boots.
//! Unknown *format versions* are rejected (the version only changes
//! when the layout of existing sections does).
//!
//! Version 1 differs only in the config section, which ends with one
//! more `u64` (an identification thread count that nothing reads).
//! [`Snapshot::decode`] reads both versions and drops that word;
//! [`Snapshot::encode`] writes version 2, so re-encoding a version-1
//! file yields its version-2 form.
//!
//! # Boot path
//!
//! A gateway boots by handing the restored service to its runtime:
//! `StreamRuntime::new(Snapshot::load(path)?.into_service())`.
//!
//! ```no_run
//! use sentinel_snapshot::Snapshot;
//!
//! let service = Snapshot::load("sentinel.snap")?.into_service();
//! # Ok::<(), sentinel_snapshot::SnapshotError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::Path;

use sentinel_core::vulndb::StaticVulnDb;
use sentinel_core::{Identifier, IoTSecurityService, TrainedModel};

mod codec;
pub mod hash;
mod wire;

use wire::Reader;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"SENTSNAP";

/// The container format version [`Snapshot::encode`] writes.
/// [`Snapshot::decode`] reads it and version 1.
pub const FORMAT_VERSION: u32 = 2;

const SECTION_CONFIG: u32 = 1;
const SECTION_BANK: u32 = 2;
const SECTION_REFERENCES: u32 = 3;
const SECTION_VULNDB: u32 = 4;

const HEADER_SIZE: usize = 16;
const TABLE_ENTRY_SIZE: usize = 28;
/// Decode refuses section tables larger than this: the format defines
/// four sections and forward-compatible additions stay in the same
/// order of magnitude, while a corrupted count could otherwise demand
/// gigabytes of table.
const MAX_SECTIONS: usize = 64;

/// Why a snapshot could not be written or restored.
///
/// Every failure mode of the load path is typed — corrupt input is an
/// `Err`, never a panic and never a partially assembled model.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The input ended before the structure it promised (`context`
    /// names the header or section being read).
    Truncated {
        /// The header or section being read when the bytes ran out.
        context: &'static str,
    },
    /// The file does not start with the `SENTSNAP` magic.
    BadMagic,
    /// The container declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// The section whose integrity check failed.
        section: &'static str,
    },
    /// The bytes are structurally well-formed but encode an invalid
    /// model (bad enum tag, out-of-range index, violated tree
    /// invariant, …).
    Decode(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot I/O failed: {err}"),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "not a sentinel snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(version) => write!(
                f,
                "snapshot format version {version} is not supported (this build reads 1 to {FORMAT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot {section} failed its integrity check")
            }
            SnapshotError::Decode(what) => write!(f, "snapshot decode failed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// A serializable image of a trained service: the identifier model
/// plus the vulnerability-database tier.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The trained identifier (classifier bank, stage-2 references,
    /// configuration).
    pub model: TrainedModel,
    /// The vulnerability database the service enforces with.
    pub vulndb: StaticVulnDb,
}

impl Snapshot {
    /// Wraps an already-extracted model and vulnerability database.
    pub fn new(model: TrainedModel, vulndb: StaticVulnDb) -> Self {
        Snapshot { model, vulndb }
    }

    /// Captures a trained service's [`IoTSecurityService::trained_model`]
    /// and vulnerability database.
    ///
    /// # Panics
    ///
    /// Panics on a service built from parts, as a booted one is: it
    /// holds only its serving form. Use [`Snapshot::new`] on its model.
    pub fn of_service(service: &IoTSecurityService) -> Self {
        let model = (service.trained_model())
            .expect("a booted service holds only its serving form; snapshot its model instead");
        Snapshot::new(model.clone(), service.vulndb().clone())
    }

    /// Boots the service in its serving form, dropping the model. The
    /// build is deterministic — interning and forest packing derive from
    /// the model — so the result answers every keyed assessment
    /// bit-identically to a service trained to the same model.
    pub fn into_service(self) -> IoTSecurityService {
        IoTSecurityService::from_parts(Identifier::from(&self.model), self.vulndb)
    }

    /// Encodes the snapshot into the version-2 container format.
    pub fn encode(&self) -> Vec<u8> {
        let sections = [
            (SECTION_CONFIG, codec::encode_config(self.model.config())),
            (SECTION_BANK, codec::encode_bank(self.model.bank())),
            (
                SECTION_REFERENCES,
                codec::encode_references(self.model.references()),
            ),
            (SECTION_VULNDB, codec::encode_vulndb(&self.vulndb)),
        ];
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
        let mut offset = HEADER_SIZE + sections.len() * TABLE_ENTRY_SIZE;
        for (id, payload) in &sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(offset as u64).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&hash::xxh64(payload, 0).to_le_bytes());
            offset += payload.len();
        }
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decodes a version-2 or version-1 container.
    ///
    /// # Errors
    ///
    /// Any malformation of the input — truncation, a foreign file, a
    /// future format version, a corrupted or repeated section, or
    /// structurally valid bytes that encode an inconsistent model — is
    /// reported as the corresponding [`SnapshotError`] variant.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let context = "container header";
        let mut header = Reader::new(
            bytes
                .get(..HEADER_SIZE)
                .ok_or(SnapshotError::Truncated { context })?,
            context,
        );
        if header.array()? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = header.u32()?;
        if !(1..=FORMAT_VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let n_sections = header.u32()? as usize;
        if n_sections > MAX_SECTIONS {
            return Err(SnapshotError::Decode(format!(
                "section table declares {n_sections} sections (limit {MAX_SECTIONS})"
            )));
        }
        let context = "section table";
        let mut table = Reader::new(
            bytes
                .get(HEADER_SIZE..HEADER_SIZE + n_sections * TABLE_ENTRY_SIZE)
                .ok_or(SnapshotError::Truncated { context })?,
            context,
        );
        let mut config = None;
        let mut bank = None;
        let mut references = None;
        let mut vulndb = None;
        for _ in 0..n_sections {
            let id = table.u32()?;
            let offset = table.u64()?;
            let length = table.u64()?;
            let checksum = table.u64()?;
            let (name, slot) = match id {
                SECTION_CONFIG => ("config section", &mut config),
                SECTION_BANK => ("bank section", &mut bank),
                SECTION_REFERENCES => ("references section", &mut references),
                SECTION_VULNDB => ("vulnerability section", &mut vulndb),
                // Unknown sections are additive format extensions:
                // skip them without even bounds-checking their spans.
                _ => continue,
            };
            let start =
                usize::try_from(offset).map_err(|_| SnapshotError::Truncated { context: name })?;
            let end = start
                .checked_add(
                    usize::try_from(length)
                        .map_err(|_| SnapshotError::Truncated { context: name })?,
                )
                .ok_or(SnapshotError::Truncated { context: name })?;
            let payload = bytes
                .get(start..end)
                .ok_or(SnapshotError::Truncated { context: name })?;
            if hash::xxh64(payload, 0) != checksum {
                return Err(SnapshotError::ChecksumMismatch { section: name });
            }
            if slot.replace(payload).is_some() {
                return Err(SnapshotError::Decode(format!("duplicate {name}")));
            }
        }
        let missing = |what: &str| SnapshotError::Decode(format!("missing {what} section"));
        let model = codec::decode_model(
            version,
            config.ok_or_else(|| missing("config"))?,
            bank.ok_or_else(|| missing("bank"))?,
            references.ok_or_else(|| missing("references"))?,
        )?;
        let vulndb = codec::decode_vulndb(vulndb.ok_or_else(|| missing("vulnerability"))?)?;
        Ok(Snapshot { model, vulndb })
    }

    /// Encodes and writes the snapshot to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads and decodes a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// See [`Snapshot::decode`]; file-system failures surface as
    /// [`SnapshotError::Io`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Snapshot::decode(&std::fs::read(path)?)
    }
}
