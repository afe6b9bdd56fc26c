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
//! # Container format (version 1)
//!
//! All integers little-endian, fixed-width; the layout is designed so
//! a future loader can map sections in place without re-parsing the
//! header.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SENTSNAP"
//!      8     4  format version (u32, currently 1)
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
//! compatibility for additive sections); unknown *format versions* are
//! rejected (the version only changes when the layout of existing
//! sections does).
//!
//! # Boot path
//!
//! A gateway boots by handing the restored service to its runtime:
//! `StreamRuntime::new(IoTSecurityService::from_snapshot(path)?)`.
//!
//! ```no_run
//! use sentinel_core::IoTSecurityService;
//! use sentinel_snapshot::SnapshotBoot;
//!
//! let service = IoTSecurityService::from_snapshot("sentinel.snap")?;
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

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"SENTSNAP";

/// The current (and only) container format version.
pub const FORMAT_VERSION: u32 = 1;

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
                "snapshot format version {version} is not supported (this build reads {FORMAT_VERSION})"
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

    /// Captures a running service's model and vulnerability database.
    pub fn of_service(service: &IoTSecurityService) -> Self {
        Snapshot {
            model: TrainedModel::from(service.identifier()),
            vulndb: service.vulndb().clone(),
        }
    }

    /// Reassembles the service this snapshot captured. The rebuild is
    /// deterministic — interning, forest packing and scoring pools are
    /// derived from the model — so the result answers every keyed
    /// assessment bit-identically to the originally trained instance.
    pub fn into_service(self) -> IoTSecurityService {
        IoTSecurityService::from_parts(Identifier::from(self.model), self.vulndb)
    }

    /// Encodes the snapshot into the version-1 container format.
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

    /// Decodes a version-1 container.
    ///
    /// # Errors
    ///
    /// Any malformation of the input — truncation, a foreign file, a
    /// future format version, a corrupted section, or structurally
    /// valid bytes that encode an inconsistent model — is reported as
    /// the corresponding [`SnapshotError`] variant.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let header = bytes.get(..HEADER_SIZE).ok_or(SnapshotError::Truncated {
            context: "container header",
        })?;
        if header[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let n_sections = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
        if n_sections > MAX_SECTIONS {
            return Err(SnapshotError::Decode(format!(
                "section table declares {n_sections} sections (limit {MAX_SECTIONS})"
            )));
        }
        let table = bytes
            .get(HEADER_SIZE..HEADER_SIZE + n_sections * TABLE_ENTRY_SIZE)
            .ok_or(SnapshotError::Truncated {
                context: "section table",
            })?;
        let mut config = None;
        let mut bank = None;
        let mut references = None;
        let mut vulndb = None;
        for entry in table.chunks_exact(TABLE_ENTRY_SIZE) {
            let id = u32::from_le_bytes(entry[..4].try_into().unwrap());
            let offset = u64::from_le_bytes(entry[4..12].try_into().unwrap());
            let length = u64::from_le_bytes(entry[12..20].try_into().unwrap());
            let checksum = u64::from_le_bytes(entry[20..28].try_into().unwrap());
            let name = match id {
                SECTION_CONFIG => "config section",
                SECTION_BANK => "bank section",
                SECTION_REFERENCES => "references section",
                SECTION_VULNDB => "vulnerability section",
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
            match id {
                SECTION_CONFIG => config = Some(payload),
                SECTION_BANK => bank = Some(payload),
                SECTION_REFERENCES => references = Some(payload),
                SECTION_VULNDB => vulndb = Some(payload),
                _ => unreachable!(),
            }
        }
        let missing = |what: &str| SnapshotError::Decode(format!("missing {what} section"));
        let model = codec::decode_model(
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

/// Instant boot from a snapshot file.
///
/// Defined here (rather than as inherent methods) because the core
/// crate cannot depend on this one; bring the trait into scope and the
/// call reads like a constructor.
pub trait SnapshotBoot: Sized {
    /// Restores an instance from the snapshot at `path`.
    ///
    /// # Errors
    ///
    /// See [`Snapshot::load`].
    fn from_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError>;
}

impl SnapshotBoot for IoTSecurityService {
    fn from_snapshot(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        Ok(Snapshot::load(path)?.into_service())
    }
}
