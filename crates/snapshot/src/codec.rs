//! Section payload codecs: fixed little-endian encodings of the
//! trained model's parts and their checked inverses.
//!
//! Encoding is **canonical** — one byte stream per logical model, with
//! hash-map content emitted in sorted order and interned feature
//! vectors in first-use order — so the golden fixture can pin the
//! format byte for byte. Decoding trusts nothing: every count is
//! bounds-guarded, every enum tag matched exhaustively, and the
//! structural invariants of trees/forests/banks are re-validated by the
//! `from_parts` constructors before a model is assembled.

use std::net::IpAddr;

use sentinel_core::vulndb::{CveRecord, StaticVulnDb};
use sentinel_core::{BankConfig, ClassifierBank, IdentifierConfig, IdentifyMode, TrainedModel};
use sentinel_fingerprint::{FeatureVector, Fingerprint, PortClass, FIXED_DIMENSIONS};
use sentinel_ml::{FeatureSubsample, ForestConfig, RandomForest, TreeParts};
use sentinel_netproto::ProtocolSet;

use crate::wire::{Reader, Writer};
use crate::SnapshotError;

// ---------------------------------------------------------------- config

fn put_forest_config(out: &mut Writer, config: &ForestConfig) {
    out.put_usize(config.n_trees);
    match config.feature_subsample {
        FeatureSubsample::Sqrt => out.put_u8(0),
        FeatureSubsample::All => out.put_u8(1),
        FeatureSubsample::Fixed(k) => {
            out.put_u8(2);
            out.put_usize(k);
        }
    }
    out.put_usize(config.max_depth);
    out.put_usize(config.min_samples_split);
    out.put_usize(config.min_samples_leaf);
    out.put_u64(config.seed);
    out.put_usize(config.threads);
}

fn get_forest_config(reader: &mut Reader) -> Result<ForestConfig, SnapshotError> {
    let n_trees = reader.usize()?;
    let feature_subsample = match reader.u8()? {
        0 => FeatureSubsample::Sqrt,
        1 => FeatureSubsample::All,
        2 => FeatureSubsample::Fixed(reader.usize()?),
        tag => return Err(reader.decode_err(&format!("unknown feature-subsample tag {tag}"))),
    };
    Ok(ForestConfig {
        n_trees,
        feature_subsample,
        max_depth: reader.usize()?,
        min_samples_split: reader.usize()?,
        min_samples_leaf: reader.usize()?,
        seed: reader.u64()?,
        threads: reader.usize()?,
    })
}

fn put_bank_config(out: &mut Writer, config: &BankConfig) {
    out.put_usize(config.negative_ratio);
    put_forest_config(out, &config.forest);
    out.put_u64(config.seed);
    out.put_usize(config.threads);
}

fn get_bank_config(reader: &mut Reader) -> Result<BankConfig, SnapshotError> {
    Ok(BankConfig {
        negative_ratio: reader.usize()?,
        forest: get_forest_config(reader)?,
        seed: reader.u64()?,
        threads: reader.usize()?,
    })
}

pub(crate) fn encode_config(config: &IdentifierConfig) -> Vec<u8> {
    let mut out = Writer::new();
    put_bank_config(&mut out, &config.bank);
    out.put_usize(config.references_per_type);
    out.put_u8(match config.mode {
        IdentifyMode::TwoStage => 0,
        IdentifyMode::RfOnly => 1,
        IdentifyMode::EditOnly => 2,
    });
    out.put_u64(config.seed);
    out.put_f64(config.max_dissimilarity);
    out.into_bytes()
}

/// Decodes a config section of container `version`. Version 1 ends
/// with an identification thread count that nothing reads; it is
/// checked for length and dropped.
pub(crate) fn decode_config(bytes: &[u8], version: u32) -> Result<IdentifierConfig, SnapshotError> {
    let mut reader = Reader::new(bytes, "config section");
    let bank = get_bank_config(&mut reader)?;
    let references_per_type = reader.usize()?;
    let mode = match reader.u8()? {
        0 => IdentifyMode::TwoStage,
        1 => IdentifyMode::RfOnly,
        2 => IdentifyMode::EditOnly,
        tag => return Err(reader.decode_err(&format!("unknown identify-mode tag {tag}"))),
    };
    let config = IdentifierConfig {
        bank,
        references_per_type,
        mode,
        seed: reader.u64()?,
        max_dissimilarity: reader.f64()?,
    };
    if version == 1 {
        reader.u64()?;
    }
    reader.finish()?;
    Ok(config)
}

// ------------------------------------------------------------------ bank

fn put_forest(out: &mut Writer, forest: &RandomForest) {
    match forest.oob_accuracy() {
        Some(oob) => {
            out.put_u8(1);
            out.put_f64(oob);
        }
        None => out.put_u8(0),
    }
    out.put_u32(forest.n_trees() as u32);
    for tree in forest.trees() {
        let parts = tree.to_parts();
        out.put_u32(parts.features.len() as u32);
        out.put_u32(parts.n_classes as u32);
        for &feature in &parts.features {
            out.put_u32(feature);
        }
        for &threshold in &parts.thresholds {
            out.put_f64(threshold);
        }
        for &left in &parts.lefts {
            out.put_u32(left);
        }
        for &right in &parts.rights {
            out.put_u32(right);
        }
        for &count in &parts.n_samples {
            out.put_usize(count);
        }
        for &decrease in &parts.impurity_decreases {
            out.put_f64(decrease);
        }
        out.put_u32(parts.leaf_counts.len() as u32);
        for &count in &parts.leaf_counts {
            out.put_usize(count);
        }
    }
}

fn get_forest(reader: &mut Reader) -> Result<RandomForest, SnapshotError> {
    let oob_accuracy = match reader.u8()? {
        0 => None,
        1 => Some(reader.f64()?),
        tag => return Err(reader.decode_err(&format!("unknown oob-accuracy tag {tag}"))),
    };
    // Per tree: node count + class count + leaf-count length (12 bytes
    // of prefixes) at minimum.
    let n_trees = reader.count(12)?;
    let mut trees = Vec::with_capacity(n_trees);
    for _ in 0..n_trees {
        // Every node occupies 4+8+4+4+8+8 = 36 payload bytes.
        let n_nodes = reader.count(36)?;
        let n_classes = reader.u32()? as usize;
        let mut parts = TreeParts {
            n_classes,
            ..TreeParts::default()
        };
        parts.features = read_u32s(reader, n_nodes)?;
        parts.thresholds = read_f64s(reader, n_nodes)?;
        parts.lefts = read_u32s(reader, n_nodes)?;
        parts.rights = read_u32s(reader, n_nodes)?;
        parts.n_samples = read_usizes(reader, n_nodes)?;
        parts.impurity_decreases = read_f64s(reader, n_nodes)?;
        let n_leaf_slots = reader.count(8)?;
        parts.leaf_counts = read_usizes(reader, n_leaf_slots)?;
        trees.push(
            sentinel_ml::DecisionTree::from_parts(parts, FIXED_DIMENSIONS)
                .map_err(|err| reader.decode_err(&err))?,
        );
    }
    RandomForest::from_parts(trees, oob_accuracy).map_err(|err| reader.decode_err(&err))
}

fn read_u32s(reader: &mut Reader, n: usize) -> Result<Vec<u32>, SnapshotError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(reader.u32()?);
    }
    Ok(out)
}

fn read_f64s(reader: &mut Reader, n: usize) -> Result<Vec<f64>, SnapshotError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(reader.f64()?);
    }
    Ok(out)
}

fn read_usizes(reader: &mut Reader, n: usize) -> Result<Vec<usize>, SnapshotError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(reader.usize()?);
    }
    Ok(out)
}

pub(crate) fn encode_bank(bank: &ClassifierBank) -> Vec<u8> {
    let mut out = Writer::new();
    put_bank_config(&mut out, bank.config());
    out.put_u32(bank.n_types() as u32);
    for name in bank.type_names() {
        out.put_str(name);
    }
    for forest in bank.classifiers() {
        put_forest(&mut out, forest);
    }
    out.into_bytes()
}

pub(crate) fn decode_bank(bytes: &[u8]) -> Result<ClassifierBank, SnapshotError> {
    let mut reader = Reader::new(bytes, "bank section");
    let config = get_bank_config(&mut reader)?;
    // Each type carries at least a name length prefix (4 bytes) and a
    // forest header (5 bytes).
    let n_types = reader.count(9)?;
    let mut type_names = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        type_names.push(reader.str()?);
    }
    let mut classifiers = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        classifiers.push(get_forest(&mut reader)?);
    }
    reader.finish()?;
    ClassifierBank::from_parts(classifiers, type_names, config).map_err(SnapshotError::Decode)
}

// ------------------------------------------------------------ references

/// One interned feature vector: a 16-byte record on disk, fixed layout
/// (the [`FeatureVector`] it decodes to is 12 bytes in memory).
///
/// ```text
/// offset  size  field
///      0     2  protocol indicator bits (little-endian u16)
///      2     1  flag bits: 0 ip_option_padding, 1 ip_option_router_alert,
///               2 raw_data
///      3     1  source port class (0-3)
///      4     1  destination port class (0-3)
///      5     3  zero padding
///      8     4  packet size (u32)
///     12     4  destination-IP counter (u32)
/// ```
const VECTOR_RECORD_SIZE: usize = 16;

fn put_vector(out: &mut Writer, vector: &FeatureVector) {
    out.put_u16(vector.protocols.bits());
    let flags = u8::from(vector.ip_option_padding())
        | u8::from(vector.ip_option_router_alert()) << 1
        | u8::from(vector.raw_data()) << 2;
    out.put_u8(flags);
    out.put_u8(vector.src_port_class().to_u8());
    out.put_u8(vector.dst_port_class().to_u8());
    out.put_bytes(&[0u8; 3]);
    out.put_u32(vector.packet_size);
    out.put_u32(vector.dst_ip_counter);
}

fn get_port_class(reader: &mut Reader, tag: u8) -> Result<PortClass, SnapshotError> {
    match tag {
        0 => Ok(PortClass::NoPort),
        1 => Ok(PortClass::WellKnown),
        2 => Ok(PortClass::Registered),
        3 => Ok(PortClass::Dynamic),
        _ => Err(reader.decode_err(&format!("unknown port-class tag {tag}"))),
    }
}

fn get_vector(reader: &mut Reader) -> Result<FeatureVector, SnapshotError> {
    let protocols = ProtocolSet::from_bits(reader.u16()?);
    let flags = reader.u8()?;
    if flags & !0b111 != 0 {
        return Err(reader.decode_err(&format!("unknown feature-vector flag bits {flags:#04x}")));
    }
    let src_tag = reader.u8()?;
    let src_port_class = get_port_class(reader, src_tag)?;
    let dst_tag = reader.u8()?;
    let dst_port_class = get_port_class(reader, dst_tag)?;
    if reader.array::<3>()? != [0u8; 3] {
        return Err(reader.decode_err("nonzero padding in feature-vector record"));
    }
    let packet_size = reader.u32()?;
    let dst_ip_counter = reader.u32()?;
    Ok(FeatureVector::new(
        protocols,
        flags & 0b001 != 0,
        flags & 0b010 != 0,
        packet_size,
        flags & 0b100 != 0,
        dst_ip_counter,
        src_port_class,
        dst_port_class,
    ))
}

/// Encodes the stage-2 reference fingerprints with interning: the pool
/// of *distinct* feature vectors in first-use order (exactly the dense
/// id order the identifier's `SymbolTable` assigns when the loaded
/// references are re-interned), then each fingerprint as a sequence of
/// pool ids.
pub(crate) fn encode_references(references: &[Vec<Fingerprint>]) -> Vec<u8> {
    let mut pool: Vec<FeatureVector> = Vec::new();
    let mut ids: std::collections::HashMap<FeatureVector, u32> = std::collections::HashMap::new();
    let mut sequences: Vec<Vec<Vec<u32>>> = Vec::with_capacity(references.len());
    for type_references in references {
        let mut type_sequences = Vec::with_capacity(type_references.len());
        for fingerprint in type_references {
            let sequence = fingerprint
                .vectors()
                .iter()
                .map(|vector| {
                    *ids.entry(vector.clone()).or_insert_with(|| {
                        pool.push(vector.clone());
                        (pool.len() - 1) as u32
                    })
                })
                .collect();
            type_sequences.push(sequence);
        }
        sequences.push(type_sequences);
    }
    let mut out = Writer::new();
    out.put_u32(pool.len() as u32);
    for vector in &pool {
        put_vector(&mut out, vector);
    }
    out.put_u32(references.len() as u32);
    for type_sequences in &sequences {
        out.put_u32(type_sequences.len() as u32);
        for sequence in type_sequences {
            out.put_u32(sequence.len() as u32);
            for &id in sequence {
                out.put_u32(id);
            }
        }
    }
    out.into_bytes()
}

pub(crate) fn decode_references(bytes: &[u8]) -> Result<Vec<Vec<Fingerprint>>, SnapshotError> {
    let mut reader = Reader::new(bytes, "references section");
    let pool_len = reader.count(VECTOR_RECORD_SIZE)?;
    let mut pool = Vec::with_capacity(pool_len);
    for _ in 0..pool_len {
        pool.push(get_vector(&mut reader)?);
    }
    let n_types = reader.count(4)?;
    let mut references = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        let n_fingerprints = reader.count(4)?;
        let mut type_references = Vec::with_capacity(n_fingerprints);
        for _ in 0..n_fingerprints {
            let n_vectors = reader.count(4)?;
            let mut vectors = Vec::with_capacity(n_vectors);
            for _ in 0..n_vectors {
                let id = reader.u32()? as usize;
                let vector = pool
                    .get(id)
                    .ok_or_else(|| reader.decode_err("feature-vector id outside the pool"))?;
                vectors.push(vector.clone());
            }
            type_references.push(Fingerprint::from_vec(vectors));
        }
        references.push(type_references);
    }
    reader.finish()?;
    Ok(references)
}

// ---------------------------------------------------------------- vulndb

pub(crate) fn encode_vulndb(vulndb: &StaticVulnDb) -> Vec<u8> {
    let mut out = Writer::new();
    // Hash-map iteration order is nondeterministic; sort by device-type
    // so encoding is canonical.
    let mut records: Vec<_> = vulndb.records().collect();
    records.sort_by_key(|&(name, _)| name);
    out.put_u32(records.len() as u32);
    for (name, advisories) in records {
        out.put_str(name);
        out.put_u32(advisories.len() as u32);
        for advisory in advisories {
            out.put_str(&advisory.id);
            out.put_str(&advisory.summary);
            out.put_f64(advisory.severity);
        }
    }
    let mut endpoints: Vec<_> = vulndb.endpoints().collect();
    endpoints.sort_by_key(|&(name, _)| name);
    out.put_u32(endpoints.len() as u32);
    for (name, addresses) in endpoints {
        out.put_str(name);
        out.put_u32(addresses.len() as u32);
        for address in addresses {
            match address {
                IpAddr::V4(v4) => {
                    out.put_u8(4);
                    out.put_bytes(&v4.octets());
                }
                IpAddr::V6(v6) => {
                    out.put_u8(6);
                    out.put_bytes(&v6.octets());
                }
            }
        }
    }
    let mut uncontrollable: Vec<_> = vulndb.uncontrollable().collect();
    uncontrollable.sort_unstable();
    out.put_u32(uncontrollable.len() as u32);
    for name in uncontrollable {
        out.put_str(name);
    }
    out.into_bytes()
}

pub(crate) fn decode_vulndb(bytes: &[u8]) -> Result<StaticVulnDb, SnapshotError> {
    let mut reader = Reader::new(bytes, "vulnerability section");
    let mut vulndb = StaticVulnDb::new();
    let n_records = reader.count(8)?;
    for _ in 0..n_records {
        let name = reader.str()?;
        let n_advisories = reader.count(20)?;
        for _ in 0..n_advisories {
            let record = CveRecord {
                id: reader.str()?,
                summary: reader.str()?,
                severity: reader.f64()?,
            };
            vulndb.add_record(&name, record);
        }
    }
    let n_endpoints = reader.count(8)?;
    for _ in 0..n_endpoints {
        let name = reader.str()?;
        let n_addresses = reader.count(5)?;
        for _ in 0..n_addresses {
            let address = match reader.u8()? {
                4 => IpAddr::from(reader.array::<4>()?),
                6 => IpAddr::from(reader.array::<16>()?),
                tag => return Err(reader.decode_err(&format!("unknown address tag {tag}"))),
            };
            vulndb.add_endpoint(&name, address);
        }
    }
    let n_uncontrollable = reader.count(4)?;
    for _ in 0..n_uncontrollable {
        let name = reader.str()?;
        vulndb.mark_uncontrollable(name);
    }
    reader.finish()?;
    Ok(vulndb)
}

// ----------------------------------------------------------------- model

pub(crate) fn decode_model(
    version: u32,
    config: &[u8],
    bank: &[u8],
    references: &[u8],
) -> Result<TrainedModel, SnapshotError> {
    let config = decode_config(config, version)?;
    let bank = decode_bank(bank)?;
    let references = decode_references(references)?;
    TrainedModel::from_parts(bank, references, config).map_err(SnapshotError::Decode)
}
