//! A tiny, fully hand-crafted snapshot shared by the golden-bytes and
//! corruption tests: every field is a literal, so the encoded bytes
//! are a pure function of the format itself — no training involved,
//! and nothing in it shifts when training internals evolve.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use sentinel_core::vulndb::{CveRecord, StaticVulnDb};
use sentinel_core::{BankConfig, ClassifierBank, IdentifierConfig, IdentifyMode, TrainedModel};
use sentinel_fingerprint::{FeatureVector, Fingerprint, PortClass, FIXED_DIMENSIONS};
use sentinel_ml::{DecisionTree, RandomForest, TreeParts};
use sentinel_netproto::ProtocolSet;
use sentinel_snapshot::Snapshot;

const LEAF: u32 = u32::MAX;

/// Root split on feature 0, two leaves.
fn stump() -> DecisionTree {
    DecisionTree::from_parts(
        TreeParts {
            features: vec![0, LEAF, LEAF],
            thresholds: vec![0.5, 0.0, 0.0],
            lefts: vec![1, 0, 1],
            rights: vec![2, 0, 1],
            n_samples: vec![10, 6, 4],
            impurity_decreases: vec![0.25, 0.0, 0.0],
            leaf_counts: vec![6, 0, 1, 3],
            n_classes: 2,
        },
        FIXED_DIMENSIONS,
    )
    .expect("valid stump")
}

/// A single-leaf tree.
fn leaf() -> DecisionTree {
    DecisionTree::from_parts(
        TreeParts {
            features: vec![LEAF],
            thresholds: vec![0.0],
            lefts: vec![0],
            rights: vec![1],
            n_samples: vec![10],
            impurity_decreases: vec![0.0],
            leaf_counts: vec![2, 8],
            n_classes: 2,
        },
        FIXED_DIMENSIONS,
    )
    .expect("valid leaf")
}

fn vector(bits: u16, size: u32, counter: u32) -> FeatureVector {
    FeatureVector::new(
        ProtocolSet::from_bits(bits),
        bits & 1 != 0,
        false,
        size,
        bits & 2 != 0,
        counter,
        PortClass::Dynamic,
        PortClass::WellKnown,
    )
}

/// The pinned two-type model plus a small vulnerability tier.
pub fn golden_snapshot() -> Snapshot {
    let bank = ClassifierBank::from_parts(
        vec![
            RandomForest::from_parts(vec![stump(), leaf()], Some(0.75)).expect("valid forest"),
            RandomForest::from_parts(vec![leaf()], None).expect("valid forest"),
        ],
        vec!["CamA".into(), "SensorB".into()],
        BankConfig::default(),
    )
    .expect("valid bank");
    let references = vec![
        vec![Fingerprint::new([
            vector(0b01, 60, 1),
            vector(0b10, 342, 2),
        ])],
        vec![Fingerprint::new([
            vector(0b10, 342, 2),
            vector(0b11, 98, 0),
            vector(0b01, 60, 1),
        ])],
    ];
    let config = IdentifierConfig {
        bank: BankConfig::default(),
        references_per_type: 1,
        mode: IdentifyMode::TwoStage,
        seed: 7,
        max_dissimilarity: 0.9,
    };
    let model = TrainedModel::from_parts(bank, references, config).expect("valid model");

    let mut vulndb = StaticVulnDb::new();
    vulndb.add_record(
        "CamA",
        CveRecord {
            id: "CVE-2016-0001".into(),
            summary: "hardcoded credentials".into(),
            severity: 7.5,
        },
    );
    vulndb.add_endpoint("CamA", IpAddr::V4(Ipv4Addr::new(203, 0, 113, 9)));
    vulndb.add_endpoint("SensorB", IpAddr::V6(Ipv6Addr::LOCALHOST));
    vulndb.mark_uncontrollable("SensorB");

    Snapshot::new(model, vulndb)
}
