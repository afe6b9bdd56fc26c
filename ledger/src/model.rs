//! The shared model: trained once per set-up, independent of `--seed`,
//! then taken through the snapshot codec so every workload runs on the
//! *restored* service — what a deployed gateway boots.

use std::time::Instant;

use sentinel_core::{
    AssessKey, BankConfig, FingerprintDataset, IdentifierConfig, IoTSecurityService,
    SecurityService, ServiceConfig,
};
use sentinel_devicesim::catalog;
use sentinel_ml::ForestConfig;
use sentinel_netproto::MacAddr;
use sentinel_snapshot::Snapshot;

use crate::clock::Laps;
use crate::Failed;

/// The historical soak model: 10 lab runs per catalog type, 25 trees.
const TRAIN_RUNS: u64 = 10;
const TRAIN_SEED: u64 = 42;
const TREES: usize = 25;

pub struct Model {
    /// The service restored from `snapshot` (verdict cache off).
    pub service: IoTSecurityService,
    snapshot: Vec<u8>,
    pub train_ms: f64,
    pub encode_ms: f64,
    pub decode_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

impl Model {
    /// Trains, snapshots, restores, and proves the restored service
    /// assesses the training corpus byte-identically to the trained one.
    pub fn build(clock: &mut Laps) -> Result<Model, Failed> {
        let dataset = FingerprintDataset::collect(&catalog(), TRAIN_RUNS, TRAIN_SEED);
        let config = ServiceConfig {
            identifier: IdentifierConfig {
                bank: BankConfig {
                    forest: ForestConfig::default().with_trees(TREES),
                    ..BankConfig::default()
                },
                ..IdentifierConfig::default()
            },
        };
        clock.lap();
        let start = Instant::now();
        let trained = IoTSecurityService::train(&dataset, &config);
        let train_ms = ms_since(start);
        clock.lap();

        let start = Instant::now();
        let snapshot = Snapshot::of_service(&trained).encode();
        let encode_ms = ms_since(start);

        let start = Instant::now();
        let service = Snapshot::decode(&snapshot)
            .map_err(|e| Failed::new("snapshot.decode", e))?
            .into_service();
        let decode_ms = ms_since(start);
        clock.lap();

        let items: Vec<_> = (0..dataset.len())
            .map(|i| {
                let mac = MacAddr::new([2, 0, 0, (i >> 16) as u8, (i >> 8) as u8, i as u8]);
                (
                    dataset.full(i),
                    dataset.fixed(i),
                    AssessKey::new(i as u64, mac),
                )
            })
            .collect();
        let before = format!("{:?}", trained.assess_keyed_batch(&items));
        let after = format!("{:?}", service.assess_keyed_batch(&items));
        clock.lap();
        if before != after {
            return Err(Failed::new(
                "snapshot.restored_service_assesses_byte_equal",
                "restored service diverged from the trained one",
            ));
        }
        Ok(Model {
            service,
            snapshot,
            train_ms,
            encode_ms,
            decode_ms,
        })
    }

    /// Another restored copy of the service, for a workload that has to
    /// own (and mutate) one.
    pub fn boot(&self) -> IoTSecurityService {
        Snapshot::decode(&self.snapshot)
            .expect("decoded once in build")
            .into_service()
    }

    pub fn snapshot_bytes(&self) -> usize {
        self.snapshot.len()
    }
}
