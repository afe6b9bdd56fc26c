//! Live-heap audit of a booted service: what
//! `Snapshot::decode(bytes)?.into_service()` leaves allocated is its
//! serving form — the stage-1 scorer, the type names, the interned
//! references with their symbol table, the configuration, the
//! vulnerability database and its per-type verdicts — and nothing of
//! the training artifact: the model's forests and reference
//! fingerprints are dropped once the identifier is built from them.
//!
//! Two models are audited: the ledger's (10 runs per catalog type,
//! 25-tree forests) under a ceiling of 130 000 B, and the default
//! `ServiceConfig`'s (20 runs per type, 100-tree forests) under
//! 450 000 B. A service that also kept its forests and reference
//! fingerprints retained 604 557 B and 2 501 941 B. Each booted service
//! must also answer a probe batch exactly as the service built from the
//! model before encoding does.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide: any neighbouring test running
//! concurrently would perturb the count — which is also why both
//! audits are one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_core::vulndb::StaticVulnDb;
use sentinel_core::{
    AssessKey, FingerprintDataset, Identifier, IdentifierConfig, IoTSecurityService,
    SecurityService, TrainedModel,
};
use sentinel_devicesim::catalog;
use sentinel_ml::ForestConfig;
use sentinel_netproto::MacAddr;
use sentinel_snapshot::Snapshot;

/// Passes everything through to [`System`], keeping the bytes live.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn a_booted_service_retains_only_its_serving_form() {
    // The ledger's model.
    let ledger = IdentifierConfig {
        bank: sentinel_core::BankConfig {
            forest: ForestConfig::default().with_trees(25),
            ..Default::default()
        },
        ..IdentifierConfig::default()
    };
    boots_within("ledger model", 10, &ledger, 130_000);
    boots_within("default model", 20, &IdentifierConfig::default(), 450_000);
}

/// Trains `config` on `runs` setups of every catalog type (seed 42),
/// boots it from its snapshot bytes, and holds what the boot retains to
/// `ceiling` and its answers to the unencoded model's.
fn boots_within(what: &str, runs: u64, config: &IdentifierConfig, ceiling: usize) {
    let dataset = FingerprintDataset::collect(&catalog(), runs, 42);
    let model = TrainedModel::train(&dataset, config);
    let vulndb = StaticVulnDb::with_known_iot_advisories();
    let trained = IoTSecurityService::from_parts(Identifier::from(&model), vulndb.clone());
    let bytes = Snapshot::new(model, vulndb).encode();

    let before = live();
    let booted = Snapshot::decode(&bytes)
        .expect("a just-encoded snapshot decodes")
        .into_service();
    let retained = live() - before;
    eprintln!("{what}: a booted service retains {retained} B");
    assert!(
        retained <= ceiling,
        "{what}: a booted service retains {retained} B, over its {ceiling} B ceiling"
    );

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
    assert_eq!(
        booted.assess_keyed_batch(&items),
        trained.assess_keyed_batch(&items),
        "{what}: the booted service answers differently"
    );
}
