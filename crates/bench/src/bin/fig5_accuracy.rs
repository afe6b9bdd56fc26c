//! Reproduces **Fig. 5**: the ratio of correct identification for the 27
//! device-types, via stratified 10-fold cross-validation repeated 10
//! times (Sect. VI-B).
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin fig5_accuracy
//! cargo run --release -p sentinel-bench --bin fig5_accuracy -- --quick
//! cargo run --release -p sentinel-bench --bin fig5_accuracy -- --packets 6   # F' ablation
//! cargo run --release -p sentinel-bench --bin fig5_accuracy -- --mode rf-only
//! ```

use sentinel_bench::cli::{usage_error, Args, FlagError};
use sentinel_bench::evaluation::{evaluate, EvalConfig};
use sentinel_bench::tables;
use sentinel_core::IdentifyMode;

fn main() {
    let args = Args::from_env();
    let mut config = if args.switch("quick") {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    };
    // Cross-validation needs two folds, a repetition and, per type, a run
    // on each side of a fold; a forest needs a tree and `F'` a packet.
    config.runs = args.get_at_least("runs", config.runs, 2);
    config.folds = args.get_at_least("folds", config.folds, 2);
    config.repetitions = args.get_at_least("reps", config.repetitions, 1);
    config.trees = args.get_at_least("trees", config.trees, 1);
    config.negative_ratio = args.get("neg-ratio", config.negative_ratio);
    config.packets = args.get_at_least("packets", config.packets, 1);
    config.references = args.get("refs", config.references);
    config.seed = args.get("seed", config.seed);
    config.workers = args.get("workers", config.workers);
    config.mode = match args.get_str("mode").unwrap_or("two-stage") {
        "two-stage" => IdentifyMode::TwoStage,
        "rf-only" => IdentifyMode::RfOnly,
        "edit-only" => IdentifyMode::EditOnly,
        other => usage_error(format!(
            "{} (two-stage|rf-only|edit-only)",
            FlagError::invalid("mode", other)
        )),
    };

    print!(
        "{}",
        tables::banner("Fig. 5 — Ratio of correct identification for 27 device-types")
    );
    println!(
        "config: {} runs/type, {}-fold CV x {} repetitions, {} trees, 1:{} ratio, \
         F' = {} packets, {} refs, mode {:?}\n",
        config.runs,
        config.folds,
        config.repetitions,
        config.trees,
        config.negative_ratio,
        config.packets,
        config.references,
        config.mode
    );

    let start = std::time::Instant::now();
    let result = evaluate(&config);
    let rows: Vec<Vec<String>> = result
        .per_type_accuracy()
        .into_iter()
        .map(|(name, accuracy)| vec![name, tables::ratio(accuracy)])
        .collect();
    print!("{}", tables::render(&["Device-type", "Accuracy"], &rows));
    println!();
    println!(
        "global ratio of correct identification: {}",
        tables::ratio(result.global_accuracy())
    );
    println!("paper reports:                           0.815");
    println!(
        "identifications needing discrimination:  {:.0}% (paper: 55%)",
        result.counts.discriminated_share() * 100.0
    );
    println!(
        "mean edit-distance computations:         {:.1} (paper: ~7 per device)",
        result.counts.edit_distances_per_identification()
    );
    println!("elapsed: {:.1?}", start.elapsed());
}
