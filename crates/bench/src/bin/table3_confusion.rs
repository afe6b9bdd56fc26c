//! Reproduces **Table III**: the confusion matrix of the ten devices
//! with low identification rate (the D-Link family, TP-Link plugs,
//! Edimax plugs and Smarter appliances), from the same cross-validation
//! as Fig. 5.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin table3_confusion
//! cargo run --release -p sentinel-bench --bin table3_confusion -- --quick
//! ```

use sentinel_bench::cli::Args;
use sentinel_bench::evaluation::{evaluate, EvalConfig};
use sentinel_bench::tables;
use sentinel_devicesim::{catalog, confusable_groups};

fn main() {
    let args = Args::from_env();
    let mut config = if args.switch("quick") {
        EvalConfig::quick()
    } else {
        EvalConfig::default()
    };
    config.runs = args.get_at_least("runs", config.runs, 2);
    config.repetitions = args.get_at_least("reps", config.repetitions, 1);
    config.trees = args.get_at_least("trees", config.trees, 1);
    config.seed = args.get("seed", config.seed);
    config.workers = args.get("workers", config.workers);

    print!(
        "{}",
        tables::banner("Table III — Confusion matrix for 10 devices with low identification rate")
    );
    println!(
        "counts are over {} runs/type x {} repetitions = {} identifications per row\n",
        config.runs,
        config.repetitions,
        config.runs as usize * config.repetitions
    );

    let result = evaluate(&config);

    // The ten Table III devices, in the paper's 1..10 numbering.
    let devices = catalog();
    let numbered: Vec<&str> = confusable_groups().into_iter().flatten().collect();
    let indices: Vec<usize> = numbered
        .iter()
        .map(|name| {
            devices
                .iter()
                .position(|d| d.info.identifier == *name)
                .expect("catalog member")
        })
        .collect();
    let restricted = result.confusion.restrict(&indices);

    println!("{restricted}");
    println!("legend (A = actual, P = predicted):");
    for (number, name) in numbered.iter().enumerate() {
        println!("  {:>2} = {name}", number + 1);
    }
    println!();
    println!(
        "expected shape: confusion stays inside the vendor families \
         (1-4 D-Link, 5-6 TP-Link, 7-8 Edimax, 9-10 Smarter); \
         cross-family cells are ~0."
    );
}
