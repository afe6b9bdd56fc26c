//! **Extension analysis**: which of the 23 Table I features carry the
//! identification signal?
//!
//! Trains the full 27-classifier bank and aggregates Gini feature
//! importances across all per-type forests, folding the 276 `F'`
//! dimensions back onto (a) the 23 Table I features and (b) the 12
//! packet positions. The paper motivates its feature set qualitatively;
//! this analysis quantifies it on the simulated fleet.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin feature_importance
//! ```

use sentinel_bench::cli::Args;
use sentinel_bench::tables;
use sentinel_core::{BankConfig, ClassifierBank, FingerprintDataset};
use sentinel_devicesim::catalog;
use sentinel_fingerprint::{FEATURE_COUNT, FEATURE_NAMES, FIXED_PACKETS};
use sentinel_ml::ForestConfig;

fn main() {
    let args = Args::from_env();
    let runs: u64 = args.get("runs", 20);
    let seed: u64 = args.get("seed", 42);
    let trees: usize = args.get("trees", 100);

    print!(
        "{}",
        tables::banner("Extension — Gini importance of the Table I features")
    );
    println!("bank: 27 per-type classifiers, {runs} runs/type, {trees} trees each\n");

    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, runs, seed);
    let config = BankConfig {
        forest: ForestConfig::default().with_trees(trees),
        seed,
        ..BankConfig::default()
    };
    let bank = ClassifierBank::train(&dataset, &config);

    // Average the 276-dim importances over all 27 classifiers.
    let dims = FIXED_PACKETS * FEATURE_COUNT;
    let mut mean = vec![0.0f64; dims];
    for label in 0..bank.n_types() {
        let importances = bank.classifier_importances(label, dims);
        for (slot, value) in mean.iter_mut().zip(importances) {
            *slot += value / bank.n_types() as f64;
        }
    }

    // Fold onto the 23 Table I features.
    let mut by_feature = [0.0f64; FEATURE_COUNT];
    let mut by_position = [0.0f64; FIXED_PACKETS];
    for (dim, &value) in mean.iter().enumerate() {
        by_feature[dim % FEATURE_COUNT] += value;
        by_position[dim / FEATURE_COUNT] += value;
    }

    let mut ranked: Vec<(usize, f64)> = by_feature.iter().copied().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite importances"));
    let rows: Vec<Vec<String>> = ranked
        .iter()
        .map(|&(feature, value)| {
            vec![
                FEATURE_NAMES[feature].to_string(),
                format!("{:.4}", value),
                "#".repeat((value * 200.0).round() as usize),
            ]
        })
        .collect();
    print!(
        "{}",
        tables::render(&["Feature (Table I)", "Importance", ""], &rows)
    );

    println!("\nimportance by packet position in F':");
    for (position, value) in by_position.iter().enumerate() {
        println!(
            "  p{:<2} {:.4} {}",
            position + 1,
            value,
            "#".repeat((value * 100.0).round() as usize)
        );
    }
    println!(
        "\nreading: size/port/destination-counter features dominate (they encode the\n\
         per-vendor setup dialogue), and every packet position carries some signal,\n\
         most of it mid-setup (p5-p10) — consistent with the paper's choice of a\n\
         12-packet F'."
    );
}
