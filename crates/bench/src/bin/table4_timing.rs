//! Reproduces **Table IV**: time consumption of the device-type
//! identification stages.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin table4_timing
//! cargo run --release -p sentinel-bench --bin table4_timing -- --iterations 500
//! cargo run --release -p sentinel-bench --bin table4_timing -- --threads 1
//! cargo run --release -p sentinel-bench --bin table4_timing -- --json results/bench_table4.json
//! ```

use sentinel_bench::cli::Args;
use sentinel_bench::{tables, timing};
use sentinel_sdn::stats::Summary;

fn json_row(name: &str, s: &Summary) -> String {
    format!(
        "    \"{name}\": {{\"mean_ms\": {:.6}, \"stdev_ms\": {:.6}, \"n\": {}}}",
        s.mean, s.stdev, s.n
    )
}

fn main() {
    let args = Args::from_env();
    let train_runs: u64 = args.get("runs", 20);
    let iterations: u64 = args.get("iterations", 270);
    let seed: u64 = args.get("seed", 42);
    let threads: usize = args.get("threads", 0);
    let train_samples: usize = args.get("train-samples", 3);

    print!(
        "{}",
        tables::banner("Table IV — Time consumption for device-type identification")
    );
    println!("training: 27 types x {train_runs} runs; measuring {iterations} identifications\n");

    let report = timing::measure(train_runs, iterations, seed, threads);
    let fmt = |s: &Summary| format!("{:.3} ms (±{:.3})", s.mean, s.stdev);
    let rows = vec![
        vec![
            "1 Classification (Random Forest)".to_string(),
            fmt(&report.one_classification),
            "0.014 ms".into(),
        ],
        vec![
            "1 Discrimination (edit distance)".to_string(),
            fmt(&report.one_discrimination),
            "23.36 ms".into(),
        ],
        vec![
            "Fingerprint extraction".to_string(),
            fmt(&report.fingerprint_extraction),
            "0.850 ms".into(),
        ],
        vec![
            "27 Classifications (Random Forest)".to_string(),
            fmt(&report.all_classifications),
            "0.385 ms".into(),
        ],
        vec![
            "Discrimination step (when triggered)".to_string(),
            fmt(&report.discrimination_step),
            "156.5 ms".into(),
        ],
        vec![
            "Type identification".to_string(),
            fmt(&report.type_identification),
            "157.7 ms".into(),
        ],
    ];
    print!("{}", tables::render(&["Step", "Measured", "Paper"], &rows));
    println!();
    println!(
        "discrimination triggered for {:.0}% of identifications (paper: 55%); \
         mean edit-distance computations {:.1} (paper: 7)",
        report.discrimination_rate * 100.0,
        report.mean_edit_distances
    );

    println!(
        "\nbatched stage 1 (64-fingerprint tick, warm scratch): {}",
        fmt(&report.batch_classify_warm),
    );

    let training = timing::measure_training(train_runs, seed, threads, train_samples);
    println!(
        "training: 27-forest bank {}; one forest {}; incremental add_type {}",
        fmt(&training.bank_training),
        fmt(&training.forest_fit_histogram),
        fmt(&training.incremental_add_type),
    );

    if let Some(path) = args.get_str("json") {
        let body = [
            json_row("one_classification", &report.one_classification),
            json_row("one_discrimination", &report.one_discrimination),
            json_row("fingerprint_extraction", &report.fingerprint_extraction),
            json_row("all_classifications", &report.all_classifications),
            json_row("discrimination_step", &report.discrimination_step),
            json_row("type_identification", &report.type_identification),
            json_row("batch_classify_warm", &report.batch_classify_warm),
        ]
        .join(",\n");
        let train_body = [
            json_row("bank_training", &training.bank_training),
            json_row("forest_fit_histogram", &training.forest_fit_histogram),
            json_row("incremental_add_type", &training.incremental_add_type),
        ]
        .join(",\n");
        // PR 4 measurements on this machine, kept as the "before" column
        // for the shared-binned-corpus + arena training path.
        let baseline = "    \"bank_training\": {\"mean_ms\": 227.4, \"note\": \"per-label Dataset copies, per-node allocation\"},\n    \
             \"forest_fit_histogram\": {\"mean_ms\": 9.6, \"note\": \"per-label binning, heap scratch per node\"}";
        let json = format!(
            "{{\n  \"bench\": \"table4_timing\",\n  \"train_runs\": {train_runs},\n  \
             \"iterations\": {iterations},\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \
             \"discrimination_rate\": {:.4},\n  \"mean_edit_distances\": {:.4},\n  \"steps\": {{\n{body}\n  }},\n  \
             \"training\": {{\n{train_body}\n  }},\n  \
             \"training_baseline_pr4\": {{\n{baseline}\n  }}\n}}\n",
            report.discrimination_rate, report.mean_edit_distances
        );
        sentinel_bench::results::write_json(path, &json);
    }

    println!(
        "\nnote: absolute times differ by ~1000x (Rust vs the paper's Java/Weka stack, and\n\
         our simulated setup traces are shorter than real captures, which shrinks the\n\
         edit-distance cost). The reproduced pipeline-level properties are:\n\
         identification completes in well under a second; discrimination is needed only\n\
         for a minority of fingerprints and over few candidate types; and edit-distance\n\
         cost grows with fingerprint length — quadratically for the textbook DP, per\n\
         reference column and 64-symbol probe word for the bit-parallel kernel the\n\
         identifier runs — while classification stays near-constant (see `cargo bench\n\
         -p sentinel-bench --bench editdist`), which is the paper's argument for\n\
         classifying first and discriminating second."
    );
}
