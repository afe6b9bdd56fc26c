//! Reproduces **Table IV**: time consumption of the device-type
//! identification stages. The ledger times them; this prints the row
//! that measures each of the paper's steps, then counts over 270
//! held-out identifications how often stage 2 runs and how many edit
//! distances it computes. It reads no clock: every run prints the same.
//!
//! ```text
//! cargo run --release -p sentinel-bench --bin table4_identification
//! ```

use sentinel_bench::evaluation::{holdout_identifications, StageCounts};
use sentinel_bench::tables;
use sentinel_core::IdentifierConfig;
use sentinel_devicesim::catalog;

/// Training setups per type, held-out identifications, seed.
const RUNS: u64 = 20;
const PROBES: u64 = 270;
const SEED: u64 = 42;

/// The paper's steps beside the ledger row, or quotient of rows, that
/// measures each: `iotssp_confusable` times stages 1 and 2,
/// `onboard_noshed` extraction (`frames` and `devices` are its run
/// parameters).
const STEPS: &str = "\
Step                                       Paper  Measured by (ledger row)
--------------------------------------  --------  ------------------------
1 Classification (Random Forest)        0.014 ms  ml.forest_walk_ns_per_row
1 Discrimination (edit distance)        23.36 ms  core.stage2_us_per_onboarding / (5 x core.candidates_per_item)
Fingerprint extraction                  0.850 ms  fingerprint.extract_ns_per_frame x frames / devices + fingerprint.finalize_ns_per_session
27 Classifications (Random Forest)      0.385 ms  core.stage1_us_per_onboarding
Discrimination step (when triggered)    156.5 ms  core.stage2_us_per_onboarding / core.discriminated_share
Type identification                     157.7 ms  core.assess_us_per_onboarding
";

fn main() {
    print!(
        "{}",
        tables::banner("Table IV — Time consumption for device-type identification")
    );
    println!("training: 27 types x {RUNS} runs; counting {PROBES} held-out identifications\n");
    print!("{STEPS}");

    let references = IdentifierConfig::default().references_per_type;
    let identifications = holdout_identifications(&catalog(), RUNS, PROBES, SEED, 0);
    let counts = StageCounts::of(&identifications, references);
    let rows = [
        vec![
            "Identifications needing discrimination".to_string(),
            format!("{:.0}%", counts.discriminated_share() * 100.0),
            "55%".into(),
        ],
        vec![
            "Edit distances per identification".to_string(),
            format!("{:.1}", counts.edit_distances_per_identification()),
            "7".into(),
        ],
    ];
    println!();
    print!("{}", tables::render(&["Count", "Measured", "Paper"], &rows));
    println!(
        "\nnote: the ledger times every step, and README.md's *Table IV* quotes one named\n\
         run of it. Stage 2 runs for a minority of fingerprints and over few candidates\n\
         (the counts above): the paper's case for classifying first."
    );
}
