//! Firmware updates change fingerprints (Sect. VIII-B): the paper
//! observed that devices updated during data collection produced
//! fingerprints distinguishable from their older firmware — which is a
//! feature, since patched firmware should be re-assessed.
//!
//! This example trains a classifier on (SmarterCoffee, firmware v1) vs
//! (SmarterCoffee, firmware v2) fingerprints and shows the two versions
//! separate cleanly, exactly as the paper's device-type definition
//! ("make + model + software version") requires.
//!
//! ```text
//! cargo run --release --example firmware_drift
//! ```

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::fingerprint::{extract_frames, FixedFingerprint};
use iot_sentinel::ml::{crossval::stratified_k_fold, Dataset, ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let devices = catalog();
    let coffee = devices
        .iter()
        .find(|d| d.info.identifier == "SmarterCoffee")
        .expect("catalog");
    let testbed = Testbed::new(33);

    // Collect 20 runs of each firmware version.
    let v1 = coffee.profile.clone();
    let v2 = coffee.profile.clone().with_firmware(2);
    let mut data = Dataset::new(276);
    for run in 0..20 {
        for (version, profile) in [(0usize, &v1), (1usize, &v2)] {
            let trace = testbed.setup_run(profile, run + version as u64 * 1000);
            let frames: Vec<_> = trace.packets.iter().map(|p| p.encode()).collect();
            let full = extract_frames(&frames).expect("simulated frames are well-formed");
            let fixed = FixedFingerprint::from_fingerprint(&full);
            data.push(fixed.as_slice(), version);
        }
    }

    // 5-fold CV: can a classifier tell the versions apart?
    let mut rng = StdRng::seed_from_u64(9);
    let folds = stratified_k_fold(data.labels(), 5, &mut rng);
    let mut correct = 0;
    let mut total = 0;
    for fold in &folds {
        let train = data.subset(&fold.train);
        let forest = RandomForest::fit(&train, &ForestConfig::default().with_seed(3));
        for &i in &fold.test {
            total += 1;
            if forest.predict(data.row(i)) == data.label(i) {
                correct += 1;
            }
        }
    }
    let accuracy = correct as f64 / total as f64;
    println!("firmware v1 vs v2 classification accuracy: {accuracy:.3} ({correct}/{total})");
    println!(
        "=> a firmware update produces a distinguishable fingerprint, so the IoTSSP\n\
           treats it as a new device-type and re-runs the vulnerability assessment\n\
           (paper Sect. VIII-B: updated devices 'led to generate distinguishable\n\
           fingerprints between software versions')."
    );
}
