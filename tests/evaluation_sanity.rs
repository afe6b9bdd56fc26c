//! A reduced version of the Sect. VI-B evaluation run as an integration
//! test: guards the shape of Fig. 5 / Table III against regressions in
//! any crate (device models, features, classifiers, discrimination).

use sentinel_bench::evaluation::{evaluate, EvalConfig};
use sentinel_core::IdentifyMode;

fn quick_config() -> EvalConfig {
    EvalConfig {
        runs: 10,
        folds: 5,
        repetitions: 2,
        trees: 40,
        workers: 1,
        seed: 42,
        ..EvalConfig::default()
    }
}

#[test]
fn fig5_shape_holds() {
    let result = evaluate(&quick_config());
    let accuracy: std::collections::HashMap<String, f64> =
        result.per_type_accuracy().into_iter().collect();

    // Global accuracy in the paper's regime (paper: 0.815).
    let global = result.global_accuracy();
    assert!((0.70..=0.93).contains(&global), "global accuracy {global}");

    // The seventeen behaviourally distinct devices identify reliably.
    for name in [
        "Aria",
        "HomeMaticPlug",
        "Withings",
        "MAXGateway",
        "HueBridge",
        "HueSwitch",
        "EdnetGateway",
        "EdnetCam",
        "EdimaxCam",
        "WeMoInsightSwitch",
        "WeMoLink",
        "WeMoSwitch",
        "D-LinkHomeHub",
        "D-LinkCam",
    ] {
        assert!(
            accuracy[name] >= 0.85,
            "{name} should be easy, got {}",
            accuracy[name]
        );
    }

    // The firmware-sharing families confuse (the Table III block):
    // nobody in a family reaches the easy devices' accuracy.
    for name in [
        "D-LinkWaterSensor",
        "D-LinkSiren",
        "D-LinkSensor",
        "TP-LinkPlugHS110",
        "TP-LinkPlugHS100",
        "EdimaxPlug1101W",
        "EdimaxPlug2101W",
        "SmarterCoffee",
        "iKettle2",
    ] {
        assert!(
            (0.05..=0.85).contains(&accuracy[name]),
            "{name} should confuse moderately, got {}",
            accuracy[name]
        );
    }
}

#[test]
fn confusion_stays_within_vendor_families() {
    let result = evaluate(&quick_config());
    let c = &result.confusion;
    let names = c.labels();
    let family_of = |name: &str| -> usize {
        for (g, group) in sentinel_devicesim::confusable_groups().iter().enumerate() {
            if group.contains(&name) {
                return g + 1;
            }
        }
        0
    };
    let mut cross_family = 0usize;
    let mut within_family = 0usize;
    for actual in 0..27 {
        let fam = family_of(&names[actual]);
        if fam == 0 {
            continue;
        }
        for (predicted, predicted_name) in names.iter().enumerate().take(27) {
            if predicted == actual {
                continue;
            }
            let count = c.count(actual, predicted);
            if family_of(predicted_name) == fam {
                within_family += count;
            } else {
                cross_family += count;
            }
        }
    }
    assert!(within_family > 0, "families must confuse internally");
    assert!(
        cross_family * 10 <= within_family,
        "cross-family confusion ({cross_family}) should be rare vs within-family ({within_family})"
    );
}

#[test]
fn rf_only_mode_underperforms_two_stage_on_families() {
    // The ablation the paper's design implies: without edit-distance
    // discrimination, multi-match fingerprints are resolved by raw vote
    // confidence only.
    let two_stage = evaluate(&quick_config());
    let rf_only = evaluate(&EvalConfig {
        mode: IdentifyMode::RfOnly,
        ..quick_config()
    });
    // Both are valid pipelines; two-stage must not be (much) worse, and
    // the discrimination stage must actually run in two-stage mode.
    assert!(two_stage.counts.discriminated > 0);
    assert_eq!(rf_only.counts.discriminated, 0);
    assert!(
        two_stage.global_accuracy() + 0.05 >= rf_only.global_accuracy(),
        "two-stage {} vs rf-only {}",
        two_stage.global_accuracy(),
        rf_only.global_accuracy()
    );
}
