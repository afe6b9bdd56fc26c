//! `--compare a.json b.json`: applies the benchmark's own bounds to two
//! result files of the same workloads and seed, per (end-to-end metric,
//! workload) pair.

use crate::json::Json;
use crate::registry::{bound_of, higher_is_better};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The pass-to-pass spread of either run is wider than the bound,
    /// so a difference within the bound cannot be told from none.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Reading {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }

    fn of(metric: &Json) -> Option<Reading> {
        let value = metric.get("value")?.as_f64()?;
        Some(Reading {
            value,
            q1: metric.get("q1").and_then(Json::as_f64).unwrap_or(value),
            q3: metric.get("q3").and_then(Json::as_f64).unwrap_or(value),
        })
    }
}

/// Set-up is short enough that 50 ms of scheduler noise can exceed its
/// relative bound; a difference that small is not a regression.
const SETUP_SLACK_S: f64 = 0.05;

/// The verdict on `b` against the reference `a`, and by what share of
/// `a` it is worse (negative when better).
pub fn judge(name: &str, a: Reading, b: Reading) -> (Verdict, f64) {
    let bound = bound_of(name);
    let worse = if higher_is_better(name) {
        a.value - b.value
    } else {
        b.value - a.value
    };
    let worse_by = if a.value == 0.0 {
        if worse > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse / a.value.abs()
    };
    let verdict = if bound == 0.0 {
        // Counted, not timed: must repeat exactly.
        if worse > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound && !(name == "setup_s" && worse <= SETUP_SLACK_S) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// A result file holds one run document or a list of them.
fn runs(document: &Json) -> Vec<&Json> {
    match document {
        Json::Arr(items) => items.iter().collect(),
        single => vec![single],
    }
}

/// Compares every pair present in both files, printing one line each.
/// Returns whether nothing regressed.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut clean = true;
    let mut pairs = 0;
    for run_a in runs(a) {
        let workload = run_a
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a result has no workload name")?;
        let Some(run_b) = runs(b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        else {
            continue;
        };
        if run_a.get("seed") != run_b.get("seed") {
            return Err(format!("{workload}: the two runs used different seeds"));
        }
        let empty = Json::Obj(Vec::new());
        let metrics_b = run_b.get("end_to_end").unwrap_or(&empty);
        for (name, metric_a) in run_a.get("end_to_end").unwrap_or(&empty).fields() {
            let (Some(a), Some(b)) = (
                Reading::of(metric_a),
                metrics_b.get(name).and_then(Reading::of),
            ) else {
                continue;
            };
            let (verdict, worse_by) = judge(name, a, b);
            clean &= verdict != Verdict::Regressed;
            pairs += 1;
            println!(
                "{workload} {name} {} a={} b={} worse_by={:.4} bound={}",
                verdict.as_str(),
                a.value,
                b.value,
                worse_by,
                bound_of(name)
            );
        }
    }
    if pairs == 0 {
        return Err("the two files share no (workload, metric) pair".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(value: f64) -> Reading {
        Reading {
            value,
            q1: value * 0.995,
            q3: value * 1.005,
        }
    }

    #[test]
    fn timed_metrics_use_the_table_bound_in_the_right_direction() {
        let bound = bound_of("throughput_per_s");
        assert!(bound > 0.0);
        let slower = tight(1000.0 * (1.0 - bound * 1.5));
        assert_eq!(
            judge("throughput_per_s", tight(1000.0), slower).0,
            Verdict::Regressed
        );
        // Faster is never a regression, however much.
        assert_eq!(
            judge("throughput_per_s", tight(1000.0), tight(5000.0)).0,
            Verdict::Ok
        );
        let within = tight(1000.0 * (1.0 - bound * 0.5));
        assert_eq!(judge("frames_per_s", tight(1000.0), within).0, Verdict::Ok);
        // Latency worsens upward.
        let higher = tight(10.0 * (1.0 + bound * 1.5));
        assert_eq!(
            judge("latency_us_p95", tight(10.0), higher).0,
            Verdict::Regressed
        );
        assert_eq!(judge("latency_us_p95", higher, tight(10.0)).0, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let bound = bound_of("throughput_per_s");
        let noisy = Reading {
            value: 1000.0,
            q1: 1000.0 * (1.0 - bound * 0.6),
            q3: 1000.0 * (1.0 + bound * 0.6),
        };
        assert_eq!(
            judge("throughput_per_s", noisy, tight(990.0)).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge("throughput_per_s", tight(990.0), noisy).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn counted_metrics_must_repeat_exactly() {
        let exact = |value| Reading {
            value,
            q1: value,
            q3: value,
        };
        assert_eq!(
            judge("resident_bytes_per_session", exact(5120.0), exact(5120.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge("resident_bytes_per_session", exact(5120.0), exact(5121.0)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge("correct_type_share", exact(0.9), exact(0.89)).0,
            Verdict::Regressed
        );
        assert_eq!(
            judge("failed_share", exact(0.0), exact(0.001)).0,
            Verdict::Regressed
        );
        assert_eq!(judge("failed_share", exact(0.0), exact(0.0)).0, Verdict::Ok);
    }

    #[test]
    fn setup_gets_fifty_milliseconds_of_slack() {
        assert_eq!(judge("setup_s", tight(0.10), tight(0.14)).0, Verdict::Ok);
        assert_eq!(
            judge("setup_s", tight(1.0), tight(1.4)).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn files_are_paired_by_workload() {
        let run = |workload: &str, rate: f64| {
            Json::obj([
                ("workload", Json::Str(workload.into())),
                ("seed", Json::Num(42.0)),
                (
                    "end_to_end",
                    Json::obj([(
                        "throughput_per_s",
                        Json::obj([
                            ("value", Json::Num(rate)),
                            ("q1", Json::Num(rate)),
                            ("q3", Json::Num(rate)),
                        ]),
                    )]),
                ),
            ])
        };
        let a = Json::Arr(vec![
            run("onboard_shed", 100.0),
            run("enforce_steady", 100.0),
        ]);
        let same = Json::Arr(vec![
            run("enforce_steady", 99.0),
            run("onboard_shed", 101.0),
        ]);
        assert_eq!(compare(&a, &same), Ok(true));
        let slower = Json::Arr(vec![run("enforce_steady", 50.0)]);
        assert_eq!(compare(&a, &slower), Ok(false));
        assert!(compare(&a, &run("fleet_presynth", 1.0)).is_err());
        let mut other_seed = run("onboard_shed", 100.0);
        if let Json::Obj(fields) = &mut other_seed {
            fields[1].1 = Json::Num(7.0);
        }
        assert!(compare(&a, &other_seed).is_err());
    }
}
