//! The machine a result was measured on. Only gathered for `--json`
//! documents: it reads `/proc/cpuinfo` and runs `rustc -V`, which a
//! benchmark-driver run (confined to its checkout) must not.

use std::process::Command;

use crate::json::Json;

fn cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_owned())
}

fn rustc_version() -> Option<String> {
    let output = Command::new("rustc").arg("-V").output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

pub fn fingerprint() -> Json {
    let text = |value: Option<String>| value.map_or(Json::Null, Json::Str);
    Json::obj([
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("cpu_model", text(cpu_model())),
        ("rustc", text(rustc_version())),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("target_arch", Json::Str(std::env::consts::ARCH.into())),
        // Compile-time view of the opt flags that change the kernels:
        // true only when built with `-C target-cpu`/`target-feature`.
        (
            "target_feature_avx2",
            Json::Bool(cfg!(target_feature = "avx2")),
        ),
    ])
}
