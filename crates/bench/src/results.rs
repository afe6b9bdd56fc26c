//! Bench-results JSON output.
//!
//! `table4_timing --json` renders its BENCH JSON and writes it through
//! [`write_json`], which creates the directory and announces the
//! artifact on stdout. Bench output is write-only JSON: nothing in this
//! workspace parses it back.

use std::path::Path;

/// Writes pre-rendered bench JSON to `path`, creating parent
/// directories as needed, and announces the artifact on stdout.
///
/// # Panics
///
/// Panics if the file cannot be written — a bench run whose results
/// vanish silently is worse than one that aborts.
pub fn write_json(path: &str, json: &str) {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {parent:?}: {e}"));
        }
    }
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path:?}: {e}"));
    println!("\nBENCH JSON written to {path}");
}
