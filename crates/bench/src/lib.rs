//! Shared helpers for the benchmark harness.
//!
//! The Criterion bench targets only time kernels; the paper's tables
//! and figures are rendered by `archdse <artifact> --full` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Writes a machine-readable artifact into the repository's `results/`
/// directory (creating it if needed) and returns the path written.
///
/// Bench targets, `archdse loadgen --trend` and `archdse workload-diff`
/// use this for the JSON records later changes compare against (e.g.
/// `results/BENCH_sim_kernel.json`).
///
/// # Panics
///
/// Panics if the directory or file cannot be written — a bench artifact
/// silently going missing would defeat its purpose as a perf record.
pub fn write_results_artifact(file_name: &str, contents: &str) -> std::path::PathBuf {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", results.display()));
    let path = results.join(file_name);
    std::fs::write(&path, contents)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
    path
}
