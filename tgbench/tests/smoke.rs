//! The benchmark's smoke test: one job per workload, untraced and
//! traced, from the repository root. Every metric must be printed with
//! the unit `BENCHMARK.json` declares and every oracle must pass.

use std::process::Command;

#[test]
fn one_job_per_workload_prints_every_metric_and_passes_every_oracle() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let out = Command::new(env!("CARGO_BIN_EXE_tgbench"))
        .arg("--smoke")
        .current_dir(root)
        .output()
        .expect("run tgbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("smoke ok"),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
