//! Self-test: a smoke-size run of every workload, untraced and traced,
//! must pass its output checks and print every metric `BENCHMARK.json`
//! names, with its unit, both in the summary and in the JSON line.
//!
//! `dlx_serve` needs the release `simcov` binary: `bash simbench/run.sh
//! --selftest` builds it and passes its path in `SIMBENCH_SIMCOV`.

use simcov_obs::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("simbench sits inside the repository")
        .to_path_buf()
}

fn simcov_binary() -> PathBuf {
    if let Some(p) = std::env::var_os("SIMBENCH_SIMCOV") {
        return PathBuf::from(p);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| repo_root().join("target"));
    let p = target.join("release/simcov");
    assert!(
        p.exists(),
        "no release simcov at {}; run `bash simbench/run.sh --selftest`",
        p.display()
    );
    p
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{list}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("metric without `{k}`"))
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--simcov")
        .arg(simcov_binary())
        .output()
        .expect("simbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("output has a JSON line");
    let result = json::parse(last).expect("the last line is JSON");
    assert!(matches!(result.get("correct"), Some(Json::Bool(true))));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("a metrics object");
    let expected = declared(if trace { "per_layer" } else { "end_to_end" });
    assert_eq!(metrics.len(), expected.len(), "{workload}: metric count");
    for (name, unit) in &expected {
        let m = metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{workload}: no `{name}` in the JSON line"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        assert!(m.get("value").is_some_and(|v| matches!(v, Json::Num(_))));
        let printed = stdout.lines().any(|l| {
            let mut f = l.split_whitespace();
            f.next() == Some("metric:") && f.next() == Some(name) && f.nth(1) == Some(unit)
        });
        assert!(
            printed,
            "{workload}: `{name}` not printed with unit `{unit}`"
        );
    }
    for key in ["nproc", "cpu", "rustc", "git_commit", "seed", "trace"] {
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("host: {key} = "))),
            "{workload}: host record lacks `{key}`"
        );
    }
}

#[test]
fn dlx_cli_jobs_smoke() {
    smoke("dlx_cli_jobs", false);
    smoke("dlx_cli_jobs", true);
}

#[test]
fn dlx_full_implicit_smoke() {
    smoke("dlx_full_implicit", false);
    smoke("dlx_full_implicit", true);
}

#[test]
fn dlx_serve_smoke() {
    smoke("dlx_serve", false);
    smoke("dlx_serve", true);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "dlx_cli_jobs",
            "--seed",
            "1",
            "--seconds",
            "1",
        ][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("simbench runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
    }
}
