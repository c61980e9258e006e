//! The benchmark's output checks must be able to fail: with the search
//! layer's Grover phase skipped, a corpus slice must report failed ops and
//! exit non-zero, while the same slice unmutated passes.

use std::process::Command;

fn run_slice(extra: &[&str]) -> (Option<i32>, serde_json::Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_wdr-perfbench"))
        .args([
            "--workload",
            "corpus",
            "--seed",
            "0",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .args(["--slice", "96"])
        .args(extra)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    (
        out.status.code(),
        serde_json::from_str(last).expect("result line is JSON"),
    )
}

fn failed(v: &serde_json::Value) -> u64 {
    v.get("failed")
        .and_then(serde_json::Value::as_u64)
        .expect("failed count")
}

#[test]
fn skipping_the_grover_phase_fails_the_corpus_gate() {
    let (code, result) = run_slice(&["--mutate", "skip-grover"]);
    assert_eq!(code, Some(1), "a failed output check must exit 1");
    assert!(
        failed(&result) > 0,
        "error_rate must be above 0: {result:?}"
    );
    assert_eq!(
        result.get("correct").and_then(serde_json::Value::as_bool),
        Some(false)
    );
}

#[test]
fn the_unmutated_slice_passes() {
    let (code, result) = run_slice(&[]);
    assert_eq!(code, Some(0));
    assert_eq!(failed(&result), 0);
}
