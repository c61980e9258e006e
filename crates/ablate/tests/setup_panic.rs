//! A job whose graph setup panics fails alone: the run still returns a
//! report, the bad job carries `failed = 1` and the panic message, its
//! neighbours succeed, and the report bytes do not depend on lanes.

use wdr_ablate::{plan, run_ablation_with, to_canonical_json_bytes, RunOptions, RunbookMeta};

/// `er_p = 1.5` is not a probability: `erdos_renyi_connected` asserts
/// while the job's setup builds the graph.
const PLAN: &str = r#"Ablation(
    name: "er-bad-p",
    substrate: Sweep,
    mode: Grid,
    samples: None,
    factors: {
        "er_p": [0.3, 1.5],
    },
    fixed: {
        "family": "erdos_renyi",
        "n": 12,
    },
    tolerances: {},
)"#;

fn run(lanes: Option<usize>) -> Vec<u8> {
    let plan = plan::parse(PLAN).expect("parse plan");
    let options = RunOptions {
        lanes,
        meta: Some(RunbookMeta {
            schema_version: 1,
            plan_name: plan.name.clone(),
            plan_hash: wdr_ablate::plan_hash(&plan),
            commit: "test".to_string(),
            host_threads: 1,
            seeds: vec![3],
        }),
    };
    let report = run_ablation_with(&plan, 3, &options).expect("the run returns a report");
    assert_eq!(report.jobs.len(), 2);
    let (good, bad) = (&report.jobs[0], &report.jobs[1]);
    assert_eq!(good.error, None);
    assert_eq!(good.metrics["failed"], 0.0);
    assert_eq!(bad.metrics["failed"], 1.0);
    let error = bad.error.as_deref().expect("the bad job records an error");
    assert!(error.starts_with("substrate panicked:"), "{error}");
    to_canonical_json_bytes(&report).expect("canonicalize")
}

#[test]
fn setup_panic_fails_only_its_job() {
    assert_eq!(run(None), run(Some(2)));
}
