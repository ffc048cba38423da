//! The benchmark's self-test at tiny size: every front settles the same
//! exchange log as the in-process reference, and every metric named in
//! `BENCHMARK.json` is printed with its unit.

use std::sync::Mutex;

use perfbench::front::FrontKind;
use perfbench::report::render;
use perfbench::{run, Outcome, Plan, Workload};

/// Runs share the process-wide injected-kill counter, so they go one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool) -> Plan {
    let mut plan = Plan::new(workload, seed, 1e-9, trace);
    plan.artifact_dir = None;
    match workload {
        Workload::AdServe => plan.users = 40,
        Workload::ExchangeDense => {
            plan.users = 20;
            plan.campaigns = 300;
        }
        Workload::Replay => {
            plan.users = 6;
            plan.campaigns = 60;
        }
    }
    plan
}

fn checked(plan: &Plan) -> Outcome {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let outcome = run(plan).expect("tiny run completes");
    assert!(
        outcome.correct(),
        "{:?}: {:?}",
        plan.workload,
        outcome.problems
    );
    assert_eq!(outcome.failed, 0);
    outcome
}

#[test]
fn every_front_settles_the_reference_log() {
    for seed in [3, 11] {
        let mut digests = Vec::new();
        for (front, lossy) in [
            (FrontKind::Fabric, false),
            (FrontKind::Fabric, true),
            (FrontKind::Shard, false),
        ] {
            let mut plan = tiny(Workload::Replay, seed, false);
            plan.front = front;
            plan.lossy = lossy;
            let outcome = checked(&plan);
            for digest in &outcome.fleet_digests {
                assert_eq!(
                    *digest, outcome.reference_digest,
                    "{front:?} lossy={lossy} seed={seed}"
                );
            }
            digests.push(outcome.reference_digest);
        }
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: {digests:x?}"
        );
    }
}

#[test]
fn rounds_settle_the_reference_log_every_epoch() {
    for workload in [Workload::AdServe, Workload::ExchangeDense] {
        let mut plan = tiny(workload, 5, false);
        plan.seconds = 0.3;
        let outcome = checked(&plan);
        assert!(
            outcome.fleet_digests.len() > 1,
            "{workload:?} served one epoch"
        );
        assert!(outcome
            .fleet_digests
            .iter()
            .all(|d| *d == outcome.reference_digest));
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_owned();
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
            (
                name,
                unit[..unit.find('"').expect("unit closes")].to_owned(),
            )
        })
        .collect()
}

fn assert_prints(outcome: &Outcome, metrics: &[(String, String)]) {
    let text = render(outcome);
    let result = text.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": "),
        "{result}"
    );
    assert_eq!(outcome.metrics.len(), metrics.len());
    for (name, unit) in metrics {
        assert!(
            text.lines()
                .any(|l| l.starts_with(&format!("metric {name} = "))
                    && l.contains(&format!(" {unit}"))),
            "{name} ({unit}) not printed"
        );
        assert!(
            result.contains(&format!("\"{name}\": {{\"value\": "))
                && result.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} ({unit}) not in the result line"
        );
    }
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 10);
    assert_eq!(per_layer.len(), 37);
    for workload in Workload::ALL {
        assert_prints(&checked(&tiny(workload, 7, false)), &end_to_end);
        assert_prints(&checked(&tiny(workload, 7, true)), &per_layer);
    }
}

#[test]
fn an_incorrect_run_reports_false() {
    let mut outcome = checked(&tiny(Workload::AdServe, 1, false));
    outcome.problems.push("digest mismatch".to_owned());
    let text = render(&outcome);
    assert!(text
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false"));
    assert!(text.contains("INCORRECT digest mismatch"));
}
