//! The one writer of the benchmark log (`BENCH_repro.json` by default).
//!
//! Every bench binary owns some of the log's rows: `serve/...`,
//! `chaos/...`, `auction/...`, `candidate_install/...`, and `repro`'s
//! experiment names. A run loads the existing document (or starts one from
//! its own header), replaces only the rows and telemetry sections it owns,
//! validates the result with the schema `privlocad-lint --bench-json`
//! applies, and writes it back, so one binary's run never wipes another's
//! trajectory.

use std::collections::BTreeMap;
use std::path::Path;

use privlocad_lint::json::{parse, render, validate_bench_report, Json};

/// The header a fresh log starts with. An existing log keeps its own.
#[must_use]
pub fn header(experiment: &str, seed: u64, threads: usize) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("experiment".to_owned(), Json::Str(experiment.to_owned()));
    obj.insert("seed".to_owned(), Json::Num(seed as f64));
    obj.insert("threads".to_owned(), Json::Num(threads as f64));
    obj.insert("runs".to_owned(), Json::Arr(Vec::new()));
    Json::Obj(obj)
}

/// Merges one run into the log text `existing` (or into `header` when
/// there is none): drops every row and telemetry section whose name
/// `owns` claims, then appends `rows` and inserts the `telemetry`
/// sections, given as `(name, exported hub JSON)`.
///
/// # Errors
///
/// Returns a message if `existing` or a telemetry hub is not valid JSON,
/// or if the log lacks the `runs` array.
pub fn merge(
    existing: Option<&str>,
    header: Json,
    owns: impl Fn(&str) -> bool,
    rows: Vec<Json>,
    telemetry: Vec<(String, String)>,
) -> Result<Json, String> {
    let mut doc = match existing {
        Some(text) => parse(text)?,
        None => header,
    };
    let Json::Obj(obj) = &mut doc else {
        return Err("benchmark log root is not an object".to_owned());
    };
    let Some(Json::Arr(runs)) = obj.get_mut("runs") else {
        return Err("benchmark log has no `runs` array".to_owned());
    };
    runs.retain(|run| !run.get("name").and_then(Json::as_str).is_some_and(&owns));
    runs.extend(rows);
    let sections = obj.entry("telemetry".to_owned()).or_insert_with(|| Json::Obj(BTreeMap::new()));
    let Json::Obj(sections) = sections else {
        return Err("benchmark log `telemetry` is not an object".to_owned());
    };
    sections.retain(|name, _| !owns(name));
    for (name, hub) in telemetry {
        sections.insert(name, parse(&hub)?);
    }
    if sections.is_empty() {
        obj.remove("telemetry");
    }
    Ok(doc)
}

/// Reads the log at `path` (a missing or unreadable file starts a fresh
/// one), hands its text to `merge`, validates the merged document and
/// writes it back.
///
/// # Errors
///
/// Returns a message if the merge fails, the merged log does not
/// validate, or the file cannot be written.
pub fn write(
    path: &Path,
    merge: impl FnOnce(Option<&str>) -> Result<Json, String>,
) -> Result<(), String> {
    let existing = std::fs::read_to_string(path).ok();
    let text = render(&merge(existing.as_deref())?);
    validate_bench_report(&text)?;
    std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[bench] wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_logs_are_errors() {
        let merge_into = |text: &str| merge(Some(text), header("x", 0, 1), |_| true, vec![], vec![]);
        assert!(merge_into("not json").is_err());
        assert!(merge_into("[]").unwrap_err().contains("not an object"));
        assert!(merge_into("{}").unwrap_err().contains("no `runs` array"));
    }
}
