//! The serving-path benchmark driver.
//!
//! ```text
//! Usage: serve [options]
//!
//! Options:
//!   --users N        scale-stage fleet size (default 10000, up to 1000000);
//!                    the latency stages keep their fixed 64-user fleet
//!   --requests N     requests per measured iteration (default 8192)
//!   --batch N        requests drained per serving-loop wakeup (default 64)
//!   --seed N         master seed (default 0)
//!   --threads N      worker threads for the shared-device stage (default 2)
//!   --bench-json F   benchmark log to append serving rows to
//!                    (default BENCH_repro.json in the working directory)
//! ```
//!
//! The serving rows (latency stages plus the `serve/scale/{users}`
//! capacity rows) are appended to the existing benchmark log (replacing
//! any earlier `serve/...` rows, so reruns never accumulate), and the
//! merged document is re-validated with the same schema check that
//! `privlocad-lint --bench-json` applies in CI.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use privlocad_bench::scale::{self, ScaleRow};
use privlocad_bench::serve::{self, Config, ServeRow};
use privlocad_bench::log;
use privlocad_lint::json::Json;

#[derive(Debug, Clone)]
struct Options {
    config: Config,
    scale: scale::Config,
    bench_json: PathBuf,
}

fn usage() -> &'static str {
    "usage: serve [--users N] [--requests N] [--batch N] [--seed N] [--threads N] \
     [--bench-json FILE]"
}

fn num(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    let v = it.next().ok_or(format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} {v}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        config: Config::default(),
        scale: scale::Config::default(),
        bench_json: PathBuf::from("BENCH_repro.json"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--users" => opts.scale.users = num(&mut it, "--users")?.max(1),
            "--requests" => opts.config.requests = num(&mut it, "--requests")?.max(1),
            "--batch" => opts.config.batch = num(&mut it, "--batch")?.max(1),
            "--seed" => {
                let seed = num(&mut it, "--seed")? as u64;
                opts.config.seed = seed;
                opts.scale.seed = seed;
            }
            "--threads" => opts.config.threads = num(&mut it, "--threads")?.max(1),
            "--bench-json" => {
                let v = it.next().ok_or("--bench-json needs a file path")?;
                opts.bench_json = PathBuf::from(v);
            }
            other => return Err(format!("unknown option {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn row_to_json(row: &ServeRow) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Json::Str(row.name.clone()));
    obj.insert("wall_ms".to_owned(), Json::Num(row.wall_ms));
    obj.insert("requests_per_sec".to_owned(), Json::Num(row.requests_per_sec));
    obj.insert("batch".to_owned(), Json::Num(row.batch as f64));
    obj.insert("threads".to_owned(), Json::Num(row.threads as f64));
    Json::Obj(obj)
}

fn scale_row_to_json(row: &ScaleRow) -> Json {
    let mut obj = BTreeMap::new();
    obj.insert("name".to_owned(), Json::Str(row.name.clone()));
    obj.insert("wall_ms".to_owned(), Json::Num(row.wall_ms));
    obj.insert("users".to_owned(), Json::Num(row.users as f64));
    obj.insert("shards".to_owned(), Json::Num(row.shards as f64));
    obj.insert("bytes_per_user".to_owned(), Json::Num(row.bytes_per_user));
    obj.insert("checkpoint_encode_ms".to_owned(), Json::Num(row.checkpoint_encode_ms));
    obj.insert("recovery_ms".to_owned(), Json::Num(row.recovery_ms));
    obj.insert("per_shard_recovery_ms".to_owned(), Json::Num(row.per_shard_recovery_ms));
    obj.insert("digest".to_owned(), Json::Str(row.digest.clone()));
    Json::Obj(obj)
}

/// Merges the `serve/...` rows and the serving-path telemetry hub
/// (rendered by the deterministic pass) into the benchmark log, replacing
/// any earlier `serve/...` rows.
fn merge_log(
    existing: Option<&str>,
    opts: &Options,
    rows: &[ServeRow],
    scale_rows: &[ScaleRow],
    telemetry_json: &str,
) -> Result<Json, String> {
    log::merge(
        existing,
        log::header("serve", opts.config.seed, opts.config.threads),
        |name| name.starts_with("serve/"),
        rows.iter().map(row_to_json).chain(scale_rows.iter().map(scale_row_to_json)).collect(),
        vec![("serve".to_owned(), telemetry_json.to_owned())],
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let out = serve::run(&opts.config);
    print!("{}", out.table().render());
    if let Some(speedup) = out.batched_speedup() {
        println!(
            "\nbatched+cached vs legacy single-request path: {speedup:.1}x \
             (acceptance floor: 5x)"
        );
    }
    let snapshot = out.telemetry.registry().snapshot();
    let hits = snapshot.counter("edge.posterior_cache_hits").unwrap_or(0);
    let misses = snapshot.counter("edge.posterior_cache_misses").unwrap_or(0);
    println!("telemetry: posterior cache {hits} hits / {misses} misses over the serving profile");
    let scale_out = scale::run(&opts.scale);
    print!("\n{}", scale_out.table().render());
    let telemetry = out.telemetry.to_json();
    if let Err(e) = log::write(&opts.bench_json, |existing| {
        merge_log(existing, &opts, &out.rows, &scale_out.rows, &telemetry)
    }) {
        eprintln!("[bench] {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_lint::json::{render, validate_bench_report};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn row(name: &str) -> ServeRow {
        ServeRow {
            name: name.to_owned(),
            wall_ms: 2.5,
            ns_per_request: 305.2,
            requests_per_sec: 3_276_800.0,
            batch: 64,
            threads: 1,
        }
    }

    fn scale_row(name: &str, users: usize) -> ScaleRow {
        ScaleRow {
            name: name.to_owned(),
            wall_ms: 25.0,
            users,
            shards: users.div_ceil(10_000),
            bytes_per_user: 1_800.0,
            checkpoint_encode_ms: 4.0,
            recovery_ms: 9.0,
            per_shard_recovery_ms: 9.0,
            digest: "00f00ba900f00ba9".to_owned(),
        }
    }

    #[test]
    fn parses_defaults_and_overrides() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.config.users, 64);
        assert_eq!(o.scale.users, 10_000);
        assert_eq!(o.bench_json, PathBuf::from("BENCH_repro.json"));
        let o = parse_args(&args(
            "--users 8 --requests 512 --batch 32 --seed 9 --threads 4 --bench-json s.json",
        ))
        .unwrap();
        // --users drives the scale stage; the latency stages keep their
        // fixed 64-user fleet so their numbers stay comparable run to run.
        assert_eq!(o.scale.users, 8);
        assert_eq!((o.config.users, o.config.requests, o.config.batch), (64, 512, 32));
        assert_eq!((o.config.seed, o.scale.seed, o.config.threads), (9, 9, 4));
        assert_eq!(o.bench_json, PathBuf::from("s.json"));
        assert!(parse_args(&args("--wat")).unwrap_err().contains("unknown option"));
        assert!(parse_args(&args("--batch x")).unwrap_err().contains("bad --batch"));
    }

    #[test]
    fn merge_replaces_stale_serve_rows_and_validates() {
        let opts = parse_args(&[]).unwrap();
        let existing = r#"{"experiment": "all", "seed": 0, "threads": 2, "runs": [
            {"name": "fig9", "wall_ms": 80.0, "threads": 2, "users": null, "trials": 100},
            {"name": "serve/legacy_single", "wall_ms": 9.9, "requests_per_sec": 1.0,
             "batch": 1, "threads": 1},
            {"name": "serve/scale/16", "wall_ms": 3.0, "users": 16, "shards": 1,
             "bytes_per_user": 9.0, "checkpoint_encode_ms": 1.0, "recovery_ms": 1.0,
             "per_shard_recovery_ms": 1.0, "digest": "aa"}
        ]}"#;
        let hub = privlocad_telemetry::Telemetry::new();
        hub.registry()
            .counter("edge.checkins", privlocad_telemetry::Determinism::Deterministic)
            .add(7);
        let doc = merge_log(
            Some(existing),
            &opts,
            &[row("serve/batched_cached/64")],
            &[scale_row("serve/scale/10000", 10_000)],
            &hub.to_json(),
        )
        .unwrap();
        let runs = match doc.get("runs") {
            Some(Json::Arr(runs)) => runs,
            other => panic!("runs missing: {other:?}"),
        };
        let names: Vec<_> =
            runs.iter().filter_map(|r| r.get("name").and_then(Json::as_str)).collect();
        assert_eq!(names, ["fig9", "serve/batched_cached/64", "serve/scale/10000"]);
        let section = doc.get("telemetry").and_then(|t| t.get("serve")).expect("serve hub");
        assert_eq!(
            section.get("counters").and_then(|c| c.get("edge.checkins")).and_then(Json::as_num),
            Some(7.0)
        );
        validate_bench_report(&render(&doc)).expect("merged log must validate");
    }

    #[test]
    fn fresh_log_carries_the_required_header() {
        let opts = parse_args(&args("--seed 5 --threads 3")).unwrap();
        let hub = privlocad_telemetry::Telemetry::new();
        let doc = merge_log(
            None,
            &opts,
            &[row("serve/single_cached")],
            &[scale_row("serve/scale/10000", 10_000)],
            &hub.to_json(),
        )
        .unwrap();
        validate_bench_report(&render(&doc)).expect("fresh log must validate");
    }
}
