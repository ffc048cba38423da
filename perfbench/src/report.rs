//! Metric assembly and output: the per-layer metrics of a traced run, the
//! stamp behind every result, and the one-line JSON result.

use std::time::Instant;

use privlocad::{EdgeDevice, FabricStats, SystemConfig};
use privlocad_telemetry::MetricsSnapshot;

use crate::drive::{Log, REQUEST};
use crate::oracle::Reference;
use crate::serve::Stretch;
use crate::spans::{Layer, Spans};
use crate::stats::{histogram_quantile, median, quantile_u32};
use crate::{Outcome, Plan};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a percentile or a rate, where there are several.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: None,
        }
    }

    pub fn sampled(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Some(samples),
        }
    }
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub spans: &'a Spans,
    pub stats: FabricStats,
    /// The traced fleet's telemetry hub.
    pub hub: &'a MetricsSnapshot,
    pub ledger_spends: usize,
    pub traced: &'a Log,
    pub untraced: &'a Log,
    /// Fleet check-in round trips, in ns.
    pub checkins: &'a [u32],
    pub reference: &'a Reference,
    pub users: f64,
    pub bytes_per_bid: f64,
    pub win_ratio: f64,
    pub top1_500m: f64,
    pub ingest_ns: f64,
    pub infer_ns: f64,
    pub tracegen_ms: f64,
    /// Medians of the reference device's checkpoint encode and restore, in
    /// ms, and the checkpoint's size in bytes.
    pub recovery: (f64, f64, usize),
}

/// Median duration of one layer's spans, in ns (0 when it has none).
fn span_median(spans: &Spans, layer: Layer) -> f64 {
    let mut durations = spans.durations(layer);
    if durations.is_empty() {
        0.0
    } else {
        median(&mut durations)
    }
}

/// Times the checkpoint encode and the restore of the reference device,
/// three times each, recording their spans; medians in ms and the
/// checkpoint size in bytes.
pub fn recovery(edge: &EdgeDevice, config: SystemConfig, spans: &mut Spans) -> (f64, f64, usize) {
    let mut encode = Vec::new();
    let mut restore = Vec::new();
    let mut bytes = 0;
    for i in 0..3 {
        let started = Instant::now();
        let checkpoint = edge.checkpoint();
        encode.push(started.elapsed().as_secs_f64() * 1e3);
        spans.close(Layer::CheckpointEncode, 0, i, started);
        bytes = checkpoint.len();
        let started = Instant::now();
        let restored = EdgeDevice::restore_from_checkpoint(config, &checkpoint)
            .expect("a fresh checkpoint restores");
        restore.push(started.elapsed().as_secs_f64() * 1e3);
        spans.close(Layer::CheckpointRestore, 0, i, started);
        std::hint::black_box(restored);
    }
    (median(&mut encode), median(&mut restore), bytes)
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn layer_metrics(inputs: &LayerInputs<'_>) -> Vec<Metric> {
    let (checkpoint_ms, restore_ms, checkpoint_bytes) = inputs.recovery;
    let s = inputs.spans;
    let hub = inputs.hub;
    let counter = |name: &str| hub.counter(name).unwrap_or(0) as f64;
    let histogram = |name: &str, q: f64| {
        hub.histogram(name)
            .map_or(0.0, |h| histogram_quantile(h, q))
    };
    let stats = inputs.stats;
    let requests = counter("server.requests");
    let transmissions = requests
        + (stats.drops_injected + stats.corruptions_injected + stats.duplicates_injected) as f64;
    let hits = counter("edge.posterior_cache_hits");
    let lookups = hits + counter("edge.posterior_cache_misses");
    let matches = s.durations(Layer::AdnetMatch).len().max(1) as f64;

    let edge_request_ns = span_median(s, Layer::EdgeRequest);
    let submit_ns = span_median(s, Layer::SinkSubmit);
    let encode_ns = span_median(s, Layer::ProtocolEncode);
    let decode_ns = span_median(s, Layer::ProtocolDecode);
    let untraced_p50 = quantile_u32(&inputs.untraced.rtt[REQUEST], 0.5);
    let traced_p50 = quantile_u32(&inputs.traced.rtt[REQUEST], 0.5);
    let attributed_ns = edge_request_ns + submit_ns + encode_ns + decode_ns;

    vec![
        Metric::new(
            "fabric.transmissions_per_delivery",
            "ratio",
            transmissions / requests.max(1.0),
        ),
        Metric::new(
            "fabric.retransmits",
            "count",
            (stats.drops_injected + stats.corruptions_injected) as f64,
        ),
        Metric::new(
            "fabric.duplicates_suppressed",
            "count",
            counter("server.duplicates_suppressed"),
        ),
        Metric::new("fabric.heals", "count", stats.heals as f64),
        Metric::new(
            "fabric.deadline_misses",
            "count",
            stats.deadline_misses as f64,
        ),
        Metric::sampled(
            "server.checkin_rtt_p50_us",
            "us",
            quantile_u32(inputs.checkins, 0.5) / 1e3,
            inputs.checkins.len(),
        ),
        Metric::new(
            "server.requests_per_wakeup",
            "ratio",
            requests / counter("server.wakeups").max(1.0),
        ),
        Metric::new(
            "server.batch_size_p99",
            "count",
            histogram("server.batch_size", 0.99),
        ),
        Metric::new(
            "server.checkpoint_bytes_p50",
            "bytes",
            histogram("server.checkpoint_bytes", 0.5),
        ),
        Metric::new("server.restarts", "count", counter("server.restarts")),
        Metric::new(
            "server.failed_replies",
            "count",
            counter("server.failed_replies"),
        ),
        Metric::new(
            "server.overload_rejections",
            "count",
            counter("server.overload_rejections"),
        ),
        Metric::new("protocol.encode_ns", "ns", encode_ns),
        Metric::new("protocol.decode_ns", "ns", decode_ns),
        Metric::new("edge.checkin_ns", "ns", span_median(s, Layer::EdgeCheckIn)),
        Metric::new("edge.request_ns", "ns", edge_request_ns),
        Metric::new(
            "edge.finalize_us",
            "us",
            span_median(s, Layer::EdgeClose) / 1e3,
        ),
        Metric::new("edge.posterior_hit_ratio", "ratio", hits / lookups.max(1.0)),
        Metric::new(
            "edge.fresh_sets",
            "count",
            counter("edge.fresh_candidate_sets"),
        ),
        Metric::new("edge.ledger_spends", "count", inputs.ledger_spends as f64),
        Metric::new("recovery.checkpoint_ms", "ms", checkpoint_ms),
        Metric::new("recovery.restore_ms", "ms", restore_ms),
        Metric::new(
            "recovery.bytes_per_user",
            "bytes",
            checkpoint_bytes as f64 / inputs.users,
        ),
        Metric::new("openrtb.submit_ns", "ns", submit_ns),
        Metric::new(
            "openrtb.drain_ms",
            "ms",
            span_median(s, Layer::SinkDrain) / 1e6,
        ),
        Metric::new("openrtb.decode_ns", "ns", span_median(s, Layer::BidDecode)),
        Metric::new("openrtb.bytes_per_bid", "bytes", inputs.bytes_per_bid),
        Metric::new("adnet.settle_ns", "ns", span_median(s, Layer::AdnetSettle)),
        Metric::new("adnet.match_ns", "ns", span_median(s, Layer::AdnetMatch)),
        Metric::new(
            "adnet.matched_per_request",
            "count",
            inputs.reference.matched as f64 / matches,
        ),
        Metric::new("adnet.win_ratio", "ratio", inputs.win_ratio),
        Metric::new("attack.ingest_ns_per_record", "ns", inputs.ingest_ns),
        Metric::new("attack.infer_ms_per_device", "ms", inputs.infer_ns / 1e6),
        Metric::new("attack.top1_500m", "ratio", inputs.top1_500m),
        Metric::new("mobility.tracegen_ms", "ms", inputs.tracegen_ms),
        Metric::new(
            "path.unattributed_us",
            "us",
            (untraced_p50 - attributed_ns) / 1e3,
        ),
        Metric::new(
            "trace.overhead_pct",
            "%",
            (traced_p50 / untraced_p50 - 1.0) * 100.0,
        ),
    ]
}

/// The conditions behind a result: host, build, seed and sample counts.
pub(crate) fn stamp(
    plan: &Plan,
    measured: &Stretch,
    setups: usize,
    closes: usize,
    checkins: usize,
    top1_500m: f64,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let features = if cfg!(feature = "trace") {
        "[\"trace\"]"
    } else {
        "[]"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"profile\": \"{profile}\", \"features\": {features}, \"users\": {}, \"campaigns\": {}, \
         \"shards\": {}, \"clients\": {}, \"setups\": {}, \"slices\": {}, \"pumps\": {}, \"steal_ticks\": {}, \"ops\": {}, \"ad_samples\": {}, \
         \"close_samples\": {closes}, \"checkin_samples\": {checkins}, \"attack_top1_500m\": {top1_500m}}}",
        plan.workload.name(),
        plan.seed,
        plan.seconds,
        u8::from(plan.trace),
        plan.users,
        plan.campaigns,
        crate::SHARDS,
        crate::CLIENTS,
        setups,
        measured.log.slices.len(),
        measured.pumps.len(),
        measured.log.slices.iter().map(|s| s.steal).sum::<u64>(),
        measured.log.attempted,
        measured.log.rtt[REQUEST].len(),
    )
}

/// A finite number as JSON (non-finite values, which only an empty sample
/// can produce, become 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

/// Human-readable lines, then the one-line JSON result.
pub fn render(outcome: &Outcome) -> String {
    let mut out = String::new();
    out.push_str(&format!("stamp {}\n", outcome.stamp));
    for metric in &outcome.metrics {
        let samples = metric
            .samples
            .map_or(String::new(), |n| format!(" (n={n})"));
        out.push_str(&format!(
            "metric {} = {} {}{samples}\n",
            metric.name,
            number(metric.value),
            metric.unit
        ));
    }
    if !outcome.layers.is_empty() {
        out.push_str("layer self times (ns): layer calls total self self/call\n");
        for &(layer, calls, total, own) in &outcome.layers {
            if calls > 0 {
                out.push_str(&format!(
                    "layer {} {calls} {total} {own} {:.1}\n",
                    layer.name(),
                    own as f64 / calls as f64
                ));
            }
        }
    }
    let fleet: Vec<String> = outcome
        .fleet_digests
        .iter()
        .map(|d| format!("{d:016x}"))
        .collect();
    out.push_str(&format!(
        "digests fleet [{}] reference {:016x}\n",
        fleet.join(" "),
        outcome.reference_digest
    ));
    for problem in &outcome.problems {
        out.push_str(&format!("INCORRECT {problem}\n"));
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    out.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ));
    out
}
