//! One benchmark for the whole ad path: a device's operations go through
//! the fleet front (`FabricRouter` → `EdgeServer` → `EdgeDevice`), every
//! served ad request becomes a bid in the shared `BidSink`, the sink is
//! pumped through `BidExchange` at synchronization points, and the attacker
//! reads the exchange log.
//!
//! Three workloads (see `BENCHMARK.json` and `METRICS.md` beside this
//! package) stress different layers. Every run checks its fleet's
//! exchange-log digest against an in-process reference replay of the same
//! per-user operations.

pub mod drive;
pub mod front;
pub mod inputs;
pub mod oracle;
pub mod report;
mod serve;
pub mod spans;
pub mod stats;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Instant;

use privlocad::{ChannelFaultPlan, SystemConfig};
use privlocad_adnet::BidExchange;
use privlocad_attack::evaluation::rank_distances;
use privlocad_attack::{DeobfuscationAttack, ExchangeObservations};
use privlocad_geo::rng::derive_seed;
use privlocad_mechanisms::NFoldGaussian;
use privlocad_openrtb::DeviceId;

use crate::drive::{CHECKIN, CLOSE, REQUEST};
use crate::front::{FleetSpec, FrontKind};
use crate::inputs::{kill_plans, Inputs};
use crate::oracle::{replay, Phase};
use crate::report::Metric;
use crate::spans::{Layer, Spans};
use crate::stats::{median, steady_median};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warmed 10k-user fleet, ad requests only, sparse marketplace.
    AdServe,
    /// Warmed 2k-user fleet, ad requests only, dense marketplace with
    /// binding budgets and frequency caps.
    ExchangeDense,
    /// Cold fleet, full two-year traces over a lossy link with worker kills.
    Replay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::AdServe, Workload::ExchangeDense, Workload::Replay];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdServe => "ad_serve",
            Workload::ExchangeDense => "exchange_dense",
            Workload::Replay => "replay",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the timed part repeats one ad request per user in rounds on
    /// a warmed fleet (as opposed to replaying traces on cold fleets).
    pub(crate) fn rounds(self) -> bool {
        !matches!(self, Workload::Replay)
    }
}

/// Everything that sizes a run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// How long the timed part runs; it always completes at least one
    /// round (or one replay).
    pub seconds: f64,
    /// A traced run reports per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub users: usize,
    pub campaigns: usize,
    /// Every campaign's budget and per-device frequency cap.
    pub budget_and_cap: (f64, u32),
    /// Set-ups per epoch; only the last one's fleet serves.
    pub setups_per_epoch: usize,
    /// Replay only: drop, duplicate and corrupt at 5‰ each on the link.
    pub lossy: bool,
    pub kills_per_shard: u32,
    pub front: FrontKind,
    /// Where a traced run writes its spans.
    pub artifact_dir: Option<PathBuf>,
}

impl Plan {
    /// The full-size plan of a workload.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Plan {
        let base = Plan {
            workload,
            seed,
            seconds,
            trace,
            users: 10_000,
            campaigns: 100,
            budget_and_cap: (200.0, 24),
            setups_per_epoch: 1,
            lossy: false,
            kills_per_shard: 0,
            front: FrontKind::Fabric,
            artifact_dir: Some(PathBuf::from("target/perfbench")),
        };
        match workload {
            Workload::AdServe => base,
            Workload::ExchangeDense => Plan {
                users: 2_000,
                campaigns: 4_000,
                budget_and_cap: (40.0, 4),
                ..base
            },
            Workload::Replay => Plan {
                users: 128,
                campaigns: 400,
                lossy: true,
                kills_per_shard: 1,
                // A cold set-up takes ~20 ms, short enough for one host
                // hiccup to move it; several per epoch steady its median.
                setups_per_epoch: 4,
                ..base
            },
        }
    }

    fn link(&self) -> ChannelFaultPlan {
        if !self.lossy {
            return ChannelFaultPlan::none();
        }
        ChannelFaultPlan {
            seed: derive_seed(self.seed, 0xfab2),
            drop_per_mille: 5,
            duplicate_per_mille: 5,
            duplicate_delay: 4,
            corrupt_per_mille: 5,
            ..ChannelFaultPlan::none()
        }
    }

    pub(crate) fn fleet_spec(&self, inputs: &Inputs, master: u64) -> FleetSpec {
        FleetSpec {
            kind: self.front,
            master,
            link: self.link(),
            kill_plans: kill_plans(&inputs.pass, SHARDS, self.kills_per_shard, self.seed),
        }
    }
}

/// Shards behind the front, and client threads driving it.
pub const SHARDS: usize = 2;
pub const CLIENTS: usize = 2;

/// Rounds per epoch (one fleet and one exchange) of a warmed workload.
pub const ROUNDS_PER_EPOCH: usize = 8;

/// Devices the attacker scores (lowest ids first), at most.
const ATTACK_DEVICES: usize = 256;

/// Devices whose spans the artifact keeps, at most.
const ARTIFACT_DEVICES: usize = 16;

static INJECTED_KILLS: AtomicU64 = AtomicU64::new(0);

/// Replaces the panic hook once per process: an injected worker kill (a
/// real panic the supervisor catches) is counted and kept off stderr, so no
/// backtrace is symbolized for it; every other panic goes to the previous
/// hook.
pub fn install_kill_counter() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if message.starts_with("injected fault") {
                INJECTED_KILLS.fetch_add(1, Ordering::SeqCst);
            } else {
                previous(info);
            }
        }));
    });
}

/// Injected worker kills counted so far in this process.
pub fn injected_kills() -> u64 {
    INJECTED_KILLS.load(Ordering::SeqCst)
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones in a traced run.
    pub metrics: Vec<Metric>,
    /// The fleet's exchange-log digest per epoch, and the reference's.
    pub fleet_digests: Vec<u64>,
    pub reference_digest: u64,
    /// Per layer: calls, total ns and self ns (traced runs only).
    pub layers: Vec<(Layer, usize, u64, u64)>,
    pub stamp: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Share of scored devices whose top-1 location Algorithm 1 recovers within
/// 500 m from the live exchange log; with the ingest and per-device
/// inference times in ns.
fn attack(
    config: SystemConfig,
    inputs: &Inputs,
    exchange: &BidExchange,
    mut spans: Option<&mut Spans>,
) -> (f64, f64, f64) {
    let started = Instant::now();
    let observations = ExchangeObservations::from_log(exchange.log());
    let ingest_ns = started.elapsed().as_nanos() as f64;
    if let Some(spans) = spans.as_mut() {
        spans.close(Layer::AttackIngest, 0, 0, started);
    }
    let attacker = DeobfuscationAttack::for_gaussian(&NFoldGaussian::new(config.geo_ind()), 0.05)
        .expect("valid trimming confidence");
    let devices = ATTACK_DEVICES.min(inputs.users());
    let mut hits = 0usize;
    let mut infer_ns = Vec::with_capacity(devices);
    for u in 0..devices {
        let started = Instant::now();
        let inferred =
            attacker.infer_top_locations(observations.locations_of(DeviceId::new(u as u64)), 1);
        infer_ns.push(started.elapsed().as_nanos() as f64);
        if let Some(spans) = spans.as_mut() {
            spans.close(Layer::AttackInfer, u as u32, 0, started);
        }
        let distance = rank_distances(&inferred, &inputs.truth[u..=u]);
        if distance
            .first()
            .copied()
            .flatten()
            .is_some_and(|d| d <= 500.0)
        {
            hits += 1;
        }
    }
    let per_record = ingest_ns / exchange.log().len().max(1) as f64;
    (
        hits as f64 / devices.max(1) as f64,
        per_record,
        median(&mut infer_ns),
    )
}

/// The steady median (see [`stats::steady_median`]) of `value` over the
/// samples that have one.
fn steady<T>(samples: &[T], steal: impl Fn(&T) -> u64, value: impl Fn(&T) -> Option<f64>) -> f64 {
    let pairs: Vec<(f64, u64)> = samples
        .iter()
        .filter_map(|s| value(s).map(|v| (v, steal(s))))
        .collect();
    steady_median(&pairs)
}

/// Runs one workload end to end and checks it.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    install_kill_counter();
    let kills_before = injected_kills();
    let config = SystemConfig::builder().build().map_err(|e| e.to_string())?;
    let master = derive_seed(plan.seed, 0xf1ee7);
    let rounds = plan.workload.rounds();
    let mut problems = Vec::new();

    let mut spans = plan.trace.then(|| Spans::new(Instant::now()));
    let served = serve::serve(plan, config, master, &mut spans)?;
    let peak_rss_mb = stats::peak_rss_mb();
    let inputs = &served.inputs;

    // Exactly-once emission: one bid per served ad request, one settled
    // auction per bid.
    for (i, epoch) in served.epochs.iter().enumerate() {
        if epoch.submitted != epoch.released {
            problems.push(format!(
                "epoch {i}: {} bids submitted for {} ad requests served",
                epoch.submitted, epoch.released
            ));
        }
        if epoch.settled != epoch.submitted {
            problems.push(format!(
                "epoch {i}: {} auctions settled for {} bids",
                epoch.settled, epoch.submitted
            ));
        }
    }
    let kills = injected_kills() - kills_before;
    if kills != served.scheduled_kills || served.restarts != served.scheduled_kills {
        problems.push(format!(
            "{} worker kills scheduled, {kills} injected, {} supervised restarts",
            served.scheduled_kills, served.restarts
        ));
    }
    if served.warm.empty_closes > 0 {
        problems.push(format!(
            "{} warm-up window closes installed no candidate set",
            served.warm.empty_closes
        ));
    }

    let (top1_500m, ingest_ns, infer_ns) = attack(config, inputs, &served.last, spans.as_mut());
    let last_log = served.last.log();
    let bytes_per_bid = last_log
        .records()
        .map(|r| r.request_frame.len())
        .sum::<usize>() as f64
        / last_log.len().max(1) as f64;
    let win_ratio = last_log.wins() as f64 / last_log.len().max(1) as f64;

    // Every epoch replays the same inputs in the same orders, so one
    // in-process replay of the warm-up and one pass is the reference for all.
    let warm_order = serve::warm_order(plan, inputs.users());
    let mut phases = vec![Phase {
        script: &inputs.warmup,
        order: &warm_order,
    }];
    phases.extend(served.orders.iter().enumerate().map(|(i, order)| Phase {
        script: &inputs.pass[if rounds { 0 } else { i }],
        order,
    }));
    let reference = replay(
        config,
        master,
        inputs.users(),
        &phases,
        &inputs.market,
        spans.as_mut(),
    )?;
    let reference_digest = reference.exchange.log().digest();
    for (i, epoch) in served.epochs.iter().enumerate() {
        if epoch.digest != reference_digest {
            problems.push(format!(
                "epoch {i}: fleet exchange-log digest {:016x} differs from the reference {reference_digest:016x}",
                epoch.digest
            ));
        }
        if epoch.released != reference.submitted {
            problems.push(format!(
                "epoch {i}: the fleet served {} ad requests, the reference {}",
                epoch.released, reference.submitted
            ));
        }
    }

    let measured = served.stretches.last().expect("the measured stretch ran");
    let attempted = served.warm.attempted
        + served
            .stretches
            .iter()
            .map(|s| s.log.attempted)
            .sum::<u64>();
    let failed = served.warm.failed + served.stretches.iter().map(|s| s.log.failed).sum::<u64>();
    let first_error = served
        .stretches
        .iter()
        .find_map(|s| s.log.first_error.clone());
    if let Some(e) = first_error.or_else(|| served.warm.first_error.clone()) {
        problems.push(format!("first failed operation: {e}"));
    }
    // Closes and check-ins of a rounds workload only happen in warm-ups.
    let (closes, checkins) = if rounds {
        (&served.warm.rtt[CLOSE], &served.warm.rtt[CHECKIN])
    } else {
        (&measured.log.rtt[CLOSE], &measured.log.rtt[CHECKIN])
    };
    let users = inputs.users() as f64;
    let setups = &served.setups;

    let metrics = if !plan.trace {
        let slices = &measured.log.slices;
        let pumps = &measured.pumps;
        let ads = measured.log.rtt[REQUEST].len();
        let bids = pumps.iter().map(|p| p.bids).sum::<u64>() as usize;
        let close_slices = if rounds { &served.warm.slices } else { slices };
        let close_p50_ns = steady(
            close_slices,
            |s| s.steal,
            |s| s.close_p50_ns.is_finite().then_some(s.close_p50_ns),
        );
        let ad_rps = steady(slices, |s| s.steal, |s| Some(s.ads_per_s));
        let auctions_per_s = steady(
            pumps,
            |p| p.steal,
            |p| (p.bids > 0).then(|| p.bids as f64 / p.pump_s),
        );
        let drain_s_per_bid = steady(
            pumps,
            |p| p.steal,
            |p| (p.bids > 0).then(|| p.drain_s / p.bids as f64),
        );
        vec![
            Metric::sampled(
                "ad_p50_us",
                "us",
                steady(
                    slices,
                    |s| s.steal,
                    |s| (s.ads > 0).then_some(s.ad_p50_ns / 1e3),
                ),
                ads,
            ),
            Metric::sampled(
                "ad_p99_us",
                "us",
                steady(
                    slices,
                    |s| s.steal,
                    |s| (s.ads > 0).then_some(s.ad_p99_ns / 1e3),
                ),
                ads,
            ),
            Metric::sampled("ad_rps", "1/s", ad_rps, ads),
            Metric::sampled(
                "ops_per_s",
                "1/s",
                steady(slices, |s| s.steal, |s| Some(s.ops_per_s)),
                measured.log.attempted as usize,
            ),
            Metric::sampled("close_p50_us", "us", close_p50_ns / 1e3, closes.len()),
            Metric::sampled("auctions_per_s", "1/s", auctions_per_s, bids),
            // Serving, draining and settling one bid, one after the other.
            Metric::sampled(
                "pipeline_bids_per_s",
                "1/s",
                1.0 / (1.0 / ad_rps + drain_s_per_bid + 1.0 / auctions_per_s),
                bids,
            ),
            Metric::sampled(
                "setup_s",
                "s",
                steady(setups, |s| s.steal, |s| Some(s.seconds)),
                setups.len(),
            ),
            Metric::new(
                "state_bytes_per_user",
                "bytes",
                served.joined.footprint.total_bytes() as f64 / users,
            ),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb),
        ]
    } else {
        let spans = spans.as_mut().expect("traced run has spans");
        let recovery = report::recovery(&reference.edge, config, spans);
        let untraced = served.stretches.first().expect("the untraced stretch ran");
        report::layer_metrics(&report::LayerInputs {
            spans,
            stats: served.joined.fabric,
            hub: &served.hub,
            ledger_spends: served.ledger_spends,
            traced: &measured.log,
            untraced: &untraced.log,
            checkins,
            reference: &reference,
            users,
            bytes_per_bid,
            win_ratio,
            top1_500m,
            ingest_ns,
            infer_ns,
            tracegen_ms: median(&mut setups.iter().map(|s| s.tracegen_ms).collect::<Vec<_>>()),
            recovery,
        })
    };

    let layers = spans.as_ref().map(|s| s.self_times()).unwrap_or_default();
    if let (Some(spans), Some(dir)) = (spans.as_ref(), plan.artifact_dir.as_ref()) {
        let path = dir.join(format!(
            "spans-{}-seed{}.tsv",
            plan.workload.name(),
            plan.seed
        ));
        let stride = (inputs.users() / ARTIFACT_DEVICES).max(1) as u32;
        spans
            .write(&path, stride)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let stamp = report::stamp(
        plan,
        measured,
        setups.len(),
        closes.len(),
        checkins.len(),
        top1_500m,
    );
    Ok(Outcome {
        problems,
        attempted,
        failed,
        metrics,
        fleet_digests: served.epochs.iter().map(|e| e.digest).collect(),
        reference_digest,
        layers,
        stamp,
    })
}
