//! The timed part, as repeated epochs. An epoch sets a fleet up (inputs,
//! marketplace, spawn, warm-up), serves one pass of phases on it with the
//! sink pumped through a fresh `BidExchange` at every synchronization
//! point, and shuts the fleet down.
//!
//! Every epoch of a run replays the same inputs in the same client orders,
//! so each must settle the reference's exchange log; the set-up samples
//! spread over the whole run; and the process holds one epoch's state at a
//! time however many epochs a run completes.

use std::time::Instant;

use privlocad::SystemConfig;
use privlocad_adnet::BidExchange;
use privlocad_geo::rng::derive_seed;
use privlocad_telemetry::MetricsSnapshot;

use crate::drive::{advance, phase, Log, Ordinals};
use crate::front::{Fleet, Joined};
use crate::inputs::{generate_inputs, shuffled, Inputs};
use crate::spans::{Layer, Spans};
use crate::stats::steal_ticks;
use crate::{Plan, CLIENTS, ROUNDS_PER_EPOCH};

/// One drain of the sink and auction of what it held, at the end of a
/// phase.
#[derive(Debug, Clone, Copy)]
pub struct Pump {
    pub bids: u64,
    /// Time inside `BidSink::drain`, and inside `BidExchange::pump_pending`.
    pub drain_s: f64,
    pub pump_s: f64,
    /// Host steal time over both, in clock ticks.
    pub steal: u64,
}

/// One stretch of the timed part, served with tracing either on or off.
#[derive(Debug, Default)]
pub struct Stretch {
    pub log: Log,
    pub pumps: Vec<Pump>,
}

/// One set-up's cost, and what the host stole meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct SetupSample {
    pub seconds: f64,
    pub steal: u64,
    pub tracegen_ms: f64,
}

/// One epoch as the fleet settled it.
#[derive(Debug)]
pub struct Epoch {
    pub digest: u64,
    pub settled: u64,
    /// Bids the sink took, and ad requests answered.
    pub submitted: u64,
    pub released: u64,
}

/// Everything the timed part leaves for the checks and the metrics.
pub struct Served {
    /// The inputs every epoch replayed.
    pub inputs: Inputs,
    /// The order clients take users in, per phase of a pass.
    pub orders: Vec<Vec<u32>>,
    pub setups: Vec<SetupSample>,
    /// Every warm-up.
    pub warm: Log,
    /// Untraced, then (in a traced run) traced.
    pub stretches: Vec<Stretch>,
    pub epochs: Vec<Epoch>,
    /// The last epoch's exchange, for the attacker and the log metrics.
    pub last: BidExchange,
    /// The last fleet's footprint and fabric totals.
    pub joined: Joined,
    /// The last fleet's telemetry.
    pub hub: MetricsSnapshot,
    pub ledger_spends: usize,
    pub scheduled_kills: u64,
    pub restarts: u64,
}

/// Closed-loop stretches: untraced only, or untraced then traced with half
/// the time each.
fn stretches(plan: &Plan) -> Vec<(bool, f64)> {
    if plan.trace {
        vec![(false, plan.seconds / 2.0), (true, plan.seconds / 2.0)]
    } else {
        vec![(false, plan.seconds)]
    }
}

/// The order clients warm users up in.
pub fn warm_order(plan: &Plan, users: usize) -> Vec<u32> {
    shuffled(users, derive_seed(plan.seed, 0x4_0000))
}

/// One set-up: inputs and marketplace, a fleet spawn, and the warm-up.
fn set_up(plan: &Plan, config: SystemConfig, master: u64) -> (Inputs, Fleet, Log, SetupSample) {
    let started = Instant::now();
    let steal_before = steal_ticks();
    let inputs = generate_inputs(plan);
    let fleet = Fleet::spawn(config, &plan.fleet_spec(&inputs, master));
    let zero: Ordinals = vec![[0; 3]; inputs.users()];
    let order = warm_order(plan, inputs.users());
    let warm = phase(&fleet, &inputs.warmup, &order, &zero, CLIENTS, None);
    let sample = SetupSample {
        seconds: started.elapsed().as_secs_f64(),
        steal: steal_ticks() - steal_before,
        tracegen_ms: inputs.tracegen_ms,
    };
    (inputs, fleet, warm, sample)
}

/// Drains the fleet's sink and auctions the drained bids.
fn pump(
    fleet: &Fleet,
    exchange: &mut BidExchange,
    window: u32,
    mut spans: Option<&mut Spans>,
) -> Result<Pump, String> {
    let steal_before = steal_ticks();
    let started = Instant::now();
    let pending = fleet.sink.drain();
    let drain_s = started.elapsed().as_secs_f64();
    if let Some(spans) = spans.as_mut() {
        spans.close(Layer::SinkDrain, 0, window, started);
    }
    let pumping = Instant::now();
    exchange
        .pump_pending(&pending)
        .map_err(|e| format!("fleet bid frame does not decode: {e}"))?;
    let pump_s = pumping.elapsed().as_secs_f64();
    if let Some(spans) = spans {
        spans.close(Layer::ExchangePump, 0, window, pumping);
    }
    Ok(Pump {
        bids: pending.len() as u64,
        drain_s,
        pump_s,
        steal: steal_ticks() - steal_before,
    })
}

/// Serves epochs until each stretch's time is up; a traced stretch serves
/// exactly one epoch, so span keys stay unique.
pub fn serve(
    plan: &Plan,
    config: SystemConfig,
    master: u64,
    spans: &mut Option<Spans>,
) -> Result<Served, String> {
    let rounds = plan.workload.rounds();
    let mut inputs: Option<Inputs> = None;
    let mut orders: Vec<Vec<u32>> = Vec::new();
    let mut setups = Vec::new();
    let mut warm = Log::default();
    let mut stretches_out = Vec::new();
    let mut epochs = Vec::new();
    let mut last = None;
    let mut joined = Joined::default();
    let mut hub = MetricsSnapshot::default();
    let mut ledger_spends = 0;
    let mut scheduled_kills = 0;
    let mut restarts = 0;
    let mut window_id = 0u32;
    for (traced, seconds) in stretches(plan) {
        let mut stretch = Stretch::default();
        let started = Instant::now();
        loop {
            // One epoch's state alive at a time keeps peak memory flat.
            drop(last.take());
            let (mut generated, mut fleet, warm_log, sample) = set_up(plan, config, master);
            setups.push(sample);
            warm.absorb(warm_log);
            for _ in 1..plan.setups_per_epoch {
                fleet.finish()?;
                let (again, spawned, warm_log, sample) = set_up(plan, config, master);
                setups.push(sample);
                warm.absorb(warm_log);
                (generated, fleet) = (again, spawned);
            }
            let inputs = inputs.get_or_insert(generated);
            if orders.is_empty() {
                let phases = if rounds {
                    ROUNDS_PER_EPOCH
                } else {
                    inputs.pass.len()
                };
                orders = (0..phases)
                    .map(|i| shuffled(inputs.users(), derive_seed(plan.seed, 0x5_0000 + i as u64)))
                    .collect();
            }
            let mut ordinals: Ordinals = vec![[0; 3]; inputs.users()];
            advance(&mut ordinals, &inputs.warmup);
            let mut exchange = inputs.market.exchange();
            let mut released = 0;
            for (i, order) in orders.iter().enumerate() {
                let script = &inputs.pass[if rounds { 0 } else { i }];
                let log = phase(
                    &fleet,
                    script,
                    order,
                    &ordinals,
                    CLIENTS,
                    spans.as_mut().filter(|_| traced),
                );
                advance(&mut ordinals, script);
                stretch.pumps.push(pump(
                    &fleet,
                    &mut exchange,
                    window_id,
                    spans.as_mut().filter(|_| traced),
                )?);
                released += log.released;
                stretch.log.absorb(log);
                window_id += 1;
            }
            let submitted = fleet.sink.submitted();
            let hub_handle = fleet.hub.clone();
            scheduled_kills += plan
                .fleet_spec(inputs, master)
                .kill_plans
                .iter()
                .map(|p| p.remaining() as u64)
                .sum::<u64>();
            joined = fleet.finish()?;
            hub = hub_handle.registry().snapshot();
            ledger_spends = hub_handle.ledger().len();
            restarts += hub.counter("server.restarts").unwrap_or(0);
            epochs.push(Epoch {
                digest: exchange.log().digest(),
                settled: exchange.log().len() as u64,
                submitted,
                released,
            });
            last = Some(exchange);
            if traced || started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        stretches_out.push(stretch);
    }
    Ok(Served {
        inputs: inputs.expect("at least one epoch"),
        orders,
        setups,
        warm,
        stretches: stretches_out,
        epochs,
        last: last.expect("at least one epoch"),
        joined,
        hub,
        ledger_spends,
        scheduled_kills,
        restarts,
    })
}
