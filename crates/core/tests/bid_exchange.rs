//! End-to-end contracts of the OpenRTB-lite bid pipeline (DESIGN.md §18):
//!
//! 1. **Partition invariance.** The exchange log settled from a fleet's
//!    bid stream is bit-identical at 1, 4 and 16 shards: per-user RNG
//!    streams fix the served locations, and per-device wire sequence
//!    numbers fix the canonical log order regardless of how users are
//!    partitioned.
//! 2. **Fault invariance.** A run with one seeded worker kill per shard
//!    settles the same digest: bid emission sits in the commit phase, so
//!    a killed batch never half-emits and a replayed batch emits exactly
//!    once.
//! 3. **Ledger integrity.** The serving ledger's recorded spend equals
//!    the sum of cleared prices on the wire to the micro (so a replayed
//!    batch can never double-spend a budget), per-device frequency caps
//!    hold for every campaign, and the faulted run spends identically to
//!    the clean one.

use std::collections::BTreeMap;
use std::sync::Arc;

use privlocad::{FaultPlan, ServerOptions, ShardRouter, SystemConfig};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::{AdNetwork, BidExchange, Campaign, ServingPolicy};
use privlocad_geo::rng::derive_seed;
use privlocad_mobility::{shanghai, PopulationConfig, UserTrace, SECONDS_PER_DAY};
use privlocad_openrtb::{BidSink, DeviceId, PendingBid};
use privlocad_telemetry::Telemetry;

const USERS: usize = 16;
const CHECKINS: usize = 40;
const MASTER: u64 = 23;
const FREQUENCY_CAP: u32 = 3;
const BUDGET: f64 = 60.0;

fn config() -> SystemConfig {
    SystemConfig::builder().build().expect("default config is valid")
}

/// The synthetic population every fleet run replays: identical traces,
/// so any digest difference is the fleet's fault.
fn traces() -> Vec<UserTrace> {
    let population = PopulationConfig::builder().num_users(USERS).seed(MASTER).build();
    (0..USERS)
        .map(|i| {
            let mut trace = population.generate_user(i as u32);
            trace.checkins.truncate(CHECKINS);
            trace
        })
        .collect()
}

/// A small marketplace under budgets and frequency caps, so the ledgered
/// eligibility paths are live during settlement.
fn marketplace() -> (Vec<Campaign>, ServingPolicy) {
    let inventory = InventoryConfig { count: 80, ..InventoryConfig::default() };
    let campaigns = generate(
        &inventory,
        shanghai::bounding_box(),
        &shanghai::projection(),
        derive_seed(MASTER, 0xad5),
    );
    (campaigns, ServingPolicy::unlimited().with_budget(BUDGET).with_frequency_cap(FREQUENCY_CAP))
}

/// Drives the population through a fleet of `shards` serving loops, every
/// shard submitting into one shared sink; with `kill` each shard's
/// supervisor executes one seeded worker kill early in its operation
/// stream. Returns the drained bid stream and the restart count.
fn fleet_pending(shards: usize, kill: bool) -> (Vec<PendingBid>, u64) {
    let sys = config();
    let sink = Arc::new(BidSink::new());
    let hub = Telemetry::new();
    let options = (0..shards)
        .map(|_| ServerOptions {
            telemetry: hub.clone(),
            bid_sink: Some(Arc::clone(&sink)),
            // Every shard owns at least one user's ~80-operation stream,
            // so an ordinal this early always fires.
            fault_plan: if kill { FaultPlan::kill_at([7]) } else { FaultPlan::none() },
            backoff_base: 1,
            backoff_cap: 1,
            ..ServerOptions::default()
        })
        .collect();
    let router = ShardRouter::spawn_with(sys, derive_seed(MASTER, 0xf1ee7), options);
    let window = i64::from(sys.window_days()) * SECONDS_PER_DAY;
    for trace in traces() {
        let mut window_end = window;
        for checkin in &trace.checkins {
            while checkin.time.seconds() >= window_end {
                router.finalize_window(trace.user).expect("window close survives the fleet");
                window_end += window;
            }
            router
                .check_in(trace.user, checkin.location, checkin.time.seconds())
                .expect("check-in survives the fleet");
            router
                .request_location(trace.user, checkin.location)
                .expect("ad request survives the fleet");
        }
    }
    router.shutdown().expect("fleet shuts down cleanly");
    router.join().expect("every shard survives its schedule");
    let restarts = hub.registry().snapshot().counter("server.restarts").unwrap_or(0);
    (sink.drain(), restarts)
}

/// Settles a drained bid stream against a fresh marketplace.
fn settle(campaigns: &[Campaign], policy: ServingPolicy, pending: &[PendingBid]) -> BidExchange {
    let mut network = AdNetwork::new(campaigns.to_vec());
    for campaign in campaigns {
        network.set_policy(campaign.id(), policy);
    }
    let mut exchange = BidExchange::new(network);
    exchange.pump_pending(pending).expect("sink frames decode");
    exchange
}

fn digest_of(campaigns: &[Campaign], policy: ServingPolicy, pending: &[PendingBid]) -> u64 {
    settle(campaigns, policy, pending).log().digest()
}

#[test]
fn exchange_log_is_bit_identical_across_shard_counts() {
    let (campaigns, policy) = marketplace();
    let (one, r1) = fleet_pending(1, false);
    let (four, r4) = fleet_pending(4, false);
    let (sixteen, r16) = fleet_pending(16, false);
    assert_eq!((r1, r4, r16), (0, 0, 0), "clean runs must not restart");
    assert_eq!(one.len(), USERS * CHECKINS, "one bid per served ad request");
    let reference = digest_of(&campaigns, policy, &one);
    assert_eq!(reference, digest_of(&campaigns, policy, &four), "1 vs 4 shards");
    assert_eq!(reference, digest_of(&campaigns, policy, &sixteen), "1 vs 16 shards");
}

#[test]
fn exchange_log_survives_one_worker_kill_per_shard() {
    let (campaigns, policy) = marketplace();
    let (clean, _) = fleet_pending(4, false);
    let reference = digest_of(&campaigns, policy, &clean);
    for shards in [1usize, 4, 16] {
        let (pending, restarts) = fleet_pending(shards, true);
        assert_eq!(restarts, shards as u64, "one supervised restart per shard");
        assert_eq!(
            digest_of(&campaigns, policy, &pending),
            reference,
            "faulted {shards}-shard run diverged from the clean log"
        );
    }
}

/// Per-campaign cleared micro-spend and win counts read off the wire.
fn wire_spend(exchange: &BidExchange) -> BTreeMap<u64, (u64, u32)> {
    let mut spend: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    for record in exchange.log().records() {
        if let Some(sb) = &record.response.seatbid {
            let entry = spend.entry(sb.seat).or_insert((0, 0));
            entry.0 += sb.bid.price_micros;
            entry.1 += 1;
        }
    }
    spend
}

#[test]
fn ledger_spend_matches_the_wire_and_respects_caps() {
    let (campaigns, policy) = marketplace();
    let (pending, _) = fleet_pending(4, false);
    let exchange = settle(&campaigns, policy, &pending);
    let spend = wire_spend(&exchange);
    assert!(exchange.log().wins() > 0, "the marketplace must win some auctions");

    let devices: Vec<DeviceId> = exchange.log().devices();
    for campaign in &campaigns {
        let state = exchange.network().serving_state(campaign.id());
        let (wire_micros, wire_wins) =
            spend.get(&campaign.id().raw()).copied().unwrap_or((0, 0));
        // Prices cross the wire as round(cpm * 1e6), the ledger's own
        // integer units: ledger spend and the wire total agree exactly.
        let ledger_micros = state.spent_micros();
        assert_eq!(
            ledger_micros,
            wire_micros,
            "campaign {} ledger spend != wire spend",
            campaign.id().raw()
        );
        assert_eq!(state.total_impressions(), wire_wins, "one impression per cleared win");
        // Budget overshoot is bounded by the final impression (pacing
        // semantics): spend below the budget before the last win.
        if wire_wins > 0 {
            let max_price = spend.values().map(|&(m, _)| m).max().unwrap_or(0);
            let budget = policy.budget_micros().expect("the marketplace sets a budget");
            assert!(
                ledger_micros < budget + max_price,
                "campaign {} blew through its budget",
                campaign.id().raw()
            );
        }
        for &device in &devices {
            assert!(
                state.impressions_for(device) <= FREQUENCY_CAP,
                "campaign {} exceeded the frequency cap for device {}",
                campaign.id().raw(),
                device.raw()
            );
        }
    }

    // A replayed (faulted) stream settles the identical spend: the ledger
    // cannot double-spend what the commit phase emitted exactly once.
    let (faulted, restarts) = fleet_pending(4, true);
    assert!(restarts > 0);
    let replay = settle(&campaigns, policy, &faulted);
    assert_eq!(wire_spend(&replay), spend, "faulted run settled different spend");
    for campaign in &campaigns {
        let clean = exchange.network().serving_state(campaign.id());
        let stormy = replay.network().serving_state(campaign.id());
        assert_eq!(clean, stormy, "serving state diverged for campaign {}", campaign.id().raw());
    }
}
