//! Seeded inputs for every workload. Everything here is a pure function of
//! the plan (workload, sizes, seed); the program under test only ever sees
//! the generated operations.

use privlocad::protocol::ClientRequest;
use privlocad::{FaultPlan, SystemConfig};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::{AdNetwork, BidExchange, Campaign, ServingPolicy};
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mobility::{shanghai, PopulationConfig, UserId, SECONDS_PER_DAY};
use rand::Rng;

use crate::{Plan, Workload};

/// One serving operation of one user, as the device sends it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A true-location check-in.
    CheckIn { location: Point, timestamp: i64 },
    /// An ad request at the user's current true location.
    Request { location: Point },
    /// A profile-window close (candidate install for new top locations).
    Close,
}

impl Op {
    /// The protocol request this operation sends for `user`.
    pub fn request(self, user: UserId) -> ClientRequest {
        match self {
            Op::CheckIn {
                location,
                timestamp,
            } => ClientRequest::CheckIn {
                user,
                location,
                timestamp,
            },
            Op::Request { location } => ClientRequest::RequestLocation { user, location },
            Op::Close => ClientRequest::FinalizeWindow { user },
        }
    }
}

/// Per-user operation lists, indexed by raw user id.
pub type Script = Vec<Vec<Op>>;

/// The marketplace every exchange in a run is built from.
#[derive(Debug, Clone)]
pub struct Market {
    pub campaigns: Vec<Campaign>,
    pub policy: ServingPolicy,
}

impl Market {
    /// A fresh exchange over this marketplace: empty ledger, empty log.
    pub fn exchange(&self) -> BidExchange {
        let mut network = AdNetwork::new(self.campaigns.clone());
        for campaign in &self.campaigns {
            network.set_policy(campaign.id(), self.policy);
        }
        BidExchange::new(network)
    }
}

/// Everything a run replays.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Untimed warm-up phase through the fleet (empty lists for a cold fleet).
    pub warmup: Script,
    /// One pass of the timed part, as phases separated by synchronization
    /// points: a single one-ad-request-per-user phase (`ad_serve`,
    /// `exchange_dense`, repeated as rounds) or one phase per profile window
    /// of the traces (`replay`, one pass per cold fleet).
    pub pass: Vec<Script>,
    /// Each user's true top-1 location, for the attacker's score.
    pub truth: Vec<Point>,
    pub market: Market,
    /// Wall time spent generating mobility traces or homes, in ms.
    pub tracegen_ms: f64,
}

impl Inputs {
    pub fn users(&self) -> usize {
        self.truth.len()
    }
}

/// Check-ins a warmed user sends at home before its window closes: enough
/// for the home to be the only η-frequent location.
const WARMUP_CHECKINS: usize = 4;

/// Seed of the replay trace corpus.
const REPLAY_CORPUS: u64 = 0x7ace;

/// Builds the inputs of `plan`.
pub fn generate_inputs(plan: &Plan) -> Inputs {
    let started = std::time::Instant::now();
    let (warmup, pass, truth) = match plan.workload {
        Workload::AdServe | Workload::ExchangeDense => {
            let homes = homes(plan.users, derive_seed(plan.seed, 0x40e5));
            let warmup = homes
                .iter()
                .map(|&home| {
                    let mut ops: Vec<Op> = (0..WARMUP_CHECKINS)
                        .map(|t| Op::CheckIn {
                            location: home,
                            timestamp: t as i64,
                        })
                        .collect();
                    ops.push(Op::Close);
                    ops
                })
                .collect();
            let requests = homes
                .iter()
                .map(|&home| vec![Op::Request { location: home }])
                .collect();
            (warmup, vec![requests], homes)
        }
        Workload::Replay => {
            let window_days = SystemConfig::builder()
                .build()
                .expect("default config")
                .window_days();
            // The traces are a fixed corpus: per-user state and operation
            // counts follow each trace's shape, and a 128-user sample of
            // shapes varies too much from seed to seed for one run to stand
            // for the workload. The seed varies everything around the
            // corpus: client order, link faults, kill points, marketplace
            // and the fleet's draws.
            let population = PopulationConfig::builder()
                .num_users(plan.users)
                .seed(REPLAY_CORPUS)
                .build();
            let mut pass: Vec<Script> = Vec::new();
            let mut truth = Vec::with_capacity(plan.users);
            for u in 0..plan.users {
                let trace = population.generate_user(u as u32);
                truth.push(trace.truth.top_locations[0]);
                for (w, ops) in trace_windows(&trace.checkins, window_days)
                    .into_iter()
                    .enumerate()
                {
                    if pass.len() <= w {
                        pass.resize_with(w + 1, || vec![Vec::new(); plan.users]);
                    }
                    pass[w][u] = ops;
                }
            }
            (vec![Vec::new(); plan.users], pass, truth)
        }
    };
    let tracegen_ms = started.elapsed().as_secs_f64() * 1e3;
    Inputs {
        warmup,
        pass,
        truth,
        market: market(plan),
        tracegen_ms,
    }
}

/// Replays a check-in trace the way a device does, split by profile
/// window: a window close whenever a check-in crosses a window boundary
/// (sent at the start of the next window), then the check-in and an ad
/// request at the same true location.
fn trace_windows(checkins: &[privlocad_mobility::CheckIn], window_days: u32) -> Vec<Vec<Op>> {
    let window = i64::from(window_days) * SECONDS_PER_DAY;
    let mut windows: Vec<Vec<Op>> = vec![Vec::new()];
    let mut window_end = window;
    for checkin in checkins {
        let timestamp = checkin.time.seconds();
        while timestamp >= window_end {
            windows.push(vec![Op::Close]);
            window_end += window;
        }
        let ops = windows.last_mut().expect("at least one window");
        ops.push(Op::CheckIn {
            location: checkin.location,
            timestamp,
        });
        ops.push(Op::Request {
            location: checkin.location,
        });
    }
    windows
}

/// Uniform homes over the study area, in projected meters.
fn homes(users: usize, seed: u64) -> Vec<Point> {
    let area = shanghai::bounding_box()
        .shrink(0.03)
        .expect("study box fits its margin");
    let projection = shanghai::projection();
    let mut rng = seeded(seed);
    (0..users)
        .map(|_| projection.to_local(area.sample_uniform(&mut rng)))
        .collect()
}

/// Radius-targeted campaigns scattered over the study area, each under a
/// budget and a per-device frequency cap so the ledger eligibility path runs.
fn market(plan: &Plan) -> Market {
    let inventory = InventoryConfig {
        count: plan.campaigns,
        ..InventoryConfig::default()
    };
    let campaigns = generate(
        &inventory,
        shanghai::bounding_box(),
        &shanghai::projection(),
        derive_seed(plan.seed, 0xad5),
    );
    let (budget, cap) = plan.budget_and_cap;
    Market {
        campaigns,
        policy: ServingPolicy::unlimited()
            .with_budget(budget)
            .with_frequency_cap(cap),
    }
}

/// A seeded permutation of `0..n`: the order clients take users in.
pub fn shuffled(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng = seeded(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Injected worker kills per shard, at seeded ordinals in the middle half of
/// the logical operations that shard serves in one `pass`.
pub fn kill_plans(
    pass: &[Script],
    shards: usize,
    kills_per_shard: u32,
    seed: u64,
) -> Vec<FaultPlan> {
    (0..shards)
        .map(|s| {
            let ops: u64 = pass
                .iter()
                .flat_map(|script| script.iter().enumerate())
                .filter(|(u, _)| u % shards == s)
                .map(|(_, ops)| ops.len() as u64)
                .sum();
            if kills_per_shard == 0 || ops < 4 {
                return FaultPlan::none();
            }
            let mut rng = seeded(derive_seed(seed, 0xa0c7_0000 + s as u64));
            let stripe = ops / 2 / u64::from(kills_per_shard);
            FaultPlan::kill_at(
                (0..u64::from(kills_per_shard))
                    .map(|k| ops / 4 + k * stripe + rng.gen_range(0..stripe.max(1))),
            )
        })
        .collect()
}
