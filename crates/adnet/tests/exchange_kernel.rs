//! Differential test of the rank-ordered auction kernel against the
//! sort-based auction it replaced.
//!
//! The oracle below is that auction kept verbatim in spirit: scan every
//! campaign, keep those whose targeting matches and whose ledger entry is
//! eligible, sort the survivors by bid descending then id ascending, and
//! take the top two. It keeps its own id-keyed ledger (integer micros,
//! like the network's) and its own exchange log. Over random inventories —
//! equal bids, duplicate ids, area and country campaigns, binding budgets
//! and caps, `register` after `set_policy`, persisted-state round trips
//! mid-sequence, long request streams — every response, every
//! `ServingState` and the exchange-log digest must match.

use std::collections::BTreeMap;

use privlocad_adnet::{
    AdNetwork, AdNetworkState, AreaGrid, BidExchange, Campaign, CampaignId, DeviceId,
    ServingPolicy, Targeting,
};
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_openrtb::{
    BidExchangeLog, BidRequest, BidResponse, ExchangeRecord, Geo, PendingBid, SeatBid,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const DEVICES: u64 = 5;
/// Policies name ids below this bound; small ids repeat across campaigns.
const POLICY_IDS: u64 = 45;

/// The sort-based second-price auction over an id-keyed ledger.
#[derive(Debug, Clone, Default)]
struct Oracle {
    campaigns: Vec<Campaign>,
    policies: BTreeMap<u64, ServingPolicy>,
    spent: BTreeMap<u64, u64>,
    impressions: BTreeMap<(u64, u64), u32>,
    grid: Option<AreaGrid>,
    country: u16,
    log: BidExchangeLog,
}

impl Oracle {
    fn eligible(&self, id: u64, device: u64) -> bool {
        let policy = self.policies.get(&id).copied().unwrap_or_default();
        let spent = self.spent.get(&id).copied().unwrap_or(0);
        let seen = self.impressions.get(&(id, device)).copied().unwrap_or(0);
        policy.budget_micros().is_none_or(|b| spent < b)
            && policy.frequency_cap().is_none_or(|cap| seen < cap)
    }

    /// Winner and price-setting campaign, without charging anything.
    fn auction(&self, location: Point, device: u64) -> Option<(&Campaign, &Campaign)> {
        let area = self.grid.map_or(0, |g| g.area_of(location));
        let mut matched: Vec<&Campaign> = self
            .campaigns
            .iter()
            .filter(|c| c.matches(location, area, self.country))
            .filter(|c| self.eligible(c.id().raw(), device))
            .collect();
        matched.sort_by(|a, b| {
            b.bid_cpm()
                .partial_cmp(&a.bid_cpm())
                .expect("bids are finite")
                .then(a.id().cmp(&b.id()))
        });
        let winner = *matched.first()?;
        Some((winner, matched.get(1).copied().unwrap_or(winner)))
    }

    fn serve(&mut self, request: &BidRequest, frame: &bytes::Bytes) -> BidResponse {
        let device = request.device.id.raw();
        let response = match self.auction(request.device.geo.point(), device) {
            None => BidResponse::no_bid(request.id),
            Some((winner, price)) => {
                let (seat, price_micros) = (winner.id().raw(), price.bid_micros());
                *self.spent.entry(seat).or_insert(0) += price_micros;
                *self.impressions.entry((seat, device)).or_insert(0) += 1;
                let bid = privlocad_openrtb::Bid {
                    imp: request.imp.id,
                    price_micros,
                    adm: privlocad_openrtb::fnv1a64(&seat.to_be_bytes()),
                };
                BidResponse::win(request.id, SeatBid { seat, bid })
            }
        };
        self.log.append(ExchangeRecord {
            request: *request,
            response,
            request_frame: frame.clone(),
            response_frame: response.encode(),
        });
        response
    }
}

/// One step of a random scenario.
#[derive(Debug, Clone)]
enum Step {
    Request { device: u64, at: Point },
    Register(Campaign),
    Policy(u64, ServingPolicy),
    RoundTrip,
}

#[derive(Debug, Clone)]
struct Scenario {
    campaigns: Vec<Campaign>,
    policies: Vec<(u64, ServingPolicy)>,
    grid: Option<AreaGrid>,
    country: u16,
    steps: Vec<Step>,
}

fn point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen_range(-20_000.0..20_000.0), rng.gen_range(-20_000.0..20_000.0))
}

fn campaign(rng: &mut StdRng, ids: u64) -> Campaign {
    // Few ids and a handful of round bids make duplicate ids and equal bids
    // common; the rest draw distinct ids and continuous bids.
    let id = if rng.gen_bool(0.5) { rng.gen_range(0..ids) } else { rng.gen_range(0..1_000) };
    let bid = if rng.gen_bool(0.5) {
        [0.5, 1.0, 2.0, 2.5, 4.0][rng.gen_range(0..5usize)]
    } else {
        rng.gen_range(0.1..10.0)
    };
    let targeting = match rng.gen_range(0..10) {
        0 => Targeting::Area(AreaGrid::new(10_000.0).area_of(point(rng))),
        1 => Targeting::Area(0),
        2 => Targeting::Country(rng.gen_range(0..3)),
        // Whole-meter centers and radii: a request on the rim is then
        // exactly at distance², which pins the inclusive boundary.
        3..=5 => {
            let center = Point::new(
                f64::from(rng.gen_range(-20_000..20_000)),
                f64::from(rng.gen_range(-20_000..20_000)),
            );
            Targeting::radius(center, f64::from(rng.gen_range(500..25_000))).expect("valid radius")
        }
        _ => Targeting::radius(point(rng), rng.gen_range(500.0..25_000.0)).expect("valid radius"),
    };
    Campaign::new(id, format!("c{id}"), targeting, bid).expect("valid bid")
}

fn policy(rng: &mut StdRng) -> ServingPolicy {
    let mut policy = ServingPolicy::unlimited();
    if rng.gen_bool(0.6) {
        policy = policy.with_budget(rng.gen_range(0.5..15.0));
    }
    if rng.gen_bool(0.6) {
        policy = policy.with_frequency_cap(rng.gen_range(1..4));
    }
    policy
}

/// A request point: uniform, or on the rim of one of `campaigns`.
fn request_point(rng: &mut StdRng, campaigns: &[Campaign]) -> Point {
    let rims: Vec<Point> = campaigns
        .iter()
        .filter_map(|c| match c.targeting() {
            Targeting::Radius { center, radius_m } => {
                Some(Point::new(center.x + radius_m, center.y))
            }
            _ => None,
        })
        .collect();
    if rims.is_empty() || rng.gen_bool(0.7) {
        point(rng)
    } else {
        rims[rng.gen_range(0..rims.len())]
    }
}

fn scenario(seed: u64) -> Scenario {
    let mut rng = seeded(derive_seed(seed, 0));
    let ids = rng.gen_range(1..POLICY_IDS - 5);
    let campaigns: Vec<Campaign> =
        (0..rng.gen_range(0..60)).map(|_| campaign(&mut rng, ids)).collect();
    let policies =
        (0..rng.gen_range(0..40)).map(|_| (rng.gen_range(0..ids), policy(&mut rng))).collect();
    let grid = rng.gen_bool(0.5).then(|| AreaGrid::new(10_000.0));
    let country = rng.gen_range(0..3);
    let long = rng.gen_bool(0.2);
    let steps = (0..rng.gen_range(1..if long { 2_000 } else { 200 }))
        .map(|_| match rng.gen_range(0..100) {
            0..=1 => Step::Register(campaign(&mut rng, ids)),
            2..=3 => Step::Policy(rng.gen_range(0..ids + 5), policy(&mut rng)),
            4 => Step::RoundTrip,
            _ => Step::Request {
                device: rng.gen_range(1..=DEVICES),
                at: request_point(&mut rng, &campaigns),
            },
        })
        .collect();
    Scenario { campaigns, policies, grid, country, steps }
}

fn network_of(s: &Scenario) -> AdNetwork {
    let mut network = AdNetwork::new(s.campaigns.clone());
    for &(id, policy) in &s.policies {
        network.set_policy(CampaignId::new(id), policy);
    }
    if let Some(grid) = s.grid {
        network.set_area_grid(grid);
    }
    network.set_country(s.country);
    network
}

fn oracle_of(s: &Scenario) -> Oracle {
    let mut oracle = Oracle {
        campaigns: s.campaigns.clone(),
        grid: s.grid,
        country: s.country,
        ..Oracle::default()
    };
    for &(id, policy) in &s.policies {
        oracle.policies.insert(id, policy);
    }
    oracle
}

/// Every id's ledger state in the network equals the oracle's.
fn assert_ledgers_agree(network: &AdNetwork, oracle: &Oracle) {
    for id in (0..POLICY_IDS).chain(network.campaigns().iter().map(|c| c.id().raw())) {
        let state = network.serving_state(CampaignId::new(id));
        assert_eq!(
            state.spent_micros(),
            oracle.spent.get(&id).copied().unwrap_or(0),
            "spend of {id}"
        );
        let mut total = 0;
        for device in 1..=DEVICES {
            let seen = oracle.impressions.get(&(id, device)).copied().unwrap_or(0);
            assert_eq!(state.impressions_for(DeviceId::new(device)), seen, "impressions of {id}");
            total += seen;
        }
        assert_eq!(state.total_impressions(), total);
    }
}

fn run(seed: u64) {
    let s = scenario(seed);
    let mut exchange = BidExchange::new(network_of(&s));
    let mut oracle = oracle_of(&s);
    let mut seqs = [0u64; DEVICES as usize + 1];
    for step in &s.steps {
        match step {
            Step::Request { device, at } => {
                let seq = &mut seqs[*device as usize];
                let request = BidRequest::new(DeviceId::new(*device), *seq, Geo::from_point(*at));
                *seq += 1;
                let frame = request.encode();
                let want = oracle.serve(&request, &frame);
                let pending =
                    PendingBid { device: DeviceId::new(*device), seq: request.seq, frame };
                assert_eq!(exchange.pump_pending(std::slice::from_ref(&pending)), Ok(1));
                let got = exchange.log().records().find(|r| r.request.id == request.id);
                assert_eq!(got.map(|r| r.response), Some(want), "seed {seed}: response");
            }
            Step::Register(c) => {
                exchange.network_mut().register(c.clone());
                oracle.campaigns.push(c.clone());
            }
            Step::Policy(id, policy) => {
                exchange.network_mut().set_policy(CampaignId::new(*id), *policy);
                oracle.policies.insert(*id, *policy);
            }
            Step::RoundTrip => {
                let network = exchange.network_mut();
                let restored = AdNetwork::from(AdNetworkState::from(network.clone()));
                assert_eq!(&restored, network, "seed {seed}: rebuilt lanes differ");
                *network = restored;
                assert_ledgers_agree(network, &oracle);
            }
        }
    }
    assert_ledgers_agree(exchange.network(), &oracle);
    assert_eq!(exchange.log().digest(), oracle.log.digest(), "seed {seed}: log digest");
    assert_eq!(exchange.log().len(), oracle.log.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn kernel_matches_the_sort_based_auction(seed in any::<u64>()) {
        run(seed);
    }
}

#[test]
fn budgets_and_caps_bind_in_the_generated_scenarios() {
    // Guard against a generator that never exercises the ledger: across a
    // fixed batch of scenarios, some campaign must run out of budget and
    // some device must hit a cap.
    let (mut exhausted, mut capped) = (false, false);
    for seed in 0..40 {
        let s = scenario(seed);
        let mut oracle = oracle_of(&s);
        let mut seq = 0;
        for step in &s.steps {
            if let Step::Request { device, at } = step {
                let request = BidRequest::new(DeviceId::new(*device), seq, Geo::from_point(*at));
                seq += 1;
                oracle.serve(&request, &request.encode());
            }
        }
        for (&id, policy) in &oracle.policies {
            let spent = oracle.spent.get(&id).copied().unwrap_or(0);
            exhausted |= policy.budget_micros().is_some_and(|b| spent >= b);
            capped |= policy.frequency_cap().is_some_and(|cap| {
                (1..=DEVICES).any(|d| oracle.impressions.get(&(id, d)).copied().unwrap_or(0) >= cap)
            });
        }
    }
    assert!(exhausted && capped, "exhausted {exhausted}, capped {capped}");
}
