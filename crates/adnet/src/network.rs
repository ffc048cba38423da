use privlocad_geo::Point;
use privlocad_openrtb::{Bid, BidRequest, BidResponse, SeatBid};
use serde::{Deserialize, Serialize};

use crate::rank::{RankLanes, Top2};
use crate::serving::{ServingLedger, ServingPolicy, ServingState};
use crate::{AreaGrid, Campaign, CampaignId, DeviceId};

/// The ad network: matches bid requests against the campaign inventory and
/// runs second-price auctions (Section II-A's "ads matching &
/// distribution" role).
///
/// Auctions run on a rank-ordered copy of the inventory (bid descending,
/// id ascending) and stop at the second eligible campaign, so a request
/// never sorts or ledger-checks every matching campaign. Budgets and
/// spend are integer micro-units in dense per-campaign ledger slots.
///
/// # Examples
///
/// ```
/// use privlocad_adnet::{AdNetwork, Campaign, DeviceId, Targeting};
/// use privlocad_geo::Point;
/// use privlocad_openrtb::{BidRequest, Geo};
///
/// let mut network = AdNetwork::new(vec![
///     Campaign::new(0, "high bidder", Targeting::radius(Point::ORIGIN, 5_000.0)?, 10.0)?,
///     Campaign::new(1, "low bidder", Targeting::radius(Point::ORIGIN, 5_000.0)?, 4.0)?,
/// ]);
/// let request = BidRequest::new(DeviceId::new(1), 0, Geo::from_point(Point::ORIGIN));
/// let win = network.serve_exchange(&request).seatbid.unwrap();
/// assert_eq!(win.seat, 0); // the high bidder's campaign id
/// assert_eq!(win.bid.price_micros, 4_000_000); // pays the second price
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(from = "AdNetworkState", into = "AdNetworkState")]
pub struct AdNetwork {
    campaigns: Vec<Campaign>,
    ledger: ServingLedger,
    area_grid: Option<AreaGrid>,
    country: u16,
    lanes: RankLanes,
}

/// The persisted form of an [`AdNetwork`]: everything except the derived
/// rank lanes, which are rebuilt on the way back. `AdNetwork` serializes
/// through this type.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdNetworkState {
    campaigns: Vec<Campaign>,
    ledger: ServingLedger,
    area_grid: Option<AreaGrid>,
    country: u16,
}

impl From<AdNetworkState> for AdNetwork {
    fn from(state: AdNetworkState) -> Self {
        let AdNetworkState { campaigns, mut ledger, area_grid, country } = state;
        let lanes = RankLanes::build(&campaigns, &mut ledger);
        AdNetwork { campaigns, ledger, area_grid, country, lanes }
    }
}

impl From<AdNetwork> for AdNetworkState {
    fn from(network: AdNetwork) -> Self {
        let AdNetwork { campaigns, ledger, area_grid, country, lanes: _ } = network;
        AdNetworkState { campaigns, ledger, area_grid, country }
    }
}

impl AdNetwork {
    /// Creates a network serving the given inventory with unlimited
    /// serving policies. Area/country campaigns never match until
    /// [`AdNetwork::set_area_grid`] / [`AdNetwork::set_country`] configure
    /// the request-side resolution.
    pub fn new(campaigns: Vec<Campaign>) -> Self {
        AdNetworkState { campaigns, ..AdNetworkState::default() }.into()
    }

    /// Configures how reported locations resolve to administrative-area
    /// ids (enables `Targeting::Area` campaigns).
    pub fn set_area_grid(&mut self, grid: AreaGrid) {
        self.area_grid = Some(grid);
    }

    /// Sets the country id carried by every request (enables
    /// `Targeting::Country` campaigns).
    pub fn set_country(&mut self, country: u16) {
        self.country = country;
    }

    /// Attaches a budget / frequency-cap policy to a campaign.
    pub fn set_policy(&mut self, campaign: CampaignId, policy: ServingPolicy) {
        self.ledger.set_policy(campaign, policy);
        let slot = self.ledger.slot(campaign);
        self.lanes.set_open(slot, self.ledger.budget_open(slot));
    }

    /// The delivery state (spend, impressions) of a campaign.
    pub fn serving_state(&self, campaign: CampaignId) -> ServingState {
        self.ledger.state(campaign)
    }

    /// The full campaign inventory, in registration order.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// Adds a campaign to the inventory (re-ranking it).
    pub fn register(&mut self, campaign: Campaign) {
        self.campaigns.push(campaign);
        self.lanes = RankLanes::build(&self.campaigns, &mut self.ledger);
    }

    /// The campaigns whose targeting matches a request at `location`.
    /// Radius campaigns match geometrically; area campaigns through the
    /// configured [`AreaGrid`]; country campaigns through
    /// the configured country id.
    pub fn matching(&self, location: Point) -> Vec<&Campaign> {
        let area = self.area_of(location);
        self.campaigns
            .iter()
            .filter(|c| c.matches(location, area, self.country))
            .collect()
    }

    fn area_of(&self, location: Point) -> u32 {
        self.area_grid.map_or(0, |g| g.area_of(location))
    }

    /// The top two eligible campaigns for a request: matching targeting,
    /// budget open, and `device` under the frequency cap.
    fn top2(&self, location: Point, device: DeviceId) -> Option<Top2> {
        let area = self.area_of(location);
        self.lanes.top2(location, area, self.country, &self.ledger, device)
    }

    /// Charges the winner of `top` the clearing price, returning the
    /// winner's campaign index and the price in micro-units. Retires the
    /// winner's lanes when the charge exhausts its budget.
    fn settle(&mut self, top: Top2, device: DeviceId) -> (usize, u64) {
        let slot = self.lanes.slot(top.winner);
        let price_micros = self.campaigns[self.lanes.campaign(top.price)].bid_micros();
        if !self.ledger.record_slot(slot, device, price_micros) {
            self.lanes.set_open(slot, false);
        }
        (self.lanes.campaign(top.winner), price_micros)
    }

    /// Serves one OpenRTB-lite request end-to-end, the network's one
    /// auction entry point: the second-price auction runs at the request's
    /// reported geo among campaigns under budget and under their frequency
    /// cap for the requesting device, the winner's spend and impression are
    /// recorded, and the outcome comes back as a [`BidResponse`] echoing
    /// the request id. Logging is the exchange's job
    /// ([`BidExchange`](crate::BidExchange)).
    ///
    /// Prices cross the wire in integer micro-units
    /// (`round(cpm × 1e6)`, the ledger's own units), so exchange-log
    /// digests never depend on float formatting.
    pub fn serve_exchange(&mut self, request: &BidRequest) -> BidResponse {
        let device = request.device.id;
        match self.top2(request.device.geo.point(), device) {
            None => BidResponse::no_bid(request.id),
            Some(top) => {
                let (winner, price_micros) = self.settle(top, device);
                let seat = self.campaigns[winner].id().raw();
                let bid = Bid {
                    imp: request.imp.id,
                    price_micros,
                    adm: privlocad_openrtb::fnv1a64(&seat.to_be_bytes()),
                };
                BidResponse::win(request.id, SeatBid { seat, bid })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Targeting;
    use privlocad_openrtb::Geo;

    fn radius_campaign(id: u64, x: f64, radius: f64, bid: f64) -> Campaign {
        Campaign::new(
            id,
            format!("c{id}"),
            Targeting::radius(Point::new(x, 0.0), radius).unwrap(),
            bid,
        )
        .unwrap()
    }

    /// Serves one request from `device` at `(x, 0)`; a win comes back as
    /// `(seat, price_micros)`.
    fn bid(net: &mut AdNetwork, device: u64, x: f64) -> Option<(u64, u64)> {
        let request = BidRequest::new(DeviceId::new(device), 0, Geo { x, y: 0.0 });
        net.serve_exchange(&request).seatbid.map(|sb| (sb.seat, sb.bid.price_micros))
    }

    #[test]
    fn matching_respects_radius() {
        let net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 1_000.0, 1.0),
            radius_campaign(1, 10_000.0, 1_000.0, 1.0),
        ]);
        let m = net.matching(Point::new(500.0, 0.0));
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].id().raw(), 0);
    }

    #[test]
    fn second_price_auction() {
        let mut net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 5_000.0, 2.0),
            radius_campaign(1, 0.0, 5_000.0, 8.0),
            radius_campaign(2, 0.0, 5_000.0, 5.0),
        ]);
        assert_eq!(bid(&mut net, 1, 0.0), Some((1, 5_000_000)));
    }

    #[test]
    fn single_bidder_pays_own_bid() {
        let mut net = AdNetwork::new(vec![radius_campaign(0, 0.0, 5_000.0, 3.5)]);
        assert_eq!(bid(&mut net, 1, 0.0), Some((0, 3_500_000)));
    }

    #[test]
    fn tie_broken_by_campaign_id() {
        let mut net = AdNetwork::new(vec![
            radius_campaign(5, 0.0, 5_000.0, 4.0),
            radius_campaign(2, 0.0, 5_000.0, 4.0),
        ]);
        assert_eq!(bid(&mut net, 1, 0.0), Some((2, 4_000_000)));
    }

    #[test]
    fn area_campaigns_match_through_the_grid() {
        use crate::AreaGrid;
        let grid = AreaGrid::new(10_000.0);
        let downtown = grid.area_of(Point::new(5_000.0, 5_000.0));
        let mut net = AdNetwork::new(vec![Campaign::new(
            0u64,
            "city-wide",
            Targeting::Area(downtown),
            3.0,
        )
        .unwrap()]);
        // Without a grid the area campaign never matches.
        assert!(net.matching(Point::new(5_000.0, 5_000.0)).is_empty());
        net.set_area_grid(grid);
        assert_eq!(net.matching(Point::new(5_000.0, 5_000.0)).len(), 1);
        assert_eq!(net.matching(Point::new(2_000.0, 8_000.0)).len(), 1); // same cell
        assert!(net.matching(Point::new(15_000.0, 5_000.0)).is_empty()); // next cell
    }

    #[test]
    fn country_campaigns_match_after_configuration() {
        let mut net =
            AdNetwork::new(vec![Campaign::new(0u64, "national", Targeting::Country(86), 1.0)
                .unwrap()]);
        assert!(net.matching(Point::ORIGIN).is_empty());
        net.set_country(86);
        assert_eq!(net.matching(Point::ORIGIN).len(), 1);
        net.set_country(1);
        assert!(net.matching(Point::ORIGIN).is_empty());
    }

    #[test]
    fn budget_exhaustion_hands_wins_to_the_runner_up() {
        let mut net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 5_000.0, 10.0),
            radius_campaign(1, 0.0, 5_000.0, 4.0),
        ]);
        // The top bidder can afford exactly two second-price (4.0) wins.
        net.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_budget(8.0));
        for _ in 0..2 {
            assert_eq!(bid(&mut net, 1, 0.0), Some((0, 4_000_000)));
        }
        // Budget exhausted: the runner-up now wins at its own bid.
        assert_eq!(bid(&mut net, 1, 0.0), Some((1, 4_000_000)));
        assert_eq!(net.serving_state(CampaignId::new(0)).spent_micros(), 8_000_000);
    }

    #[test]
    fn frequency_cap_applies_per_device() {
        let mut net = AdNetwork::new(vec![radius_campaign(0, 0.0, 5_000.0, 2.0)]);
        net.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_frequency_cap(1));
        assert_eq!(bid(&mut net, 1, 0.0), Some((0, 2_000_000)));
        assert_eq!(bid(&mut net, 1, 0.0), None, "device 1 is capped");
        assert_eq!(bid(&mut net, 2, 0.0), Some((0, 2_000_000)), "other devices still served");
        assert_eq!(net.serving_state(CampaignId::new(0)).total_impressions(), 2);
    }

    #[test]
    fn serve_exchange_echoes_the_request_and_charges_the_ledger() {
        let mut net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 5_000.0, 8.0),
            radius_campaign(1, 0.0, 5_000.0, 5.0),
        ]);
        let request = BidRequest::new(DeviceId::new(1), 0, Geo { x: 100.0, y: 0.0 });
        let response = net.serve_exchange(&request);
        assert_eq!(response.id, request.id);
        let sb = response.seatbid.unwrap();
        assert_eq!(sb.seat, 0, "highest bidder wins");
        assert_eq!(sb.bid.price_micros, 5_000_000, "pays the second price in micros");
        assert_eq!(net.serving_state(CampaignId::new(0)).total_impressions(), 1);
        assert_eq!(net.serving_state(CampaignId::new(0)).spent_micros(), 5_000_000);
        assert_eq!(bid(&mut net, 1, 50_000.0), None, "out of radius is a no-bid");
    }

    #[test]
    fn persisted_state_round_trip_rebuilds_identical_lanes() {
        let round_trip = |net: &AdNetwork| AdNetwork::from(AdNetworkState::from(net.clone()));
        assert_eq!(round_trip(&AdNetwork::default()), AdNetwork::new(Vec::new()));
        let mut net = AdNetwork::new(vec![
            radius_campaign(0, 0.0, 5_000.0, 10.0),
            radius_campaign(1, 0.0, 5_000.0, 4.0),
        ]);
        net.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_budget(4.0));
        net.set_policy(CampaignId::new(7), ServingPolicy::unlimited().with_frequency_cap(1));
        assert_eq!(bid(&mut net, 1, 0.0), Some((0, 4_000_000)));
        // Campaign 0 is now out of budget: its lane is closed, and the
        // rebuilt lanes must agree.
        let mut restored = round_trip(&net);
        assert_eq!(restored, net);
        assert_eq!(bid(&mut restored, 1, 0.0), Some((1, 4_000_000)));
    }

    #[test]
    fn register_extends_inventory() {
        let mut net = AdNetwork::default();
        assert!(net.matching(Point::ORIGIN).is_empty());
        net.register(radius_campaign(0, 0.0, 1_000.0, 1.0));
        assert_eq!(net.campaigns().len(), 1);
        assert_eq!(net.matching(Point::ORIGIN).len(), 1);
    }
}
