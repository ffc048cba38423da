//! Integration: the full advertising marketplace (mixed targeting, budgets,
//! frequency caps, area grid) served through the Edge-PrivLocAd pipeline.

use privlocad::{EdgeDevice, SystemConfig};
use privlocad_adnet::{
    AdNetwork, AreaGrid, BidExchange, Campaign, CampaignId, ServingPolicy, Targeting,
};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::BidSink;

fn settled_edge(home: Point) -> (EdgeDevice, UserId) {
    let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), 31);
    let user = UserId::new(0);
    for _ in 0..50 {
        edge.report_checkin(user, home);
    }
    edge.finalize_window(user);
    (edge, user)
}

#[test]
fn mixed_targeting_marketplace_over_obfuscated_requests() {
    let home = Point::new(2_000.0, 2_000.0);
    let (mut edge, user) = settled_edge(home);

    let mut network = AdNetwork::new(vec![
        // A radius campaign around home, wide enough to catch obfuscated
        // candidates (sigma ~5 km).
        Campaign::new(0, "local-radius", Targeting::radius(home, 25_000.0).unwrap(), 5.0)
            .unwrap(),
        // A country-wide campaign.
        Campaign::new(1, "national", Targeting::Country(86), 1.0).unwrap(),
        // An area campaign for the 40 km super-cell around the origin.
        Campaign::new(
            2,
            "district",
            Targeting::Area(AreaGrid::new(40_000.0).area_of(home)),
            2.0,
        )
        .unwrap(),
    ]);
    network.set_country(86);
    network.set_area_grid(AreaGrid::new(40_000.0));
    let sink = BidSink::new();
    let mut exchange = BidExchange::new(network);

    let mut winners = std::collections::HashSet::new();
    for _ in 0..50 {
        let delivery = edge.request_ads(user, home, &sink, &mut exchange);
        if let Some(win) = delivery.auction.seatbid {
            winners.insert(win.seat);
        }
        // Non-geographic ads always pass the AOI filter; radius ads only
        // when truly relevant.
        for ad in &delivery.delivered {
            if let Some(loc) = ad.business_location() {
                assert!(loc.distance(home) <= 5_000.0);
            }
        }
    }
    // The high-bid radius campaign wins whenever the obfuscated request
    // lands in range; auctions always have at least the national bidder.
    assert!(winners.contains(&0) || winners.contains(&2) || winners.contains(&1));
    assert_eq!(exchange.log().len(), 50);
}

#[test]
fn budgets_rotate_winners_under_the_edge_pipeline() {
    let home = Point::new(0.0, 0.0);
    let (mut edge, user) = settled_edge(home);
    let mut network = AdNetwork::new(vec![
        Campaign::new(0, "big-spender", Targeting::Country(86), 10.0).unwrap(),
        Campaign::new(1, "steady", Targeting::Country(86), 2.0).unwrap(),
    ]);
    network.set_country(86);
    // The top bidder pays the second price (2.0) and can afford 3 wins.
    network.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_budget(6.0));
    let sink = BidSink::new();
    let mut exchange = BidExchange::new(network);

    let mut first_wins = 0;
    let mut later_wins = 0;
    for t in 0..10 {
        let delivery = edge.request_ads(user, home, &sink, &mut exchange);
        let win = delivery.auction.seatbid.expect("country campaign always matches");
        assert_eq!(win.bid.price_micros, 2_000_000, "the winner pays the second price");
        if t < 3 {
            assert_eq!(win.seat, 0, "budget should last 3 wins");
            first_wins += 1;
        } else {
            assert_eq!(win.seat, 1, "runner-up takes over after exhaustion");
            later_wins += 1;
        }
    }
    assert_eq!(first_wins, 3);
    assert_eq!(later_wins, 7);
    assert_eq!(exchange.network().serving_state(CampaignId::new(0)).spent_micros(), 6_000_000);
}

#[test]
fn frequency_caps_limit_per_user_exposure_through_the_edge() {
    let home = Point::new(0.0, 0.0);
    let (mut edge, user) = settled_edge(home);
    let mut network =
        AdNetwork::new(vec![Campaign::new(0, "capped", Targeting::Country(86), 3.0).unwrap()]);
    network.set_country(86);
    network.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_frequency_cap(2));
    let sink = BidSink::new();
    let mut exchange = BidExchange::new(network);

    let mut wins = 0;
    for _ in 0..6 {
        if edge.request_ads(user, home, &sink, &mut exchange).auction.is_win() {
            wins += 1;
        }
    }
    assert_eq!(wins, 2, "the cap limits this device to two impressions");
}
