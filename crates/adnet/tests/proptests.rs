//! Property-based tests for the advertising substrate.

use privlocad_adnet::{AdNetwork, Campaign, DeviceId, Targeting};
use privlocad_geo::Point;
use privlocad_openrtb::{BidRequest, Geo};
use proptest::prelude::*;

fn point() -> impl Strategy<Value = Point> {
    (-50_000.0..50_000.0f64, -50_000.0..50_000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn campaign(id: u64) -> impl Strategy<Value = Campaign> {
    (point(), 500.0..25_000.0f64, 0.1..50.0f64).prop_map(move |(c, r, bid)| {
        Campaign::new(id, format!("c{id}"), Targeting::radius(c, r).unwrap(), bid).unwrap()
    })
}

fn inventory() -> impl Strategy<Value = Vec<Campaign>> {
    proptest::collection::vec(any::<u8>(), 0..12).prop_flat_map(|ids| {
        let strategies: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, _)| campaign(i as u64))
            .collect();
        strategies
    })
}

proptest! {
    #[test]
    fn auction_winner_has_max_bid_among_matches(ads in inventory(), loc in point()) {
        let mut net = AdNetwork::new(ads.clone());
        let matched: Vec<u64> = net.matching(loc).iter().map(|c| c.bid_micros()).collect();
        let request = BidRequest::new(DeviceId::new(1), 0, Geo::from_point(loc));
        match net.serve_exchange(&request).seatbid {
            None => prop_assert!(matched.is_empty()),
            Some(win) => {
                // Inventory ids are positions, so the seat names the winner.
                let winner = &ads[win.seat as usize];
                prop_assert!(winner.matches(loc, 0, 0));
                prop_assert_eq!(Some(winner.bid_micros()), matched.iter().copied().max());
                // Second-price: clearing price never exceeds the winning bid
                // and is at least the lowest matching bid.
                prop_assert!(win.bid.price_micros <= winner.bid_micros());
                prop_assert!(Some(win.bid.price_micros) >= matched.iter().copied().min());
            }
        }
    }

    #[test]
    fn matching_is_consistent_with_campaign_matches(ads in inventory(), loc in point()) {
        let net = AdNetwork::new(ads.clone());
        let matched: Vec<u64> = net.matching(loc).iter().map(|c| c.id().raw()).collect();
        let expected: Vec<u64> = ads
            .iter()
            .filter(|c| c.matches(loc, 0, 0))
            .map(|c| c.id().raw())
            .collect();
        prop_assert_eq!(matched, expected);
    }
}
