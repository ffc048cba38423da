//! Hostile input at the exchange: every malformed drained frame is a typed
//! error, never a panic, and the records settled before it stay exactly
//! as they were. Empty inventories and non-finite request coordinates
//! settle without panicking too.

use bytes::Bytes;
use privlocad_adnet::{AdNetwork, BidExchange, Campaign, CampaignId, ServingPolicy, Targeting};
use privlocad_geo::Point;
use privlocad_openrtb::{BidSink, DeviceId, Geo, PendingBid};

fn inventory() -> Vec<Campaign> {
    let radius = |id: u64, x: f64, bid: f64| {
        Campaign::new(
            id,
            format!("c{id}"),
            Targeting::radius(Point::new(x, 0.0), 5_000.0).unwrap(),
            bid,
        )
        .unwrap()
    };
    vec![
        radius(0, 0.0, 8.0),
        radius(1, 1_000.0, 5.0),
        radius(2, 0.0, 3.0),
        Campaign::new(3u64, "national", Targeting::Country(0), 1.0).unwrap(),
    ]
}

fn network(campaigns: Vec<Campaign>) -> AdNetwork {
    let mut network = AdNetwork::new(campaigns);
    network.set_policy(CampaignId::new(0), ServingPolicy::unlimited().with_budget(10.0));
    network.set_policy(CampaignId::new(1), ServingPolicy::unlimited().with_frequency_cap(1));
    network
}

/// A drained batch of well-formed bids from three devices.
fn batch() -> Vec<PendingBid> {
    let sink = BidSink::new();
    for k in 0..3u64 {
        for device in 1..=3u64 {
            sink.submit(DeviceId::new(device), Geo { x: 400.0 * (k + device) as f64, y: 0.0 });
        }
    }
    sink.drain()
}

/// Settles `pending` on a fresh exchange over `campaigns`.
fn settle(campaigns: &[Campaign], pending: &[PendingBid]) -> (BidExchange, bool) {
    let mut exchange = BidExchange::new(network(campaigns.to_vec()));
    let ok = exchange.pump_pending(pending).is_ok();
    (exchange, ok)
}

/// Every truncation and every single-byte corruption of every frame.
fn mangled(frame: &Bytes) -> Vec<Bytes> {
    let mut out: Vec<Bytes> = (0..frame.len()).map(|len| frame.slice(0..len)).collect();
    for at in 0..frame.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bytes = frame.to_vec();
            bytes[at] ^= flip;
            out.push(Bytes::from(bytes));
        }
    }
    out
}

fn assert_bad_frames_keep_the_prefix(campaigns: &[Campaign]) {
    let good = batch();
    let ids: Vec<u64> = campaigns.iter().map(|c| c.id().raw()).collect();
    for bad in 0..good.len() {
        let (prefix, ok) = settle(campaigns, &good[..bad]);
        assert!(ok);
        for frame in mangled(&good[bad].frame) {
            let mut pending = good.clone();
            pending[bad].frame = frame;
            let (exchange, ok) = settle(campaigns, &pending);
            assert!(!ok, "a mangled frame {bad} must be rejected");
            assert_eq!(exchange.log().len(), bad, "only the records before the bad frame");
            assert_eq!(exchange.log().digest(), prefix.log().digest());
            for &id in &ids {
                let id = CampaignId::new(id);
                assert_eq!(
                    exchange.network().serving_state(id),
                    prefix.network().serving_state(id)
                );
            }
        }
    }
}

#[test]
fn malformed_frames_are_errors_that_keep_the_settled_prefix() {
    assert_bad_frames_keep_the_prefix(&inventory());
}

#[test]
fn an_empty_inventory_rejects_malformed_frames_and_never_bids() {
    assert_bad_frames_keep_the_prefix(&[]);
    let (exchange, ok) = settle(&[], &batch());
    assert!(ok);
    assert_eq!(exchange.log().len(), 9);
    assert_eq!(exchange.log().wins(), 0);
}

#[test]
fn non_finite_coordinates_settle_without_panicking() {
    let sink = BidSink::new();
    let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX, -f64::MAX, 0.0];
    for (i, &x) in odd.iter().enumerate() {
        for &y in &odd {
            sink.submit(DeviceId::new(i as u64), Geo { x, y });
        }
    }
    let pending = sink.drain();
    for campaigns in [inventory(), Vec::new()] {
        let (exchange, ok) = settle(&campaigns, &pending);
        assert!(ok);
        assert_eq!(exchange.log().len(), pending.len());
        for record in exchange.log().records() {
            let at = record.request.device.geo.point();
            let geometric = at.x.abs() < 1e9 && at.y.abs() < 1e9;
            match record.response.seatbid {
                // Only the country campaign can match a point no radius
                // reaches; an empty inventory never bids.
                Some(sb) if !geometric => assert_eq!(sb.seat, 3, "at {at:?}"),
                Some(_) => assert!(!campaigns.is_empty()),
                None => {}
            }
        }
    }
}
