//! The posterior-weight cache is pure post-processing acceleration: serving
//! with warm cached tables and serving with the cache flushed before every
//! single request (forcing a from-scratch weight recompute) must produce
//! bit-for-bit identical output streams — across multiple protection-window
//! cycles, and on the concurrent device regardless of thread count.

use std::sync::Arc;

use privlocad::{AdDelivery, EdgeDevice, SharedEdgeDevice, SystemConfig};
use privlocad_adnet::{AdNetwork, BidExchange, Campaign, Targeting};
use privlocad_geo::rng::{derive_seed, seeded};
use privlocad_geo::Point;
use privlocad_mobility::UserId;
use privlocad_openrtb::BidSink;

const WINDOW_CYCLES: usize = 3;
const REQUESTS_PER_CYCLE: usize = 25;

fn exchange() -> BidExchange {
    BidExchange::new(AdNetwork::new(vec![
        Campaign::new(0u64, "home-cafe", Targeting::radius(Point::new(0.0, 0.0), 25_000.0).unwrap(), 2.0)
            .unwrap(),
        Campaign::new(1u64, "office-gym", Targeting::radius(Point::new(9_000.0, 0.0), 25_000.0).unwrap(), 3.0)
            .unwrap(),
        Campaign::new(2u64, "countrywide", Targeting::Country(86), 1.0).unwrap(),
    ]))
}

/// Drives one edge device through 3 protection-window cycles, recording the
/// full `request_ads` output stream. When `flush` is set, the selection
/// cache is dropped before every request, so every draw recomputes its
/// posterior weights from scratch.
fn drive_edge(seed: u64, flush: bool) -> Vec<AdDelivery> {
    let mut edge = EdgeDevice::new(SystemConfig::builder().build().unwrap(), seed);
    let sink = BidSink::new();
    let mut exchange = exchange();
    let user = UserId::new(1);
    let home = Point::new(0.0, 0.0);
    let office = Point::new(9_000.0, 0.0);
    let mut stream = Vec::new();
    for cycle in 0..WINDOW_CYCLES {
        // The office grows more prominent every cycle, so the top set (and
        // with it the cache keys) genuinely changes across windows.
        for _ in 0..40 {
            edge.report_checkin(user, home);
        }
        for _ in 0..(10 + 15 * cycle) {
            edge.report_checkin(user, office);
        }
        edge.finalize_window(user);
        for i in 0..REQUESTS_PER_CYCLE {
            if flush {
                edge.flush_selection_cache();
            }
            let at = match i % 3 {
                0 => home,
                1 => office,
                _ => Point::new(40_000.0, 40_000.0), // nomadic
            };
            stream.push(edge.request_ads(user, at, &sink, &mut exchange));
        }
    }
    stream
}

#[test]
fn cached_and_from_scratch_request_ads_streams_are_identical() {
    for seed in [3, 17, 4242] {
        let cached = drive_edge(seed, false);
        let uncached = drive_edge(seed, true);
        assert_eq!(cached.len(), WINDOW_CYCLES * REQUESTS_PER_CYCLE);
        assert_eq!(cached, uncached, "seed {seed}: cache changed an output stream");
    }
}

/// Drives the shared device with `threads` worker threads, each owning a
/// disjoint set of users with a per-user derived RNG (the deterministic
/// worker-pool pattern), through 3 window cycles. Returns the per-user
/// reported-location streams, which must not depend on `threads` or on
/// `flush`.
fn drive_shared(seed: u64, threads: usize, flush: bool) -> Vec<Vec<Point>> {
    const USERS: u32 = 6;
    let edge = Arc::new(SharedEdgeDevice::new(SystemConfig::builder().build().unwrap(), seed));
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let edge = Arc::clone(&edge);
            std::thread::spawn(move || {
                let mut out = Vec::new();
                for u in (w as u32..USERS).step_by(threads) {
                    let user = UserId::new(u);
                    let home = Point::new(u as f64 * 4_000.0, 0.0);
                    let away = home + Point::new(0.0, 7_000.0);
                    let mut rng = seeded(derive_seed(seed, u as u64));
                    let mut stream = Vec::new();
                    for cycle in 0..WINDOW_CYCLES {
                        for _ in 0..30 {
                            edge.report_checkin(user, home);
                        }
                        for _ in 0..(5 + 12 * cycle) {
                            edge.report_checkin(user, away);
                        }
                        edge.finalize_window_with(user, &mut rng);
                        for i in 0..REQUESTS_PER_CYCLE {
                            if flush {
                                edge.flush_selection_cache();
                            }
                            let at = if i % 2 == 0 { home } else { away };
                            stream.push(edge.reported_location_with(user, at, &mut rng));
                        }
                    }
                    out.push((u, stream));
                }
                out
            })
        })
        .collect();
    let mut per_user = vec![Vec::new(); USERS as usize];
    for h in handles {
        for (u, stream) in h.join().unwrap() {
            per_user[u as usize] = stream;
        }
    }
    per_user
}

#[test]
fn shared_device_streams_are_invariant_to_threads_and_cache_state() {
    let baseline = drive_shared(77, 1, false);
    for stream in &baseline {
        assert_eq!(stream.len(), WINDOW_CYCLES * REQUESTS_PER_CYCLE);
    }
    for threads in [1, 2] {
        for flush in [false, true] {
            if threads == 1 && !flush {
                continue;
            }
            let got = drive_shared(77, threads, flush);
            assert_eq!(
                got, baseline,
                "threads={threads} flush={flush} diverged from the 1-thread cached run"
            );
        }
    }
}
