//! Cross-crate integration: synthetic population → edge device → ad
//! network → longitudinal attacker, asserting the paper's end-to-end
//! claims.

use privlocad::{LbaSimulation, SystemConfig};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::DeviceId;
use privlocad_attack::evaluation::rank_distances;
use privlocad_attack::DeobfuscationAttack;
use privlocad_mechanisms::{NFoldGaussian, PlanarLaplace, PlanarLaplaceParams};
use privlocad_mobility::{shanghai, PopulationConfig};
use privlocad_openrtb::BidRequest;

fn population() -> PopulationConfig {
    PopulationConfig::builder()
        .num_users(8)
        .seed(1234)
        .checkin_log_normal(5.6, 0.3)
        .build()
}

#[test]
fn attack_beats_one_time_geoind_but_not_the_system() {
    let pop = population();
    let laplace = PlanarLaplace::new(PlanarLaplaceParams::from_level(4f64.ln(), 200.0).unwrap());
    let config = SystemConfig::builder().build().unwrap();
    let gaussian = NFoldGaussian::new(config.geo_ind());

    let mut leak_hits = 0usize;
    let mut defense_hits = 0usize;
    for i in 0..pop.num_users() as u32 {
        let user = pop.generate_user(i);
        let truth = vec![user.truth.top_locations[0]];

        // One-time geo-IND arm.
        let mut rng = privlocad_geo::rng::seeded(9_000 + i as u64);
        let observed: Vec<_> = user
            .checkins
            .iter()
            .map(|c| laplace.sample(c.location, &mut rng))
            .collect();
        let attack = DeobfuscationAttack::for_planar_laplace(&laplace, 0.05).unwrap();
        let d = rank_distances(&attack.infer_top_locations(&observed, 1), &truth);
        if matches!(d[0], Some(x) if x <= 200.0) {
            leak_hits += 1;
        }

        // Edge-PrivLocAd arm.
        let mut sim = LbaSimulation::new(config, Vec::new(), 7_000 + i as u64);
        sim.run_user(&user);
        let observed = sim.observed_locations(user.user.raw());
        let attack = DeobfuscationAttack::for_gaussian(&gaussian, 0.05).unwrap();
        let d = rank_distances(&attack.infer_top_locations(&observed, 1), &truth);
        if matches!(d[0], Some(x) if x <= 200.0) {
            defense_hits += 1;
        }
    }
    assert!(
        leak_hits >= 6,
        "one-time geo-IND should leak most users' top-1 ({leak_hits}/8 within 200 m)"
    );
    assert_eq!(
        defense_hits, 0,
        "Edge-PrivLocAd should not leak any top-1 within 200 m"
    );
}

#[test]
fn full_marketplace_round_trip() {
    let pop = population();
    let inventory = generate(
        &InventoryConfig { count: 300, ..InventoryConfig::default() },
        shanghai::bounding_box(),
        &shanghai::projection(),
        5,
    );
    let config = SystemConfig::builder().build().unwrap();
    let mut sim = LbaSimulation::new(config, inventory, 77);

    let user = pop.generate_user(0);
    let report = sim.run_user(&user);
    assert_eq!(report.requests, user.checkins.len());
    // A 25 km-radius inventory across the city should win some auctions.
    assert!(report.auctions_won > 0, "no auctions won over {} requests", report.requests);
    // The AOI filter only ever passes truly relevant ads.
    assert!(report.ads_delivered > 0, "filter killed every ad");
    // The log grew by exactly one entry per request.
    assert_eq!(sim.bid_log().len(), report.requests);
}

#[test]
fn device_ids_segregate_users_in_the_log() {
    let pop = population();
    let config = SystemConfig::builder().build().unwrap();
    let mut sim = LbaSimulation::new(config, Vec::new(), 3);
    let a = pop.generate_user(0);
    let b = pop.generate_user(1);
    sim.run_user(&a);
    sim.run_user(&b);
    let log = sim.bid_log();
    assert_eq!(
        log.devices(),
        vec![DeviceId::new(0), DeviceId::new(1)]
    );
    assert_eq!(log.locations_of(DeviceId::new(0)).len(), a.checkins.len());
    assert_eq!(log.locations_of(DeviceId::new(1)).len(), b.checkins.len());
}

#[test]
fn wire_format_round_trips_the_whole_log() {
    let pop = population();
    let config = SystemConfig::builder().build().unwrap();
    let mut sim = LbaSimulation::new(config, Vec::new(), 4);
    sim.run_user(&pop.generate_user(2));
    let log = sim.bid_log();
    assert!(!log.is_empty());
    for record in log.records() {
        let (decoded, consumed) = BidRequest::decode(&record.request_frame).unwrap();
        assert_eq!(consumed, record.request_frame.len());
        assert_eq!(decoded, record.request);
        assert_eq!(record.request.encode(), record.request_frame);
    }
}
