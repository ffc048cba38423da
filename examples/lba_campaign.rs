//! An advertiser's view: radius-targeted campaigns, second-price auctions,
//! and what privacy protection does (and does not) cost them.
//!
//! Runs a small population through the full Edge-PrivLocAd pipeline over a
//! synthetic campaign inventory and reports auction volume, clearing
//! prices, and how many delivered ads were actually relevant (inside the
//! users' true areas of interest).
//!
//! ```sh
//! cargo run --release --example lba_campaign
//! ```

use privlocad::{LbaSimulation, SystemConfig};
use privlocad_adnet::inventory::{generate, InventoryConfig};
use privlocad_adnet::platforms;
use privlocad_mobility::{shanghai, PopulationConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Platform-conformant campaigns scattered over the study area.
    let (lo, hi) = platforms::common_interval();
    println!("cross-platform radius-targeting interval: {:.0} m – {:.0} m", lo, hi);
    let inventory = generate(
        &InventoryConfig { count: 400, ..InventoryConfig::default() },
        shanghai::bounding_box(),
        &shanghai::projection(),
        3,
    );
    println!("generated {} campaigns (Tencent limits, capped at 25 km)", inventory.len());

    // A small population served through the edge.
    let population = PopulationConfig::builder()
        .num_users(10)
        .seed(5)
        .checkin_log_normal(5.0, 0.3) // lighter users keep the demo quick
        .build();
    let config = SystemConfig::builder().build()?;
    let mut sim = LbaSimulation::new(config, inventory, 8);

    let mut requests = 0usize;
    let mut won = 0usize;
    let mut delivered = 0usize;
    for i in 0..population.num_users() as u32 {
        let user = population.generate_user(i);
        let report = sim.run_user(&user);
        requests += report.requests;
        won += report.auctions_won;
        delivered += report.ads_delivered;
        println!(
            "user {:>2}: {:>5} requests, {:>5} auctions won, {:>6} relevant ads delivered, \
             {:>3} distinct locations exposed",
            i, report.requests, report.auctions_won, report.ads_delivered, report.distinct_reported
        );
    }

    let log = sim.bid_log();
    println!("\ntotals: {requests} requests, {won} auctions won, {delivered} ads delivered");
    println!(
        "exchange log: {} transactions, {:.0} total clearing price units",
        log.len(),
        log.revenue_micros() as f64 / 1e6
    );
    println!(
        "average relevant ads per request after the edge's AOI filter: {:.2}",
        delivered as f64 / requests as f64
    );
    Ok(())
}
