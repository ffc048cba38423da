use privlocad_adnet::{AdNetwork, BidExchange, Campaign, DeviceId};
use privlocad_mobility::{UserTrace, SECONDS_PER_DAY};
use privlocad_openrtb::{BidExchangeLog, BidSink};
use serde::{Deserialize, Serialize};

use crate::{EdgeDevice, SystemConfig};

/// Per-user outcome of an end-to-end simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Raw user id.
    pub user: u32,
    /// Ad requests served (one per check-in).
    pub requests: usize,
    /// Requests whose auction produced a winner.
    pub auctions_won: usize,
    /// Total ads delivered after AOI filtering.
    pub ads_delivered: usize,
    /// Number of distinct locations this user exposed to the ad network —
    /// under Edge-PrivLocAd this stays near `n × |top set|` plus nomadic
    /// one-offs, instead of growing with every request.
    pub distinct_reported: usize,
}

/// An end-to-end LBA deployment: synthetic users drive an [`EdgeDevice`]
/// which bids through a [`BidExchange`] in front of an [`AdNetwork`]; the
/// exchange log is what a longitudinal attacker observes.
///
/// Replays each user's 2-year trace in time order. Every check-in both
/// feeds the location-management module and triggers an ad request,
/// submitted to a [`BidSink`] and settled by the exchange exactly as the
/// serving fleet's requests are. The profile window closes every
/// [`SystemConfig::window_days`] days, after which top-location requests
/// switch from the one-time nomadic fallback to permanent candidates.
///
/// # Examples
///
/// ```
/// use privlocad::{LbaSimulation, SystemConfig};
/// use privlocad_mobility::PopulationConfig;
///
/// let population = PopulationConfig::builder().num_users(2).seed(3).build();
/// let mut sim = LbaSimulation::new(SystemConfig::builder().build()?, Vec::new(), 9);
/// let report = sim.run_user(&population.generate_user(0));
/// assert!(report.requests >= 20);
/// assert!(!sim.bid_log().is_empty());
/// # Ok::<(), privlocad::SystemError>(())
/// ```
#[derive(Debug)]
pub struct LbaSimulation {
    edge: EdgeDevice,
    sink: BidSink,
    exchange: BidExchange,
    window_days: u32,
}

impl LbaSimulation {
    /// Creates a simulation over a campaign inventory.
    pub fn new(config: SystemConfig, campaigns: Vec<Campaign>, seed: u64) -> Self {
        LbaSimulation {
            window_days: config.window_days(),
            edge: EdgeDevice::new(config, seed),
            sink: BidSink::new(),
            exchange: BidExchange::new(AdNetwork::new(campaigns)),
        }
    }

    /// The edge device under simulation.
    pub fn edge(&self) -> &EdgeDevice {
        &self.edge
    }

    /// Mutable access to the edge device (e.g. to pre-train profiles).
    pub fn edge_mut(&mut self) -> &mut EdgeDevice {
        &mut self.edge
    }

    /// The exchange's accumulated bid log — the longitudinal attacker's
    /// observation.
    pub fn bid_log(&self) -> &BidExchangeLog {
        self.exchange.log()
    }

    /// Replays one user's trace end-to-end and reports the outcome.
    pub fn run_user(&mut self, trace: &UserTrace) -> SimulationReport {
        let mut window_end = self.window_days as i64 * SECONDS_PER_DAY;
        let mut report = SimulationReport {
            user: trace.user.raw(),
            requests: 0,
            auctions_won: 0,
            ads_delivered: 0,
            distinct_reported: 0,
        };
        for checkin in &trace.checkins {
            while checkin.time.seconds() >= window_end {
                self.edge.finalize_window(trace.user);
                window_end += self.window_days as i64 * SECONDS_PER_DAY;
            }
            self.edge.report_checkin(trace.user, checkin.location);
            let delivery = self.edge.request_ads(
                trace.user,
                checkin.location,
                &self.sink,
                &mut self.exchange,
            );
            report.requests += 1;
            report.auctions_won += usize::from(delivery.auction.is_win());
            report.ads_delivered += delivery.delivered.len();
        }
        // Count the distinct locations the network saw for this user.
        let mut reported = self.observed_locations(trace.user.raw());
        reported.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
        reported.dedup();
        report.distinct_reported = reported.len();
        report
    }

    /// The reported-location sequence of one user — exactly what
    /// Algorithm 1 consumes.
    pub fn observed_locations(&self, user: u32) -> Vec<privlocad_geo::Point> {
        self.exchange.log().locations_of(DeviceId::new(u64::from(user)))
    }

    /// Replays every user of a materialized population and returns the
    /// per-user reports.
    pub fn run_population<'a, I>(&mut self, users: I) -> Vec<SimulationReport>
    where
        I: IntoIterator<Item = &'a UserTrace>,
    {
        users.into_iter().map(|u| self.run_user(u)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privlocad_attack::DeobfuscationAttack;
    use privlocad_mechanisms::NFoldGaussian;
    use privlocad_mobility::PopulationConfig;

    fn population(n: usize) -> PopulationConfig {
        PopulationConfig::builder()
            .num_users(n)
            .seed(5)
            .checkin_log_normal(5.5, 0.4)
            .build()
    }

    #[test]
    fn every_checkin_becomes_a_logged_request() {
        let mut sim =
            LbaSimulation::new(SystemConfig::builder().build().unwrap(), Vec::new(), 1);
        let user = population(1).generate_user(0);
        let report = sim.run_user(&user);
        assert_eq!(report.requests, user.checkins.len());
        assert_eq!(sim.bid_log().len(), user.checkins.len());
        assert_eq!(sim.observed_locations(0).len(), user.checkins.len());
    }

    #[test]
    fn observation_stream_is_the_delivery_stream() {
        // A routine user whose windows settle during the trace, bidding
        // into a market where only requests near home can win.
        let config = SystemConfig::builder().build().unwrap();
        let user = population(11).generate_user(10);
        let home = user.truth.top_locations[0];
        let campaigns = vec![Campaign::new(
            0u64,
            "home",
            privlocad_adnet::Targeting::radius(home, 2_000.0).unwrap(),
            2.0,
        )
        .unwrap()];
        let mut sim = LbaSimulation::new(config, campaigns.clone(), 8);
        let report = sim.run_user(&user);

        // The same replay on a twin edge, keeping every delivery.
        let mut edge = EdgeDevice::new(config, 8);
        let sink = BidSink::new();
        let mut exchange = BidExchange::new(AdNetwork::new(campaigns));
        let window = i64::from(config.window_days()) * SECONDS_PER_DAY;
        let mut window_end = window;
        let mut deliveries = Vec::new();
        for checkin in &user.checkins {
            while checkin.time.seconds() >= window_end {
                edge.finalize_window(user.user);
                window_end += window;
            }
            edge.report_checkin(user.user, checkin.location);
            deliveries.push(edge.request_ads(user.user, checkin.location, &sink, &mut exchange));
        }

        let reported: Vec<_> = deliveries.iter().map(|d| d.reported).collect();
        assert_eq!(sim.observed_locations(user.user.raw()), reported);
        let device = DeviceId::new(u64::from(user.user.raw()));
        let logged_wins = sim
            .bid_log()
            .records()
            .filter(|r| r.request.device.id == device && r.response.is_win())
            .count();
        assert_eq!(report.auctions_won, logged_wins);
        assert_eq!(report.auctions_won, deliveries.iter().filter(|d| d.auction.is_win()).count());
        assert!(
            0 < report.auctions_won && report.auctions_won < report.requests,
            "{} wins of {} requests",
            report.auctions_won,
            report.requests
        );
    }

    #[test]
    fn distinct_reports_collapse_after_first_window() {
        let mut sim =
            LbaSimulation::new(SystemConfig::builder().build().unwrap(), Vec::new(), 2);
        // User 10 is a *routine* user (~89 % of check-ins at 2 top
        // locations) — the population the collapse property speaks about.
        // Diverse users (couriers etc., ~12 % of the population) spend a
        // third of their requests at nomadic one-offs, each of which is
        // legitimately a unique report.
        let user = population(11).generate_user(10);
        let report = sim.run_user(&user);
        // Nomadic requests and the cold-start first window produce unique
        // points, but the bulk of requests reuse ≤ n×|tops| candidates:
        // far fewer distinct points than requests.
        assert!(
            report.distinct_reported < report.requests / 2,
            "distinct {} of {} requests",
            report.distinct_reported,
            report.requests
        );
    }

    #[test]
    fn true_locations_never_reach_the_network() {
        let mut sim =
            LbaSimulation::new(SystemConfig::builder().build().unwrap(), Vec::new(), 3);
        let user = population(1).generate_user(0);
        sim.run_user(&user);
        let observed = sim.observed_locations(0);
        for checkin in &user.checkins {
            assert!(
                !observed.contains(&checkin.location),
                "a raw check-in leaked to the bid log"
            );
        }
    }

    #[test]
    fn longitudinal_attack_fails_against_the_system() {
        let config = SystemConfig::builder().build().unwrap();
        let mut sim = LbaSimulation::new(config, Vec::new(), 4);
        let user = population(1).generate_user(0);
        sim.run_user(&user);
        let observed = sim.observed_locations(0);
        let mech = NFoldGaussian::new(config.geo_ind());
        let attack = DeobfuscationAttack::for_gaussian(&mech, 0.05).unwrap();
        let inferred = attack.infer_top_locations(&observed, 1);
        let err = inferred[0].location.distance(user.truth.top_locations[0]);
        assert!(err > 200.0, "attack recovered the top location to {err} m");
    }

    #[test]
    fn simulation_is_deterministic() {
        let user = population(1).generate_user(0);
        let run = || {
            let mut sim =
                LbaSimulation::new(SystemConfig::builder().build().unwrap(), Vec::new(), 7);
            let r = sim.run_user(&user);
            (r, sim.observed_locations(0))
        };
        assert_eq!(run(), run());
    }
}
