//! Tables II and III: edge-device scalability.
//!
//! Table II times the periodic batch job "build every user's location
//! profile and generate candidate locations"; Table III times the
//! per-request output-selection path, both as a function of the number of
//! users served by one edge device. The paper measures a Raspberry Pi 3
//! (340 s → 4,014 s for Table II, 90 ms → 1,377 ms for Table III between
//! 2,000 and 32,000 users); the reproduction target is the ~linear scaling
//! shape, not the absolute numbers.
//!
//! Both sweeps drive a [`SharedEdgeDevice`] from a worker pool: users are
//! index-sharded over the pool's threads and every user's randomness is
//! derived from `(seed, user index)`, so the device's candidate tables and
//! reported locations are bit-for-bit identical for any thread count —
//! only the wall-clock changes. [`Outcome::digest`] captures those
//! deterministic outputs for exactly that cross-thread-count check.

use std::time::Instant;

use privlocad::{SharedEdgeDevice, SystemConfig};
use privlocad_geo::rng::{fnv1a64_extend, FNV1A64_OFFSET};
use privlocad_geo::Point;
use privlocad_metrics::montecarlo::Fanout;
use privlocad_mobility::{PopulationConfig, UserId, SECONDS_PER_DAY};
use serde::{Deserialize, Serialize};

use crate::report::Table;

/// Configuration for the scalability experiments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// User counts to sweep (paper: 2,000 → 32,000 doubling).
    pub user_counts: Vec<usize>,
    /// Master seed.
    pub seed: u64,
    /// Worker threads driving the shared edge device (0 = auto). The
    /// measured wall-clock depends on this; the device outputs
    /// ([`Outcome::digest`]) do not.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            user_counts: vec![2_000, 4_000, 8_000, 16_000, 32_000],
            seed: 0,
            threads: 0,
        }
    }
}

/// One row: the wall-clock time to serve a user count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Number of users.
    pub users: usize,
    /// Wall-clock milliseconds.
    pub millis: f64,
}

/// Result of a scalability sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    /// Which paper table this reproduces ("II" or "III").
    pub table: &'static str,
    /// One row per user count.
    pub rows: Vec<Row>,
    /// FNV-1a digest of the device's deterministic outputs (candidate
    /// sets for Table II, reported locations for Table III). Identical
    /// for any [`Config::threads`] value — the timing rows are the only
    /// thread-count-dependent part of an outcome.
    pub digest: u64,
}

fn fnv1a_point(hash: u64, p: Point) -> u64 {
    let hash = fnv1a64_extend(hash, &p.x.to_bits().to_le_bytes());
    fnv1a64_extend(hash, &p.y.to_bits().to_le_bytes())
}

/// Table II: profile building + candidate generation for every user.
///
/// Dataset generation is excluded from the timing — the measured section
/// is exactly the edge's periodic batch job: ingest the window's
/// check-ins, rebuild the profile, obfuscate new top locations. The job
/// is driven by [`Config::threads`] workers, one user at a time per
/// worker, with per-user randomness derived from `(seed, user index)`.
pub fn run_table2(config: &Config) -> Outcome {
    let max_users = config.user_counts.iter().copied().max().unwrap_or(0);
    let population = PopulationConfig::builder()
        .num_users(max_users.max(1))
        .seed(config.seed)
        .build();
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let window_secs = sys.window_days() as i64 * SECONDS_PER_DAY;
    let fan = Fanout::with_threads(config.seed, config.threads);

    let mut digest = FNV1A64_OFFSET;
    let rows = config
        .user_counts
        .iter()
        .map(|&count| {
            let indices: Vec<u32> = (0..count as u32).collect();
            // Pre-generate each user's first-window check-ins (untimed).
            let windows: Vec<Vec<Point>> = fan.map(&indices, |_, &i| {
                population
                    .generate_user(i)
                    .checkins
                    .iter()
                    .filter(|c| c.time.seconds() < window_secs)
                    .map(|c| c.location)
                    .collect()
            });
            let edge = SharedEdgeDevice::new(sys, config.seed);
            let start = Instant::now();
            fan.map_seeded(&indices, |i, &u, rng| {
                let user = UserId::new(u);
                for &loc in &windows[i] {
                    edge.report_checkin(user, loc);
                }
                edge.finalize_window_with(user, rng)
            });
            let millis = start.elapsed().as_secs_f64() * 1_000.0;
            // Fold each user's candidate set into the determinism digest
            // (untimed; pure reads).
            let subs: Vec<u64> = fan.map(&indices, |i, &u| {
                let mut h = FNV1A64_OFFSET;
                if let Some(&first) = windows[i].first() {
                    if let Some(candidates) = edge.candidates(UserId::new(u), first) {
                        for c in candidates {
                            h = fnv1a_point(h, c);
                        }
                    }
                }
                h
            });
            for s in subs {
                digest = fnv1a64_extend(digest, &s.to_le_bytes());
            }
            Row { users: count, millis }
        })
        .collect();
    Outcome { table: "II", rows, digest }
}

/// Table III: one output-selection request per user.
///
/// Every user's profile and candidate table are prepared beforehand
/// (untimed); the measured section is `users` posterior selections issued
/// from the worker pool.
pub fn run_table3(config: &Config) -> Outcome {
    let max_users = config.user_counts.iter().copied().max().unwrap_or(0);
    let sys = SystemConfig::builder().build().expect("default config is valid");
    let fan = Fanout::with_threads(config.seed, config.threads);
    // Synthetic homes on a grid: profile content does not matter for the
    // selection path, only that candidates exist.
    let edge = SharedEdgeDevice::new(sys, config.seed);
    let homes: Vec<Point> = (0..max_users)
        .map(|i| Point::new((i % 1_000) as f64 * 1_000.0, (i / 1_000) as f64 * 1_000.0))
        .collect();
    fan.map_seeded(&homes, |i, &home, rng| {
        let user = UserId::new(i as u32);
        for _ in 0..8 {
            edge.report_checkin(user, home);
        }
        edge.finalize_window_with(user, rng)
    });

    // A distinct stream for the request phase so selections do not replay
    // the preparation draws.
    let request_fan = fan.reseeded(config.seed.wrapping_add(0x9e37_79b9));
    let mut digest = FNV1A64_OFFSET;
    let rows = config
        .user_counts
        .iter()
        .map(|&count| {
            let slice = &homes[..count];
            let start = Instant::now();
            let reports: Vec<Point> = request_fan.map_seeded(slice, |i, &home, rng| {
                edge.reported_location_with(UserId::new(i as u32), home, rng)
            });
            let millis = start.elapsed().as_secs_f64() * 1_000.0;
            for p in reports {
                digest = fnv1a_point(digest, p);
            }
            Row { users: count, millis }
        })
        .collect();
    Outcome { table: "III", rows, digest }
}

impl Outcome {
    /// Renders the paper-style summary table.
    pub fn table(&self) -> Table {
        let title = match self.table {
            "II" => "Table II — obfuscation processing time",
            _ => "Table III — output selection time",
        };
        let mut t = Table::new(title, &["users", "time (ms)"]);
        for r in &self.rows {
            t.push_row(vec![r.users.to_string(), format!("{:.1}", r.millis)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Config {
        Config { user_counts: vec![50, 200], seed: 1, threads: 0 }
    }

    #[test]
    fn table2_time_grows_with_users() {
        let out = run_table2(&small());
        assert_eq!(out.rows.len(), 2);
        assert!(out.rows[0].millis > 0.0);
        // 4× the users should take clearly more time (loose bound: ≥ 1.5×).
        assert!(
            out.rows[1].millis > out.rows[0].millis * 1.5,
            "{:?}",
            out.rows
        );
    }

    #[test]
    fn table3_time_grows_with_users() {
        let out = run_table3(&small());
        assert_eq!(out.rows.len(), 2);
        assert!(out.rows[0].millis > 0.0);
        assert!(out.rows[1].millis > out.rows[0].millis, "{:?}", out.rows);
    }

    #[test]
    fn digests_are_thread_count_invariant() {
        let digest2 = |threads| run_table2(&Config { threads, ..small() }).digest;
        let digest3 = |threads| run_table3(&Config { threads, ..small() }).digest;
        assert_eq!(digest2(1), digest2(2));
        assert_eq!(digest2(1), digest2(0));
        assert_eq!(digest3(1), digest3(2));
        assert_eq!(digest3(1), digest3(0));
    }

    #[test]
    fn outcome_tables_render() {
        let out2 = run_table2(&Config { user_counts: vec![20], seed: 0, threads: 1 });
        assert!(out2.table().render().contains("Table II"));
        let out3 = run_table3(&Config { user_counts: vec![20], seed: 0, threads: 1 });
        assert!(out3.table().render().contains("Table III"));
    }
}
