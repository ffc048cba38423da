//! The closed loop: client threads take users from a seeded shuffled order
//! and send each user's operations one at a time, each waiting for its
//! answer before the next.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use privlocad_mobility::UserId;

use crate::front::{Fleet, Served};
use crate::inputs::{Op, Script};
use crate::spans::{Layer, Span, Spans};
use crate::stats::{quantile_u32, steal_ticks};

/// Index of an operation kind in per-kind arrays.
pub const CHECKIN: usize = 0;
pub const REQUEST: usize = 1;
pub const CLOSE: usize = 2;

pub fn kind(op: &Op) -> usize {
    match op {
        Op::CheckIn { .. } => CHECKIN,
        Op::Request { .. } => REQUEST,
        Op::Close => CLOSE,
    }
}

/// Per-user ordinals of each operation kind sent so far: the `seq` half of
/// a span key.
pub type Ordinals = Vec<[u32; 3]>;

/// Advances every user's ordinals past one pass over `script`.
pub fn advance(ordinals: &mut Ordinals, script: &Script) {
    for (counts, ops) in ordinals.iter_mut().zip(script) {
        for op in ops {
            counts[kind(op)] += 1;
        }
    }
}

/// Length of the time slices a phase's timings are cut into, and how often
/// host steal time is sampled meanwhile.
const SLICE: Duration = Duration::from_millis(50);
const STEAL_SAMPLE: Duration = Duration::from_millis(5);

/// One slice of closed-loop time; an operation belongs to the slice it was
/// sent in.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops_per_s: f64,
    pub ads_per_s: f64,
    pub ads: u64,
    pub ad_p50_ns: f64,
    pub ad_p99_ns: f64,
    /// NaN when no window close was sent in the slice.
    pub close_p50_ns: f64,
    /// Host steal time over the slice, in clock ticks.
    pub steal: u64,
}

/// What a stretch of closed-loop serving observed.
#[derive(Debug, Default)]
pub struct Log {
    /// Round-trip times per kind, in ns.
    pub rtt: [Vec<u32>; 3],
    pub slices: Vec<Slice>,
    pub attempted: u64,
    pub failed: u64,
    /// Ad requests answered with a freshly released location.
    pub released: u64,
    /// Window closes that installed no candidate set.
    pub empty_closes: u64,
    pub first_error: Option<String>,
}

impl Log {
    pub fn absorb(&mut self, other: Log) {
        for k in 0..3 {
            self.rtt[k].extend(other.rtt[k].iter());
        }
        self.slices.extend(other.slices);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.released += other.released;
        self.empty_closes += other.empty_closes;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// What each client thread hands back: its log, its events and its spans.
type ClientOutcome = (Log, Vec<Event>, Vec<Span>);

/// One operation as a client saw it: sent `sent_ns` after the phase
/// started, answered `rtt_ns` later.
#[derive(Debug, Clone, Copy)]
struct Event {
    sent_ns: u64,
    rtt_ns: u32,
    kind: u8,
    ok: bool,
}

/// Host steal ticks sampled through a phase, as `(ns since start, ticks)`.
struct StealSeries(Vec<(u64, u64)>);

impl StealSeries {
    /// Steal over `[from, to]` ns, widened to the enclosing samples.
    fn between(&self, from: u64, to: u64) -> u64 {
        let before = self
            .0
            .iter()
            .rev()
            .find(|(t, _)| *t <= from)
            .map_or(self.0[0].1, |s| s.1);
        let after = self
            .0
            .iter()
            .find(|(t, _)| *t >= to)
            .map_or(self.0[self.0.len() - 1].1, |s| s.1);
        after.saturating_sub(before)
    }
}

/// Cuts a phase's operations into slices by send time. A slice's rates are
/// operations sent per second between its first and last send.
fn slices(events: &[Event], busy_ns: u64, steal: &StealSeries) -> Vec<Slice> {
    let width = SLICE.as_nanos() as u64;
    let count = busy_ns.div_ceil(width).max(1) as usize;
    let mut sent: Vec<Vec<&Event>> = vec![Vec::new(); count];
    for event in events.iter().filter(|e| e.ok) {
        sent[((event.sent_ns / width) as usize).min(count - 1)].push(event);
    }
    sent.iter()
        .enumerate()
        .filter_map(|(i, events)| {
            let first = events.iter().map(|e| e.sent_ns).min()?;
            let last = events.iter().map(|e| e.sent_ns).max()?;
            // A sliver at the end of a phase is too short to time anything.
            if last - first < width / 4 {
                return None;
            }
            let rtts = |kind: usize| -> Vec<u32> {
                events
                    .iter()
                    .filter(|e| usize::from(e.kind) == kind)
                    .map(|e| e.rtt_ns)
                    .collect()
            };
            let (ads, closes) = (rtts(REQUEST), rtts(CLOSE));
            let ops_per_s = (events.len() - 1) as f64 / ((last - first) as f64 / 1e9);
            let from = i as u64 * width;
            Some(Slice {
                ops_per_s,
                ads_per_s: ops_per_s * ads.len() as f64 / events.len() as f64,
                ads: ads.len() as u64,
                ad_p50_ns: quantile_u32(&ads, 0.50),
                ad_p99_ns: quantile_u32(&ads, 0.99),
                close_p50_ns: quantile_u32(&closes, 0.50),
                steal: steal.between(from, (from + width).min(busy_ns)),
            })
        })
        .collect()
}

/// Serves one phase: every user in `order` sends its whole `script` list.
/// `spans` records one span per operation when the run is traced.
pub fn phase(
    fleet: &Fleet,
    script: &Script,
    order: &[u32],
    ordinals: &Ordinals,
    clients: usize,
    mut spans: Option<&mut Spans>,
) -> Log {
    let cursor = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let epoch = spans.as_ref().map(|s| s.epoch());
    let started = Instant::now();
    let since_start = move |at: Instant| at.duration_since(started).as_nanos() as u64;
    let (outcomes, steal): (Vec<ClientOutcome>, StealSeries) = std::thread::scope(|scope| {
        let monitor = scope.spawn(|| {
            let mut series = vec![(0, steal_ticks())];
            while !done.load(Ordering::SeqCst) {
                std::thread::park_timeout(STEAL_SAMPLE);
                series.push((since_start(Instant::now()), steal_ticks()));
            }
            StealSeries(series)
        });
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut log = Log::default();
                    let mut events = Vec::new();
                    let mut local = epoch.map(Spans::new);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&u) = order.get(i) else { break };
                        let user = UserId::new(u);
                        let mut seq = ordinals[u as usize];
                        for op in &script[u as usize] {
                            let k = kind(op);
                            let sent = Instant::now();
                            let outcome = fleet.serve(user, *op);
                            let rtt = sent.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
                            if let Some(local) = local.as_mut() {
                                local.close(FLEET_LAYERS[k], u, seq[k], sent);
                            }
                            seq[k] += 1;
                            log.attempted += 1;
                            log.rtt[k].push(rtt);
                            let ok = match outcome {
                                Ok(Served::Released(_)) => {
                                    log.released += 1;
                                    true
                                }
                                Ok(Served::Closed(fresh)) => {
                                    if fresh == 0 {
                                        log.empty_closes += 1;
                                    }
                                    true
                                }
                                Ok(Served::Ack) => true,
                                Ok(Served::Degraded) => {
                                    log.first_error.get_or_insert_with(|| {
                                        format!("user {u}: degraded answer")
                                    });
                                    false
                                }
                                Err(e) => {
                                    log.first_error
                                        .get_or_insert_with(|| format!("user {u}: {e}"));
                                    false
                                }
                            };
                            if !ok {
                                log.failed += 1;
                            }
                            events.push(Event {
                                sent_ns: since_start(sent),
                                rtt_ns: rtt,
                                kind: k as u8,
                                ok,
                            });
                        }
                    }
                    (log, events, local.map(|s| s.spans).unwrap_or_default())
                })
            })
            .collect();
        let outcomes = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        done.store(true, Ordering::SeqCst);
        monitor.thread().unpark();
        (outcomes, monitor.join().expect("steal monitor"))
    });
    let busy_ns = since_start(Instant::now());
    let mut log = Log::default();
    let mut events = Vec::new();
    for (client, client_events, client_spans) in outcomes {
        log.absorb(client);
        events.extend(client_events);
        if let Some(spans) = spans.as_mut() {
            spans.absorb(client_spans);
        }
    }
    log.slices = slices(&events, busy_ns, &steal);
    log
}

const FLEET_LAYERS: [Layer; 3] = [Layer::FleetCheckIn, Layer::FleetRequest, Layer::FleetClose];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_the_slice_they_were_sent_in() {
        let width = SLICE.as_nanos() as u64;
        let event = |sent_ns, rtt_ns, kind: usize| Event {
            sent_ns,
            rtt_ns,
            kind: kind as u8,
            ok: true,
        };
        let events = [
            event(0, 100, REQUEST),
            event(width / 2, 300, REQUEST),
            event(width - 1, 200, CHECKIN),
            event(width + 5, 900, CLOSE),
            event(width + width / 2 + 5, 50, CHECKIN),
            // A sliver: one operation, no span to time.
            event(2 * width + 1, 70, REQUEST),
        ];
        let steal = StealSeries(vec![(0, 7), (width, 7), (2 * width, 9), (3 * width, 9)]);
        let cut = slices(&events, 2 * width + 2, &steal);
        assert_eq!(cut.len(), 2);
        assert_eq!((cut[0].ads, cut[0].steal), (2, 0));
        assert_eq!((cut[1].ads, cut[1].steal), (0, 2));
        assert!((cut[0].ops_per_s - 2.0 / ((width - 1) as f64 / 1e9)).abs() < 1e-6);
        assert!((cut[0].ads_per_s - cut[0].ops_per_s * 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(cut[0].ad_p99_ns, 300.0);
        assert_eq!(cut[1].close_p50_ns, 900.0);
        assert!(cut[0].close_p50_ns.is_nan());
    }
}
