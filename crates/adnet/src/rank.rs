//! The auction kernel: the inventory in the auction's own rank order, held
//! as contiguous per-field lanes.
//!
//! Campaigns are sorted once — bid descending, then id ascending, stable
//! over registration order — which is exactly the order the second-price
//! auction ranks eligible bidders in. Filtering a stably sorted sequence
//! keeps it sorted, so the first two eligible campaigns met on a walk in
//! rank order *are* the top two of the sorted eligible set: the walk stops
//! at the second hit, and no request sorts anything (DESIGN.md §18).

use privlocad_geo::Point;

use crate::serving::ServingLedger;
use crate::{Campaign, DeviceId, Targeting};

/// How a lane matches: geometrically through the `cx`/`cy`/`r2` lanes, or
/// by an area/country id.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Radius,
    Area(u32),
    Country(u16),
}

/// One auction's outcome as lane indices: the winner, and the lane whose
/// bid sets the clearing price (the runner-up, or the winner itself when
/// it was the only eligible bidder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Top2 {
    pub winner: usize,
    pub price: usize,
}

/// The rank-ordered inventory. Derived state: a pure function of the
/// campaign list and the ledger, rebuilt rather than persisted.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RankLanes {
    cx: Vec<f64>,
    cy: Vec<f64>,
    r2: Vec<f64>,
    kind: Vec<Kind>,
    /// Cleared the moment the lane's ledger slot exhausts its budget.
    open: Vec<bool>,
    slot: Vec<u32>,
    /// Index of the lane's campaign in registration order.
    campaign: Vec<u32>,
    /// Lane indices ordered by ledger slot, so a slot's lanes are one run.
    by_slot: Vec<u32>,
}

impl RankLanes {
    /// Ranks `campaigns`, allocating a ledger slot for every campaign id.
    pub(crate) fn build(campaigns: &[Campaign], ledger: &mut ServingLedger) -> Self {
        let mut order: Vec<usize> = (0..campaigns.len()).collect();
        // `sort_by` is stable: equal (bid, id) keys keep registration order.
        order.sort_by(|&a, &b| {
            let (a, b) = (&campaigns[a], &campaigns[b]);
            b.bid_cpm().total_cmp(&a.bid_cpm()).then(a.id().cmp(&b.id()))
        });
        let mut lanes = RankLanes::default();
        for i in order {
            let c = &campaigns[i];
            let (kind, x, y, r2) = match c.targeting() {
                Targeting::Radius { center, radius_m } => {
                    (Kind::Radius, center.x, center.y, radius_m * radius_m)
                }
                Targeting::Area(area) => (Kind::Area(area), 0.0, 0.0, 0.0),
                Targeting::Country(country) => (Kind::Country(country), 0.0, 0.0, 0.0),
            };
            let slot = ledger.slot(c.id());
            lanes.cx.push(x);
            lanes.cy.push(y);
            lanes.r2.push(r2);
            lanes.kind.push(kind);
            lanes.open.push(ledger.budget_open(slot));
            lanes.slot.push(slot);
            lanes.campaign.push(i as u32);
        }
        lanes.by_slot = (0..lanes.slot.len() as u32).collect();
        lanes.by_slot.sort_by_key(|&lane| lanes.slot[lane as usize]);
        lanes
    }

    /// The first two eligible campaigns in rank order for a request at
    /// `at` from `device`. A lane is eligible when its budget is open, its
    /// targeting matches — radius lanes with exactly
    /// `Targeting::matches`' float expression — and `device` is under its
    /// frequency cap; the cap is only looked up for targeting hits.
    pub(crate) fn top2(
        &self,
        at: Point,
        area: u32,
        country: u16,
        ledger: &ServingLedger,
        device: DeviceId,
    ) -> Option<Top2> {
        let n = self.open.len();
        let (open, kind, slot) = (&self.open[..n], &self.kind[..n], &self.slot[..n]);
        let (cx, cy, r2) = (&self.cx[..n], &self.cy[..n], &self.r2[..n]);
        let mut winner = None;
        for lane in 0..n {
            if !open[lane] {
                continue;
            }
            let hit = match kind[lane] {
                Kind::Radius => {
                    let dx = cx[lane] - at.x;
                    let dy = cy[lane] - at.y;
                    dx * dx + dy * dy <= r2[lane]
                }
                Kind::Area(a) => a == area,
                Kind::Country(c) => c == country,
            };
            if !hit || ledger.capped(slot[lane], device) {
                continue;
            }
            match winner {
                None => winner = Some(lane),
                Some(winner) => return Some(Top2 { winner, price: lane }),
            }
        }
        winner.map(|winner| Top2 { winner, price: winner })
    }

    /// Opens or closes every lane of ledger slot `slot` (a slot the lanes
    /// do not know owns no lanes).
    pub(crate) fn set_open(&mut self, slot: u32, is_open: bool) {
        let from = self.by_slot.partition_point(|&lane| self.slot[lane as usize] < slot);
        for &lane in &self.by_slot[from..] {
            if self.slot[lane as usize] != slot {
                break;
            }
            self.open[lane as usize] = is_open;
        }
    }

    /// The registration-order campaign index of `lane`.
    pub(crate) fn campaign(&self, lane: usize) -> usize {
        self.campaign[lane] as usize
    }

    /// The ledger slot of `lane`.
    pub(crate) fn slot(&self, lane: usize) -> u32 {
        self.slot[lane]
    }
}
