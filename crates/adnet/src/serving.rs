use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{CampaignId, DeviceId};

/// Converts a CPM amount to integer micro-units, `round(cpm × 1e6)` — the
/// same conversion the OpenRTB-lite wire applies to prices, so ledger spend
/// and wire totals agree to the micro. Non-finite or negative inputs
/// saturate (callers validate before converting).
pub(crate) fn to_micros(cpm: f64) -> u64 {
    (cpm * 1e6).round() as u64
}

/// Delivery constraints an advertiser attaches to a campaign (the
/// "serving frequency" and budget attributes of Fig. 1).
///
/// The budget is held in integer micro-units; [`ServingPolicy::with_budget`]
/// converts the CPM amount once.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServingPolicy {
    budget_micros: Option<u64>,
    frequency_cap: Option<u32>,
}

impl ServingPolicy {
    /// An unlimited policy (the default).
    pub fn unlimited() -> Self {
        ServingPolicy::default()
    }

    /// A policy with a total budget in clearing-price units.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is not positive and finite, or rounds to zero
    /// micro-units.
    pub fn with_budget(mut self, budget: f64) -> Self {
        assert!(budget.is_finite() && budget > 0.0, "budget must be positive and finite");
        let micros = to_micros(budget);
        assert!(micros > 0, "budget must be positive and finite (at least one micro)");
        self.budget_micros = Some(micros);
        self
    }

    /// A policy with a per-device frequency cap.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn with_frequency_cap(mut self, cap: u32) -> Self {
        assert!(cap > 0, "frequency cap must be at least 1");
        self.frequency_cap = Some(cap);
        self
    }

    /// The total budget in integer micro-units; `None` is unlimited.
    pub fn budget_micros(&self) -> Option<u64> {
        self.budget_micros
    }

    /// The maximum impressions per device; `None` is uncapped.
    pub fn frequency_cap(&self) -> Option<u32> {
        self.frequency_cap
    }
}

/// Mutable delivery state of one campaign under its policy.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServingState {
    spent_micros: u64,
    impressions: BTreeMap<u64, u32>,
}

impl ServingState {
    /// Total spend so far, in clearing-price units.
    pub fn spent(&self) -> f64 {
        self.spent_micros as f64 / 1e6
    }

    /// Total spend so far, in integer micro-units.
    pub fn spent_micros(&self) -> u64 {
        self.spent_micros
    }

    /// Impressions served to one device.
    pub fn impressions_for(&self, device: DeviceId) -> u32 {
        self.impressions.get(&device.raw()).copied().unwrap_or(0)
    }

    /// Total impressions across devices.
    pub fn total_impressions(&self) -> u32 {
        self.impressions.values().sum()
    }
}

/// Tracks policies and delivery state for a campaign inventory.
///
/// Each campaign id owns one dense *slot*: the id → slot map is consulted
/// once per id (at inventory build or policy change); the auction reads
/// and writes policies and state by slot index.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ServingLedger {
    slot_of: BTreeMap<u64, u32>,
    policies: Vec<ServingPolicy>,
    states: Vec<ServingState>,
}

impl ServingLedger {
    /// Creates an empty ledger (all campaigns unlimited).
    pub fn new() -> Self {
        ServingLedger::default()
    }

    /// The slot of `campaign`, allocated (unlimited, nothing spent) on
    /// first use.
    pub(crate) fn slot(&mut self, campaign: CampaignId) -> u32 {
        let next = self.states.len() as u32;
        let slot = *self.slot_of.entry(campaign.raw()).or_insert(next);
        if slot == next {
            self.policies.push(ServingPolicy::default());
            self.states.push(ServingState::default());
        }
        slot
    }

    /// Attaches a policy to a campaign (replacing any previous policy but
    /// keeping accumulated state).
    pub fn set_policy(&mut self, campaign: CampaignId, policy: ServingPolicy) {
        let slot = self.slot(campaign);
        self.policies[slot as usize] = policy;
    }

    /// The policy of a campaign (unlimited if never set).
    pub fn policy(&self, campaign: CampaignId) -> ServingPolicy {
        self.slot_of.get(&campaign.raw()).map_or_else(ServingPolicy::default, |&s| {
            self.policies[s as usize]
        })
    }

    /// The delivery state of a campaign.
    pub fn state(&self, campaign: CampaignId) -> ServingState {
        self.slot_of
            .get(&campaign.raw())
            .map_or_else(ServingState::default, |&s| self.states[s as usize].clone())
    }

    /// Whether the campaign may bid for another impression to `device`
    /// under its policy.
    ///
    /// Budget semantics follow RTB pacing practice: a campaign
    /// participates while *any* budget remains, so the final impression
    /// may overshoot slightly (the clearing price is unknown before the
    /// auction).
    pub fn eligible(&self, campaign: CampaignId, device: DeviceId) -> bool {
        self.slot_of
            .get(&campaign.raw())
            .is_none_or(|&s| self.budget_open(s) && !self.capped(s, device))
    }

    /// Whether the slot's budget (if any) still has room.
    pub(crate) fn budget_open(&self, slot: u32) -> bool {
        let slot = slot as usize;
        self.policies[slot].budget_micros.is_none_or(|b| self.states[slot].spent_micros < b)
    }

    /// Whether `device` has reached the slot's frequency cap (if any).
    pub(crate) fn capped(&self, slot: u32, device: DeviceId) -> bool {
        let slot = slot as usize;
        self.policies[slot]
            .frequency_cap
            .is_some_and(|cap| self.states[slot].impressions_for(device) >= cap)
    }

    /// Records a served impression at a clearing price in CPM units.
    pub fn record(&mut self, campaign: CampaignId, device: DeviceId, price: f64) {
        let slot = self.slot(campaign);
        self.record_slot(slot, device, to_micros(price));
    }

    /// Records a served impression by slot, returning whether the slot's
    /// budget is still open afterwards.
    pub(crate) fn record_slot(&mut self, slot: u32, device: DeviceId, price_micros: u64) -> bool {
        let state = &mut self.states[slot as usize];
        state.spent_micros = state.spent_micros.saturating_add(price_micros);
        *state.impressions.entry(device.raw()).or_insert(0) += 1;
        self.budget_open(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: CampaignId = CampaignId::new(1);
    const D: DeviceId = DeviceId::new(9);

    #[test]
    fn unlimited_policy_always_eligible() {
        let mut ledger = ServingLedger::new();
        for _ in 0..1_000 {
            assert!(ledger.eligible(C, D));
            ledger.record(C, D, 10.0);
        }
        assert_eq!(ledger.state(C).total_impressions(), 1_000);
        assert!((ledger.state(C).spent() - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn budget_exhausts() {
        let mut ledger = ServingLedger::new();
        ledger.set_policy(C, ServingPolicy::unlimited().with_budget(25.0));
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 10.0);
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 10.0);
        // 20 spent < 25: still eligible (pacing may overshoot once).
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 10.0);
        // 30 spent ≥ 25: out of the market.
        assert!(!ledger.eligible(C, D));
    }

    #[test]
    fn frequency_cap_is_per_device() {
        let mut ledger = ServingLedger::new();
        ledger.set_policy(C, ServingPolicy::unlimited().with_frequency_cap(2));
        let other = DeviceId::new(77);
        ledger.record(C, D, 1.0);
        ledger.record(C, D, 1.0);
        assert!(!ledger.eligible(C, D));
        assert!(ledger.eligible(C, other));
        assert_eq!(ledger.state(C).impressions_for(D), 2);
        assert_eq!(ledger.state(C).impressions_for(other), 0);
    }

    #[test]
    fn policy_replacement_keeps_state() {
        let mut ledger = ServingLedger::new();
        ledger.record(C, D, 30.0);
        ledger.set_policy(C, ServingPolicy::unlimited().with_budget(40.0));
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 15.0); // 45 ≥ 40
        assert!(!ledger.eligible(C, D));
    }

    #[test]
    fn combined_constraints() {
        let mut ledger = ServingLedger::new();
        ledger.set_policy(
            C,
            ServingPolicy::unlimited().with_budget(100.0).with_frequency_cap(1),
        );
        assert!(ledger.eligible(C, D));
        ledger.record(C, D, 1.0);
        assert!(!ledger.eligible(C, D), "capped even with budget left");
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn rejects_bad_budget() {
        let _ = ServingPolicy::unlimited().with_budget(0.0);
    }

    #[test]
    #[should_panic(expected = "frequency cap")]
    fn rejects_zero_cap() {
        let _ = ServingPolicy::unlimited().with_frequency_cap(0);
    }
}
