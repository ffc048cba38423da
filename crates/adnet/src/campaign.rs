use privlocad_geo::{Circle, Point};
use serde::{Deserialize, Serialize};

use crate::AdError;

/// Campaign identifier.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CampaignId(u64);

impl CampaignId {
    /// Creates a campaign id.
    pub const fn new(id: u64) -> Self {
        CampaignId(id)
    }

    /// The raw numeric id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for CampaignId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign-{}", self.0)
    }
}

impl From<u64> for CampaignId {
    fn from(id: u64) -> Self {
        CampaignId(id)
    }
}

/// Geo-targeting of a campaign (Section II-A's three categories).
///
/// The paper's mechanisms and evaluation focus on radius targeting — the
/// most privacy-sensitive category — but the substrate models all three so
/// a mixed inventory behaves like a real platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Targeting {
    /// Show ads to users within `radius_m` of the business location.
    Radius {
        /// The advertiser's business location.
        center: Point,
        /// The targeting radius in meters.
        radius_m: f64,
    },
    /// Administrative-area targeting, matched by an opaque area id carried
    /// on the request side (cities/districts are out of scope of the
    /// geometry; the id stands in for a polygon lookup).
    Area(u32),
    /// Whole-country targeting.
    Country(u16),
}

impl Targeting {
    /// Creates validated radius targeting.
    ///
    /// # Errors
    ///
    /// Returns [`AdError::InvalidRadius`] for a non-positive or non-finite
    /// radius, or [`AdError::NonFiniteLocation`] for a non-finite center.
    pub fn radius(center: Point, radius_m: f64) -> Result<Self, AdError> {
        if !radius_m.is_finite() || radius_m <= 0.0 {
            return Err(AdError::InvalidRadius(radius_m));
        }
        if !center.is_finite() {
            return Err(AdError::NonFiniteLocation);
        }
        Ok(Targeting::Radius { center, radius_m })
    }

    /// Whether a user reporting `location` (and, for non-geometric
    /// targeting, `area`/`country` identifiers) matches this targeting.
    pub fn matches(&self, location: Point, area: u32, country: u16) -> bool {
        match *self {
            Targeting::Radius { center, radius_m } => {
                center.distance_sq(location) <= radius_m * radius_m
            }
            Targeting::Area(a) => a == area,
            Targeting::Country(c) => c == country,
        }
    }

    /// The targeting disc for radius campaigns, `None` otherwise.
    pub fn as_circle(&self) -> Option<Circle> {
        match *self {
            Targeting::Radius { center, radius_m } => {
                Some(Circle::new(center, radius_m).expect("validated at construction"))
            }
            _ => None,
        }
    }
}

/// An advertiser's campaign: targeting plus a fixed CPM bid (held both as
/// the CPM float the auction ranks by and as integer micro-units the ledger
/// charges).
///
/// # Examples
///
/// ```
/// use privlocad_adnet::{Campaign, Targeting};
/// use privlocad_geo::Point;
///
/// let c = Campaign::new(7, "noodle bar", Targeting::radius(Point::ORIGIN, 1_000.0)?, 3.2)?;
/// assert!(c.matches(Point::new(500.0, 0.0), 0, 0));
/// assert!(!c.matches(Point::new(2_000.0, 0.0), 0, 0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    id: CampaignId,
    name: String,
    targeting: Targeting,
    bid_cpm: f64,
    bid_micros: u64,
}

impl Campaign {
    /// Creates a campaign.
    ///
    /// # Errors
    ///
    /// Returns [`AdError::InvalidBid`] for a non-positive or non-finite bid.
    pub fn new(
        id: impl Into<CampaignId>,
        name: impl Into<String>,
        targeting: Targeting,
        bid_cpm: f64,
    ) -> Result<Self, AdError> {
        if !bid_cpm.is_finite() || bid_cpm <= 0.0 {
            return Err(AdError::InvalidBid(bid_cpm));
        }
        let bid_micros = crate::serving::to_micros(bid_cpm);
        Ok(Campaign { id: id.into(), name: name.into(), targeting, bid_cpm, bid_micros })
    }

    /// The campaign id.
    pub fn id(&self) -> CampaignId {
        self.id
    }

    /// The campaign's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The campaign's geo-targeting.
    pub fn targeting(&self) -> Targeting {
        self.targeting
    }

    /// The fixed CPM bid price.
    pub fn bid_cpm(&self) -> f64 {
        self.bid_cpm
    }

    /// The bid in integer micro-units, `round(bid_cpm × 1e6)` — what a win
    /// at this price charges the ledger and puts on the wire.
    pub fn bid_micros(&self) -> u64 {
        self.bid_micros
    }

    /// The business location for radius campaigns (where the delivered ad
    /// "is"), `None` for area/country campaigns.
    pub fn business_location(&self) -> Option<Point> {
        match self.targeting {
            Targeting::Radius { center, .. } => Some(center),
            _ => None,
        }
    }

    /// Whether a request at `location` (with the given area/country ids)
    /// matches this campaign's targeting.
    pub fn matches(&self, location: Point, area: u32, country: u16) -> bool {
        self.targeting.matches(location, area, country)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radius_targeting_validation() {
        assert!(Targeting::radius(Point::ORIGIN, 0.0).is_err());
        assert!(Targeting::radius(Point::ORIGIN, f64::NAN).is_err());
        assert!(Targeting::radius(Point::new(f64::NAN, 0.0), 10.0).is_err());
        assert!(Targeting::radius(Point::ORIGIN, 500.0).is_ok());
    }

    #[test]
    fn radius_matching_is_inclusive() {
        let t = Targeting::radius(Point::ORIGIN, 100.0).unwrap();
        assert!(t.matches(Point::new(100.0, 0.0), 0, 0));
        assert!(!t.matches(Point::new(100.1, 0.0), 0, 0));
    }

    #[test]
    fn area_and_country_matching() {
        let area = Targeting::Area(31);
        assert!(area.matches(Point::ORIGIN, 31, 0));
        assert!(!area.matches(Point::ORIGIN, 30, 0));
        let country = Targeting::Country(86);
        assert!(country.matches(Point::ORIGIN, 0, 86));
        assert!(!country.matches(Point::ORIGIN, 0, 1));
    }

    #[test]
    fn as_circle_only_for_radius() {
        let t = Targeting::radius(Point::new(1.0, 2.0), 500.0).unwrap();
        let c = t.as_circle().unwrap();
        assert_eq!(c.center(), Point::new(1.0, 2.0));
        assert_eq!(c.radius(), 500.0);
        assert!(Targeting::Area(1).as_circle().is_none());
        assert!(Targeting::Country(1).as_circle().is_none());
    }

    #[test]
    fn campaign_accessors() {
        let t = Targeting::radius(Point::new(10.0, 20.0), 800.0).unwrap();
        let c = Campaign::new(3u64, "bakery", t, 1.5).unwrap();
        assert_eq!(c.id(), CampaignId::new(3));
        assert_eq!(c.id().to_string(), "campaign-3");
        assert_eq!(c.name(), "bakery");
        assert_eq!(c.bid_cpm(), 1.5);
        assert_eq!(c.bid_micros(), 1_500_000);
        assert_eq!(c.business_location(), Some(Point::new(10.0, 20.0)));
        assert_eq!(c.targeting(), t);
    }

    #[test]
    fn campaign_rejects_bad_bid() {
        let t = Targeting::radius(Point::ORIGIN, 100.0).unwrap();
        assert!(matches!(Campaign::new(1u64, "x", t, 0.0), Err(AdError::InvalidBid(_))));
        assert!(Campaign::new(1u64, "x", t, f64::INFINITY).is_err());
    }

    #[test]
    fn non_radius_campaign_has_no_business_location() {
        let c = Campaign::new(1u64, "nationwide", Targeting::Country(86), 2.0).unwrap();
        assert_eq!(c.business_location(), None);
    }
}
