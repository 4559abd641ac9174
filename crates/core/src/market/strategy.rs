//! Bid-generation algorithms (§5.2).
//!
//! Each Compute Server runs one of these to answer a request-for-bids with a
//! price *multiplier* (or decline). The paper implements two concrete
//! strategies, both reproduced here verbatim:
//!
//! * [`Baseline`] — *"a baseline strategy that always returns a multiplier
//!   of 1.0 if it can run the job."*
//! * [`UtilizationInterpolated`] — *"returns a multiplier linearly
//!   interpolated between k(1−α) and k(1+β) depending on what the average
//!   system utilization is likely to be between the current time and the
//!   deadline of the proposed job"*, with the paper's current values
//!   k = 1, α = 0.5, β = 2.0.
//!
//! [`DeadlineAware`] realizes the paper's motivating example (*"a simple
//! strategy may be to set a low bid if the job's deadline is in the very
//! near future and the machine is relatively free"*), and
//! [`WeatherAware`] the future-work strategy that consults grid-wide price
//! history through the Faucets support services of §5.2.1.

use crate::bid::BidRequest;
use crate::money::Money;
use faucets_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;

/// A snapshot of the local Compute Server the bidding algorithm can see.
pub struct ClusterView<'a> {
    /// Total processors in the machine.
    pub total_pes: u32,
    /// Processors currently idle.
    pub free_pes: u32,
    /// Normalized cost: dollars per CPU-second of this machine.
    pub normalized_cost: Money,
    /// Useful FLOP/s per processor (for machine-independent work specs).
    pub flops_per_pe_sec: f64,
    /// Predicted average utilization of the machine between now and the
    /// proposed job's deadline, in [0, 1] — the quantity the paper's
    /// interpolated strategy keys on. Computed on first read.
    pub predicted_utilization: Forecast<'a>,
    /// The current time.
    pub now: SimTime,
}

impl ClusterView<'_> {
    /// Fraction of the machine currently idle.
    pub fn free_fraction(&self) -> f64 {
        if self.total_pes == 0 {
            0.0
        } else {
            self.free_pes as f64 / self.total_pes as f64
        }
    }
}

/// A number computed on its first read and kept: a strategy that never
/// reads the predicted utilization never pays for the scheduler's Gantt
/// profile, and strategies that wrap one another pay for it once.
pub struct Forecast<'a>(OnceCell<f64>, Option<&'a dyn Fn() -> f64>);

impl<'a> Forecast<'a> {
    /// A forecast that `compute` makes when first read.
    pub fn lazy(compute: &'a dyn Fn() -> f64) -> Self {
        Forecast(OnceCell::new(), Some(compute))
    }

    /// A forecast already known to be `value`.
    pub fn known(value: f64) -> Self {
        Forecast(OnceCell::from(value), None)
    }

    /// The forecast value.
    pub fn get(&self) -> f64 {
        *self.0.get_or_init(|| self.1.map_or(0.0, |f| f()))
    }
}

/// Grid-wide information provided by the Faucets system to bid generators
/// (§5.2.1): contract history summaries and grid "weather".
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MarketInfo {
    /// Average multiplier of recent contracts across the grid, if known.
    pub recent_avg_multiplier: Option<f64>,
    /// Estimated grid-wide utilization over the bid's horizon, if known.
    pub grid_utilization: Option<f64>,
}

/// A bid-generation algorithm. Returns the multiplier, or `None` to decline
/// on pricing grounds. (Feasibility — can the job run at all, can the
/// deadline be met — is checked by the scheduler before the strategy is
/// consulted; see `faucets-sched`.)
///
/// §5.3: *"We plan to publish a generic interface for the bid-generation
/// algorithm, allowing other researchers to test their bid generation
/// algorithms against each other."* — this trait is that interface.
pub trait BidStrategy: Send {
    /// Short identifier for reports.
    fn name(&self) -> &'static str;
    /// Produce a price multiplier for `req` given local and grid state.
    fn multiplier(&self, req: &BidRequest, view: &ClusterView, market: &MarketInfo) -> Option<f64>;
}

/// The paper's baseline: multiplier 1.0, always.
#[derive(Debug, Clone, Copy, Default)]
pub struct Baseline;

impl BidStrategy for Baseline {
    fn name(&self) -> &'static str {
        "baseline"
    }
    fn multiplier(
        &self,
        _req: &BidRequest,
        _view: &ClusterView,
        _market: &MarketInfo,
    ) -> Option<f64> {
        Some(1.0)
    }
}

/// The paper's utilization-interpolated strategy: multiplier between
/// `k(1-alpha)` (machine expected idle) and `k(1+beta)` (machine expected
/// saturated), linear in the predicted utilization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationInterpolated {
    /// Urgency-of-the-job-for-the-cluster factor.
    pub k: f64,
    /// Discount depth when idle; the server's appetite for winning work.
    pub alpha: f64,
    /// Premium height when busy; the server's risk appetite.
    pub beta: f64,
}

impl Default for UtilizationInterpolated {
    /// The paper's current values: k = 1, α = 0.5, β = 2.0.
    fn default() -> Self {
        UtilizationInterpolated {
            k: 1.0,
            alpha: 0.5,
            beta: 2.0,
        }
    }
}

impl BidStrategy for UtilizationInterpolated {
    fn name(&self) -> &'static str {
        "util-interp"
    }
    fn multiplier(
        &self,
        _req: &BidRequest,
        view: &ClusterView,
        _market: &MarketInfo,
    ) -> Option<f64> {
        let u = view.predicted_utilization.get().clamp(0.0, 1.0);
        let lo = self.k * (1.0 - self.alpha);
        let hi = self.k * (1.0 + self.beta);
        Some(lo + u * (hi - lo))
    }
}

/// The paper's motivating example strategy: behave like
/// [`UtilizationInterpolated`], but when the job's deadline is very near and
/// the machine is relatively free, drop `k` (the job is urgent *for the
/// cluster* — win it now or never).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeadlineAware {
    /// The underlying interpolation.
    pub base: UtilizationInterpolated,
    /// "Very near future" horizon (paper's example: the next hour).
    pub near_horizon: SimDuration,
    /// Free fraction above which the machine counts as "relatively free".
    pub free_threshold: f64,
    /// Factor applied to `k` for near-deadline jobs on a free machine (< 1).
    pub urgency_discount: f64,
}

impl Default for DeadlineAware {
    fn default() -> Self {
        DeadlineAware {
            base: UtilizationInterpolated::default(),
            near_horizon: SimDuration::from_hours(1),
            free_threshold: 0.5,
            urgency_discount: 0.6,
        }
    }
}

impl BidStrategy for DeadlineAware {
    fn name(&self) -> &'static str {
        "deadline-aware"
    }
    fn multiplier(&self, req: &BidRequest, view: &ClusterView, market: &MarketInfo) -> Option<f64> {
        let deadline_near = req.qos.deadline() <= view.now.saturating_add(self.near_horizon);
        let mut strat = self.base;
        if deadline_near && view.free_fraction() >= self.free_threshold {
            strat.k *= self.urgency_discount;
        }
        strat.multiplier(req, view, market)
    }
}

/// The §5.2.1 future-work strategy: blend the local utilization-driven price
/// with the grid-wide recent average multiplier and shade by grid-wide
/// utilization ("how busy is the entire computational grid likely to be
/// during the period covered by the deadline?").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeatherAware {
    /// The local pricing component.
    pub base: UtilizationInterpolated,
    /// Weight on the market signal in [0, 1] (0 = ignore the weather).
    pub market_weight: f64,
}

impl Default for WeatherAware {
    fn default() -> Self {
        WeatherAware {
            base: UtilizationInterpolated::default(),
            market_weight: 0.5,
        }
    }
}

impl BidStrategy for WeatherAware {
    fn name(&self) -> &'static str {
        "weather-aware"
    }
    fn multiplier(&self, req: &BidRequest, view: &ClusterView, market: &MarketInfo) -> Option<f64> {
        let local = self.base.multiplier(req, view, market)?;
        let mut m = local;
        if let Some(avg) = market.recent_avg_multiplier {
            // Move toward the market's clearing level: underbid a hot
            // market slightly, avoid racing an idle market to the bottom.
            m = (1.0 - self.market_weight) * local + self.market_weight * avg;
        }
        if let Some(gu) = market.grid_utilization {
            // A busy grid supports higher prices everywhere.
            m *= 0.8 + 0.4 * gu.clamp(0.0, 1.0);
        }
        Some(m)
    }
}

/// Look up a bid strategy by name: `baseline`, `util-interp` (optionally
/// `util-interp:<k>,<alpha>,<beta>`), `deadline-aware`, `weather-aware`, or
/// `fixed:<multiplier>` — the published-interface registry promised in §5.3.
///
/// # Panics
/// Panics on unknown names or malformed parameters (experiment
/// configurations are static).
pub fn by_name(name: &str) -> Box<dyn BidStrategy> {
    if let Some(m) = name.strip_prefix("fixed:") {
        return Box::new(Fixed(
            m.parse().expect("fixed:<multiplier> must be a number"),
        ));
    }
    if let Some(params) = name.strip_prefix("util-interp:") {
        let parts: Vec<f64> = params
            .split(',')
            .map(|p| p.trim().parse().expect("util-interp:<k>,<alpha>,<beta>"))
            .collect();
        assert_eq!(parts.len(), 3, "util-interp takes exactly k,alpha,beta");
        return Box::new(UtilizationInterpolated {
            k: parts[0],
            alpha: parts[1],
            beta: parts[2],
        });
    }
    match name {
        "baseline" => Box::new(Baseline),
        "util-interp" => Box::new(UtilizationInterpolated::default()),
        "deadline-aware" => Box::new(DeadlineAware::default()),
        "weather-aware" => Box::new(WeatherAware::default()),
        other => panic!("unknown bid strategy '{other}'"),
    }
}

/// A fixed-multiplier strategy, useful as an experimental control.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fixed(pub f64);

impl BidStrategy for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn multiplier(
        &self,
        _req: &BidRequest,
        _view: &ClusterView,
        _market: &MarketInfo,
    ) -> Option<f64> {
        Some(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{JobId, UserId};
    use crate::qos::{PayoffFn, QosBuilder};

    fn req(deadline_secs: u64) -> BidRequest {
        let qos = QosBuilder::new("app", 1, 8, 100.0)
            .payoff(PayoffFn::hard_only(
                SimTime::from_secs(deadline_secs),
                Money::from_units(10),
                Money::ZERO,
            ))
            .build()
            .unwrap();
        BidRequest {
            job: JobId(0),
            user: UserId(0),
            qos,
            issued_at: SimTime::ZERO,
        }
    }

    fn view(free: u32, util: f64) -> ClusterView<'static> {
        ClusterView {
            total_pes: 100,
            free_pes: free,
            normalized_cost: Money::from_units_f64(0.01),
            flops_per_pe_sec: 1.0,
            predicted_utilization: Forecast::known(util),
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn baseline_always_one() {
        let s = Baseline;
        assert_eq!(
            s.multiplier(&req(10), &view(0, 1.0), &MarketInfo::default()),
            Some(1.0)
        );
        assert_eq!(
            s.multiplier(&req(10), &view(100, 0.0), &MarketInfo::default()),
            Some(1.0)
        );
    }

    #[test]
    fn interpolated_matches_paper_endpoints() {
        // Paper defaults: k=1, α=0.5, β=2 → range [0.5, 3.0].
        let s = UtilizationInterpolated::default();
        let m = MarketInfo::default();
        assert_eq!(s.multiplier(&req(10), &view(100, 0.0), &m), Some(0.5));
        assert_eq!(s.multiplier(&req(10), &view(0, 1.0), &m), Some(3.0));
        // Midpoint: 0.5 + 0.5*(3.0-0.5) = 1.75.
        assert_eq!(s.multiplier(&req(10), &view(50, 0.5), &m), Some(1.75));
    }

    #[test]
    fn interpolated_clamps_utilization() {
        let s = UtilizationInterpolated::default();
        let m = MarketInfo::default();
        assert_eq!(s.multiplier(&req(10), &view(0, 1.7), &m), Some(3.0));
        assert_eq!(s.multiplier(&req(10), &view(0, -0.3), &m), Some(0.5));
    }

    #[test]
    fn interpolated_is_monotone_in_utilization() {
        let s = UtilizationInterpolated {
            k: 2.0,
            alpha: 0.3,
            beta: 1.0,
        };
        let m = MarketInfo::default();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let v = s.multiplier(&req(10), &view(0, u), &m).unwrap();
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn deadline_aware_discounts_urgent_jobs_on_free_machine() {
        let s = DeadlineAware::default();
        let m = MarketInfo::default();
        // Near deadline (30 min), free machine → discounted k.
        let near_free = s.multiplier(&req(1800), &view(80, 0.2), &m).unwrap();
        // Same machine, far deadline → undiscounted.
        let far_free = s.multiplier(&req(86_400), &view(80, 0.2), &m).unwrap();
        assert!(near_free < far_free, "{near_free} !< {far_free}");
        // Near deadline but busy machine → no discount.
        let near_busy = s.multiplier(&req(1800), &view(10, 0.9), &m).unwrap();
        let far_busy = s.multiplier(&req(86_400), &view(10, 0.9), &m).unwrap();
        assert_eq!(near_busy, far_busy);
    }

    #[test]
    fn weather_aware_moves_toward_market_average() {
        let s = WeatherAware {
            base: UtilizationInterpolated::default(),
            market_weight: 1.0,
        };
        let market = MarketInfo {
            recent_avg_multiplier: Some(2.5),
            grid_utilization: None,
        };
        let v = s.multiplier(&req(10), &view(100, 0.0), &market).unwrap();
        assert!(
            (v - 2.5).abs() < 1e-12,
            "full market weight tracks the average, got {v}"
        );
        // Without weather data it degenerates to the local strategy.
        let local = s
            .multiplier(&req(10), &view(100, 0.0), &MarketInfo::default())
            .unwrap();
        assert_eq!(local, 0.5);
    }

    #[test]
    fn weather_aware_shades_by_grid_utilization() {
        let s = WeatherAware::default();
        let hot = MarketInfo {
            recent_avg_multiplier: Some(1.0),
            grid_utilization: Some(1.0),
        };
        let cold = MarketInfo {
            recent_avg_multiplier: Some(1.0),
            grid_utilization: Some(0.0),
        };
        let mh = s.multiplier(&req(10), &view(50, 0.5), &hot).unwrap();
        let mc = s.multiplier(&req(10), &view(50, 0.5), &cold).unwrap();
        assert!(mh > mc);
    }

    #[test]
    fn fixed_is_fixed() {
        let s = Fixed(0.75);
        assert_eq!(
            s.multiplier(&req(1), &view(0, 1.0), &MarketInfo::default()),
            Some(0.75)
        );
    }
}
