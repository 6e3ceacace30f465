//! Send batching and the broker CPU cost model.
//!
//! The paper notes NaradaBrokering beat the JMF reflector "after we made
//! some optimizations on the message transmission". We model that
//! optimization explicitly: a fan-out of one event to N destinations pays
//! the full per-send cost once and a reduced marginal cost for the
//! remaining N−1 sends (amortized syscalls/buffer handling). The
//! ablation benchmark (`ablation` bench target) toggles
//! [`CostModel::batching`] to show the effect.

use mmcs_util::time::SimDuration;

/// CPU cost model for one broker (or reflector) process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed cost to accept and route one incoming event (topic match,
    /// queue handling).
    pub routing: SimDuration,
    /// Cost of one outbound send.
    pub per_send: SimDuration,
    /// Additional cost per kilobyte copied.
    pub per_kilobyte: SimDuration,
    /// Whether the transmission optimization is on.
    pub batching: bool,
    /// Marginal cost multiplier for sends after the first in one fan-out
    /// (only used when `batching` is true).
    pub batch_factor: f64,
}

impl CostModel {
    /// The calibrated NaradaBrokering profile (see `EXPERIMENTS.md` for
    /// how these constants were fitted to the paper's Figure 3).
    pub fn narada() -> Self {
        Self {
            routing: SimDuration::from_micros(25),
            per_send: SimDuration::from_micros(48),
            per_kilobyte: SimDuration::from_micros(3),
            batching: true,
            batch_factor: 0.33,
        }
    }

    /// The same engine with the transmission optimization disabled
    /// (ablation A1).
    pub fn narada_unbatched() -> Self {
        Self {
            batching: false,
            ..Self::narada()
        }
    }

    /// CPU cost of the `index`-th send (0-based) within one fan-out, for
    /// a packet of `bytes`.
    pub fn send_cost(&self, index: usize, bytes: usize) -> SimDuration {
        let byte_cost = self.per_kilobyte * (bytes as f64 / 1024.0);
        let fixed = if self.batching && index > 0 {
            self.per_send * self.batch_factor
        } else {
            self.per_send
        };
        fixed + byte_cost
    }

    /// Total CPU cost of fanning one `bytes`-sized event out to
    /// `destinations` receivers, including routing.
    pub fn fanout_cost(&self, destinations: usize, bytes: usize) -> SimDuration {
        let mut total = self.routing;
        for i in 0..destinations {
            total += self.send_cost(i, bytes);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narada_profile_is_batched() {
        let m = CostModel::narada();
        assert!(m.batching);
        assert!(!CostModel::narada_unbatched().batching);
    }

    #[test]
    fn batched_fanout_is_cheaper() {
        let batched = CostModel::narada();
        let unbatched = CostModel::narada_unbatched();
        let n = 400;
        let bytes = 1060;
        assert!(batched.fanout_cost(n, bytes) < unbatched.fanout_cost(n, bytes));
        // First send costs the same either way.
        assert_eq!(batched.send_cost(0, bytes), unbatched.send_cost(0, bytes));
        assert!(batched.send_cost(1, bytes) < unbatched.send_cost(1, bytes));
    }

    #[test]
    fn fanout_cost_scales_linearly_in_destinations() {
        let m = CostModel::narada_unbatched();
        let one = m.fanout_cost(1, 1000) - m.routing;
        let ten = m.fanout_cost(10, 1000) - m.routing;
        assert_eq!(ten.as_nanos(), one.as_nanos() * 10);
    }

    #[test]
    fn byte_cost_matters() {
        let m = CostModel::narada();
        assert!(m.send_cost(0, 10_000) > m.send_cost(0, 100));
    }
}
