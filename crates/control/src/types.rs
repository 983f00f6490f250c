use serde::{Deserialize, Serialize};

use adassure_sim::geometry::Vec2;
use adassure_sim::track::{Projection, Track};

/// The estimator's belief about the vehicle state, handed to lateral
/// controllers every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Estimated position (m).
    pub position: Vec2,
    /// Estimated heading (rad).
    pub heading: f64,
    /// Estimated forward speed (m/s).
    pub speed: f64,
    /// Measured yaw rate passed through from the IMU (rad/s).
    pub yaw_rate: f64,
}

impl Estimate {
    /// An estimate at rest at the origin.
    pub fn zero() -> Self {
        Estimate {
            position: Vec2::ZERO,
            heading: 0.0,
            speed: 0.0,
            yaw_rate: 0.0,
        }
    }
}

/// A lateral (steering) controller.
///
/// Implementations are deliberately *unaware* of ground truth: they see only
/// the estimate derived from (possibly attacked) sensors, which is what
/// makes the ADAssure debugging problem real.
pub trait LateralController {
    /// Computes the steering command (rad) for the current cycle. `proj`
    /// is `track.project(est.position)`, computed once per cycle by the
    /// caller and shared.
    fn steer(&mut self, est: &Estimate, proj: &Projection, track: &Track, dt: f64) -> f64;

    /// Resets any internal state (integrators, warm starts).
    fn reset(&mut self) {}
}

/// Steers `c` as the stack does: from the estimate's own projection.
#[cfg(test)]
pub(crate) fn steer_on(
    c: &mut (impl LateralController + ?Sized),
    est: &Estimate,
    track: &Track,
) -> f64 {
    c.steer(est, &track.project(est.position), track, 0.01)
}

/// Which lateral controller a stack uses. Used by campaign sweeps to
/// enumerate stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControllerKind {
    /// Geometric pure-pursuit lookahead controller.
    PurePursuit,
    /// Stanley front-axle error controller.
    Stanley,
    /// LQR error-state feedback with gains from a discrete Riccati solve.
    Lqr,
    /// Receding-horizon MPC with a kinematic prediction model.
    Mpc,
}

impl ControllerKind {
    /// All controller kinds, in a stable order.
    pub const ALL: [ControllerKind; 4] = [
        ControllerKind::PurePursuit,
        ControllerKind::Stanley,
        ControllerKind::Lqr,
        ControllerKind::Mpc,
    ];

    /// Short lowercase name (stable across releases; used in reports).
    pub fn name(self) -> &'static str {
        match self {
            ControllerKind::PurePursuit => "pure_pursuit",
            ControllerKind::Stanley => "stanley",
            ControllerKind::Lqr => "lqr",
            ControllerKind::Mpc => "mpc",
        }
    }
}

impl std::fmt::Display for ControllerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique_and_named() {
        let names: std::collections::HashSet<_> =
            ControllerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 4);
        assert_eq!(ControllerKind::Mpc.to_string(), "mpc");
    }

    #[test]
    fn zero_estimate() {
        let e = Estimate::zero();
        assert_eq!(e.position, Vec2::ZERO);
        assert_eq!(e.speed, 0.0);
    }
}
