//! Geometric pure-pursuit lateral controller.
//!
//! Chases a lookahead point on the path at distance `L_d = clamp(k·v, min,
//! max)` ahead of the vehicle's projection; the steering command is the
//! bicycle-geometry arc through that point:
//! `δ = atan(2·L·sin(α) / L_d)` where `α` is the bearing of the lookahead
//! point in the vehicle frame.

use serde::{Deserialize, Serialize};

use adassure_sim::geometry::wrap_angle;
use adassure_sim::track::{Projection, Track};

use crate::{Estimate, LateralController};

/// Pure-pursuit tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PurePursuitConfig {
    /// Wheelbase of the controlled vehicle (m).
    pub wheelbase: f64,
    /// Lookahead gain: seconds of travel converted to metres of lookahead.
    pub lookahead_gain: f64,
    /// Minimum lookahead distance (m).
    pub min_lookahead: f64,
    /// Maximum lookahead distance (m).
    pub max_lookahead: f64,
}

impl PurePursuitConfig {
    /// Defaults matched to [`adassure_sim::vehicle::VehicleParams::passenger_car`].
    pub fn standard() -> Self {
        PurePursuitConfig {
            wheelbase: 2.7,
            lookahead_gain: 0.9,
            min_lookahead: 4.0,
            max_lookahead: 18.0,
        }
    }
}

impl Default for PurePursuitConfig {
    fn default() -> Self {
        PurePursuitConfig::standard()
    }
}

/// The pure-pursuit controller.
#[derive(Debug, Clone)]
pub struct PurePursuit {
    config: PurePursuitConfig,
}

impl PurePursuit {
    /// Creates a controller.
    pub fn new(config: PurePursuitConfig) -> Self {
        PurePursuit { config }
    }

    /// Current lookahead distance for a given speed (m).
    pub fn lookahead(&self, speed: f64) -> f64 {
        (self.config.lookahead_gain * speed)
            .clamp(self.config.min_lookahead, self.config.max_lookahead)
    }
}

impl Default for PurePursuit {
    fn default() -> Self {
        PurePursuit::new(PurePursuitConfig::standard())
    }
}

impl LateralController for PurePursuit {
    fn steer(&mut self, est: &Estimate, proj: &Projection, track: &Track, _dt: f64) -> f64 {
        let lookahead = self.lookahead(est.speed);
        let target = track.point_at(proj.station + lookahead);
        let to_target = target - est.position;
        let alpha = wrap_angle(to_target.angle() - est.heading);
        let ld = to_target.norm().max(1e-3);
        (2.0 * self.config.wheelbase * alpha.sin() / ld).atan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::steer_on;
    use adassure_sim::geometry::Vec2;

    fn straight() -> Track {
        Track::line([0.0, 0.0], [200.0, 0.0], 1.0).unwrap()
    }

    fn estimate(x: f64, y: f64, heading: f64, speed: f64) -> Estimate {
        Estimate {
            position: Vec2::new(x, y),
            heading,
            speed,
            yaw_rate: 0.0,
        }
    }

    #[test]
    fn on_path_aligned_steers_straight() {
        let mut pp = PurePursuit::default();
        let steer = steer_on(&mut pp, &estimate(10.0, 0.0, 0.0, 8.0), &straight());
        assert!(steer.abs() < 1e-6, "{steer}");
    }

    #[test]
    fn offset_left_steers_right() {
        let mut pp = PurePursuit::default();
        let steer = steer_on(&mut pp, &estimate(10.0, 2.0, 0.0, 8.0), &straight());
        assert!(steer < -0.01, "left of path must steer right, got {steer}");
    }

    #[test]
    fn offset_right_steers_left() {
        let mut pp = PurePursuit::default();
        let steer = steer_on(&mut pp, &estimate(10.0, -2.0, 0.0, 8.0), &straight());
        assert!(steer > 0.01, "right of path must steer left, got {steer}");
    }

    #[test]
    fn lookahead_clamps() {
        let pp = PurePursuit::default();
        assert_eq!(pp.lookahead(0.0), 4.0);
        assert_eq!(pp.lookahead(100.0), 18.0);
        assert!((pp.lookahead(10.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn heading_error_alone_produces_correction() {
        let mut pp = PurePursuit::default();
        // On the path but pointing 30° left: must steer right.
        let steer = steer_on(&mut pp, &estimate(10.0, 0.0, 0.5, 8.0), &straight());
        assert!(steer < -0.05, "{steer}");
    }

    #[test]
    fn follows_circle_with_near_constant_steer() {
        let track = Track::circle([0.0, 0.0], 20.0, 1.0).unwrap();
        let mut pp = PurePursuit::default();
        // Place the vehicle on the circle, tangent heading.
        let p = track.point_at(0.0);
        let h = track.heading_at(0.0);
        let steer = steer_on(&mut pp, &estimate(p.x, p.y, h, 6.0), &track);
        // Expected kinematic steer for r=20, L=2.7 ≈ atan(L/r) ≈ 0.134.
        assert!(steer > 0.05 && steer < 0.25, "{steer}");
    }
}
