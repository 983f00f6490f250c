//! Stanley front-axle lateral controller.
//!
//! `δ = θ_e + atan(k·e / (v + v_soft))` where `θ_e` is the heading error to
//! the path tangent and `e` the cross-track error measured at the *front
//! axle* (the original Stanford formulation). The softening speed keeps the
//! arctangent well behaved near standstill.

use serde::{Deserialize, Serialize};

use adassure_sim::geometry::{wrap_angle, Vec2};
use adassure_sim::track::{Projection, Track};

use crate::{Estimate, LateralController};

/// Stanley tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StanleyConfig {
    /// Distance from the estimate's reference point to the front axle (m).
    pub front_axle_offset: f64,
    /// Cross-track gain `k` (1/s).
    pub gain: f64,
    /// Softening speed added to the denominator (m/s).
    pub softening: f64,
    /// Hard clamp on the produced steering command (rad).
    pub max_steer: f64,
}

impl StanleyConfig {
    /// Defaults matched to the workspace passenger car.
    pub fn standard() -> Self {
        StanleyConfig {
            front_axle_offset: 1.25,
            gain: 1.2,
            softening: 1.0,
            max_steer: 0.55,
        }
    }
}

impl Default for StanleyConfig {
    fn default() -> Self {
        StanleyConfig::standard()
    }
}

/// The Stanley controller.
#[derive(Debug, Clone)]
pub struct Stanley {
    config: StanleyConfig,
}

impl Stanley {
    /// Creates a controller.
    pub fn new(config: StanleyConfig) -> Self {
        Stanley { config }
    }
}

impl Default for Stanley {
    fn default() -> Self {
        Stanley::new(StanleyConfig::standard())
    }
}

impl LateralController for Stanley {
    fn steer(&mut self, est: &Estimate, _proj: &Projection, track: &Track, _dt: f64) -> f64 {
        // Stanley tracks the front axle, so it projects that point itself.
        let front_axle =
            est.position + Vec2::from_angle(est.heading) * self.config.front_axle_offset;
        let proj = track.project(front_axle);
        let heading_err = wrap_angle(proj.heading - est.heading);
        // Positive cross-track = left of path → steer right (negative).
        let cross_term =
            (self.config.gain * -proj.cross_track / (est.speed + self.config.softening)).atan();
        (heading_err + cross_term).clamp(-self.config.max_steer, self.config.max_steer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::steer_on;

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
    fn aligned_on_path_is_neutral() {
        let mut st = Stanley::default();
        let steer = steer_on(&mut st, &estimate(5.0, 0.0, 0.0, 8.0), &straight());
        assert!(steer.abs() < 1e-9);
    }

    #[test]
    fn cross_track_sign_convention() {
        let mut st = Stanley::default();
        assert!(steer_on(&mut st, &estimate(5.0, 1.5, 0.0, 8.0), &straight()) < -0.01);
        assert!(steer_on(&mut st, &estimate(5.0, -1.5, 0.0, 8.0), &straight()) > 0.01);
    }

    #[test]
    fn heading_error_feeds_through_directly() {
        let mut st = Stanley::default();
        // Pointing 0.2 rad left of the path tangent, on the path... but note
        // the front axle is then *off* the path, so expect roughly
        // -0.2 plus a small cross-track term.
        let steer = steer_on(&mut st, &estimate(5.0, 0.0, 0.2, 8.0), &straight());
        assert!(steer < -0.15 && steer > -0.4, "{steer}");
    }

    #[test]
    fn output_is_clamped() {
        let mut st = Stanley::default();
        let steer = steer_on(&mut st, &estimate(5.0, 50.0, 0.0, 0.0), &straight());
        assert!(steer >= -0.55 - 1e-12);
        let steer = steer_on(&mut st, &estimate(5.0, -50.0, 0.0, 0.0), &straight());
        assert!(steer <= 0.55 + 1e-12);
    }

    #[test]
    fn low_speed_gain_is_stronger() {
        let mut st = Stanley::default();
        let slow = steer_on(&mut st, &estimate(5.0, 1.0, 0.0, 1.0), &straight());
        let fast = steer_on(&mut st, &estimate(5.0, 1.0, 0.0, 20.0), &straight());
        assert!(slow.abs() > fast.abs(), "slow {slow} vs fast {fast}");
    }
}
