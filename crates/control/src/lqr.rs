//! LQR lateral controller on the kinematic error model.
//!
//! Error state `x = [e, θ_e]` (cross-track and heading error), discretised
//! at the control period for the current speed:
//!
//! ```text
//! A = | 1  v·dt |     B = |    0     |
//!     | 0   1   |         | v·dt / L |
//! ```
//!
//! The feedback gain is obtained by iterating the discrete algebraic
//! Riccati equation to convergence (no linear-algebra dependency: the model
//! is only 2×2). A curvature feed-forward `atan(L·κ)` centres the feedback
//! around the geometrically correct steer.

use serde::{Deserialize, Serialize};

use adassure_sim::geometry::wrap_angle;
use adassure_sim::track::{Projection, Track};

use crate::{Estimate, LateralController};

/// LQR tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LqrConfig {
    /// Wheelbase (m).
    pub wheelbase: f64,
    /// Control period the gains are discretised at (s).
    pub period: f64,
    /// State cost on cross-track error.
    pub q_cross_track: f64,
    /// State cost on heading error.
    pub q_heading: f64,
    /// Input cost on steering.
    pub r_steer: f64,
    /// Hard clamp on the produced steering command (rad).
    pub max_steer: f64,
}

impl LqrConfig {
    /// Defaults matched to the workspace passenger car at 100 Hz.
    pub fn standard() -> Self {
        LqrConfig {
            wheelbase: 2.7,
            period: 0.01,
            q_cross_track: 1.0,
            q_heading: 3.0,
            r_steer: 8.0,
            max_steer: 0.55,
        }
    }
}

impl Default for LqrConfig {
    fn default() -> Self {
        LqrConfig::standard()
    }
}

/// Plain-data snapshot of an [`Lqr`]'s mutable state. `cached_speed` may
/// be NaN (the never-refreshed sentinel), so snapshots must round-trip
/// NaN bit patterns exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LqrState {
    /// Speed the cached gains were solved for (NaN = never solved).
    pub cached_speed: f64,
    /// Cached feedback gains `[k_e, k_θ]`.
    pub gains: [f64; 2],
}

/// The LQR controller with speed-scheduled gains.
#[derive(Debug, Clone)]
pub struct Lqr {
    config: LqrConfig,
    cached_speed: f64,
    gains: [f64; 2],
}

impl Lqr {
    /// Creates a controller.
    pub fn new(config: LqrConfig) -> Self {
        let mut lqr = Lqr {
            config,
            cached_speed: f64::NAN,
            gains: [0.0; 2],
        };
        lqr.refresh_gains(1.0);
        lqr
    }

    /// The feedback gains `[k_e, k_θ]` currently in use.
    pub fn gains(&self) -> [f64; 2] {
        self.gains
    }

    /// Captures the controller's mutable state (the gain cache).
    pub fn state(&self) -> LqrState {
        LqrState {
            cached_speed: self.cached_speed,
            gains: self.gains,
        }
    }

    /// Reinstates a state captured with [`Lqr::state`].
    pub fn restore(&mut self, s: &LqrState) {
        self.cached_speed = s.cached_speed;
        self.gains = s.gains;
    }

    /// Solves the DARE for speed `v` by fixed-point iteration.
    ///
    /// Returns the feedback row `K = (R + BᵀPB)⁻¹ BᵀPA`.
    pub fn solve_gains(config: &LqrConfig, v: f64) -> [f64; 2] {
        let v = v.max(0.5); // gains below walking pace are meaningless
        let dt = config.period;
        let a = [[1.0, v * dt], [0.0, 1.0]];
        let b = [0.0, v * dt / config.wheelbase];
        let q = [config.q_cross_track, config.q_heading];
        let r = config.r_steer;

        // P starts at Q and iterates P ← Q + AᵀPA − AᵀPB (R+BᵀPB)⁻¹ BᵀPA.
        let mut p = [[q[0], 0.0], [0.0, q[1]]];
        for _ in 0..10_000 {
            // PA and PB.
            let pa = mat_mul(p, a);
            let pb = [
                p[0][0] * b[0] + p[0][1] * b[1],
                p[1][0] * b[0] + p[1][1] * b[1],
            ];
            let at_pa = mat_mul(transpose(a), pa);
            let at_pb = [
                a[0][0] * pb[0] + a[1][0] * pb[1],
                a[0][1] * pb[0] + a[1][1] * pb[1],
            ];
            let btpb = b[0] * pb[0] + b[1] * pb[1];
            let inv = 1.0 / (r + btpb);
            let btpa = [
                b[0] * pa[0][0] + b[1] * pa[1][0],
                b[0] * pa[0][1] + b[1] * pa[1][1],
            ];
            let mut next = [[0.0; 2]; 2];
            for i in 0..2 {
                for j in 0..2 {
                    let qij = if i == j { q[i] } else { 0.0 };
                    next[i][j] = qij + at_pa[i][j] - at_pb[i] * inv * btpa[j];
                }
            }
            let delta = (0..2)
                .flat_map(|i| (0..2).map(move |j| (i, j)))
                .map(|(i, j)| (next[i][j] - p[i][j]).abs())
                .fold(0.0f64, f64::max);
            p = next;
            if delta < 1e-10 {
                break;
            }
        }
        let pa = mat_mul(p, a);
        let pb = [
            p[0][0] * b[0] + p[0][1] * b[1],
            p[1][0] * b[0] + p[1][1] * b[1],
        ];
        let btpb = b[0] * pb[0] + b[1] * pb[1];
        let inv = 1.0 / (r + btpb);
        [
            inv * (b[0] * pa[0][0] + b[1] * pa[1][0]),
            inv * (b[0] * pa[0][1] + b[1] * pa[1][1]),
        ]
    }

    fn refresh_gains(&mut self, speed: f64) {
        if (speed - self.cached_speed).abs() > 0.5 || !self.cached_speed.is_finite() {
            self.gains = Lqr::solve_gains(&self.config, speed);
            self.cached_speed = speed;
        }
    }
}

impl Default for Lqr {
    fn default() -> Self {
        Lqr::new(LqrConfig::standard())
    }
}

impl LateralController for Lqr {
    fn steer(&mut self, est: &Estimate, proj: &Projection, track: &Track, _dt: f64) -> f64 {
        self.refresh_gains(est.speed);
        let heading_err = wrap_angle(est.heading - proj.heading);
        let feedforward = (self.config.wheelbase * track.curvature_at(proj.station)).atan();
        let feedback = -(self.gains[0] * proj.cross_track + self.gains[1] * heading_err);
        (feedforward + feedback).clamp(-self.config.max_steer, self.config.max_steer)
    }

    fn reset(&mut self) {
        self.cached_speed = f64::NAN;
    }
}

fn mat_mul(a: [[f64; 2]; 2], b: [[f64; 2]; 2]) -> [[f64; 2]; 2] {
    let mut out = [[0.0; 2]; 2];
    for i in 0..2 {
        for j in 0..2 {
            out[i][j] = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

fn transpose(a: [[f64; 2]; 2]) -> [[f64; 2]; 2] {
    [[a[0][0], a[1][0]], [a[0][1], a[1][1]]]
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
    fn gains_are_positive_and_finite() {
        let k = Lqr::solve_gains(&LqrConfig::standard(), 10.0);
        assert!(k[0] > 0.0 && k[1] > 0.0, "{k:?}");
        assert!(k.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn gains_shrink_with_speed() {
        // At higher speed the same gain would destabilise; LQR backs off the
        // cross-track gain.
        let slow = Lqr::solve_gains(&LqrConfig::standard(), 3.0);
        let fast = Lqr::solve_gains(&LqrConfig::standard(), 20.0);
        assert!(fast[0] < slow[0], "slow {slow:?} fast {fast:?}");
    }

    #[test]
    fn sign_conventions_match_other_controllers() {
        let mut lqr = Lqr::default();
        assert!(steer_on(&mut lqr, &estimate(5.0, 2.0, 0.0, 8.0), &straight()) < 0.0);
        assert!(steer_on(&mut lqr, &estimate(5.0, -2.0, 0.0, 8.0), &straight()) > 0.0);
        assert!(steer_on(&mut lqr, &estimate(5.0, 0.0, 0.3, 8.0), &straight()) < 0.0);
    }

    #[test]
    fn neutral_on_path() {
        let mut lqr = Lqr::default();
        let steer = steer_on(&mut lqr, &estimate(5.0, 0.0, 0.0, 8.0), &straight());
        assert!(steer.abs() < 1e-6, "{steer}");
    }

    #[test]
    fn feedforward_matches_circle_curvature() {
        let track = Track::circle([0.0, 0.0], 20.0, 1.0).unwrap();
        let mut lqr = Lqr::default();
        let p = track.point_at(5.0);
        let h = track.heading_at(5.0);
        let steer = steer_on(&mut lqr, &estimate(p.x, p.y, h, 6.0), &track);
        let expected = (2.7f64 / 20.0).atan();
        assert!((steer - expected).abs() < 0.08, "{steer} vs {expected}");
    }

    #[test]
    fn closed_loop_error_dynamics_are_stable() {
        // Simulate the 2-state error model under the solved gains and check
        // the error contracts — the defining property of an LQR solution.
        let config = LqrConfig::standard();
        let v = 10.0;
        let k = Lqr::solve_gains(&config, v);
        let dt = config.period;
        let (mut e, mut th) = (2.0, 0.3);
        for _ in 0..10_000 {
            let steer = -(k[0] * e + k[1] * th);
            let steer = steer.clamp(-config.max_steer, config.max_steer);
            e += v * th * dt;
            th += v * steer / config.wheelbase * dt;
        }
        assert!(e.abs() < 1e-3 && th.abs() < 1e-3, "e={e} th={th}");
    }

    #[test]
    fn output_is_clamped() {
        let mut lqr = Lqr::default();
        let steer = steer_on(&mut lqr, &estimate(5.0, 30.0, 1.5, 5.0), &straight());
        assert!(steer.abs() <= 0.55 + 1e-12);
    }
}
