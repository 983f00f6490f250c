//! Receding-horizon MPC-lite lateral controller.
//!
//! Optimises a short steering sequence over a kinematic bicycle prediction
//! of the next `horizon × step` seconds, minimising a quadratic cost on
//! cross-track error, heading error, steering effort and steering slew. The
//! optimiser is a deterministic pattern search (coordinate probes with
//! shrinking step), which is derivative-free, allocation-light and — unlike
//! gradient descent on this non-smooth projection cost — robust.
//!
//! Like production MPCs, the plan is recomputed at a lower rate than the
//! control loop ([`MpcConfig::recompute_every`] cycles) with the first plan
//! element held in between.

use serde::{Deserialize, Serialize};

use adassure_sim::geometry::{wrap_angle, Vec2};
use adassure_sim::track::{Projection, Track};

use crate::{Estimate, LateralController};

/// MPC tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MpcConfig {
    /// Wheelbase (m).
    pub wheelbase: f64,
    /// Number of prediction steps.
    pub horizon: usize,
    /// Prediction step length (s).
    pub step: f64,
    /// Cost weight on cross-track error.
    pub w_cross_track: f64,
    /// Cost weight on heading error.
    pub w_heading: f64,
    /// Cost weight on steering magnitude.
    pub w_steer: f64,
    /// Cost weight on steering slew between plan steps.
    pub w_slew: f64,
    /// Hard steering bound (rad).
    pub max_steer: f64,
    /// Steering-actuator slew limit the prediction model honours (rad/s).
    /// Without this the optimiser plans swings the physical actuator cannot
    /// follow and the closed loop oscillates.
    pub steer_rate_limit: f64,
    /// Recompute the plan every this many control cycles.
    pub recompute_every: usize,
    /// Pattern-search sweeps per plan.
    pub search_iterations: usize,
}

impl MpcConfig {
    /// Defaults: 8-step × 0.1 s horizon recomputed at 20 Hz.
    pub fn standard() -> Self {
        MpcConfig {
            wheelbase: 2.7,
            horizon: 8,
            step: 0.1,
            w_cross_track: 1.0,
            w_heading: 2.0,
            w_steer: 0.15,
            w_slew: 0.4,
            max_steer: 0.55,
            steer_rate_limit: 0.7,
            recompute_every: 5,
            search_iterations: 6,
        }
    }
}

impl Default for MpcConfig {
    fn default() -> Self {
        MpcConfig::standard()
    }
}

/// Plain-data snapshot of an [`Mpc`]'s mutable state.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcState {
    /// The most recent optimised steering plan.
    pub plan: Vec<f64>,
    /// Cycles elapsed since the plan was last recomputed.
    pub cycles_since_plan: u64,
    /// Steering command issued last cycle (slew-limit anchor).
    pub last_command: f64,
}

/// The MPC-lite controller.
#[derive(Debug, Clone)]
pub struct Mpc {
    config: MpcConfig,
    plan: Vec<f64>,
    cycles_since_plan: usize,
    last_command: f64,
}

impl Mpc {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics when `horizon` is zero or `step`/`recompute_every` are not
    /// positive.
    pub fn new(config: MpcConfig) -> Self {
        assert!(config.horizon > 0, "mpc horizon must be positive");
        assert!(config.step > 0.0, "mpc step must be positive");
        assert!(
            config.recompute_every > 0,
            "mpc recompute_every must be positive"
        );
        Mpc {
            plan: vec![0.0; config.horizon],
            cycles_since_plan: config.recompute_every, // force plan on first call
            last_command: 0.0,
            config,
        }
    }

    /// The most recent optimised steering plan.
    pub fn plan(&self) -> &[f64] {
        &self.plan
    }

    /// Captures the controller's mutable state.
    pub fn state(&self) -> MpcState {
        MpcState {
            plan: self.plan.clone(),
            cycles_since_plan: self.cycles_since_plan as u64,
            last_command: self.last_command,
        }
    }

    /// Reinstates a state captured with [`Mpc::state`].
    pub fn restore(&mut self, s: &MpcState) {
        self.plan = s.plan.clone();
        self.cycles_since_plan = s.cycles_since_plan as usize;
        self.last_command = s.last_command;
    }

    /// Rollout cost of a candidate plan from the given estimate.
    ///
    /// The rollout applies the steering-actuator slew limit, so the cost
    /// reflects what the vehicle will actually do — the optimiser cannot
    /// "cheat" with instantaneous wheel swings.
    fn cost(&self, plan: &[f64], est: &Estimate, track: &Track) -> f64 {
        let c = &self.config;
        let mut pos = est.position;
        let mut heading = est.heading;
        let speed = est.speed.max(0.5);
        let max_delta = c.steer_rate_limit * c.step;
        let mut total = 0.0;
        let mut applied = self.last_command;
        for &steer in plan {
            let prev = applied;
            applied += (steer - applied).clamp(-max_delta, max_delta);
            // Kinematic bicycle rollout at constant speed.
            heading = wrap_angle(heading + speed * applied.tan() / c.wheelbase * c.step);
            pos += Vec2::from_angle(heading) * (speed * c.step);
            let proj = track.project(pos);
            let heading_err = wrap_angle(heading - proj.heading);
            total += c.w_cross_track * proj.cross_track * proj.cross_track
                + c.w_heading * heading_err * heading_err
                + c.w_steer * applied * applied
                + c.w_slew * (applied - prev) * (applied - prev);
        }
        total
    }

    fn replan(&mut self, est: &Estimate, track: &Track) {
        let c = self.config;
        // Warm start: shift the previous plan forward one step.
        let mut plan = self.plan.clone();
        plan.rotate_left(1);
        let last = *plan.last().expect("horizon > 0");
        *plan.last_mut().expect("horizon > 0") = last;

        let mut best_cost = self.cost(&plan, est, track);
        let mut delta = c.max_steer / 2.0;
        for _ in 0..c.search_iterations {
            for i in 0..plan.len() {
                for dir in [-1.0, 1.0] {
                    let old = plan[i];
                    let candidate = (old + dir * delta).clamp(-c.max_steer, c.max_steer);
                    if candidate == old {
                        continue;
                    }
                    plan[i] = candidate;
                    let cost = self.cost(&plan, est, track);
                    if cost < best_cost {
                        best_cost = cost;
                    } else {
                        plan[i] = old;
                    }
                }
            }
            delta *= 0.5;
        }
        self.plan = plan;
    }
}

impl Default for Mpc {
    fn default() -> Self {
        Mpc::new(MpcConfig::standard())
    }
}

impl LateralController for Mpc {
    fn steer(&mut self, est: &Estimate, _proj: &Projection, track: &Track, _dt: f64) -> f64 {
        self.cycles_since_plan += 1;
        if self.cycles_since_plan >= self.config.recompute_every {
            self.replan(est, track);
            self.cycles_since_plan = 0;
        }
        self.last_command = self.plan[0];
        self.last_command
    }

    fn reset(&mut self) {
        self.plan.fill(0.0);
        self.cycles_since_plan = self.config.recompute_every;
        self.last_command = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::steer_on;

    fn straight() -> Track {
        Track::line([0.0, 0.0], [300.0, 0.0], 1.0).unwrap()
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
    fn neutral_on_path() {
        let mut mpc = Mpc::default();
        let steer = steer_on(&mut mpc, &estimate(5.0, 0.0, 0.0, 8.0), &straight());
        assert!(steer.abs() < 0.02, "{steer}");
    }

    #[test]
    fn sign_conventions() {
        let mut mpc = Mpc::default();
        let left = steer_on(&mut mpc, &estimate(5.0, 2.0, 0.0, 8.0), &straight());
        assert!(left < -0.01, "left offset must steer right: {left}");
        let mut mpc = Mpc::default();
        let right = steer_on(&mut mpc, &estimate(5.0, -2.0, 0.0, 8.0), &straight());
        assert!(right > 0.01, "right offset must steer left: {right}");
    }

    #[test]
    fn plan_is_held_between_recomputes() {
        let mut mpc = Mpc::default();
        let e = estimate(5.0, 1.0, 0.0, 8.0);
        let first = steer_on(&mut mpc, &e, &straight());
        for _ in 0..(mpc.config.recompute_every - 1) {
            assert_eq!(steer_on(&mut mpc, &e, &straight()), first);
        }
    }

    #[test]
    fn plan_respects_steering_bound() {
        let mut mpc = Mpc::default();
        steer_on(&mut mpc, &estimate(5.0, 20.0, 1.0, 10.0), &straight());
        assert!(mpc.plan().iter().all(|s| s.abs() <= 0.55 + 1e-12));
    }

    #[test]
    fn reset_clears_plan() {
        let mut mpc = Mpc::default();
        steer_on(&mut mpc, &estimate(5.0, 5.0, 0.0, 8.0), &straight());
        mpc.reset();
        assert!(mpc.plan().iter().all(|&s| s == 0.0));
    }

    #[test]
    fn cost_decreases_with_optimisation() {
        let mpc = Mpc::default();
        let e = estimate(5.0, 2.0, 0.0, 8.0);
        let zero_cost = mpc.cost(&[0.0; 8], &e, &straight());
        let mut opt = Mpc::default();
        steer_on(&mut opt, &e, &straight());
        let opt_cost = opt.cost(opt.plan(), &e, &straight());
        assert!(
            opt_cost < zero_cost,
            "optimised {opt_cost} vs passive {zero_cost}"
        );
    }

    #[test]
    #[should_panic(expected = "horizon")]
    fn zero_horizon_is_rejected() {
        let mut c = MpcConfig::standard();
        c.horizon = 0;
        let _ = Mpc::new(c);
    }

    #[test]
    fn follows_curve_preview() {
        // Approaching a left curve, the optimised plan should steer left
        // in later steps even while the current error is zero.
        let track = Track::from_waypoints(
            [
                [0.0, 0.0],
                [20.0, 0.0],
                [26.0, 2.0],
                [30.0, 6.0],
                [32.0, 12.0],
            ],
            1.0,
            false,
        )
        .unwrap();
        let mut mpc = Mpc::default();
        steer_on(&mut mpc, &estimate(15.0, 0.0, 0.0, 8.0), &track);
        let max_late = mpc.plan()[3..].iter().copied().fold(f64::MIN, f64::max);
        assert!(
            max_late > 0.02,
            "plan should anticipate the left turn: {:?}",
            mpc.plan()
        );
    }
}
