//! The full waypoint-following pipeline: estimator → lateral controller →
//! longitudinal PID, wired as an [`adassure_sim::engine::Driver`].
//!
//! [`AdStack`] is the *system under debug* in every ADAssure experiment. It
//! records its internal signals — estimates, error terms, innovation,
//! progress, target speed — under the [`adassure_trace::well_known`] names
//! so the assertion catalog binds without per-experiment wiring.

use serde::{Deserialize, Serialize};

use adassure_sim::engine::{DriveCtx, Driver};
use adassure_sim::geometry::wrap_angle;
use adassure_sim::track::{Projection, Track};
use adassure_sim::vehicle::Controls;
use adassure_trace::{well_known as sig, Trace};

use crate::ekf::{Ekf, EkfConfig, EkfState};
use crate::estimator::{Estimator, EstimatorConfig, EstimatorState};
use crate::lqr::{Lqr, LqrConfig, LqrState};
use crate::mpc::{Mpc, MpcConfig, MpcState};
use crate::pid::{Pid, PidConfig, PidState};
use crate::pure_pursuit::{PurePursuit, PurePursuitConfig};
use crate::stanley::{Stanley, StanleyConfig};
use crate::{ControllerKind, Estimate, LateralController};

/// Which state estimator the stack fuses its sensors with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum EstimatorKind {
    /// Complementary filter (the workspace default).
    #[default]
    Complementary,
    /// Extended Kalman filter.
    Ekf,
    /// Extended Kalman filter with 99 % innovation gating on GNSS fixes.
    GatedEkf,
}

impl EstimatorKind {
    /// All estimator kinds, in a stable order.
    pub const ALL: [EstimatorKind; 3] = [
        EstimatorKind::Complementary,
        EstimatorKind::Ekf,
        EstimatorKind::GatedEkf,
    ];

    /// Short lowercase name (stable; used in reports).
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::Complementary => "complementary",
            EstimatorKind::Ekf => "ekf",
            EstimatorKind::GatedEkf => "gated_ekf",
        }
    }
}

impl std::fmt::Display for EstimatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of the full stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StackConfig {
    /// Which lateral controller to use.
    pub controller: ControllerKind,
    /// Which state estimator to use.
    pub estimator_kind: EstimatorKind,
    /// Cruise speed on straights (m/s).
    pub cruise_speed: f64,
    /// Lateral-acceleration budget used to slow down for curves (m/s²).
    pub lat_accel_limit: f64,
    /// Preview distance for curve speed planning (m).
    pub preview: f64,
    /// Comfortable deceleration used to stop at the goal (m/s²).
    pub goal_decel: f64,
    /// Estimator gains.
    pub estimator: EstimatorConfig,
    /// Longitudinal PID gains.
    pub pid: PidConfig,
}

impl StackConfig {
    /// A standard stack around the given lateral controller.
    pub fn new(controller: ControllerKind) -> Self {
        StackConfig {
            controller,
            estimator_kind: EstimatorKind::Complementary,
            cruise_speed: 8.0,
            lat_accel_limit: 2.5,
            preview: 15.0,
            goal_decel: 1.5,
            estimator: EstimatorConfig::standard(),
            pid: PidConfig::speed_control(),
        }
    }

    /// Replaces the cruise speed.
    pub fn with_cruise_speed(mut self, speed: f64) -> Self {
        self.cruise_speed = speed;
        self
    }

    /// Replaces the estimator.
    pub fn with_estimator(mut self, kind: EstimatorKind) -> Self {
        self.estimator_kind = kind;
        self
    }
}

/// Enum dispatch over the two estimator families.
#[derive(Debug, Clone)]
enum AnyEstimator {
    Complementary(Estimator),
    Ekf(Ekf),
}

impl AnyEstimator {
    fn of_kind(kind: EstimatorKind, config: EstimatorConfig) -> Self {
        match kind {
            EstimatorKind::Complementary => AnyEstimator::Complementary(Estimator::new(config)),
            EstimatorKind::Ekf => AnyEstimator::Ekf(Ekf::new(EkfConfig::standard())),
            EstimatorKind::GatedEkf => AnyEstimator::Ekf(Ekf::new(EkfConfig::gated())),
        }
    }

    fn update(&mut self, frame: &adassure_sim::sensor::SensorFrame, dt: f64) -> Estimate {
        match self {
            AnyEstimator::Complementary(e) => e.update(frame, dt),
            AnyEstimator::Ekf(e) => e.update(frame, dt),
        }
    }

    fn is_initialized(&self) -> bool {
        match self {
            AnyEstimator::Complementary(e) => e.is_initialized(),
            AnyEstimator::Ekf(e) => e.is_initialized(),
        }
    }

    fn last_innovation(&self) -> f64 {
        match self {
            AnyEstimator::Complementary(e) => e.last_innovation(),
            AnyEstimator::Ekf(e) => e.last_innovation(),
        }
    }
}

/// Enum dispatch over the four lateral controllers.
#[derive(Debug, Clone)]
enum Lateral {
    PurePursuit(PurePursuit),
    Stanley(Stanley),
    Lqr(Lqr),
    Mpc(Mpc),
}

impl Lateral {
    fn of_kind(kind: ControllerKind) -> Self {
        match kind {
            ControllerKind::PurePursuit => {
                Lateral::PurePursuit(PurePursuit::new(PurePursuitConfig::standard()))
            }
            ControllerKind::Stanley => Lateral::Stanley(Stanley::new(StanleyConfig::standard())),
            ControllerKind::Lqr => Lateral::Lqr(Lqr::new(LqrConfig::standard())),
            ControllerKind::Mpc => Lateral::Mpc(Mpc::new(MpcConfig::standard())),
        }
    }
}

impl LateralController for Lateral {
    fn steer(&mut self, est: &Estimate, proj: &Projection, track: &Track, dt: f64) -> f64 {
        match self {
            Lateral::PurePursuit(c) => c.steer(est, proj, track, dt),
            Lateral::Stanley(c) => c.steer(est, proj, track, dt),
            Lateral::Lqr(c) => c.steer(est, proj, track, dt),
            Lateral::Mpc(c) => c.steer(est, proj, track, dt),
        }
    }

    fn reset(&mut self) {
        match self {
            Lateral::PurePursuit(c) => c.reset(),
            Lateral::Stanley(c) => c.reset(),
            Lateral::Lqr(c) => c.reset(),
            Lateral::Mpc(c) => c.reset(),
        }
    }
}

/// Plain-data snapshot of whichever estimator family an [`AdStack`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyEstimatorState {
    /// Complementary-filter state.
    Complementary(EstimatorState),
    /// EKF state (plain or gated — the gate lives in the config).
    Ekf(EkfState),
}

/// Plain-data snapshot of whichever lateral controller an [`AdStack`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum LateralState {
    /// Pure pursuit and Stanley carry no mutable state.
    Stateless,
    /// LQR gain cache.
    Lqr(LqrState),
    /// MPC plan and slew anchor.
    Mpc(MpcState),
}

/// The complete mutable state of an [`AdStack`], captured between control
/// cycles (see [`AdStack::save_state`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StackState {
    /// Estimator internals.
    pub estimator: AnyEstimatorState,
    /// Lateral-controller internals.
    pub lateral: LateralState,
    /// Longitudinal PID internals.
    pub pid: PidState,
    /// Unwrapped arc-length progress of the estimated pose (m).
    pub progress: f64,
    /// Track station at the previous cycle, if any.
    pub last_station: Option<f64>,
}

/// The full AD control stack (estimator + lateral + longitudinal).
#[derive(Debug)]
pub struct AdStack {
    config: StackConfig,
    track: Track,
    estimator: AnyEstimator,
    lateral: Lateral,
    pid: Pid,
    progress: f64,
    last_station: Option<f64>,
}

impl AdStack {
    /// Creates a stack following `track`.
    pub fn new(config: StackConfig, track: Track) -> Self {
        AdStack {
            estimator: AnyEstimator::of_kind(config.estimator_kind, config.estimator),
            lateral: Lateral::of_kind(config.controller),
            pid: Pid::new(config.pid),
            config,
            track,
            progress: 0.0,
            last_station: None,
        }
    }

    /// The stack's configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Unwrapped arc-length progress of the estimated pose (m).
    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// Resets all internal state for a fresh run.
    pub fn reset(&mut self) {
        self.estimator = AnyEstimator::of_kind(self.config.estimator_kind, self.config.estimator);
        self.lateral.reset();
        self.pid.reset();
        self.progress = 0.0;
        self.last_station = None;
    }

    /// Curve-aware target speed at station `s`.
    fn target_speed(&self, station: f64) -> f64 {
        let mut target: f64 = self.config.cruise_speed;
        // Slow down for the sharpest curvature in the preview window.
        let samples = 5;
        for i in 0..=samples {
            let ahead = station + self.config.preview * i as f64 / samples as f64;
            let kappa = self.track.curvature_at(ahead).abs();
            if kappa > 1e-6 {
                target = target.min((self.config.lat_accel_limit / kappa).sqrt());
            }
        }
        // Taper to a stop at the end of open tracks.
        if !self.track.is_closed() {
            let remaining = (self.track.length() - station).max(0.0);
            target = target.min((2.0 * self.config.goal_decel * remaining).sqrt());
        }
        target
    }

    /// Captures the stack's complete mutable state as plain data — the
    /// estimator, lateral controller and PID internals plus the progress
    /// tracker. Restoring it into a stack built from the same
    /// [`StackConfig`] and track resumes the control law bit-identically.
    pub fn save_state(&self) -> StackState {
        StackState {
            estimator: match &self.estimator {
                AnyEstimator::Complementary(e) => AnyEstimatorState::Complementary(e.state()),
                AnyEstimator::Ekf(e) => AnyEstimatorState::Ekf(e.state()),
            },
            lateral: match &self.lateral {
                Lateral::PurePursuit(_) | Lateral::Stanley(_) => LateralState::Stateless,
                Lateral::Lqr(c) => LateralState::Lqr(c.state()),
                Lateral::Mpc(c) => LateralState::Mpc(c.state()),
            },
            pid: self.pid.state(),
            progress: self.progress,
            last_station: self.last_station,
        }
    }

    /// Reinstates a state captured with [`AdStack::save_state`].
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot's estimator/controller family
    /// does not match this stack's configuration.
    pub fn restore_state(&mut self, s: &StackState) -> Result<(), String> {
        match (&mut self.estimator, &s.estimator) {
            (AnyEstimator::Complementary(e), AnyEstimatorState::Complementary(snap)) => {
                e.restore(snap);
            }
            (AnyEstimator::Ekf(e), AnyEstimatorState::Ekf(snap)) => e.restore(snap),
            _ => {
                return Err(format!(
                    "estimator snapshot does not match the stack's {} estimator",
                    self.config.estimator_kind
                ))
            }
        }
        match (&mut self.lateral, &s.lateral) {
            (Lateral::PurePursuit(_) | Lateral::Stanley(_), LateralState::Stateless) => {}
            (Lateral::Lqr(c), LateralState::Lqr(snap)) => c.restore(snap),
            (Lateral::Mpc(c), LateralState::Mpc(snap)) => c.restore(snap),
            _ => {
                return Err(format!(
                    "controller snapshot does not match the stack's {} controller",
                    self.config.controller
                ))
            }
        }
        self.pid.restore(&s.pid);
        self.progress = s.progress;
        self.last_station = s.last_station;
        Ok(())
    }

    fn update_progress(&mut self, station: f64) {
        match self.last_station {
            None => self.progress = station,
            Some(prev) => {
                let mut delta = station - prev;
                if self.track.is_closed() {
                    let len = self.track.length();
                    if delta > len / 2.0 {
                        delta -= len;
                    } else if delta < -len / 2.0 {
                        delta += len;
                    }
                }
                self.progress += delta;
            }
        }
        self.last_station = Some(station);
    }
}

impl Driver for AdStack {
    fn control(&mut self, ctx: &DriveCtx<'_>, trace: &mut Trace) -> Controls {
        let est = self.estimator.update(ctx.frame, ctx.dt);
        let proj = self.track.project(est.position);
        self.update_progress(proj.station);

        let heading_err = wrap_angle(est.heading - proj.heading);
        let target_speed = self.target_speed(proj.station);

        let steer = if self.estimator.is_initialized() {
            self.lateral.steer(&est, &proj, &self.track, ctx.dt)
        } else {
            0.0
        };
        let accel = self.pid.update(target_speed, est.speed, ctx.dt);

        let t = ctx.time;
        trace.record(sig::EST_X, t, est.position.x);
        trace.record(sig::EST_Y, t, est.position.y);
        trace.record(sig::EST_HEADING, t, est.heading);
        trace.record(sig::EST_SPEED, t, est.speed);
        trace.record(sig::INNOVATION, t, self.estimator.last_innovation());
        trace.record(sig::XTRACK_ERR, t, proj.cross_track);
        trace.record(sig::HEADING_ERR, t, heading_err);
        trace.record(sig::TARGET_SPEED, t, target_speed);
        trace.record(sig::PROGRESS, t, self.progress);

        Controls::new(steer, accel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adassure_sim::engine::{Engine, SimConfig};
    use adassure_sim::sensor::SensorConfig;
    use adassure_trace::stats::SummaryStats;

    fn run_stack(
        kind: ControllerKind,
        track: Track,
        duration: f64,
        seed: u64,
    ) -> adassure_sim::engine::SimOutput {
        let mut stack = AdStack::new(StackConfig::new(kind), track.clone());
        let engine = Engine::new(SimConfig::new(duration).with_seed(seed), track);
        engine.run(&mut stack).expect("simulation must not diverge")
    }

    #[test]
    fn every_controller_follows_a_straight_road() {
        let track = Track::line([0.0, 0.0], [250.0, 0.0], 1.0).unwrap();
        for kind in ControllerKind::ALL {
            let out = run_stack(kind, track.clone(), 60.0, 42);
            assert!(out.reached_goal, "{kind} failed to reach the goal");
            let xtrack = out.trace.require(sig::TRUE_XTRACK_ERR).unwrap();
            let stats = SummaryStats::from_series(xtrack).unwrap();
            // Launch transients may excurse briefly (MPC especially); the
            // sustained tracking quality is what matters.
            assert!(
                stats.rms < 0.5,
                "{kind} cross-track rms too large: {stats:?}"
            );
            assert!(
                stats.max.abs().max(stats.min.abs()) < 2.0,
                "{kind} cross-track excursion too large: {stats:?}"
            );
        }
    }

    #[test]
    fn every_controller_follows_a_curve() {
        let track = Track::from_waypoints(
            [
                [0.0, 0.0],
                [40.0, 0.0],
                [70.0, 10.0],
                [90.0, 30.0],
                [100.0, 60.0],
                [100.0, 100.0],
            ],
            1.0,
            false,
        )
        .unwrap();
        for kind in ControllerKind::ALL {
            let out = run_stack(kind, track.clone(), 90.0, 7);
            assert!(out.reached_goal, "{kind} failed to reach the goal");
            let xtrack = out.trace.require(sig::TRUE_XTRACK_ERR).unwrap();
            let worst = xtrack.values().map(f64::abs).fold(0.0f64, f64::max);
            assert!(worst < 2.0, "{kind} worst cross-track {worst}");
        }
    }

    #[test]
    fn stack_records_all_pipeline_signals() {
        let track = Track::line([0.0, 0.0], [100.0, 0.0], 1.0).unwrap();
        let out = run_stack(ControllerKind::PurePursuit, track, 30.0, 3);
        for name in [
            sig::EST_X,
            sig::EST_SPEED,
            sig::INNOVATION,
            sig::XTRACK_ERR,
            sig::HEADING_ERR,
            sig::TARGET_SPEED,
            sig::PROGRESS,
        ] {
            assert!(
                out.trace.require(name).unwrap().len() > 100,
                "missing pipeline signal {name}"
            );
        }
    }

    #[test]
    fn progress_is_monotone_on_clean_run() {
        let track = Track::line([0.0, 0.0], [150.0, 0.0], 1.0).unwrap();
        let out = run_stack(ControllerKind::Stanley, track, 60.0, 9);
        let progress = out.trace.require(sig::PROGRESS).unwrap();
        let mut prev = f64::NEG_INFINITY;
        for v in progress.values() {
            assert!(v >= prev - 0.6, "progress regressed: {v} after {prev}");
            prev = v;
        }
    }

    #[test]
    fn speed_tracks_target_within_tolerance() {
        let track = Track::line([0.0, 0.0], [400.0, 0.0], 1.0).unwrap();
        let out = run_stack(ControllerKind::PurePursuit, track.clone(), 80.0, 1);
        // After the launch transient, speed should sit near the target.
        let speed = out.trace.require(sig::TRUE_SPEED).unwrap();
        let target = out.trace.require(sig::TARGET_SPEED).unwrap();
        let mut worst = 0.0f64;
        for s in speed
            .samples()
            .iter()
            .filter(|s| s.time > 10.0 && s.time < 30.0)
        {
            if let Some(t) = target.value_at(s.time) {
                worst = worst.max((s.value - t).abs());
            }
        }
        assert!(worst < 1.0, "speed tracking error {worst}");
    }

    #[test]
    fn curve_speed_planning_slows_for_corners() {
        let stack = AdStack::new(
            StackConfig::new(ControllerKind::PurePursuit).with_cruise_speed(15.0),
            Track::circle([0.0, 0.0], 15.0, 1.0).unwrap(),
        );
        // Circle of r=15 with a_lat=2.5 → v = sqrt(2.5*15) ≈ 6.1 m/s.
        let target = stack.target_speed(10.0);
        assert!(target < 7.5, "corner target {target}");
        assert!(target > 4.0, "corner target {target}");
    }

    #[test]
    fn goal_taper_stops_at_track_end() {
        let stack = AdStack::new(
            StackConfig::new(ControllerKind::PurePursuit),
            Track::line([0.0, 0.0], [100.0, 0.0], 1.0).unwrap(),
        );
        assert!(stack.target_speed(99.5) < 1.5);
        assert_eq!(stack.target_speed(100.0), 0.0);
    }

    #[test]
    fn ideal_sensors_give_near_perfect_tracking() {
        let track = Track::line([0.0, 0.0], [200.0, 0.0], 1.0).unwrap();
        let mut stack = AdStack::new(StackConfig::new(ControllerKind::Lqr), track.clone());
        let config = SimConfig::new(40.0)
            .with_seed(0)
            .with_sensors(SensorConfig::ideal());
        let out = Engine::new(config, track).run(&mut stack).unwrap();
        let xtrack = out.trace.require(sig::TRUE_XTRACK_ERR).unwrap();
        let worst = xtrack.values().map(f64::abs).fold(0.0f64, f64::max);
        assert!(worst < 0.2, "ideal-sensor worst cross-track {worst}");
    }

    #[test]
    fn every_estimator_tracks_the_road() {
        let track = Track::line([0.0, 0.0], [250.0, 0.0], 1.0).unwrap();
        for kind in EstimatorKind::ALL {
            let config = StackConfig::new(ControllerKind::PurePursuit).with_estimator(kind);
            let mut stack = AdStack::new(config, track.clone());
            let engine = Engine::new(SimConfig::new(60.0).with_seed(13), track.clone());
            let out = engine.run(&mut stack).expect("run");
            assert!(out.reached_goal, "{kind} stack failed to reach the goal");
            let xtrack = out.trace.require(sig::TRUE_XTRACK_ERR).unwrap();
            let stats = SummaryStats::from_series(xtrack).unwrap();
            assert!(stats.rms < 0.5, "{kind} rms {stats:?}");
        }
    }

    #[test]
    fn estimator_kinds_have_unique_names() {
        let names: std::collections::HashSet<_> =
            EstimatorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EstimatorKind::ALL.len());
        assert_eq!(EstimatorKind::default(), EstimatorKind::Complementary);
    }

    #[test]
    fn reset_restores_initial_behaviour() {
        let track = Track::line([0.0, 0.0], [100.0, 0.0], 1.0).unwrap();
        let mut stack = AdStack::new(StackConfig::new(ControllerKind::PurePursuit), track.clone());
        let engine = Engine::new(SimConfig::new(10.0).with_seed(4), track);
        let first = engine.run(&mut stack).unwrap();
        stack.reset();
        let second = engine.run(&mut stack).unwrap();
        assert_eq!(first.trace, second.trace, "reset must be complete");
    }
}
