//! Property-based tests of the control algorithms' invariants.

use adassure_control::lqr::{Lqr, LqrConfig};
use adassure_control::pid::{Pid, PidConfig};
use adassure_control::pure_pursuit::PurePursuit;
use adassure_control::stanley::Stanley;
use adassure_control::{Estimate, LateralController};
use adassure_sim::geometry::Vec2;
use adassure_sim::track::Track;
use proptest::prelude::*;

/// Steers `c` as the stack does: from the estimate's own projection.
fn steer_on(c: &mut (impl LateralController + ?Sized), est: &Estimate, track: &Track) -> f64 {
    c.steer(est, &track.project(est.position), track, 0.01)
}

fn arbitrary_estimate() -> impl Strategy<Value = Estimate> {
    (-50.0f64..350.0, -30.0f64..30.0, -3.2f64..3.2, 0.0f64..25.0).prop_map(
        |(x, y, heading, speed)| Estimate {
            position: Vec2::new(x, y),
            heading,
            speed,
            yaw_rate: 0.0,
        },
    )
}

proptest! {
    #[test]
    fn stanley_output_is_always_clamped(est in arbitrary_estimate()) {
        let track = Track::line([0.0, 0.0], [300.0, 0.0], 1.0).unwrap();
        let mut c = Stanley::default();
        let steer = steer_on(&mut c, &est, &track);
        prop_assert!(steer.is_finite());
        prop_assert!(steer.abs() <= 0.55 + 1e-12);
    }

    #[test]
    fn lqr_output_is_always_clamped(est in arbitrary_estimate()) {
        let track = Track::line([0.0, 0.0], [300.0, 0.0], 1.0).unwrap();
        let mut c = Lqr::default();
        let steer = steer_on(&mut c, &est, &track);
        prop_assert!(steer.is_finite());
        prop_assert!(steer.abs() <= 0.55 + 1e-12);
    }

    #[test]
    fn pure_pursuit_output_is_finite_and_geometric(est in arbitrary_estimate()) {
        let track = Track::line([0.0, 0.0], [300.0, 0.0], 1.0).unwrap();
        let mut c = PurePursuit::default();
        let steer = steer_on(&mut c, &est, &track);
        prop_assert!(steer.is_finite());
        // atan is bounded by ±π/2 whatever the geometry.
        prop_assert!(steer.abs() <= std::f64::consts::FRAC_PI_2 + 1e-12);
    }

    #[test]
    fn lqr_gains_are_finite_positive_over_the_speed_range(v in 0.0f64..30.0) {
        let k = Lqr::solve_gains(&LqrConfig::standard(), v);
        prop_assert!(k[0].is_finite() && k[1].is_finite());
        prop_assert!(k[0] > 0.0 && k[1] > 0.0, "{k:?}");
    }

    #[test]
    fn pid_output_respects_saturation(
        targets in proptest::collection::vec(-50.0f64..50.0, 1..100),
        measured in proptest::collection::vec(-50.0f64..50.0, 1..100),
    ) {
        let mut pid = Pid::new(PidConfig::speed_control());
        for (t, m) in targets.iter().zip(&measured) {
            let u = pid.update(*t, *m, 0.01);
            prop_assert!((-6.0..=4.0).contains(&u), "output {u} outside bounds");
        }
    }

    #[test]
    fn pid_reset_restores_fresh_behaviour(
        history in proptest::collection::vec(-20.0f64..20.0, 1..50),
        target in -10.0f64..10.0,
        measured in -10.0f64..10.0,
    ) {
        let mut used = Pid::new(PidConfig::speed_control());
        for h in &history {
            used.update(*h, 0.0, 0.01);
        }
        used.reset();
        let mut fresh = Pid::new(PidConfig::speed_control());
        prop_assert_eq!(used.update(target, measured, 0.01), fresh.update(target, measured, 0.01));
    }

    #[test]
    fn steering_sign_opposes_lateral_offset(offset in 0.2f64..10.0) {
        // For a vehicle aligned with a straight path, every controller must
        // steer toward the path — the sign convention that keeps the loop
        // stable.
        let track = Track::line([0.0, 0.0], [300.0, 0.0], 1.0).unwrap();
        let make = |y: f64| Estimate {
            position: Vec2::new(50.0, y),
            heading: 0.0,
            speed: 8.0,
            yaw_rate: 0.0,
        };
        let mut stanley = Stanley::default();
        let mut lqr = Lqr::default();
        let mut pp = PurePursuit::default();
        for c in [&mut stanley as &mut dyn LateralController, &mut lqr, &mut pp] {
            prop_assert!(steer_on(c, &make(offset), &track) < 0.0);
            prop_assert!(steer_on(c, &make(-offset), &track) > 0.0);
        }
    }
}
