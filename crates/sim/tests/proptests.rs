//! Property-based tests of the simulator substrate's invariants.

mod linear_scan;

use adassure_sim::actuator::{Actuator, ActuatorParams};
use adassure_sim::geometry::{angle_diff, wrap_angle, Vec2};
use adassure_sim::track::Track;
use adassure_sim::vehicle::{Controls, VehicleModel, VehicleState};
use proptest::prelude::*;
use std::f64::consts::PI;

/// Random open or closed polylines, resampled at a random spacing; a plain
/// line where the waypoints do not make a valid track.
fn arbitrary_track() -> impl Strategy<Value = Track> {
    (
        proptest::collection::vec((-80.0f64..80.0, -80.0f64..80.0), 2..8),
        0.5f64..3.0,
        any::<bool>(),
    )
        .prop_map(|(waypoints, spacing, closed)| {
            Track::from_waypoints(waypoints, spacing, closed)
                .or_else(|_| Track::line([0.0, 0.0], [50.0, 0.0], spacing))
                .expect("fallback line is a valid track")
        })
}

proptest! {
    #[test]
    fn projection_matches_linear_scan_bit_for_bit(
        track in arbitrary_track(),
        scattered in proptest::collection::vec((-700.0f64..700.0, -700.0f64..700.0), 64),
    ) {
        let probes = linear_scan::probe_points(&track)
            .into_iter()
            .chain(scattered.into_iter().map(Vec2::from));
        for p in probes {
            prop_assert_eq!(
                linear_scan::bits(&track.project(p)),
                linear_scan::bits(&linear_scan::project(&track, p)),
                "point {:?} on a {}-point {} track",
                p,
                track.points().len(),
                if track.is_closed() { "closed" } else { "open" }
            );
        }
    }

    #[test]
    fn wrap_angle_stays_in_half_open_interval(a in -1e4f64..1e4) {
        let w = wrap_angle(a);
        prop_assert!(w > -PI - 1e-9 && w <= PI + 1e-9);
        // Same direction modulo 2π: (a - w) must be an integer multiple of τ.
        let k = (a - w) / std::f64::consts::TAU;
        prop_assert!((k - k.round()).abs() < 1e-9, "a={a} w={w} k={k}");
    }

    #[test]
    fn angle_diff_is_antisymmetric_mod_tau(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let d1 = angle_diff(a, b);
        let d2 = angle_diff(b, a);
        let sum = wrap_angle(d1 + d2);
        prop_assert!(sum.abs() < 1e-9, "d1 {d1} d2 {d2}");
    }

    #[test]
    fn rotation_preserves_norm_and_inverts(
        x in -1e3f64..1e3,
        y in -1e3f64..1e3,
        angle in -10.0f64..10.0,
    ) {
        let v = Vec2::new(x, y);
        let r = v.rotated(angle);
        prop_assert!((r.norm() - v.norm()).abs() < 1e-6 * v.norm().max(1.0));
        let back = r.rotated(-angle);
        prop_assert!(back.distance(v) < 1e-6 * v.norm().max(1.0));
    }

    #[test]
    fn points_on_a_line_project_to_themselves(s in 0.0f64..100.0) {
        let track = Track::line([0.0, 0.0], [100.0, 0.0], 1.0).unwrap();
        let p = track.point_at(s);
        let proj = track.project(p);
        prop_assert!(proj.cross_track.abs() < 1e-6);
        prop_assert!((proj.station - s).abs() < 1e-6);
    }

    #[test]
    fn circle_projection_recovers_offset(
        s in 0.0f64..150.0,
        offset in -5.0f64..5.0,
    ) {
        let track = Track::circle([0.0, 0.0], 25.0, 0.5).unwrap();
        let s = s % track.length();
        let p = track.point_at(s);
        let heading = track.heading_at(s);
        // Move `offset` to the left of the travel direction.
        let left = Vec2::from_angle(heading).perp();
        let proj = track.project(p + left * offset);
        // Cross-track must recover the signed offset (coarse polyline ⇒
        // centimetre-level tolerance).
        prop_assert!((proj.cross_track - offset).abs() < 0.05,
            "offset {offset} recovered as {}", proj.cross_track);
    }

    #[test]
    fn physics_stays_finite_under_arbitrary_bounded_controls(
        steers in proptest::collection::vec(-1.0f64..1.0, 1..200),
        accels in proptest::collection::vec(-10.0f64..10.0, 1..200),
        dynamic in any::<bool>(),
    ) {
        let model = if dynamic { VehicleModel::dynamic() } else { VehicleModel::kinematic() };
        let mut state = VehicleState::at([0.0, 0.0], 0.0);
        state.speed = 5.0;
        for (s, a) in steers.iter().zip(&accels) {
            state = model.step(&state, Controls::new(*s, *a), 0.01);
            prop_assert!(state.is_finite(), "diverged: {state:?}");
            prop_assert!(state.speed >= 0.0 && state.speed <= model.params.max_speed);
            prop_assert!(state.heading > -PI - 1e-9 && state.heading <= PI + 1e-9);
        }
    }

    #[test]
    fn actuator_respects_range_and_rate(
        commands in proptest::collection::vec(-10.0f64..10.0, 1..100),
        rate in 0.1f64..10.0,
    ) {
        let params = ActuatorParams {
            time_constant: 0.05,
            rate_limit: rate,
            min: -1.0,
            max: 1.0,
        };
        let mut act = Actuator::new(params);
        let mut prev = act.value();
        for c in commands {
            let out = act.step(c, 0.01);
            prop_assert!((-1.0..=1.0).contains(&out));
            prop_assert!((out - prev).abs() <= rate * 0.01 + 1e-12);
            prev = out;
        }
    }

    #[test]
    fn kinematic_yaw_rate_matches_bicycle_relation(
        steer in -0.5f64..0.5,
        speed in 0.5f64..20.0,
    ) {
        let model = VehicleModel::kinematic();
        let mut state = VehicleState::at([0.0, 0.0], 0.0);
        state.speed = speed;
        let next = model.step(&state, Controls::new(steer, 0.0), 0.01);
        let expected = next.speed * steer.tan() / model.params.wheelbase;
        prop_assert!((next.yaw_rate - expected).abs() < 1e-9,
            "yaw {} vs bicycle {expected}", next.yaw_rate);
    }
}
