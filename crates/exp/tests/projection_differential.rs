//! Differential test of `Track::project` against the plain linear scan, on
//! the tracks and trajectories the campaigns actually drive: the six
//! scenario tracks with vertices, midpoints, offsets, far-off and
//! non-finite points, plus every true and estimated position of a few
//! campaign runs (MPC, a closed track, attacked estimates). Every field of
//! every projection must agree bit for bit.

#[path = "../../sim/tests/linear_scan/mod.rs"]
mod linear_scan;

use adassure_attacks::Channel;
use adassure_control::ControllerKind;
use adassure_exp::campaign::simulate;
use adassure_exp::grid::{AttackSet, Grid};
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_sim::geometry::Vec2;
use adassure_sim::track::Track;
use adassure_trace::{well_known as sig, Trace};

fn assert_matches_scan(track: &Track, points: impl IntoIterator<Item = Vec2>, what: &str) {
    for p in points {
        assert_eq!(
            linear_scan::bits(&track.project(p)),
            linear_scan::bits(&linear_scan::project(track, p)),
            "{what}: point {p:?}"
        );
    }
}

/// SplitMix64 stream of points uniform over the track's bounding box grown
/// by `margin` metres on every side.
fn scattered(track: &Track, margin: f64, count: usize, seed: u64) -> Vec<Vec2> {
    let (lo, hi) = track.points().iter().fold(
        (Vec2::new(f64::MAX, f64::MAX), Vec2::new(f64::MIN, f64::MIN)),
        |(lo, hi), p| {
            (
                Vec2::new(lo.x.min(p.x), lo.y.min(p.y)),
                Vec2::new(hi.x.max(p.x), hi.y.max(p.y)),
            )
        },
    );
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    (0..count)
        .map(|_| {
            Vec2::new(
                lo.x - margin + unit() * (hi.x - lo.x + 2.0 * margin),
                lo.y - margin + unit() * (hi.y - lo.y + 2.0 * margin),
            )
        })
        .collect()
}

#[test]
fn scenario_tracks_project_exactly_as_the_scan() {
    for kind in ScenarioKind::ALL {
        let track = Scenario::of_kind(kind).expect("standard scenario").track;
        assert_matches_scan(&track, linear_scan::probe_points(&track), kind.name());
        for (margin, seed) in [(1.0, 1), (10.0, 2), (100.0, 3), (500.0, 4)] {
            assert_matches_scan(
                &track,
                scattered(&track, margin, 2_000, seed),
                &format!("{} scattered within {margin} m", kind.name()),
            );
        }
    }
}

fn positions(trace: &Trace, x: &str, y: &str) -> Vec<Vec2> {
    let xs = trace.require(x).expect("x signal recorded").samples();
    let ys = trace.require(y).expect("y signal recorded").samples();
    xs.iter()
        .zip(ys)
        .map(|(x, y)| Vec2::new(x.value, y.value))
        .collect()
}

#[test]
fn campaign_trajectories_project_exactly_as_the_scan() {
    let cells = [
        (
            ScenarioKind::Straight,
            ControllerKind::Mpc,
            Channel::Compass,
        ),
        (
            ScenarioKind::Circle,
            ControllerKind::PurePursuit,
            Channel::Gnss,
        ),
        (
            ScenarioKind::UrbanLoop,
            ControllerKind::Stanley,
            Channel::WheelSpeed,
        ),
        (ScenarioKind::Hairpin, ControllerKind::Lqr, Channel::Gnss),
    ];
    for (scenario, controller, channel) in cells {
        let track = Scenario::of_kind(scenario)
            .expect("standard scenario")
            .track;
        let grid = Grid::new()
            .scenarios([scenario])
            .controllers([controller])
            .attacks(AttackSet::Channel(channel))
            .include_clean(true)
            .seeds([3]);
        // The clean run and the first attack on the channel.
        for spec in grid.cells().into_iter().take(2) {
            let trace = simulate(&spec).expect("cell simulates").trace;
            let what = format!(
                "{} {} {}",
                scenario.name(),
                controller.name(),
                spec.attack.map_or("clean", |a| a.name())
            );
            assert_matches_scan(&track, positions(&trace, sig::TRUE_X, sig::TRUE_Y), &what);
            assert_matches_scan(&track, positions(&trace, sig::EST_X, sig::EST_Y), &what);
        }
    }
}
