//! Criterion micro-benchmarks of the simulator substrate: physics stepping,
//! track projection and a full closed-loop second.

use criterion::{criterion_group, criterion_main, Criterion};

use adassure_control::pipeline::{AdStack, StackConfig};
use adassure_control::ControllerKind;
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_sim::engine::{Engine, SimConfig};
use adassure_sim::track::Track;
use adassure_sim::vehicle::{Controls, VehicleModel, VehicleState};

fn bench_vehicle_step(c: &mut Criterion) {
    let kin = VehicleModel::kinematic();
    let dyn_ = VehicleModel::dynamic();
    let mut state = VehicleState::at([0.0, 0.0], 0.1);
    state.speed = 8.0;
    let controls = Controls::new(0.05, 0.5);

    c.bench_function("vehicle/kinematic_rk4_step", |b| {
        b.iter(|| kin.step(std::hint::black_box(&state), controls, 0.01))
    });
    c.bench_function("vehicle/dynamic_rk4_step", |b| {
        b.iter(|| dyn_.step(std::hint::black_box(&state), controls, 0.01))
    });
}

fn bench_track_projection(c: &mut Criterion) {
    let track = Track::circle([0.0, 0.0], 25.0, 1.0).expect("track");
    let point = [20.0, 12.0];

    c.bench_function("track/project_onto_circle", |b| {
        b.iter(|| std::hint::black_box(&track).project(std::hint::black_box(point)))
    });

    // The straight scenario's 400 one-metre segments: a point on the road,
    // and one 200 m off its middle, where every box is nearly as far as
    // the best segment and pruning helps least.
    let straight = Track::line([0.0, 0.0], [400.0, 0.0], 1.0).expect("track");
    c.bench_function("track/project_straight_400m", |b| {
        b.iter(|| std::hint::black_box(&straight).project(std::hint::black_box([250.3, 0.4])))
    });
    c.bench_function("track/project_far_point", |b| {
        b.iter(|| std::hint::black_box(&straight).project(std::hint::black_box([200.0, 200.0])))
    });
}

fn bench_closed_loop_second(c: &mut Criterion) {
    let scenario = Scenario::of_kind(ScenarioKind::Straight).expect("scenario");

    c.bench_function("engine/one_simulated_second_pure_pursuit", |b| {
        b.iter(|| {
            let mut stack = AdStack::new(
                StackConfig::new(ControllerKind::PurePursuit),
                scenario.track.clone(),
            );
            let engine = Engine::new(SimConfig::new(1.0).with_seed(1), scenario.track.clone());
            engine.run(&mut stack).expect("run")
        })
    });
}

criterion_group!(
    benches,
    bench_vehicle_step,
    bench_track_projection,
    bench_closed_loop_second
);
criterion_main!(benches);
