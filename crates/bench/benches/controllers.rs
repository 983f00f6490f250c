//! Criterion micro-benchmarks of the four lateral controllers' per-cycle
//! cost (the denominator of the F3 overhead comparison: the monitor should
//! be cheap *relative to the controllers it watches*). Each step includes
//! the projection of the estimate that the stack computes for it.

use criterion::{criterion_group, criterion_main, Criterion};

use adassure_control::lqr::{Lqr, LqrConfig};
use adassure_control::mpc::{Mpc, MpcConfig};
use adassure_control::pure_pursuit::{PurePursuit, PurePursuitConfig};
use adassure_control::stanley::{Stanley, StanleyConfig};
use adassure_control::{Estimate, LateralController};
use adassure_sim::geometry::Vec2;
use adassure_sim::track::Track;

fn estimate() -> Estimate {
    Estimate {
        position: Vec2::new(50.0, 0.4),
        heading: 0.02,
        speed: 8.0,
        yaw_rate: 0.01,
    }
}

fn bench_controllers(c: &mut Criterion) {
    let track = Track::line([0.0, 0.0], [300.0, 0.0], 1.0).expect("track");
    let est = estimate();

    let mut pp = PurePursuit::new(PurePursuitConfig::standard());
    c.bench_function("controller/pure_pursuit_step", |b| {
        b.iter(|| {
            let est = std::hint::black_box(&est);
            pp.steer(est, &track.project(est.position), &track, 0.01)
        })
    });

    let mut stanley = Stanley::new(StanleyConfig::standard());
    c.bench_function("controller/stanley_step", |b| {
        b.iter(|| {
            let est = std::hint::black_box(&est);
            stanley.steer(est, &track.project(est.position), &track, 0.01)
        })
    });

    let mut lqr = Lqr::new(LqrConfig::standard());
    c.bench_function("controller/lqr_step", |b| {
        b.iter(|| {
            let est = std::hint::black_box(&est);
            lqr.steer(est, &track.project(est.position), &track, 0.01)
        })
    });

    let mut mpc = Mpc::new(MpcConfig::standard());
    c.bench_function("controller/mpc_step_amortised", |b| {
        b.iter(|| {
            let est = std::hint::black_box(&est);
            mpc.steer(est, &track.project(est.position), &track, 0.01)
        })
    });
}

fn bench_lqr_gain_solve(c: &mut Criterion) {
    c.bench_function("controller/lqr_dare_solve", |b| {
        b.iter(|| Lqr::solve_gains(std::hint::black_box(&LqrConfig::standard()), 10.0))
    });
}

criterion_group!(benches, bench_controllers, bench_lqr_gain_solve);
criterion_main!(benches);
