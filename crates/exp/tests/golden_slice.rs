//! Byte pin of campaign output. A fixed slice of the grid is re-run and its
//! serialized [`RunRecord`]s, plus a digest of every sample of every cell's
//! trace, are compared with committed golden files, so any change that
//! moves a single bit of the closed loop (vehicle, sensors, attacks,
//! estimator, controller, track projection, checker, diagnosis) fails here.
//!
//! The slice covers MPC on the straight road (the heaviest user of track
//! projection: one call per rollout step) and pure pursuit on the closed
//! circle (station wrap-around), each clean and under the compass attack.

use adassure_attacks::Channel;
use adassure_control::ControllerKind;
use adassure_exp::campaign::simulate;
use adassure_exp::grid::{AttackSet, Grid};
use adassure_exp::{Campaign, RunRecord};
use adassure_scenarios::ScenarioKind;

const GOLDEN_RECORDS: &str = include_str!("../testdata/campaign_slice.json");
const GOLDEN_TRACES: &str = include_str!("../testdata/campaign_slice_traces.txt");

fn grids() -> [Grid; 2] {
    [
        (ScenarioKind::Straight, ControllerKind::Mpc),
        (ScenarioKind::Circle, ControllerKind::PurePursuit),
    ]
    .map(|(scenario, controller)| {
        Grid::new()
            .scenarios([scenario])
            .controllers([controller])
            .attacks(AttackSet::Channel(Channel::Compass))
            .include_clean(true)
            .seeds([1])
    })
}

/// FNV-1a over signal names and the bits of every sample's time and value.
fn trace_digest(trace: &adassure_trace::Trace) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for series in trace.iter() {
        eat(series.id().as_str().as_bytes());
        for s in series.samples() {
            eat(&s.time.to_bits().to_le_bytes());
            eat(&s.value.to_bits().to_le_bytes());
        }
    }
    hash
}

fn assert_same(actual: &str, golden: &str, file: &str) {
    if actual != golden {
        let first_diff = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .map_or_else(
                || "length differs".to_owned(),
                |i| format!("line {}", i + 1),
            );
        panic!("campaign slice differs from testdata/{file} ({first_diff}):\n{actual}");
    }
}

#[test]
fn campaign_slice_records_match_golden_bytes() {
    let records: Vec<RunRecord> = grids()
        .into_iter()
        .flat_map(|grid| {
            Campaign::new("golden_slice", grid)
                .run()
                .expect("slice campaign runs")
                .runs
        })
        .collect();
    let mut actual = serde_json::to_string_pretty(&records).expect("records serialize");
    actual.push('\n');
    assert_same(&actual, GOLDEN_RECORDS, "campaign_slice.json");
}

#[test]
fn campaign_slice_traces_match_golden_digests() {
    let actual: String = grids()
        .iter()
        .flat_map(Grid::cells)
        .map(|spec| {
            let output = simulate(&spec).expect("slice cell simulates");
            format!(
                "{} {} {} {:016x}\n",
                spec.scenario.name(),
                spec.controller.name(),
                spec.attack.map_or("clean", |a| a.name()),
                trace_digest(&output.trace)
            )
        })
        .collect();
    assert_same(&actual, GOLDEN_TRACES, "campaign_slice_traces.txt");
}
