//! The `campaign` workload: a debugging campaign run through
//! `Campaign::run`, the way the table and figure harnesses run theirs.
//!
//! A job is two campaigns, run one after the other, each one
//! `Campaign::run` over a whole grid: a table1/table3-shaped slice over
//! every scenario, and the MPC column of table2. The seed sets the grid
//! seed. A campaign hands back nothing until its whole grid is done, so
//! `ack_ms` is the latency of the first campaign and `verdict_ms` the
//! time until the last campaign's report is back (the whole job).

use std::time::Instant;

use adassure_attacks::Channel;
use adassure_control::ControllerKind;
use adassure_core::{Assertion, CheckReport, HealthConfig};
use adassure_exp::campaign::{execute, standard_catalog};
use adassure_exp::{AttackSet, Campaign, CampaignReport, Grid, RunRecord, RunSpec, Runtime};
use adassure_scenarios::{Scenario, ScenarioKind};
use adassure_sim::engine::SimOutput;
use adassure_trace::ColumnarTrace;

use crate::layers::{self, Acc, SimTimes, SpanLog};
use crate::stats;
use crate::{ingest, mix, repeat, timed_setup, Args, Outcome};

/// Set-up repetitions whose median is `setup_s`. A campaign's set-up is
/// well under a millisecond (`Campaign::run` builds its scenarios inside
/// the job), so many repetitions steady the median.
const SETUP_REPS: usize = 1001;

/// Repetitions of the job a run makes at the least, so that every run
/// compares the records of two repetitions.
const MIN_REPS: usize = 2;

/// Cells re-checked per run through the scalar checker as a reference.
const REFERENCE_CELLS: usize = 2;

/// One campaign of the job.
#[derive(Debug)]
struct Request {
    name: &'static str,
    grid: Grid,
}

/// What set-up builds: the campaigns in submission order, and each
/// scenario's standard catalog for the reference check and the traced
/// run.
struct Setup {
    requests: Vec<Request>,
    catalogs: Vec<(ScenarioKind, Vec<Assertion>)>,
}

fn setup(seed: u64) -> Setup {
    let grid_seed = mix(seed, 1);
    let requests = vec![
        // The table1/table3 slice: every scenario (projection cost grows
        // with segment count; closed tracks take the seam-unwrap path)
        // under the three geometric/LQR controllers, clean plus the
        // standard wheel-speed attacks. All eleven standard attacks
        // would take 21 s a job on two workers, too long to repeat the
        // job within one run.
        Request {
            name: "t1_t3_slice",
            grid: Grid::new()
                .scenarios(ScenarioKind::ALL)
                .controllers([
                    ControllerKind::PurePursuit,
                    ControllerKind::Stanley,
                    ControllerKind::Lqr,
                ])
                .attacks(AttackSet::Channel(Channel::WheelSpeed))
                .include_clean(true)
                .seeds([grid_seed]),
        },
        // The MPC column of table2, cut to the compass attack: the MPC
        // horizon loop makes its cells take seconds each, and nothing
        // else runs `control::mpc`.
        Request {
            name: "t2_mpc",
            grid: Grid::new()
                .scenarios([ScenarioKind::Straight, ScenarioKind::SCurve])
                .controllers([ControllerKind::Mpc])
                .attacks(AttackSet::Channel(Channel::Compass))
                .seeds([grid_seed]),
        },
    ];
    let catalogs = ScenarioKind::ALL
        .iter()
        .map(|&kind| {
            let scenario = Scenario::of_kind(kind).expect("standard scenario builds");
            (kind, standard_catalog(&scenario))
        })
        .collect();
    Setup { requests, catalogs }
}

impl Setup {
    fn catalog(&self, kind: ScenarioKind) -> &[Assertion] {
        &self
            .catalogs
            .iter()
            .find(|(k, _)| *k == kind)
            .expect("catalog for every scenario")
            .1
    }

    fn cells(&self) -> usize {
        self.requests.iter().map(|r| r.grid.len()).sum()
    }
}

/// One job: every campaign through `Campaign::run`, in order. Returns
/// each campaign's report (or `None` when it failed) and the ms from the
/// start of the job until it was back.
fn job(setup: &Setup) -> Vec<(Option<CampaignReport>, f64)> {
    let t0 = Instant::now();
    setup
        .requests
        .iter()
        .map(|request| {
            let report = Campaign::new(request.name, request.grid.clone()).run().ok();
            (report, t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

fn records_json(runs: &[RunRecord]) -> Vec<u8> {
    serde_json::to_vec(runs).expect("run records serialize")
}

pub fn run(args: Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, setup) = timed_setup(SETUP_REPS, || setup(args.seed));
    out.meta_num("campaigns", setup.requests.len());
    out.meta_num("cells", setup.cells());
    if args.trace {
        traced(args, &setup, &mut out);
        return out;
    }
    out.metric("setup_s", "s", setup_s);
    let mut outputs = Vec::new();
    let reps = repeat(
        args.seconds,
        MIN_REPS,
        || job(&setup),
        |_, o| outputs.push(o),
    );

    let mut ack_ms = Vec::new();
    let mut verdict_ms = Vec::new();
    for rep in &outputs {
        ack_ms.push(rep[0].1);
        verdict_ms.push(rep[rep.len() - 1].1);
        for ((report, _), request) in rep.iter().zip(&setup.requests) {
            let cells = request.grid.len() as u64;
            // A campaign that errors yields no record for any cell.
            out.tally
                .add(cells, if report.is_some() { 0 } else { cells });
        }
    }
    check_outputs(&setup, &outputs, &mut out);
    out.latencies(&mut ack_ms, &mut verdict_ms);
    out.metric("wall_s", "s", stats::median(&reps.wall));
    out.metric("cpu_s", "s", stats::median(&reps.cpu));
    out.meta_num("reps", reps.wall.len());
    out
}

/// Output checks, outside the timed region: every repetition produced
/// the same record bytes, and reference cells re-run through the scalar
/// checker (`campaign::execute`) serialize to the same records as the
/// lane-checked campaign's.
fn check_outputs(setup: &Setup, outputs: &[Vec<(Option<CampaignReport>, f64)>], out: &mut Outcome) {
    out.check(outputs.len() >= MIN_REPS, || {
        format!("only {} repetitions to compare", outputs.len())
    });
    let first: Vec<Option<Vec<u8>>> = outputs[0]
        .iter()
        .map(|(r, _)| r.as_ref().map(|r| records_json(&r.runs)))
        .collect();
    for (i, (request, bytes)) in setup.requests.iter().zip(&first).enumerate() {
        out.check(bytes.is_some(), || {
            format!("campaign {} failed", request.name)
        });
        for (rep, later) in outputs.iter().enumerate().skip(1) {
            let again = later[i].0.as_ref().map(|r| records_json(&r.runs));
            out.check(again == *bytes, || {
                format!(
                    "campaign {} records differ in repetition {rep}",
                    request.name
                )
            });
        }
    }
    let Some(report) = outputs[0][0].0.as_ref() else {
        return;
    };
    let detected = report
        .runs
        .iter()
        .filter(|r| r.attack.is_some() && r.detected)
        .count();
    out.check(detected > 0, || {
        "no attack detected in the first campaign".into()
    });
    let cells = setup.requests[0].grid.cells();
    let reference: Vec<RunSpec> = cells.iter().rev().take(REFERENCE_CELLS).copied().collect();
    let records = Runtime::global().map(&reference, |spec| {
        execute(spec, setup.catalog(spec.scenario))
            .map(|(output, report)| RunRecord::from_run(spec, &output, &report))
    });
    for (spec, record) in reference.iter().zip(records) {
        let ok = record.is_ok_and(|r| {
            records_json(std::slice::from_ref(&r))
                == records_json(std::slice::from_ref(&report.runs[spec.index]))
        });
        out.check(ok, || {
            format!("cell {} differs from the scalar reference", spec.index)
        });
    }
}

/// One campaign, traced: cells simulated through the timed driver and
/// tap on the worker pool, then grouped per catalog in lane-width chunks
/// and checked as `Campaign::run` checks them, with the same records as
/// the result.
struct TracedCampaign {
    records: Vec<RunRecord>,
    reports: Vec<CheckReport>,
    outputs: Vec<SimOutput>,
    cells: Vec<RunSpec>,
    sim: SimTimes,
    columnar: Acc,
    lane: Acc,
    busy_ns: u64,
    failed: u64,
}

fn traced_campaign(setup: &Setup, request: &Request, spans: &SpanLog) -> TracedCampaign {
    let runtime = Runtime::global();
    let cells = request.grid.cells();
    let sims = runtime.map(&cells, |spec| {
        let start = Instant::now();
        let result = layers::simulate_traced(spec);
        if let Ok((_, t)) = &result {
            spans.record(
                format!("{}/cell{}", request.name, spec.index),
                start,
                &[
                    ("sim.engine_self", t.engine_self()),
                    ("control.stack", t.stack),
                    ("attacks.tap", t.tap),
                ],
            );
        }
        (result, layers::ns_since(start))
    });
    let mut traced = TracedCampaign {
        records: Vec::new(),
        reports: Vec::new(),
        outputs: Vec::new(),
        cells: cells.clone(),
        sim: SimTimes::default(),
        columnar: Acc::default(),
        lane: Acc::default(),
        busy_ns: 0,
        failed: 0,
    };
    for (result, busy) in sims {
        traced.busy_ns += busy;
        match result {
            Ok((output, t)) => {
                traced.sim.merge(&t);
                traced.outputs.push(output);
            }
            Err(_) => traced.failed += 1,
        }
    }
    if traced.failed > 0 {
        return traced;
    }
    // Lane groups as `Campaign::run` forms them: per scenario in order of
    // first appearance, that scenario's cells in cell order, chunked by
    // lane width.
    let mut kinds: Vec<ScenarioKind> = Vec::new();
    for cell in &cells {
        if !kinds.contains(&cell.scenario) {
            kinds.push(cell.scenario);
        }
    }
    let mut groups: Vec<(ScenarioKind, Vec<usize>)> = Vec::new();
    for kind in kinds {
        let indices: Vec<usize> = (0..cells.len())
            .filter(|&i| cells[i].scenario == kind)
            .collect();
        for chunk in indices.chunks(adassure_core::LANES) {
            groups.push((kind, chunk.to_vec()));
        }
    }
    let outputs = &traced.outputs;
    let checked = runtime.map(&groups, |(kind, indices)| {
        let start = Instant::now();
        let mut columnar = Acc::default();
        let traces: Vec<ColumnarTrace> = indices
            .iter()
            .map(|&i| {
                let o = &outputs[i];
                columnar.time(o.steps as u64, || ColumnarTrace::from_trace(&o.trace))
            })
            .collect();
        let mut lane = Acc::default();
        let cycles = traces.iter().map(|c| c.cycle_count() as u64).sum();
        let reports = lane.time(cycles, || {
            adassure_core::lane::check_columnar_observed(
                setup.catalog(*kind),
                HealthConfig::default(),
                &traces,
            )
        });
        spans.record(
            format!("{}/lane_group", request.name),
            start,
            &[("trace.columnar", columnar), ("core.lane", lane)],
        );
        (reports, columnar, lane, layers::ns_since(start))
    });
    let mut per_cell: Vec<Option<CheckReport>> = vec![None; cells.len()];
    for ((_, indices), (reports, columnar, lane, busy)) in groups.iter().zip(checked) {
        traced.columnar.merge(columnar);
        traced.lane.merge(lane);
        traced.busy_ns += busy;
        for (&i, (report, _)) in indices.iter().zip(reports) {
            per_cell[i] = Some(report);
        }
    }
    for ((spec, output), report) in cells.iter().zip(&traced.outputs).zip(per_cell) {
        let mut report = report.expect("every cell checked in one lane group");
        report.context = Some(spec.context());
        traced
            .records
            .push(RunRecord::from_run(spec, output, &report));
        traced.reports.push(report);
    }
    traced
}

fn traced(args: Args, setup: &Setup, out: &mut Outcome) {
    let spans = SpanLog::new();
    let workers = Runtime::global().workers() as f64;
    let t0 = Instant::now();
    let campaigns: Vec<TracedCampaign> = setup
        .requests
        .iter()
        .map(|r| traced_campaign(setup, r, &spans))
        .collect();
    let traced_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let untraced = job(setup);
    let untraced_wall = t0.elapsed().as_secs_f64();

    // Output check: traced and untraced records are byte-identical.
    let mut sim = SimTimes::default();
    let (mut columnar, mut lane) = (Acc::default(), Acc::default());
    let mut busy_ns = 0u64;
    for ((traced, (report, _)), request) in campaigns.iter().zip(&untraced).zip(&setup.requests) {
        out.tally.add(request.grid.len() as u64, traced.failed);
        let same = report
            .as_ref()
            .is_some_and(|r| records_json(&r.runs) == records_json(&traced.records));
        out.check(same, || {
            format!(
                "campaign {}: traced records differ from Campaign::run",
                request.name
            )
        });
        sim.merge(&traced.sim);
        columnar.merge(traced.columnar);
        lane.merge(traced.lane);
        busy_ns += traced.busy_ns;
    }
    if out.tally.failed > 0 {
        let failed = out.tally.failed;
        out.check(false, || format!("{failed} cells failed to simulate"));
        return;
    }

    // Track projection, re-run over the true positions of the first cell
    // of each (scenario, controller) pair: every track and controller, at
    // a fraction of the cost of re-projecting every cell.
    let mut project = Acc::default();
    for c in &campaigns {
        let mut seen = Vec::new();
        for (spec, output) in c.cells.iter().zip(&c.outputs) {
            if !seen.contains(&(spec.scenario, spec.controller)) {
                seen.push((spec.scenario, spec.controller));
                project.merge(layers::project_probe(spec, &output.trace).0);
            }
        }
    }
    sim.report(out, project);
    out.metric("trace.columnar_ns", "ns", columnar.per_call());
    out.metric("core.lane_ns", "ns", lane.per_call());
    out.metric(
        "exp.pool_busy_frac",
        "frac",
        busy_ns as f64 / 1e9 / (workers * traced_wall),
    );
    out.metric("trace.overhead_ratio", "ratio", traced_wall / untraced_wall);

    // The layers a campaign does not reach, timed on the first
    // scenario's traces from the first campaign.
    let first = &campaigns[0];
    let kind = first.cells[0].scenario;
    let sample: Vec<ColumnarTrace> = first
        .cells
        .iter()
        .zip(&first.outputs)
        .filter(|(spec, _)| spec.scenario == kind)
        .map(|(_, o)| ColumnarTrace::from_trace(&o.trace))
        .collect();
    let catalog = setup.catalog(kind);
    let (decode, bytes) = layers::decode_probe(&sample);
    layers::report_decode(out, decode, bytes);
    let reports: Vec<&CheckReport> = campaigns.iter().flat_map(|c| &c.reports).collect();
    out.metric(
        "core.diagnosis_ns",
        "ns",
        layers::diagnosis_probe(&reports).per_call(),
    );
    layers::report_in_process_fleet(out, catalog, &sample);
    ingest::report_probe(out, catalog, &sample, args.seed);
    out.metric("failed_frac", "frac", out.tally.failed_frac());
    out.meta_num("traced_wall_s", traced_wall);
    out.meta_num("untraced_wall_s", untraced_wall);
    spans.finish(out, args);
}
