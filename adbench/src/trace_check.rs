//! The `trace_check` workload: the offline checker over a corpus of
//! recorded campaign traces held in memory as `.adt` bytes.
//!
//! One job decodes every trace (`ColumnarTrace::decode`), then serves one
//! request per threshold scale of the AB1 ablation: check the corpus
//! with `exp::check_columnar_traces` under the scaled catalog and
//! diagnose every report. `ack_ms` is the time until the corpus is
//! decoded (accepted by the checker); `verdict_ms` is a scale request's
//! latency from the start of the job until its diagnoses are done.

use std::time::Instant;

use adassure_control::ControllerKind;
use adassure_core::{checker, diagnosis, Assertion, CheckReport, Temporal};
use adassure_exp::Runtime;
use adassure_trace::ColumnarTrace;

use crate::layers::{self, Acc, SimTimes, SpanLog};
use crate::{ingest, repeat, stats, timed_setup, Args, Outcome};

/// The AB1 threshold scales.
const SCALES: [f64; 7] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0];
/// The corpus: every scenario under the three controllers of the
/// campaign slice, clean and compass-attacked — 36 traces of 70–95 s
/// simulated time, about 3 MiB of `.adt` each, far larger than the
/// per-core caches.
const CONTROLLERS: [ControllerKind; 3] = [
    ControllerKind::PurePursuit,
    ControllerKind::Stanley,
    ControllerKind::Lqr,
];
const SETUP_REPS: usize = 3;
/// Repetitions a run makes at the least.
const MIN_REPS: usize = 3;

/// The catalog scaled as AB1 scales it: A12's threshold is a route
/// fraction, not an error magnitude, so `Eventually` assertions keep
/// theirs.
fn scaled(base: &[Assertion], scale: f64) -> Vec<Assertion> {
    base.iter()
        .map(|a| {
            if a.temporal == Temporal::Eventually {
                a.clone()
            } else {
                a.with_scaled_threshold(scale)
            }
        })
        .collect()
}

struct Setup {
    corpus: Vec<Vec<u8>>,
    catalogs: Vec<Vec<Assertion>>,
    sim: SimTimes,
    columnar: Acc,
    cells: Vec<adassure_exp::RunSpec>,
}

fn setup(seed: u64, traced: bool) -> Setup {
    let base = ingest::standard();
    let catalogs = SCALES.iter().map(|&s| scaled(&base, s)).collect();
    let cells = ingest::corpus_cells(seed, &CONTROLLERS, true);
    let encoded = Runtime::global().map(&cells, |spec| {
        let (output, times) = if traced {
            layers::simulate_traced(spec).expect("corpus cell simulates")
        } else {
            (
                adassure_exp::campaign::simulate(spec).expect("corpus cell simulates"),
                SimTimes::default(),
            )
        };
        let mut columnar = Acc::default();
        let trace = columnar.time(output.steps as u64, || {
            ColumnarTrace::from_trace(&output.trace)
        });
        (trace.encode(), times, columnar)
    });
    let mut s = Setup {
        corpus: Vec::new(),
        catalogs,
        sim: SimTimes::default(),
        columnar: Acc::default(),
        cells,
    };
    for (bytes, times, columnar) in encoded {
        s.corpus.push(bytes);
        s.sim.merge(&times);
        s.columnar.merge(columnar);
    }
    s
}

/// Per-scale reports and their diagnoses.
type Verdicts = Vec<(Vec<CheckReport>, Vec<diagnosis::Diagnosis>)>;

/// One job's results: the decoded traces, the verdicts and the
/// latencies.
struct JobOut {
    decoded: Vec<ColumnarTrace>,
    failed: u64,
    verdicts: Verdicts,
    ack_ms: f64,
    verdict_ms: Vec<f64>,
}

fn verdict_bytes(verdicts: &Verdicts) -> Vec<u8> {
    serde_json::to_vec(verdicts).expect("verdicts serialize")
}

fn job(setup: &Setup) -> JobOut {
    let t0 = Instant::now();
    let mut failed = 0;
    let decoded: Vec<ColumnarTrace> = setup
        .corpus
        .iter()
        .filter_map(|bytes| {
            let trace = ColumnarTrace::decode(bytes).ok();
            failed += u64::from(trace.is_none());
            trace
        })
        .collect();
    let ack_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut verdict_ms = Vec::with_capacity(SCALES.len());
    let mut results = Vec::with_capacity(SCALES.len());
    for catalog in &setup.catalogs {
        let reports = adassure_exp::check_columnar_traces(catalog, &decoded);
        let diagnoses: Vec<diagnosis::Diagnosis> =
            reports.iter().map(diagnosis::diagnose).collect();
        verdict_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        results.push((reports, diagnoses));
    }
    JobOut {
        decoded,
        failed,
        verdicts: results,
        ack_ms,
        verdict_ms,
    }
}

pub fn run(args: Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, setup) = timed_setup(SETUP_REPS, || setup(args.seed, args.trace));
    let corpus_bytes: usize = setup.corpus.iter().map(Vec::len).sum();
    out.meta_num("traces", setup.corpus.len());
    out.meta_num("corpus_mib", corpus_bytes as f64 / (1024.0 * 1024.0));
    if args.trace {
        traced(args, &setup, &mut out);
        return out;
    }
    // The first repetition is kept whole for the checks; later ones are
    // compared with it and dropped, so memory does not grow with the
    // repetition count.
    let mut first: Option<(JobOut, Vec<u8>)> = None;
    let mut differing = Vec::new();
    let mut ack = Vec::new();
    let mut verdict = Vec::new();
    let reps = repeat(
        args.seconds,
        MIN_REPS,
        || job(&setup),
        |rep, o| {
            out.tally.add(setup.corpus.len() as u64, o.failed);
            ack.push(o.ack_ms);
            verdict.extend_from_slice(&o.verdict_ms);
            let bytes = verdict_bytes(&o.verdicts);
            match &first {
                None => first = Some((o, bytes)),
                Some((_, first_bytes)) if *first_bytes != bytes => differing.push(rep),
                Some(_) => {}
            }
        },
    );
    let (first, _) = first.expect("at least one repetition");
    for rep in differing {
        out.check(false, || {
            format!("repetition {rep} reports differ from the first")
        });
    }
    check_outputs(&setup, &first, &mut out);
    out.metric("setup_s", "s", setup_s);
    out.metric("wall_s", "s", stats::median(&reps.wall));
    out.metric("cpu_s", "s", stats::median(&reps.cpu));
    out.latencies(&mut ack, &mut verdict);
    out.meta_num("reps", reps.wall.len());
    out
}

/// Output checks, outside the timed region: decoded traces re-encode to
/// the corpus bytes, and the lane checker agrees byte for byte with the
/// scalar checker on the first trace.
fn check_outputs(setup: &Setup, first: &JobOut, out: &mut Outcome) {
    out.check(first.decoded.len() == setup.corpus.len(), || {
        format!(
            "{} traces failed to decode",
            setup.corpus.len() - first.decoded.len()
        )
    });
    for (i, (trace, bytes)) in first.decoded.iter().zip(&setup.corpus).enumerate() {
        out.check(trace.encode() == *bytes, || {
            format!("trace {i} does not re-encode to its bytes")
        });
    }
    let catalog = &setup.catalogs[3];
    let lane = adassure_exp::check_columnar_traces(catalog, &first.decoded[..1]);
    let scalar = checker::check(catalog, &first.decoded[0].to_trace());
    out.check(
        serde_json::to_vec(&lane[0]).ok() == serde_json::to_vec(&scalar).ok(),
        || "lane report differs from the scalar checker".into(),
    );
}

fn traced(args: Args, setup: &Setup, out: &mut Outcome) {
    let spans = SpanLog::new();
    let runtime = Runtime::global();
    let t0 = Instant::now();
    let mut decode = Acc::default();
    let mut decoded = Vec::new();
    for (i, bytes) in setup.corpus.iter().enumerate() {
        let start = Instant::now();
        let mut one = Acc::default();
        match ColumnarTrace::decode(bytes) {
            Ok(trace) => {
                one.add(layers::ns_since(start), trace.cycle_count() as u64);
                decoded.push(trace);
            }
            Err(_) => out.tally.add(0, 1),
        }
        decode.merge(one);
        spans.record(
            format!("trace{i}/decode"),
            start,
            &[("trace.adt_decode", one)],
        );
    }
    out.tally.add(setup.corpus.len() as u64, 0);
    let groups: Vec<&[ColumnarTrace]> = decoded.chunks(adassure_core::LANES).collect();
    let mut lane = Acc::default();
    let mut diag = Acc::default();
    let mut busy_ns = 0u64;
    let mut results = Vec::new();
    for (s, catalog) in setup.catalogs.iter().enumerate() {
        let start = Instant::now();
        let checked = runtime.map(&groups, |group| {
            let begin = Instant::now();
            let reports = adassure_core::lane::check_columnar(catalog, group);
            (reports, layers::ns_since(begin))
        });
        let mut scale_lane = Acc::default();
        let mut reports: Vec<CheckReport> = Vec::new();
        for ((r, ns), group) in checked.into_iter().zip(&groups) {
            scale_lane.add(ns, group.iter().map(|c| c.cycle_count() as u64).sum());
            busy_ns += ns;
            reports.extend(r);
        }
        let mut scale_diag = Acc::default();
        let diagnoses: Vec<diagnosis::Diagnosis> = reports
            .iter()
            .map(|r| scale_diag.time(1, || diagnosis::diagnose(r)))
            .collect();
        spans.record(
            format!("scale{s}"),
            start,
            &[("core.lane", scale_lane), ("core.diagnosis", scale_diag)],
        );
        lane.merge(scale_lane);
        diag.merge(scale_diag);
        results.push((reports, diagnoses));
    }
    let traced_wall = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let plain = job(setup);
    let untraced_wall = t1.elapsed().as_secs_f64();
    out.check(
        verdict_bytes(&results) == verdict_bytes(&plain.verdicts),
        || "traced reports differ from the untraced job".into(),
    );

    let mut project = Acc::default();
    for (spec, trace) in setup.cells.iter().zip(&decoded).take(4) {
        project.merge(layers::project_probe(spec, &trace.to_trace()).0);
    }
    setup.sim.report(out, project);
    out.metric("trace.columnar_ns", "ns", setup.columnar.per_call());
    layers::report_decode(
        out,
        decode,
        setup.corpus.iter().map(|b| b.len() as u64).sum(),
    );
    out.metric("core.lane_ns", "ns", lane.per_call());
    out.metric("core.diagnosis_ns", "ns", diag.per_call());
    out.metric(
        "exp.pool_busy_frac",
        "frac",
        busy_ns as f64 / 1e9 / (runtime.workers() as f64 * traced_wall),
    );
    out.metric("trace.overhead_ratio", "ratio", traced_wall / untraced_wall);
    // The layers the offline checker does not reach, timed on its corpus.
    let catalog = &setup.catalogs[3];
    layers::report_in_process_fleet(out, catalog, &decoded);
    ingest::report_probe(out, catalog, &decoded, args.seed);
    out.metric("failed_frac", "frac", out.tally.failed_frac());
    out.meta_num("traced_wall_s", traced_wall);
    out.meta_num("untraced_wall_s", untraced_wall);
    spans.finish(out, args);
}
