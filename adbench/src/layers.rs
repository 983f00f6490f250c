//! Per-layer timing from outside the program: wrappers around the
//! closed loop's `Driver` and `SensorTap`, timed calls into each module's
//! public functions, and an in-memory span log written out at the end of
//! a traced run.
//!
//! Per-cycle calls are aggregated into per-cell sums and counts
//! ([`Acc`]); spans are kept one per cell, trace or tick, with one child
//! span per layer.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use adassure_control::pipeline::AdStack;
use adassure_core::{diagnosis, lane, online::OnlineChecker, Assertion, CheckReport};
use adassure_exp::RunSpec;
use adassure_fleet::{wire, Fleet, FleetConfig, FrameDecoder, SampleBatch};
use adassure_scenarios::{run, Scenario};
use adassure_sim::engine::{DriveCtx, Driver, SensorTap, SimOutput};
use adassure_sim::sensor::SensorFrame;
use adassure_sim::vehicle::{Controls, VehicleState};
use adassure_sim::SimError;
use adassure_trace::{well_known as sig, ColumnarTrace, Trace};

use crate::{Args, Outcome};

/// Per-layer metrics, in the order they are printed with `--trace 1`.
/// Every traced run reports all of them: each workload times the layers
/// it reaches, and the layers it does not reach on its own traces with
/// the probes below.
pub const PER_LAYER: [(&str, &str); 21] = [
    ("sim.cycle_ns", "ns"),
    ("sim.engine_self_ns", "ns"),
    ("control.stack_ns", "ns"),
    ("attacks.tap_ns", "ns"),
    ("sim.track.project_ns", "ns"),
    ("trace.columnar_ns", "ns"),
    ("trace.adt_decode_ns", "ns"),
    ("trace.adt_decode_mib_s", "MiB/s"),
    ("core.lane_ns", "ns"),
    ("core.online_ns", "ns"),
    ("core.diagnosis_ns", "ns"),
    ("fleet.poll_ns", "ns"),
    ("fleet.wire.decode_ns", "ns"),
    ("fleet.submit_ns", "ns"),
    ("fleet.flush_ms", "ms"),
    ("fleet.resent_frac", "frac"),
    ("fleet.saturated_nacks", "count"),
    ("loadgen.late_ms_max", "ms"),
    ("exp.pool_busy_frac", "frac"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_frac", "frac"),
];

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A layer's time and call count, summed over many calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    pub ns: u64,
    pub calls: u64,
}

impl Acc {
    pub fn add(&mut self, ns: u64, calls: u64) {
        self.ns += ns;
        self.calls += calls;
    }

    pub fn merge(&mut self, other: Acc) {
        self.add(other.ns, other.calls);
    }

    /// Mean nanoseconds per call.
    pub fn per_call(&self) -> f64 {
        assert!(self.calls > 0, "layer timed with no calls");
        self.ns as f64 / self.calls as f64
    }

    /// Times `f` as `calls` calls of this layer.
    pub fn time<T>(&mut self, calls: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(ns_since(t0), calls);
        out
    }
}

/// One span: a cell, trace or tick (no parent) or a layer inside one.
/// Layer spans are aggregates: `dur_ns` sums `calls` calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub calls: u64,
}

/// The in-memory span log of a traced run; shared across workers.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records a root span that began at `start` and ends now, with one
    /// child span per `(layer, acc)`.
    pub fn record(&self, name: String, start: Instant, children: &[(&str, Acc)]) {
        let dur_ns = ns_since(start);
        let start_ns = u64::try_from(start.duration_since(self.origin).as_nanos()).unwrap_or(0);
        let mut spans = self.spans.lock().expect("span log lock");
        let id = spans.len() as u64;
        spans.push(Span {
            id,
            parent: None,
            name,
            start_ns,
            dur_ns,
            calls: 1,
        });
        for (layer, acc) in children {
            let child = spans.len() as u64;
            spans.push(Span {
                id: child,
                parent: Some(id),
                name: (*layer).to_owned(),
                start_ns,
                dur_ns: acc.ns,
                calls: acc.calls,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock").len()
    }

    /// Writes the span log and records where it went.
    pub fn finish(&self, out: &mut Outcome, args: Args) {
        let file = format!("{}-seed{}.jsonl", args.workload.name(), args.seed);
        match self.write(&file) {
            Ok(path) => out.meta_str("spans", &path),
            Err(e) => out.check(false, || format!("writing spans: {e}")),
        }
        out.meta_num("span_count", self.len());
    }

    /// Writes the spans as JSON lines to `.bench_spans/<file>` under the
    /// working directory and returns the path.
    pub fn write(&self, file: &str) -> std::io::Result<String> {
        use std::io::Write as _;
        std::fs::create_dir_all(".bench_spans")?;
        let path = format!(".bench_spans/{file}");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for s in self.spans.lock().expect("span log lock").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"calls\": {}}}",
                s.id, s.name, s.start_ns, s.dur_ns, s.calls
            )?;
        }
        out.flush()?;
        Ok(path)
    }
}

/// Times every `control` call of the wrapped driver.
struct TimedDriver<'a> {
    inner: &'a mut dyn Driver,
    acc: Acc,
}

impl Driver for TimedDriver<'_> {
    fn control(&mut self, ctx: &DriveCtx<'_>, trace: &mut Trace) -> Controls {
        let t0 = Instant::now();
        let out = self.inner.control(ctx, trace);
        self.acc.add(ns_since(t0), 1);
        out
    }
}

/// Times every `tap` call of the wrapped sensor tap.
struct TimedTap<'a> {
    inner: &'a mut dyn SensorTap,
    acc: Acc,
}

impl SensorTap for TimedTap<'_> {
    fn tap(&mut self, frame: &mut SensorFrame, truth: &VehicleState) {
        let t0 = Instant::now();
        self.inner.tap(frame, truth);
        self.acc.add(ns_since(t0), 1);
    }
}

/// Closed-loop layer times of one simulated cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTimes {
    /// `Engine::run_with_tap`, calls = steps.
    pub run: Acc,
    /// `AdStack::control` through the driver wrapper.
    pub stack: Acc,
    /// `AttackInjector::tap` through the tap wrapper (attacked cells).
    pub tap: Acc,
}

impl SimTimes {
    pub fn merge(&mut self, o: &SimTimes) {
        self.run.merge(o.run);
        self.stack.merge(o.stack);
        self.tap.merge(o.tap);
    }

    /// Reports the closed-loop layers, with `project` the
    /// `Track::project` probe.
    pub fn report(&self, out: &mut Outcome, project: Acc) {
        out.metric("sim.cycle_ns", "ns", self.run.per_call());
        out.metric("sim.engine_self_ns", "ns", self.engine_self().per_call());
        out.metric("control.stack_ns", "ns", self.stack.per_call());
        out.metric("attacks.tap_ns", "ns", self.tap.per_call());
        out.metric("sim.track.project_ns", "ns", project.per_call());
    }

    /// Engine time outside the driver and tap (and their wrappers).
    pub fn engine_self(&self) -> Acc {
        Acc {
            ns: self.run.ns.saturating_sub(self.stack.ns + self.tap.ns),
            calls: self.run.calls,
        }
    }
}

/// `adassure_exp::campaign::simulate` with the stack and the injector
/// wrapped in timers. The output is the same as the untimed call's.
pub fn simulate_traced(spec: &RunSpec) -> Result<(SimOutput, SimTimes), SimError> {
    let scenario = Scenario::of_kind(spec.scenario)?;
    let config = run::stack_config(&scenario, spec.controller).with_estimator(spec.estimator);
    let mut stack = AdStack::new(config, scenario.track.clone());
    let engine = run::engine_for(&scenario, spec.seed);
    let mut driver = TimedDriver {
        inner: &mut stack,
        acc: Acc::default(),
    };
    let t0 = Instant::now();
    let (output, tap) = match spec.attack {
        Some(attack) => {
            let mut injector = attack.injector(spec.seed);
            let mut tap = TimedTap {
                inner: &mut injector,
                acc: Acc::default(),
            };
            let output = engine.run_with_tap(&mut driver, &mut tap)?;
            (output, tap.acc)
        }
        None => (engine.run(&mut driver)?, Acc::default()),
    };
    let run = Acc {
        ns: ns_since(t0),
        calls: output.steps as u64,
    };
    Ok((
        output,
        SimTimes {
            run,
            stack: driver.acc,
            tap,
        },
    ))
}

/// Re-projects a cell's recorded true positions through `Track::project`.
/// Returns the time and the sum of the cross-track errors (which keeps
/// the calls from being optimised away).
pub fn project_probe(spec: &RunSpec, trace: &Trace) -> (Acc, f64) {
    let scenario = Scenario::of_kind(spec.scenario).expect("standard scenario");
    let (Some(xs), Some(ys)) = (
        trace.series(&sig::TRUE_X.into()),
        trace.series(&sig::TRUE_Y.into()),
    ) else {
        panic!("simulated trace lacks true position");
    };
    let points: Vec<(f64, f64)> = xs.values().zip(ys.values()).collect();
    let mut acc = Acc::default();
    let sum = acc.time(points.len() as u64, || {
        points
            .iter()
            .map(|&p| std::hint::black_box(scenario.track.project(p)).cross_track)
            .sum()
    });
    (acc, sum)
}

/// `ColumnarTrace::from_trace` over `traces`, per cycle.
pub fn columnar_probe(traces: &[&Trace]) -> Acc {
    let mut acc = Acc::default();
    for trace in traces {
        let col = acc.time(cycle_count(trace), || ColumnarTrace::from_trace(trace));
        std::hint::black_box(col);
    }
    acc
}

/// `ColumnarTrace::decode` of each trace's `.adt` encoding, per cycle,
/// and the decoded bytes.
pub fn decode_probe(traces: &[ColumnarTrace]) -> (Acc, u64) {
    let mut decode = Acc::default();
    let mut bytes = 0u64;
    for trace in traces {
        let encoded = trace.encode();
        bytes += encoded.len() as u64;
        let back = decode.time(trace.cycle_count() as u64, || {
            ColumnarTrace::decode(&encoded)
        });
        assert!(back.is_ok(), "encoded trace decodes");
    }
    (decode, bytes)
}

/// Reports `trace.adt_decode_ns` and `trace.adt_decode_mib_s` from a
/// decode time and the bytes decoded in it.
pub fn report_decode(out: &mut Outcome, decode: Acc, bytes: u64) {
    out.metric("trace.adt_decode_ns", "ns", decode.per_call());
    out.metric(
        "trace.adt_decode_mib_s",
        "MiB/s",
        bytes as f64 / (1024.0 * 1024.0) / (decode.ns as f64 / 1e9),
    );
}

/// The number of control cycles in a trace (its longest series).
pub fn cycle_count(trace: &Trace) -> u64 {
    trace.iter().map(|s| s.len()).max().unwrap_or(0) as u64
}

/// `lane::check_columnar_observed` over `traces` in lane groups, per
/// trace-cycle.
pub fn lane_probe(catalog: &[Assertion], traces: &[ColumnarTrace]) -> Acc {
    let mut acc = Acc::default();
    for group in traces.chunks(lane::LANES) {
        let cycles: u64 = group.iter().map(|c| c.cycle_count() as u64).sum();
        let out = acc.time(cycles, || {
            lane::check_columnar_observed(catalog, Default::default(), group)
        });
        std::hint::black_box(out);
    }
    acc
}

/// The per-cycle samples of a columnar trace in time order: one
/// `(t, [(channel, value)])` entry per cycle with the samples recorded at
/// that instant, channels in the trace's (name-sorted) storage order.
pub fn cycles_of(trace: &ColumnarTrace) -> Vec<(f64, Vec<(usize, f64)>)> {
    let times = trace.cycle_times();
    let mut cycles: Vec<(f64, Vec<(usize, f64)>)> =
        times.iter().map(|&t| (t, Vec::new())).collect();
    for i in 0..trace.signal_count() {
        let (_, values, index) = trace.series(i);
        for (&cycle, &v) in index.iter().zip(values) {
            cycles[cycle as usize].1.push((i, v));
        }
    }
    cycles
}

/// Feeds `traces` cycle by cycle through an `OnlineChecker`
/// (`begin_cycle`/`update`/`end_cycle`), per cycle.
pub fn online_probe(catalog: &[Assertion], traces: &[ColumnarTrace]) -> Acc {
    let mut acc = Acc::default();
    for trace in traces {
        let cycles = cycles_of(trace);
        let signals = trace.signals();
        let mut checker = OnlineChecker::new(catalog.iter().cloned());
        let t0 = Instant::now();
        for (t, samples) in &cycles {
            checker.begin_cycle(*t).expect("trace cycles advance");
            for &(i, v) in samples {
                checker.update(signals[i].clone(), v);
            }
            checker.end_cycle();
        }
        acc.add(ns_since(t0), cycles.len() as u64);
        std::hint::black_box(checker.finish(trace.end_time()));
    }
    acc
}

/// `diagnose` per report.
pub fn diagnosis_probe(reports: &[&CheckReport]) -> Acc {
    let mut acc = Acc::default();
    for report in reports {
        let d = acc.time(1, || diagnosis::diagnose(report));
        std::hint::black_box(d);
    }
    acc
}

/// One batch addressed to `stream` carrying `cycles` of `trace`.
pub fn batch_of(
    trace: &ColumnarTrace,
    cycles: &[(f64, Vec<(usize, f64)>)],
    stream: adassure_fleet::StreamId,
) -> SampleBatch {
    let signals = trace.signals();
    let mut batch = SampleBatch::new(stream);
    for (t, samples) in cycles {
        for &(i, v) in samples {
            batch.push(*t, signals[i].clone(), v);
        }
    }
    batch
}

/// In-process fleet and wire layers over `traces`, one stream each:
/// `Fleet::submit` + `Fleet::poll` per cycle, and
/// `FrameDecoder::feed`/`next_frame` over the encoded batch frames per
/// cycle.
pub fn fleet_probe(catalog: &[Assertion], traces: &[ColumnarTrace]) -> (Acc, Acc) {
    let mut fleet = Fleet::new(
        catalog.iter().cloned(),
        FleetConfig {
            shards: 1,
            ..FleetConfig::default()
        },
    );
    let mut poll = Acc::default();
    let mut decode = Acc::default();
    let mut frames = Vec::new();
    for trace in traces {
        let cycles = cycles_of(trace);
        let id = fleet.open_stream();
        let batches: Vec<SampleBatch> = cycles
            .chunks(crate::ingest::CYCLES_PER_BATCH)
            .map(|chunk| batch_of(trace, chunk, id))
            .collect();
        frames.clear();
        for (seq, batch) in batches.iter().enumerate() {
            wire::encode_sample_batch(&mut frames, seq as u64 + 1, batch).expect("encodable batch");
        }
        let mut decoder = FrameDecoder::new(wire::DEFAULT_MAX_FRAME_LEN);
        decode.time(cycles.len() as u64, || {
            decoder.feed(&frames);
            let mut n = 0;
            while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                std::hint::black_box(frame);
                n += 1;
            }
            assert_eq!(n, batches.len());
        });
        poll.time(cycles.len() as u64, || {
            for batch in batches {
                fleet.submit(batch).expect("queue holds one batch");
                fleet.poll();
            }
        });
        fleet.close_stream(id).expect("open stream closes");
    }
    (poll, decode)
}

/// Times and reports the in-process checker and fleet layers
/// (`core.online_ns`, `fleet.poll_ns`, `fleet.wire.decode_ns`) on the
/// first two of `traces`. No workload reaches them from outside: the
/// ingest server runs them behind its socket.
pub fn report_in_process_fleet(out: &mut Outcome, catalog: &[Assertion], traces: &[ColumnarTrace]) {
    let traces = &traces[..traces.len().min(2)];
    let online = online_probe(catalog, traces);
    let (poll, wire_decode) = fleet_probe(catalog, traces);
    out.metric("core.online_ns", "ns", online.per_call());
    out.metric("fleet.poll_ns", "ns", poll.per_call());
    out.metric("fleet.wire.decode_ns", "ns", wire_decode.per_call());
}
