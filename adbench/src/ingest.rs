//! The `ingest` workload: an open-loop load generator replaying recorded
//! campaign traces as vehicle streams over loopback TCP into an
//! in-process `IngestServer` checking the standard catalog.
//!
//! Each producer connection owns a set of vehicle slots. Every tick it
//! sends each live vehicle's next batch, then `flush`es once: the tick's
//! ack latency runs from the tick's *due* time until every batch of the
//! tick is acknowledged, so a stall also charges the ticks queued behind
//! it. A vehicle whose trace slice is exhausted is closed; its verdict
//! latency runs from the due time of its last batch's tick until
//! `close_stream` returns its `CheckReport`. A fresh stream then takes
//! the slot, so streams open and close throughout the run.

use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use adassure_attacks::Channel;
use adassure_control::ControllerKind;
use adassure_core::catalog::{self, CatalogConfig};
use adassure_core::online::CheckerPlan;
use adassure_core::Assertion;
use adassure_exp::{AttackSet, Grid, RunSpec, Runtime};
use adassure_fleet::ingest::connect_tcp;
use adassure_fleet::{
    Fleet, FleetConfig, IngestConfig, IngestListener, IngestServer, ProducerConfig, StreamId,
};
use adassure_scenarios::ScenarioKind;
use adassure_trace::{ColumnarTrace, SignalId};

use crate::layers::{self, Acc, SimTimes, SpanLog};
use crate::{mix, stats, timed_setup, Args, Outcome};

/// Control cycles per batch: a vehicle uplinks every 20 ms at the
/// 100 Hz control rate.
pub const CYCLES_PER_BATCH: usize = 2;
/// Tick period of the generator: every vehicle of a producer uplinks
/// once per tick. (Spreading vehicles over 5 ms sub-ticks made the
/// server's eager drain thread idle-park between ticks, and its latency
/// bimodal.)
const TICK: Duration = Duration::from_millis(20);
/// Ticks before this much time has passed warm the server (stream slabs,
/// buffers, caches) and are sent but not measured.
const WARMUP: Duration = Duration::from_secs(1);
/// Concurrent vehicles of the `ingest` workload, over all producers.
/// With 2-cycle batches every 20 ms this offers 100 cycles/s per
/// vehicle, 60k cycles/s in all: about a quarter of the 250–290k
/// cycles/s this load saturates at on a 2-vCPU host. At half of that
/// (1,200 vehicles) saturation nacks and go-back-N rewinds already
/// appear in bursts and the tail latency is not repeatable.
const VEHICLES: usize = 600;
/// Vehicles and duration of the short load the other workloads' traced
/// runs use to time the ingest layers.
const PROBE_VEHICLES: usize = 64;
const PROBE_LOAD: (Duration, f64) = (Duration::from_millis(250), 1.0);
/// A stream replays this many cycles (uniform in the range) of a trace.
const STREAM_CYCLES: (usize, usize) = (150, 600);
/// A tick that starts later than this after its due time counts late.
const LATE_AFTER: Duration = Duration::from_millis(1);
const SETUP_REPS: usize = 3;

/// A corpus trace split into cycles of catalog-input samples.
pub struct Replay {
    trace: ColumnarTrace,
    cycles: Vec<(f64, Vec<(usize, f64)>)>,
}

impl Replay {
    /// Keeps only the signals the catalog reads: the uplink carries the
    /// monitored telemetry.
    pub fn new(trace: ColumnarTrace, inputs: &[SignalId]) -> Self {
        let mut cycles = layers::cycles_of(&trace);
        let keep: Vec<bool> = trace.signals().iter().map(|s| inputs.contains(s)).collect();
        for (_, samples) in &mut cycles {
            samples.retain(|&(i, _)| keep[i]);
        }
        cycles.retain(|(_, samples)| !samples.is_empty());
        Replay { trace, cycles }
    }
}

/// One replayed stream: which corpus trace and which cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamPlan {
    trace: usize,
    start: usize,
    len: usize,
}

impl StreamPlan {
    fn draw(corpus: &[Replay], seed: u64, n: u64) -> Self {
        let trace = (mix(seed, 3 * n) % corpus.len() as u64) as usize;
        let available = corpus[trace].cycles.len();
        let (lo, hi) = STREAM_CYCLES;
        let len = (lo + (mix(seed, 3 * n + 1) % (hi - lo + 1) as u64) as usize).min(available);
        let start = (mix(seed, 3 * n + 2) % (available - len + 1) as u64) as usize;
        StreamPlan { trace, start, len }
    }

    /// The plan's batches, in order.
    fn batches(&self, corpus: &[Replay], id: StreamId) -> Vec<adassure_fleet::SampleBatch> {
        (0..self.len.div_ceil(CYCLES_PER_BATCH))
            .map(|k| self.batch(corpus, id, k))
            .collect()
    }

    /// Batch `k` of the plan: its cycles `k * CYCLES_PER_BATCH ..`.
    fn batch(&self, corpus: &[Replay], id: StreamId, k: usize) -> adassure_fleet::SampleBatch {
        let replay = &corpus[self.trace];
        let from = self.start + k * CYCLES_PER_BATCH;
        let to = (from + CYCLES_PER_BATCH).min(self.start + self.len);
        layers::batch_of(&replay.trace, &replay.cycles[from..to], id)
    }
}

/// A finished stream: its plan and the report bytes from the wire
/// (`None` when closing failed).
struct Closed {
    plan: StreamPlan,
    report: Option<Vec<u8>>,
}

/// Everything one load run measured.
#[derive(Debug, Default)]
pub struct LoadStats {
    pub ack_ms: Vec<f64>,
    pub verdict_ms: Vec<f64>,
    pub submit: Acc,
    pub flush: Acc,
    pub late_ticks: u64,
    pub late_ms_max: f64,
    pub ticks: u64,
    pub batches: u64,
    pub cycles: u64,
    pub saturated_nacks: u64,
    pub superseded_nacks: u64,
    pub resent_frames: u64,
    pub server_saturated: u64,
    pub streams: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// `submit` calls that returned an error.
    pub submit_errors: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    /// Busy time of the reference check's workers, and its wall time.
    pub verify_busy_ns: u64,
    pub verify_wall_ns: u64,
}

impl LoadStats {
    /// Reports the producer-side ingest layers.
    pub fn report_layers(&self, out: &mut Outcome) {
        out.metric("fleet.submit_ns", "ns", self.submit.per_call());
        out.metric("fleet.flush_ms", "ms", self.flush.per_call() / 1e6);
        out.metric(
            "fleet.resent_frac",
            "frac",
            self.resent_frames as f64 / self.batches as f64,
        );
        out.metric(
            "fleet.saturated_nacks",
            "count",
            self.server_saturated as f64,
        );
        out.metric("loadgen.late_ms_max", "ms", self.late_ms_max);
    }
}

/// The standard catalog for a route of unknown length (no A12), which
/// serves traces of every scenario.
pub fn standard() -> Vec<Assertion> {
    catalog::build(&CatalogConfig::default())
}

/// Corpus cells: every scenario under `controllers`, attacked on the
/// compass channel (plus clean runs when `clean`). The composition is
/// fixed, so corpus size and per-cycle work do not vary with the seed;
/// the seed sets the cells' noise seed.
pub fn corpus_cells(seed: u64, controllers: &[ControllerKind], clean: bool) -> Vec<RunSpec> {
    Grid::new()
        .scenarios(ScenarioKind::ALL)
        .controllers(controllers.iter().copied())
        .attacks(AttackSet::Channel(Channel::Compass))
        .include_clean(clean)
        .seeds([mix(seed, 7)])
        .cells()
}

struct Server {
    server: IngestServer,
    addr: std::net::SocketAddr,
}

fn spawn(plan: &Arc<CheckerPlan>) -> Server {
    let fleet = Arc::new(Mutex::new(Fleet::with_plan(
        Arc::clone(plan),
        FleetConfig::default(),
    )));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let server = IngestServer::spawn(
        fleet,
        IngestListener::Tcp(listener),
        IngestConfig::default(),
    )
    .expect("spawn ingest server");
    Server { server, addr }
}

type Producer = adassure_fleet::IngestProducer<std::net::TcpStream>;

fn connect(server: &Server, producers: usize) -> Vec<Producer> {
    (0..producers)
        .map(|_| connect_tcp(server.addr, ProducerConfig::default()).expect("connect producer"))
        .collect()
}

/// One vehicle slot of a producer.
struct Slot {
    id: StreamId,
    plan: StreamPlan,
    /// Batches sent so far.
    sent: usize,
}

struct ProducerRun {
    stats: LoadStats,
    closed: Vec<Closed>,
    producer: adassure_fleet::ProducerStats,
}

/// Drives one producer for `ticks` ticks, offset by `phase` from
/// `start`. Stream plans are numbered `p, p + producers, ...`.
#[allow(clippy::too_many_arguments)]
fn drive(
    mut producer: Producer,
    corpus: &[Replay],
    seed: u64,
    p: usize,
    producers: usize,
    vehicles: usize,
    start: Instant,
    phase: Duration,
    (warmup_ticks, ticks): (u64, u64),
    spans: Option<&SpanLog>,
) -> ProducerRun {
    let mut stats = LoadStats::default();
    let mut closed = Vec::new();
    let mut next_plan = p as u64;
    let open = |producer: &mut Producer, next_plan: &mut u64| -> Slot {
        let plan = StreamPlan::draw(corpus, seed, *next_plan);
        *next_plan += producers as u64;
        let id = producer.open_stream().expect("open stream");
        Slot { id, plan, sent: 0 }
    };
    let mut slots: Vec<Slot> = (0..vehicles)
        .map(|_| open(&mut producer, &mut next_plan))
        .collect();
    let mut closing: Vec<usize> = Vec::new();
    for tick in 0..ticks {
        let due = start + phase + TICK * u32::try_from(tick).expect("tick count fits u32");
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let measured = tick >= warmup_ticks;
        let late = Instant::now().saturating_duration_since(due);
        if measured {
            stats.late_ticks += u64::from(late > LATE_AFTER);
            stats.late_ms_max = stats.late_ms_max.max(late.as_secs_f64() * 1e3);
        }
        let mut submit = Acc::default();
        closing.clear();
        for (i, slot) in slots.iter_mut().enumerate() {
            let batch = slot.plan.batch(corpus, slot.id, slot.sent);
            slot.sent += 1;
            stats.batches += 1;
            stats.cycles +=
                CYCLES_PER_BATCH.min(slot.plan.len - (slot.sent - 1) * CYCLES_PER_BATCH) as u64;
            let t0 = Instant::now();
            let ok = producer.submit(&batch).is_ok();
            submit.add(layers::ns_since(t0), 1);
            stats.submit_errors += u64::from(!ok);
            if slot.sent * CYCLES_PER_BATCH >= slot.plan.len {
                closing.push(i);
            }
        }
        let mut flush = Acc::default();
        let flushed = flush.time(1, || producer.flush());
        if measured {
            stats.ack_ms.push(due.elapsed().as_secs_f64() * 1e3);
            stats.ticks += 1;
        }
        if flushed.is_err() {
            stats
                .check_failures
                .push(format!("flush failed at tick {tick}"));
        }
        stats.submit.merge(submit);
        stats.flush.merge(flush);
        for &i in &closing {
            let report = producer.close_stream(slots[i].id).ok();
            if measured {
                stats.verdict_ms.push(due.elapsed().as_secs_f64() * 1e3);
            }
            closed.push(Closed {
                plan: slots[i].plan,
                report,
            });
            slots[i] = open(&mut producer, &mut next_plan);
        }
        if let Some(spans) = spans {
            spans.record(
                format!("p{p}/tick{tick}"),
                due,
                &[("fleet.submit", submit), ("fleet.flush", flush)],
            );
        }
    }
    // Close the vehicles still driving. Their reports are checked, but
    // their closing is not due on the schedule, so it adds no latency.
    for slot in slots {
        let report = producer.close_stream(slot.id).ok();
        let plan = StreamPlan {
            len: (slot.sent * CYCLES_PER_BATCH).min(slot.plan.len),
            ..slot.plan
        };
        closed.push(Closed { plan, report });
    }
    stats.streams = closed.len() as u64;
    let (_, producer) = producer.into_parts();
    ProducerRun {
        stats,
        closed,
        producer,
    }
}

/// Runs the open-loop load for `seconds` with `vehicles` vehicles split
/// over `producers.len()` connections, then checks every stream's wire
/// report against an in-process check of the same batches.
fn load(
    server: &Server,
    producers: Vec<Producer>,
    setup: &Setup,
    seed: u64,
    vehicles: usize,
    (warmup, seconds): (Duration, f64),
    spans: Option<&SpanLog>,
) -> LoadStats {
    let (corpus, plan) = (&setup.corpus, &setup.plan);
    let n = producers.len();
    let warmup_ticks = (warmup.as_secs_f64() / TICK.as_secs_f64()).ceil() as u64;
    let ticks = warmup_ticks + (seconds / TICK.as_secs_f64()).floor().max(1.0) as u64;
    let cpu0 = stats::cpu_seconds();
    let start = Instant::now() + Duration::from_millis(5);
    let runs: Vec<ProducerRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = producers
            .into_iter()
            .enumerate()
            .map(|(p, producer)| {
                let share = vehicles / n + usize::from(p < vehicles % n);
                let phase = TICK * u32::try_from(p).expect("few producers") / n as u32;
                scope.spawn(move || {
                    drive(
                        producer,
                        corpus,
                        seed,
                        p,
                        n,
                        share,
                        start,
                        phase,
                        (warmup_ticks, ticks),
                        spans,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("producer thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu0;
    let ingest = server.server.stats();

    let mut total = LoadStats {
        wall_s,
        cpu_s,
        server_saturated: ingest.saturated_nacks,
        ..LoadStats::default()
    };
    let mut closed = Vec::new();
    for run in runs {
        let s = run.stats;
        total.ack_ms.extend(s.ack_ms);
        total.verdict_ms.extend(s.verdict_ms);
        total.submit.merge(s.submit);
        total.flush.merge(s.flush);
        total.late_ticks += s.late_ticks;
        total.late_ms_max = total.late_ms_max.max(s.late_ms_max);
        total.ticks += s.ticks;
        total.batches += s.batches;
        total.cycles += s.cycles;
        total.streams += s.streams;
        total.submit_errors += s.submit_errors;
        total.check_failures.extend(s.check_failures);
        total.saturated_nacks += run.producer.saturated_nacks;
        total.superseded_nacks += run.producer.superseded_nacks;
        total.resent_frames += run.producer.resent_frames;
        closed.extend(run.closed);
    }
    // Refused batches: every nack and failed submit, plus every stream
    // left without a report. Nacked batches are re-sent and the server
    // recovers from them, so they count only as failed operations; a
    // failed submit or a missing report fails the run.
    let missing = closed.iter().filter(|c| c.report.is_none()).count() as u64;
    total.failed += total.saturated_nacks + total.superseded_nacks + total.submit_errors + missing;
    if total.submit_errors > 0 {
        total
            .check_failures
            .push(format!("{} submit calls failed", total.submit_errors));
    }
    if missing > 0 {
        total.check_failures.push(format!(
            "{missing} of {} streams got no report from close_stream",
            closed.len()
        ));
    }
    verify(&closed, corpus, plan, &mut total);
    total
}

/// Checks each stream's wire report bytes against a one-shard
/// in-process fleet fed the same batches. Compares serialized bytes:
/// reports carry NaN values, so `CheckReport ==` is not a usable check.
/// A stream with no wire report does not match.
fn verify(closed: &[Closed], corpus: &[Replay], plan: &Arc<CheckerPlan>, total: &mut LoadStats) {
    let runtime = Runtime::global();
    let t0 = Instant::now();
    let results = runtime.map(closed, |c| {
        let start = Instant::now();
        let Some(wire) = &c.report else {
            return (false, layers::ns_since(start));
        };
        let mut fleet = Fleet::with_plan(
            Arc::clone(plan),
            FleetConfig {
                shards: 1,
                runtime: Runtime::with_workers(1),
                ..FleetConfig::default()
            },
        );
        let id = fleet.open_stream();
        for batch in c.plan.batches(corpus, id) {
            fleet.submit(batch).expect("one queued batch fits");
            fleet.poll();
        }
        let (report, _) = fleet.close_stream(id).expect("open stream closes");
        let bytes = serde_json::to_vec(&report).expect("report serializes");
        (*wire == bytes, layers::ns_since(start))
    });
    total.verify_wall_ns = layers::ns_since(t0);
    let mut mismatched = Vec::new();
    for (i, (ok, ns)) in results.into_iter().enumerate() {
        total.verify_busy_ns += ns;
        if !ok {
            mismatched.push(i);
        }
    }
    if let Some(first) = mismatched.first() {
        total.check_failures.push(format!(
            "{} of {} wire reports are missing or differ from the in-process check (first: stream {first})",
            mismatched.len(),
            closed.len()
        ));
    }
}

/// The replay corpus for `seed`, simulated on the worker pool; with
/// `traced`, through the timed driver and tap.
fn corpus(seed: u64, inputs: &[SignalId], traced: bool) -> (Vec<Replay>, SimTimes, Vec<RunSpec>) {
    let cells = corpus_cells(seed, &[ControllerKind::PurePursuit], false);
    let sims = Runtime::global().map(&cells, |spec| {
        if traced {
            layers::simulate_traced(spec).expect("corpus cell simulates")
        } else {
            (
                adassure_exp::campaign::simulate(spec).expect("corpus cell simulates"),
                SimTimes::default(),
            )
        }
    });
    let mut times = SimTimes::default();
    let mut replays = Vec::new();
    for (output, t) in sims {
        times.merge(&t);
        replays.push(Replay::new(
            ColumnarTrace::from_trace(&output.trace),
            inputs,
        ));
    }
    (replays, times, cells)
}

struct Setup {
    plan: Arc<CheckerPlan>,
    catalog: Vec<Assertion>,
    corpus: Vec<Replay>,
    sim: SimTimes,
    cells: Vec<RunSpec>,
    server: Option<Server>,
    producers: Vec<Producer>,
}

impl Setup {
    /// Closes the connections and stops the server, checking that it saw
    /// a clean wire.
    fn shutdown(&mut self) -> Option<String> {
        self.producers.clear();
        let stats = self.server.take()?.server.shutdown();
        (stats.malformed + stats.truncated > 0).then(|| {
            format!(
                "server saw {} malformed and {} truncated frames",
                stats.malformed, stats.truncated
            )
        })
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Producer connections. One: with two, the producers and their
/// connection threads outnumber the two vCPUs of the reference host, and
/// the median ack latency spread 0.16–0.37 (IQR over median) across
/// seeds, against 0.06 with one.
const PRODUCERS: usize = 1;

fn setup(seed: u64, traced: bool) -> Setup {
    let catalog = standard();
    let plan = Arc::new(CheckerPlan::compile(catalog.iter().cloned()));
    let inputs = catalog::signals(&catalog);
    let (corpus, sim, cells) = corpus(seed, &inputs, traced);
    let server = spawn(&plan);
    let producers = connect(&server, PRODUCERS);
    Setup {
        plan,
        catalog,
        corpus,
        sim,
        cells,
        server: Some(server),
        producers,
    }
}

/// Records a load's counts in the metadata, keys prefixed by `prefix`,
/// and adds its batches to the tally.
fn report_common(out: &mut Outcome, s: &LoadStats, prefix: &str) {
    out.meta_num(&format!("{prefix}ticks"), s.ticks);
    out.meta_num(&format!("{prefix}late_ticks"), s.late_ticks);
    out.meta_num(&format!("{prefix}batches"), s.batches);
    out.meta_num(&format!("{prefix}cycles"), s.cycles);
    out.meta_num(&format!("{prefix}streams"), s.streams);
    out.meta_num(&format!("{prefix}saturated_nacks"), s.saturated_nacks);
    out.meta_num(&format!("{prefix}superseded_nacks"), s.superseded_nacks);
    out.meta_num(&format!("{prefix}resent_frames"), s.resent_frames);
    out.meta_num(&format!("{prefix}submit_ns"), s.submit.per_call());
    out.meta_num(&format!("{prefix}flush_ms"), s.flush.per_call() / 1e6);
    out.meta_num(&format!("{prefix}late_ms_max"), s.late_ms_max);
    out.tally.add(s.batches, s.failed);
    for failure in &s.check_failures {
        out.check(false, || failure.clone());
    }
}

pub fn run(args: Args) -> Outcome {
    let mut out = Outcome::default();
    out.meta_num("vehicles", VEHICLES);
    out.meta_num(
        "offered_cycles_per_s",
        VEHICLES as f64 * CYCLES_PER_BATCH as f64 / TICK.as_secs_f64(),
    );
    out.meta_num("producers", PRODUCERS);
    let (setup_s, mut setup) = timed_setup(SETUP_REPS, || setup(args.seed, args.trace));
    let server = setup.server.as_ref().expect("set-up spawns the server");
    let producers = std::mem::take(&mut setup.producers);
    if !args.trace {
        let s = load(
            server,
            producers,
            &setup,
            args.seed,
            VEHICLES,
            (WARMUP, args.seconds),
            None,
        );
        if let Some(failure) = setup.shutdown() {
            out.check(false, || failure);
        }
        out.metric("setup_s", "s", setup_s);
        out.metric("wall_s", "s", s.wall_s);
        out.metric("cpu_s", "s", s.cpu_s);
        let mut ack = s.ack_ms.clone();
        let mut verdict = s.verdict_ms.clone();
        out.latencies(&mut ack, &mut verdict);
        report_common(&mut out, &s, "");
        return out;
    }
    // Half the run untraced, half traced: the CPU time per offered cycle
    // of the two halves gives the tracing overhead.
    let half = args.seconds / 2.0;
    let plain = load(
        server,
        producers,
        &setup,
        args.seed,
        VEHICLES,
        (WARMUP, half),
        None,
    );
    let spans = SpanLog::new();
    let producers = connect(server, PRODUCERS);
    let seed = mix(args.seed, 99);
    let traced = load(
        server,
        producers,
        &setup,
        seed,
        VEHICLES,
        (WARMUP, half),
        Some(&spans),
    );
    if let Some(failure) = setup.shutdown() {
        out.check(false, || failure);
    }
    report_common(&mut out, &plain, "untraced_");
    report_common(&mut out, &traced, "traced_");

    let catalog = &setup.catalog;
    let columnar: Vec<ColumnarTrace> = setup.corpus.iter().map(|r| r.trace.clone()).collect();
    let traces: Vec<adassure_trace::Trace> = columnar.iter().map(ColumnarTrace::to_trace).collect();
    let mut project = Acc::default();
    for (spec, trace) in setup.cells.iter().zip(&traces) {
        project.merge(layers::project_probe(spec, trace).0);
    }
    setup.sim.report(&mut out, project);
    // The layers behind the server's socket, and those of the offline
    // path, timed in-process on the replay corpus.
    let trace_refs: Vec<&adassure_trace::Trace> = traces.iter().collect();
    out.metric(
        "trace.columnar_ns",
        "ns",
        layers::columnar_probe(&trace_refs).per_call(),
    );
    let (decode, bytes) = layers::decode_probe(&columnar);
    layers::report_decode(&mut out, decode, bytes);
    out.metric(
        "core.lane_ns",
        "ns",
        layers::lane_probe(catalog, &columnar).per_call(),
    );
    let reports = adassure_core::lane::check_columnar(catalog, &columnar);
    let report_refs: Vec<&adassure_core::CheckReport> = reports.iter().collect();
    out.metric(
        "core.diagnosis_ns",
        "ns",
        layers::diagnosis_probe(&report_refs).per_call(),
    );
    layers::report_in_process_fleet(&mut out, catalog, &columnar);
    traced.report_layers(&mut out);
    out.metric(
        "exp.pool_busy_frac",
        "frac",
        traced.verify_busy_ns as f64
            / (Runtime::global().workers() as f64 * traced.verify_wall_ns as f64),
    );
    out.metric(
        "trace.overhead_ratio",
        "ratio",
        (traced.cpu_s / traced.cycles as f64) / (plain.cpu_s / plain.cycles as f64),
    );
    out.metric("failed_frac", "frac", out.tally.failed_frac());
    spans.finish(&mut out, args);
    out
}

/// Times and reports the producer-side ingest layers with a short load
/// over `columnar` traces, for the traced runs of the workloads that do
/// not reach them. The load's output checks count as the run's.
pub fn report_probe(
    out: &mut Outcome,
    catalog: &[Assertion],
    columnar: &[ColumnarTrace],
    seed: u64,
) {
    let plan = Arc::new(CheckerPlan::compile(catalog.iter().cloned()));
    let inputs = catalog::signals(catalog);
    let corpus: Vec<Replay> = columnar
        .iter()
        .map(|c| Replay::new(c.clone(), &inputs))
        .collect();
    let server = spawn(&plan);
    let producers = connect(&server, PRODUCERS);
    let mut setup = Setup {
        plan,
        catalog: catalog.to_vec(),
        corpus,
        sim: SimTimes::default(),
        cells: Vec::new(),
        server: Some(server),
        producers: Vec::new(),
    };
    let server = setup.server.as_ref().expect("spawned above");
    let mut s = load(
        server,
        producers,
        &setup,
        seed,
        PROBE_VEHICLES,
        PROBE_LOAD,
        None,
    );
    s.check_failures.extend(setup.shutdown());
    s.report_layers(out);
    for failure in s.check_failures {
        out.check(false, || format!("ingest probe: {failure}"));
    }
}
