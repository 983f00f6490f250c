//! `adbench` — the repository benchmark.
//!
//! ```text
//! adbench --workload <campaign|trace_check|ingest>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload whose inputs are derived from the seed, checks its
//! outputs outside the timed region, and prints, as the last line of
//! standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics; with `--trace 1` they are the
//! per-layer metrics, timed from outside by wrapping calls into each
//! module's public functions. The line before it carries the run's
//! metadata (commit, toolchain, cores, workers, seed, sample counts).
//! The exit code is non-zero when any output check fails.

mod campaign;
mod ingest;
mod layers;
mod stats;
mod trace_check;

use std::fmt::Write as _;
use std::time::Instant;

use adassure_exp::Runtime;

/// End-to-end metrics, in the order they are printed with `--trace 0`.
/// The tail latencies (`ack_ms_p99`, `verdict_ms_p99`) are printed in
/// the metadata line instead: on a shared 2-vCPU host their spread over
/// seeds was 0.4–1.1 of their median, beyond any usable bound.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ack_ms_p50", "ms"),
    ("verdict_ms_p50", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Campaign,
    TraceCheck,
    Ingest,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "campaign" => Workload::Campaign,
            "trace_check" => Workload::TraceCheck,
            "ingest" => Workload::Ingest,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::TraceCheck => "trace_check",
            Workload::Ingest => "ingest",
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What a workload hands back: its output-check verdict, operation
/// tally, metrics (name, unit, value) and extra metadata.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, each with a reason. Empty = correct.
    pub check_failures: Vec<String>,
    pub tally: stats::Tally,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Metadata as (key, JSON value) pairs.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push((name, unit, value));
    }

    pub fn meta_num(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_owned(), value.to_string()));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_owned(), json_string(value)));
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Reports `ack_ms_p50` and `verdict_ms_p50`, and records the
    /// sample counts and tail values in the metadata.
    pub fn latencies(&mut self, ack_ms: &mut [f64], verdict_ms: &mut [f64]) {
        let ack = stats::summarize(ack_ms, 0.99);
        let verdict = stats::summarize(verdict_ms, 0.99);
        self.metric("ack_ms_p50", "ms", ack.p50);
        self.metric("verdict_ms_p50", "ms", verdict.p50);
        self.meta_summary("ack_ms", &ack);
        self.meta_summary("verdict_ms", &verdict);
    }

    /// Records a latency summary's sample count, its tail value
    /// (`<prefix>_p99`) and the percentile that value is actually taken at.
    fn meta_summary(&mut self, prefix: &str, s: &stats::Summary) {
        self.meta_num(&format!("{prefix}_n"), s.n);
        self.meta_num(&format!("{prefix}_p99"), s.tail);
        self.meta_num(&format!("{prefix}_p99_taken_at"), s.tail_q);
    }
}

/// Times `setup` `reps` times and returns the median seconds together
/// with the last setup's product.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let product = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(product);
    }
    (stats::median(&times), last.expect("at least one setup"))
}

/// Wall and CPU seconds of repeated jobs.
#[derive(Debug, Default)]
pub struct Reps {
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
}

/// Runs `job` repeatedly for about `seconds`: at least `min_reps` times,
/// and another time only while the previous repetition would still fit.
/// Each output goes to `settle` with its repetition index, outside the
/// timed region.
pub fn repeat<T>(
    seconds: f64,
    min_reps: usize,
    mut job: impl FnMut() -> T,
    mut settle: impl FnMut(usize, T),
) -> Reps {
    let start = Instant::now();
    let mut reps = Reps::default();
    loop {
        let cpu0 = stats::cpu_seconds();
        let t0 = Instant::now();
        let output = job();
        let wall = t0.elapsed().as_secs_f64();
        reps.cpu.push(stats::cpu_seconds() - cpu0);
        reps.wall.push(wall);
        settle(reps.wall.len() - 1, output);
        if reps.wall.len() >= min_reps && start.elapsed().as_secs_f64() + wall > seconds {
            return reps;
        }
    }
}

/// A derived 64-bit value: SplitMix64 of `seed` and a stream tag, so
/// every input a workload draws from the seed is independent.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, read from `.git` in the working
/// directory only (the benchmark reads nothing outside its checkout);
/// "unknown" when the checkout is not a git repository.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("adbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = match args.workload {
        Workload::Campaign => campaign::run(args),
        Workload::TraceCheck => trace_check::run(args),
        Workload::Ingest => ingest::run(args),
    };
    // Peak memory covers the whole process, set-up included.
    if !args.trace {
        outcome.metric("peak_rss_mib", "MiB", stats::peak_rss_mib());
    }

    let expected: Vec<(&str, &str)> = if args.trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let correct = outcome.check_failures.is_empty();
    for failure in &outcome.check_failures {
        eprintln!("adbench: output check failed: {failure}");
    }
    let mut metrics = String::new();
    for (i, (name, unit)) in expected.iter().enumerate() {
        let Some(&(_, got_unit, value)) = outcome.metrics.iter().find(|m| m.0 == *name) else {
            // A workload whose checks failed may stop before measuring.
            if !correct {
                std::process::exit(1);
            }
            panic!("workload {} did not report {name}", args.workload.name());
        };
        assert_eq!(got_unit, *unit, "unit of {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_string(name),
            json_string(unit)
        );
    }

    let mut meta = vec![
        ("workload".to_owned(), json_string(args.workload.name())),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        ("commit".to_owned(), json_string(&git_commit())),
        ("rustc".to_owned(), json_string(env!("ADBENCH_RUSTC"))),
        (
            "nproc".to_owned(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "workers".to_owned(),
            Runtime::global().workers().to_string(),
        ),
        (
            "adassure_threads".to_owned(),
            json_string(&std::env::var("ADASSURE_THREADS").unwrap_or_default()),
        ),
    ];
    meta.append(&mut outcome.meta);
    let meta: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    assert!(
        outcome.tally.attempted > 0,
        "the workload attempted nothing"
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.tally.attempted, outcome.tally.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
