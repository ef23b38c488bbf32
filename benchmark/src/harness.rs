//! The measuring loop shared by all workloads.
//!
//! One invocation measures one workload. With tracing off it repeats
//! `set up → run` for the asked-for number of seconds and reports the
//! end-to-end metrics as medians over the timed reps; with tracing on it
//! takes a few untraced reps as the baseline, repeats the run with the
//! span recorder armed, and reports the per-layer metrics. Either way
//! every rep must reproduce the same simulated outputs, and the
//! workload's own verification pass runs outside the timed region.

use std::time::Instant;

use serde::Serialize;

use crate::calib::{Calibrator, NOMINAL_NS};
use crate::meta::{self, HostMeta};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::{NameSummary, Recorder, Span};
use crate::stats::{iqr_share, median, quartiles};

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u32,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Divisor on every workload's size (1 = the sizes `BENCHMARK.json`
    /// is calibrated for, 50 = smoke).
    pub scale_div: u64,
}

/// The simulated outputs and boundary counts of one rep.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests attempted in the timed region.
    pub requests: u64,
    /// Requests without exactly one correct response.
    pub failed: u64,
    /// Simulated cycles the timed region took.
    pub cycles: u64,
    /// Sum of request latencies, simulated cycles.
    pub latency_sum: u64,
    /// Responses the latency sum covers.
    pub latency_count: u64,
    /// Digest of every simulated output (reports, stats, and — where the
    /// driver sees them — response tags in arrival order).
    pub digest: u64,
    /// Host time of the timed region when the workload timed it itself
    /// (the serve clients time from their start barrier); otherwise the
    /// harness times the whole `run` call.
    pub timed_ns: Option<u64>,
    /// Simulated cycles per device configuration (`table1_paper`).
    pub leg_cycles: Vec<u64>,
    /// Client-observed batch round-trip times (`serve_closed`).
    pub batch_rtt_ns: Vec<u64>,
    /// Counts taken at layer boundaries during the run, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Digest of response tags and latencies in arrival order, where the
    /// benchmark's own driver loop saw them (traced host-driven reps).
    pub tag_digest: Option<u64>,
    /// Host time spent inside trace sinks (traced `traced_fig5` reps).
    pub sink_ns: u64,
}

impl Outcome {
    /// Mean request latency in simulated cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.latency_count as f64
        }
    }
}

/// Per-layer metric values gathered for one traced invocation.
#[derive(Debug, Default)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    /// Record `name = value`; the name must be in the dictionary.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What the traced pass hands a workload to derive its layer metrics.
pub struct TracedRun<'a> {
    /// Outcomes of the untraced baseline reps.
    pub baseline: Vec<&'a Outcome>,
    /// Median host time of the untraced baseline reps — raw, like every
    /// host time the traced pass derives: spans and replays are not
    /// calibrated, so per-layer times are to be read as shares and ratios.
    pub baseline_wall_ns: f64,
    /// Outcome of the traced rep the recorder belongs to.
    pub traced: &'a Outcome,
    /// Raw host time of that traced rep.
    pub traced_wall_ns: f64,
    /// Per-name totals of its spans.
    pub summary: &'a [NameSummary],
}

impl TracedRun<'_> {
    fn span(&self, name: &str) -> Option<&NameSummary> {
        self.summary.iter().find(|s| s.name == name)
    }

    /// Total nanoseconds recorded under span or accumulator `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.total_ns as f64)
    }

    /// Spans or accumulated calls recorded under `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.span(name).map_or(0.0, |s| s.count as f64)
    }
}

/// One workload: how to set it up, run it, check it and attribute it.
pub trait Bench {
    /// Everything built before the first timed request.
    type State;

    /// Build device(s), topology and host (for serve: start the server,
    /// connect and open sessions). Timed as `setup_s`.
    fn setup(&self) -> Self::State;

    /// Drive the workload to completion. With a recorder, the
    /// benchmark's span-instrumented copy of the driver loop runs
    /// instead of the library's.
    fn run(&self, state: Self::State, rec: Option<&mut Recorder>) -> Outcome;

    /// Checks that need work outside the timed reps (oracle passes,
    /// stepped-vs-fast-forward spans, in-process references); `traced`
    /// is the traced rep's outcome in a traced invocation. Returns one
    /// message per failure.
    fn verify(&self, reference: &Outcome, traced: Option<&Outcome>) -> Vec<String>;

    /// Derive this workload's per-layer metrics from the traced rep and
    /// run its isolated layer replays.
    fn layer_metrics(&self, run: &TracedRun<'_>, out: &mut Layers);
}

/// The result of one invocation: the contract's last-line object plus
/// what the human-readable report and the output file carry.
#[derive(Debug, Serialize)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Every check passed.
    pub correct: bool,
    /// Requests attempted across all reps.
    pub attempted: u64,
    /// Requests that failed, plus one per failed determinism check.
    pub failed: u64,
    /// `(name, value, unit)` in dictionary order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Timed reps behind the medians.
    pub reps: u64,
    /// Quartiles of the timed reps' host time, seconds.
    pub rep_wall_s_quartiles: [f64; 3],
    /// Median over the timed reps of how much slower than nominal the
    /// calibration kernel ran; host times are already divided by it.
    pub machine_slowdown: f64,
    /// Digest every rep reproduced.
    pub digest: String,
    /// Failure messages (empty when correct).
    pub failures: Vec<String>,
    /// Host and invocation metadata.
    pub meta: HostMeta,
    /// The traced rep's spans (traced invocations only).
    pub trace: Option<TraceOut>,
}

impl Report {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Spans kept verbatim in the trace file; the per-name summary covers
/// the rest.
const SPANS_WRITTEN: usize = 4096;

/// One span as written to the trace file.
#[derive(Debug, Serialize)]
pub struct SpanOut {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in recording order, -1 for a root.
    parent: i64,
    /// Simulated cycle or batch number.
    id: u64,
}

/// The traced rep as written to `trace_<workload>.json`.
#[derive(Debug, Serialize)]
pub struct TraceOut {
    spans_recorded: u64,
    summary: Vec<NameSummary>,
    first_spans: Vec<SpanOut>,
}

fn span_out(rec: &Recorder, s: &Span) -> SpanOut {
    SpanOut {
        name: rec.name_of(s.name).to_string(),
        start_ns: s.start_ns,
        end_ns: s.end_ns,
        parent: if s.parent == crate::span::NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        },
        id: s.id,
    }
}

/// Where results and traces are written, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

fn write_out(file: &str, json: String) {
    let path = format!("{OUT_DIR}/{file}");
    if let Err(e) =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json + "\n"))
    {
        eprintln!("benchmark: cannot write {path}: {e}");
    }
}

struct Rep {
    setup_ns: f64,
    wall_ns: f64,
    raw_wall_ns: f64,
    slowdown: f64,
    outcome: Outcome,
}

fn one_rep<B: Bench>(bench: &B, cal: &mut Calibrator, rec: Option<&mut Recorder>) -> Rep {
    let before = cal.run();
    let t = Instant::now();
    let state = bench.setup();
    let setup_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let outcome = bench.run(state, rec);
    let raw_wall_ns = outcome
        .timed_ns
        .map_or(t.elapsed().as_nanos() as f64, |ns| ns as f64);
    let slowdown = (before + cal.run()) / 2.0 / NOMINAL_NS;
    Rep {
        setup_ns: setup_ns / slowdown,
        wall_ns: raw_wall_ns / slowdown,
        raw_wall_ns,
        slowdown,
        outcome,
    }
}

/// What the reps of one invocation add up to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// Count a rep and compare it against the reference: every rep of one
    /// seed must simulate the same thing.
    fn add(&mut self, what: &str, reference: &Outcome, o: &Outcome) {
        self.attempted += o.requests;
        self.failed += o.failed;
        if o.cycles != reference.cycles {
            self.failures.push(format!(
                "{what}: simulated {} cycles, the first rep {}",
                o.cycles, reference.cycles
            ));
        }
        if o.digest != reference.digest {
            self.failures.push(format!(
                "{what}: output digest {:016x}, the first rep {:016x}",
                o.digest, reference.digest
            ));
        }
        if o.failed > 0 {
            self.failures.push(format!(
                "{what}: {} of {} requests failed",
                o.failed, o.requests
            ));
        }
    }
}

/// Median raw host time of `reps` untraced reps of `bench`, and the last
/// rep's outcome — for the traced pass's "same stream, one layer taken
/// out" comparisons.
pub fn raw_wall_ns<B: Bench>(bench: &B, reps: usize) -> (f64, Outcome) {
    let mut last = Outcome::default();
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let state = bench.setup();
            let t = Instant::now();
            last = bench.run(state, None);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    (median(&walls), last)
}

/// Cost of one `Instant::now()` pair, nanoseconds.
fn timer_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        acc += std::hint::black_box(a.elapsed().as_nanos());
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Measure `bench` as `args` asks and build the report.
pub fn measure<B: Bench>(name: &'static str, bench: &B, args: Args) -> Report {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut cal = Calibrator::new();

    // Untimed warm-up rep: caches fill, lazy set-up finishes, and its
    // outputs become the reference every later rep must reproduce.
    let warm = one_rep(bench, &mut cal, None);
    let reference = warm.outcome.clone();
    tally.add("warm-up rep", &reference, &reference);
    let mut est_rep_s = (warm.setup_ns + warm.wall_ns) / 1e9;

    // At least `min` reps, then more while they fit in `budget_s`, up to
    // `max`; traced reps each get a recorder of their own.
    let mut rep_loop = |traced: bool, min: usize, max: usize, budget_s: f64| {
        let mut reps: Vec<(Rep, Option<Recorder>)> = Vec::new();
        let window = Instant::now();
        while reps.len() < min
            || (reps.len() < max && window.elapsed().as_secs_f64() + est_rep_s <= budget_s)
        {
            let mut rec = traced.then(|| Recorder::new(Instant::now()));
            let t = Instant::now();
            let rep = one_rep(bench, &mut cal, rec.as_mut());
            est_rep_s = t.elapsed().as_secs_f64();
            let what = if traced { "traced rep" } else { "rep" };
            tally.add(
                &format!("{what} {}", reps.len() + 1),
                &reference,
                &rep.outcome,
            );
            reps.push((rep, rec));
        }
        reps
    };

    // In a traced invocation the untraced reps are only the baseline the
    // overhead is measured against: a third of the time, five at most.
    let reps: Vec<Rep> = if args.trace {
        rep_loop(false, 3, 5, args.seconds / 3.0)
    } else {
        rep_loop(false, 3, usize::MAX, args.seconds)
    }
    .into_iter()
    .map(|(rep, _)| rep)
    .collect();
    let peak_rss_mb = meta::peak_rss_mb();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_ns).collect();
    let wall_ns = median(&walls);
    let machine_slowdown = median(&reps.iter().map(|r| r.slowdown).collect::<Vec<_>>());

    let mut setups = vec![warm.setup_ns];
    setups.extend(reps.iter().map(|r| r.setup_ns));

    let mut metrics = Vec::new();
    let mut trace = None;
    let mut traced_outcome = None;
    if args.trace {
        let mut layers = Layers::default();
        layers.set("bench.timer_pair_ns", timer_pair_ns());
        layers.set("bench.rep_spread_pct", 100.0 * iqr_share(&walls));

        let mut traced = rep_loop(true, 2, 5, args.seconds / 3.0);
        let traced_walls: Vec<f64> = traced.iter().map(|(r, _)| r.wall_ns).collect();
        layers.set(
            "bench.trace_overhead_pct",
            100.0 * (median(&traced_walls) / wall_ns - 1.0),
        );
        let (rep, rec) = traced.pop().expect("at least two traced reps ran");
        let rec = rec.expect("traced reps carry a recorder");
        let summary = rec.summary();
        bench.layer_metrics(
            &TracedRun {
                baseline: reps.iter().map(|r| &r.outcome).collect(),
                baseline_wall_ns: median(&reps.iter().map(|r| r.raw_wall_ns).collect::<Vec<_>>()),
                traced: &rep.outcome,
                traced_wall_ns: rep.raw_wall_ns,
                summary: &summary,
            },
            &mut layers,
        );
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, layers.get(name), unit));
        }
        traced_outcome = Some(rep.outcome);
        trace = Some(TraceOut {
            spans_recorded: rec.spans().len() as u64,
            summary,
            first_spans: rec
                .spans()
                .iter()
                .take(SPANS_WRITTEN)
                .map(|s| span_out(&rec, s))
                .collect(),
        });
    } else {
        let values = [
            median(&setups) / 1e9,
            reference.requests as f64 / (wall_ns / 1e9),
            reference.cycles as f64 / (wall_ns / 1e9),
            peak_rss_mb,
            reference.cycles as f64,
            reference.mean_latency(),
        ];
        for ((name, unit, _), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }

    let Tally {
        attempted,
        mut failed,
        mut failures,
    } = tally;
    failures.extend(bench.verify(&reference, traced_outcome.as_ref()));
    if !failures.is_empty() {
        failed = failed.max(1);
    }

    let report = Report {
        workload: name,
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        reps: reps.len() as u64,
        rep_wall_s_quartiles: quartiles(&walls).map(|q| q / 1e9),
        machine_slowdown,
        digest: format!("{:016x}", reference.digest),
        failures,
        meta: HostMeta::collect(u64::from(args.seed), args.scale_div, args.seconds),
        trace,
    };
    eprintln!(
        "{name}: seed {} scale 1/{} — {} timed reps, rep wall quartiles {:.4}/{:.4}/{:.4} s \
         (machine {:.2}x nominal), digest {}, {:.1} s total",
        args.seed,
        args.scale_div,
        report.reps,
        report.rep_wall_s_quartiles[0],
        report.rep_wall_s_quartiles[1],
        report.rep_wall_s_quartiles[2],
        report.machine_slowdown,
        report.digest,
        started.elapsed().as_secs_f64()
    );
    for (metric, value, unit) in &report.metrics {
        eprintln!("  {metric:<40} {value:>18.6} {unit}");
    }
    for f in &report.failures {
        eprintln!("  FAILED: {f}");
    }

    let kind = if args.trace { "trace" } else { "result" };
    write_out(
        &format!("{kind}_{name}.json"),
        serde_json::to_string_pretty(&report).expect("report serializes"),
    );
    report
}
