//! What every workload shares: repeated set-up, the pass loop, result
//! checking, layer replays and the final metrics.
//!
//! A run is one process with one load-generating thread. It sets up
//! [`SETUP_REPS`] times (reporting the median), then repeats the
//! workload's pass for the time `--seconds` gives, spread over [`ROUNDS`]
//! placements of the inputs in memory. With `--trace 1` half of every
//! round runs with the tracer off and half with it on: the first half only
//! measures what tracing costs, the second yields the spans behind the
//! per-layer metrics. End-to-end metrics are printed by untraced runs only.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::metrics::Values;
use crate::stats::{median, percentile};
use crate::trace::{NameId, Tracer};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The percentile of a run's pass times that the end-to-end metrics
/// report. On the shared two-vCPU VM this was written on, neighbours'
/// memory traffic slows passes in bursts of seconds: over ten seeds the
/// median pass time of `ingest` spread 16 % and its tenth percentile 4 %
/// (README.md, "Steadiness"). Slow-downs only ever add time, so the fast
/// end of the distribution is the steady one. The median and the ninetieth
/// percentile are per-layer metrics.
const FAST_PERCENTILE: f64 = 10.0;
/// Placements of the inputs that a run's seconds are divided over. Where
/// the operating system puts a workload's arrays decides how fast the
/// passes over them are: `host_join` ran at 237 ms or at 275 ms per pass
/// for as long as its inputs stayed where they were, in the same process
/// and under the same seed, and changed speed when they were rebuilt.
/// One placement per run therefore spreads runs by 17 %; the fast
/// percentile over five placements finds a fast one in almost every run.
const ROUNDS: usize = 5;

pub struct Harness {
    pub seed: u64,
    pub trace: bool,
    /// A self-check of the harness, not a measurement: a tenth of the rows,
    /// one set-up, one round of at most one warm-up pass and one pass per
    /// phase, one repetition per replay.
    pub quick: bool,
    seconds: f64,
    pub tracer: Tracer,
    verify: NameId,
    pass: NameId,
    replay: NameId,
    setup_s: Vec<f64>,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Fact rows one pass processes (rows x query executions; rows
    /// ingested for `ingest`). Set by the workload.
    pub rows_per_pass: usize,
    /// Per-layer values, filled by the workload in a traced run.
    pub layers: Values,
}

/// Counts checked operations of one pass and the time checking took,
/// which the pass time excludes.
pub struct Checker {
    attempted: u64,
    failed: u64,
    untimed: Duration,
    verify: NameId,
}

impl Checker {
    /// Counts one operation; `ok` compares its output with the expected
    /// one, outside the timed part of the pass.
    pub fn check(&mut self, tr: &mut Tracer, ok: impl FnOnce() -> bool) {
        let start = Instant::now();
        let span = tr.begin(self.verify);
        self.attempted += 1;
        self.failed += u64::from(!ok());
        tr.end(span);
        self.untimed += start.elapsed();
    }
}

/// The end of a run: what the result line is made of.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    pub layers: Values,
}

impl Outcome {
    /// Whether operations were checked and every one matched.
    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

impl Harness {
    pub fn new(seed: u64, seconds: f64, trace: bool, quick: bool) -> Self {
        let mut tracer = Tracer::new();
        Harness {
            seed,
            trace,
            quick,
            seconds,
            verify: tracer.name("harness.verify"),
            pass: tracer.name("harness.pass"),
            replay: tracer.name("harness.replay"),
            tracer,
            setup_s: Vec::new(),
            untraced_ms: Vec::new(),
            traced_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            rows_per_pass: 0,
            layers: Values::default(),
        }
    }

    /// The workload's `fact_scale`, cut to a tenth in quick mode.
    pub fn fact_scale(&self, full: f64) -> f64 {
        if self.quick {
            full / 10.0
        } else {
            full
        }
    }

    /// Repetitions of a replay, of set-up, of rounds or of warm-up passes:
    /// `full`, or at most one in quick mode.
    pub fn reps(&self, full: usize) -> usize {
        if self.quick {
            full.min(1)
        } else {
            full
        }
    }

    /// Builds the workload's inputs [`SETUP_REPS`] times, timing each, and
    /// keeps the last. Each build starts with the previous one dropped, so
    /// peak memory is that of one set of inputs.
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> T) -> T {
        let mut built = None;
        for _ in 0..self.reps(SETUP_REPS) {
            drop(built.take());
            let start = Instant::now();
            built = Some(build());
            self.setup_s.push(start.elapsed().as_secs_f64());
        }
        built.expect("SETUP_REPS is at least one")
    }

    fn one_pass(
        &mut self,
        index: usize,
        pass: &mut impl FnMut(&mut Tracer, &mut Checker, usize),
    ) -> f64 {
        let mut checker = Checker {
            attempted: 0,
            failed: 0,
            untimed: Duration::ZERO,
            verify: self.verify,
        };
        let start = Instant::now();
        let span = self.tracer.begin(self.pass);
        pass(&mut self.tracer, &mut checker, index);
        self.tracer.end(span);
        let elapsed = start.elapsed();
        self.attempted += checker.attempted;
        self.failed += checker.failed;
        (elapsed - checker.untimed).as_secs_f64() * 1e3
    }

    /// Timed passes for `budget_secs` (at least one).
    fn phase(
        &mut self,
        budget_secs: f64,
        index: &mut usize,
        pass: &mut impl FnMut(&mut Tracer, &mut Checker, usize),
    ) -> Vec<f64> {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.is_empty() || (!self.quick && start.elapsed().as_secs_f64() < budget_secs) {
            samples.push(self.one_pass(*index, pass));
            *index += 1;
        }
        samples
    }

    /// Measures `pass` over [`ROUNDS`] placements of its inputs: `first` is
    /// the placement set-up left behind, `place` builds the same inputs
    /// again somewhere else. `warmup` passes are discarded first; after a
    /// re-placement none is, since the fast percentile passes over the
    /// cold pass anyway. Every round times passes for its share of the
    /// run's seconds. `pass` gets the inputs, the tracer, the pass's
    /// checker and the pass index. Returns the last placement, for the
    /// layer replays.
    pub fn run_rounds<I>(
        &mut self,
        warmup: usize,
        first: I,
        mut place: impl FnMut() -> I,
        mut pass: impl FnMut(&I, &mut Tracer, &mut Checker, usize),
    ) -> I {
        self.rounds(ROUNDS, warmup, first, &mut place, &mut pass)
    }

    /// [`Harness::run_rounds`] for a workload whose passes build their own
    /// inputs or keep state from pass to pass: one round.
    pub fn run_passes(
        &mut self,
        warmup: usize,
        mut pass: impl FnMut(&mut Tracer, &mut Checker, usize),
    ) {
        self.rounds(1, warmup, (), &mut || (), &mut |(), tr, ck, index| {
            pass(tr, ck, index)
        })
    }

    fn rounds<I>(
        &mut self,
        rounds: usize,
        warmup: usize,
        first: I,
        place: &mut impl FnMut() -> I,
        pass: &mut impl FnMut(&I, &mut Tracer, &mut Checker, usize),
    ) -> I {
        let rounds = self.reps(rounds);
        let phases = if self.trace { 2 } else { 1 };
        let budget = self.seconds / (rounds * phases) as f64;
        let mut inputs = Some(first);
        let mut index = 0;
        for round in 0..rounds {
            if round > 0 {
                // Dropped before it is rebuilt, so memory holds one placement.
                drop(inputs.take());
                inputs = Some(place());
            }
            let placed = inputs.as_ref().expect("placed above");
            let mut pass = |tr: &mut Tracer, ck: &mut Checker, index| pass(placed, tr, ck, index);
            self.tracer.set_enabled(false);
            for _ in 0..self.reps(if round == 0 { warmup } else { 0 }) {
                self.one_pass(index, &mut pass);
                index += 1;
            }
            let untraced = self.phase(budget, &mut index, &mut pass);
            self.untraced_ms.extend(untraced);
            if self.trace {
                self.tracer.set_enabled(true);
                let traced = self.phase(budget, &mut index, &mut pass);
                self.traced_ms.extend(traced);
            }
        }
        inputs.expect("placed above")
    }

    /// Median milliseconds of the traced spans called `name`.
    pub fn span_ms(&mut self, name: &str) -> f64 {
        let id = self.tracer.name(name);
        median(&self.tracer.durations_ms(id))
    }

    /// Median pass time of the phase the run reports: the traced one in a
    /// traced run, so layer shares are taken of the passes that were traced.
    pub fn pass_ms_p50(&self) -> f64 {
        median(if self.trace {
            &self.traced_ms
        } else {
            &self.untraced_ms
        })
    }

    /// Times `f` once to warm it and then `reps` times, each under a span
    /// called `name`; returns the median seconds. This is how a traced run
    /// measures one layer's function on the workload's own data.
    pub fn replay<R>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
        let id = self.tracer.name(name);
        let parent = self.tracer.begin(self.replay);
        black_box(f());
        let mut secs = Vec::with_capacity(reps);
        for _ in 0..reps {
            let span = self.tracer.begin_op(id);
            let start = Instant::now();
            black_box(f());
            secs.push(start.elapsed().as_secs_f64());
            self.tracer.end(span);
        }
        self.tracer.end(parent);
        median(&secs)
    }

    /// Sets a per-layer value.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.set(name, value);
    }

    /// Ends the run: the end-to-end values of the untraced passes and,
    /// in a traced run, the harness's own per-layer values and the spans
    /// written to `trace_path`.
    pub fn finish(mut self, trace_path: &std::path::Path) -> std::io::Result<Outcome> {
        let fast = percentile(&self.untraced_ms, FAST_PERCENTILE);
        let mut end_to_end = Values::default();
        end_to_end.set("setup_s", median(&self.setup_s));
        end_to_end.set("pass_ms_p10", fast);
        end_to_end.set("mrows_per_s", self.rows_per_pass as f64 / (fast * 1e3));
        end_to_end.set("peak_rss_mb", peak_rss_mb()?);
        if self.trace {
            let traced = &self.traced_ms;
            self.layers.set("harness.pass_ms_p50", median(traced));
            self.layers
                .set("harness.pass_ms_p90", percentile(traced, 90.0));
            self.layers.set("harness.samples", traced.len() as f64);
            self.layers.set(
                "harness.trace_overhead_frac",
                percentile(traced, FAST_PERCENTILE) / fast - 1.0,
            );
            self.layers.set(
                "harness.failed_frac",
                self.failed as f64 / self.attempted.max(1) as f64,
            );
            self.tracer.write_jsonl(trace_path)?;
        }
        Ok(Outcome {
            attempted: self.attempted,
            failed: self.failed,
            end_to_end,
            layers: self.layers,
        })
    }
}

/// Peak resident set of this process (`VmHWM`), in 10^6 bytes.
fn peak_rss_mb() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}
