//! `perfbench`: the end-to-end and per-layer benchmark of the dsd
//! workspace. See `README.md` next to this crate for the workloads,
//! metrics and reference figures.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The command first writes the workload's inputs for the seed as
//! edge-list files (outside any timing), then runs the workload in a child
//! process of its own, so set-up time and peak memory belong to the
//! workload alone. The child prints one JSON line: `correct`, `attempted`,
//! `failed` and the metrics (end-to-end without tracing, per-layer with).

mod check;
mod cold_file;
mod count;
mod inputs;
mod layers;
mod metrics;
mod tight_budget;
mod trace;
mod update_churn;
mod warm_serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{exit, Command};
use std::time::Instant;

use layers::Layers;
use metrics::{median, Measured, Phase, Report};
use trace::Tracer;

pub const WORKLOADS: &[&str] = &["cold-file", "warm-serve", "update-churn", "tight-budget"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub data: PathBuf,
    /// When the workload process started.
    pub started: Instant,
}

/// Per-class op accounting: a class is one distinct request; its first
/// answer is the one checked after the run, and every repeat must equal
/// it bit for bit.
pub struct Ledger<K: Ord> {
    classes: BTreeMap<K, (u64, u64, check::Answer)>,
    latencies: BTreeMap<K, Vec<f64>>,
    failed_extra: u64,
    attempted_extra: u64,
}

impl<K: Ord> Default for Ledger<K> {
    fn default() -> Self {
        Ledger {
            classes: BTreeMap::new(),
            latencies: BTreeMap::new(),
            failed_extra: 0,
            attempted_extra: 0,
        }
    }
}

impl<K: Ord + Clone> Ledger<K> {
    /// Sets the answer every op of `class` must equal, without counting
    /// an op (the answer a set-up warm-up produced).
    pub fn seed(&mut self, class: K, ans: check::Answer) {
        self.classes.insert(class, (0, 0, ans));
    }

    /// Records one op's answer for `class`, with its latency.
    pub fn record(&mut self, class: K, ans: check::Answer, latency_ms: f64) {
        self.latencies
            .entry(class.clone())
            .or_default()
            .push(latency_ms);
        let entry = self.classes.entry(class).or_insert((0, 0, ans.clone()));
        entry.0 += 1;
        if !entry.2.same(&ans) {
            entry.1 += 1;
        }
    }

    /// Records an op outside the classes (a malformed-file load).
    pub fn extra(&mut self, failed: bool) {
        self.attempted_extra += 1;
        self.failed_extra += failed as u64;
    }

    /// Records an op that failed before it produced an answer.
    pub fn lost(&mut self) {
        self.extra(true);
    }

    pub fn classes(&self) -> impl Iterator<Item = (&K, &check::Answer)> {
        self.classes.iter().map(|(k, (_, _, a))| (k, a))
    }

    /// Prints each class's op count and median latency to stderr (the
    /// figures the round weights are set from).
    pub fn print_classes(&self)
    where
        K: std::fmt::Debug,
    {
        for (k, lat) in &self.latencies {
            eprintln!(
                "class {k:?}: {} ops, median {:.3} ms",
                lat.len(),
                median(lat)
            );
        }
    }

    /// Totals: `(attempted, failed)`, counting every op of a class whose
    /// checked answer is in `bad` as failed.
    pub fn totals(&self, bad: &[K]) -> (u64, u64) {
        let mut attempted = self.attempted_extra;
        let mut failed = self.failed_extra;
        for (k, (ops, mismatched, _)) in &self.classes {
            attempted += ops;
            failed += if bad.contains(k) { *ops } else { *mismatched };
        }
        (attempted, failed)
    }
}

/// Runs `make` [`SETUPS`] times, dropping each result before the next, and
/// returns the last with every set-up's seconds. The first is timed from
/// the process start.
pub fn repeated_setup<S>(args: &Args, mut make: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let t0 = if i == 0 { args.started } else { Instant::now() };
        last = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), times)
}

/// Runs whole rounds until the phase has measured `seconds`.
pub fn run_rounds(seconds: f64, phase: &mut Phase, mut round: impl FnMut(&mut Phase)) {
    loop {
        round(phase);
        if phase.elapsed_s() >= seconds {
            break;
        }
    }
}

/// The timed part of a run: one untraced phase of `seconds`, or, when
/// tracing, an untraced third and a traced two thirds, so the traced run
/// can report its own overhead. Returns the closed phase end-to-end
/// metrics come from (the traced one when tracing) and the overhead in
/// percent. The phase closes here, before any check runs.
pub fn timed(
    args: &Args,
    tracer: &Tracer,
    mut round: impl FnMut(&mut Phase, &Tracer),
) -> (Measured, f64) {
    if !args.trace {
        let mut phase = Phase::start();
        run_rounds(args.seconds, &mut phase, |p| round(p, tracer));
        return (phase.finish(), 0.0);
    }
    let off = Tracer::new(false);
    let mut plain = Phase::start();
    run_rounds(args.seconds / 3.0, &mut plain, |p| round(p, &off));
    let plain = plain.finish();
    let mut traced = Phase::start();
    run_rounds(args.seconds * 2.0 / 3.0, &mut traced, |p| round(p, tracer));
    let traced = traced.finish();
    let base = median(&plain.latencies_ms);
    let overhead = metrics::ratio(median(&traced.latencies_ms) - base, base) * 100.0;
    (traced, overhead)
}

/// Assembles the last line from a finished run.
pub fn finish(
    args: &Args,
    (attempted, failed): (u64, u64),
    setups: &[f64],
    measured: &Measured,
    mut layers: Layers,
    overhead: f64,
    tracer: &Tracer,
) -> Report {
    let mut report = Report {
        correct: attempted > 0,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    if args.trace {
        layers.set("trace.overhead_pct", overhead);
        layers.emit(&mut report);
        let path = args.data.join(format!("spans-{}.jsonl", args.workload));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            report.correct = false;
        }
    } else {
        report.end_to_end(setups, measured);
    }
    report
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args(argv: &[String]) -> (String, u64, f64, bool, bool) {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut child) = (1u64, 10.0f64, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let Some(value) = it.next() else {
            usage_exit(&format!("{flag} needs a value"))
        };
        let bad = |what: &str| -> ! { usage_exit(&format!("bad {what}: {value}")) };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad("seed")),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| bad("seconds"));
                if !(seconds > 0.0 && seconds <= 600.0) {
                    bad("seconds");
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("trace"),
                }
            }
            _ => usage_exit(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage_exit("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage_exit(&format!("unknown workload {workload}"));
    }
    (workload, seed, seconds, trace, child)
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace, child) = parse_args(&argv);
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    let data = inputs::input_dir(&root, &workload, seed);

    if !child {
        // Inputs go to disk before the workload process starts.
        if let Err(e) = inputs::generate(&workload, seed, &data) {
            eprintln!("perfbench: cannot write inputs to {}: {e}", data.display());
            exit(1);
        }
        let exe = std::env::current_exe().expect("own executable path");
        let status = Command::new(exe)
            .args(&argv)
            .arg("--child")
            .status()
            .expect("start the workload process");
        exit(status.code().unwrap_or(1));
    }

    let args = Args {
        workload,
        seed,
        seconds,
        trace,
        data,
        started,
    };
    let report = match args.workload.as_str() {
        "cold-file" => cold_file::run(&args),
        "warm-serve" => warm_serve::run(&args),
        "update-churn" => update_churn::run(&args),
        "tight-budget" => tight_budget::run(&args),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    println!("{}", report.json());
    exit(if report.correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_counts_mismatches_and_bad_classes() {
        let a = |d: f64| check::Answer {
            vertices: vec![1, 2],
            density_bits: d.to_bits(),
            subgraphs: Vec::new(),
            guarantee: dsd_core::Guarantee::Exact,
        };
        let mut l = Ledger::default();
        l.record("x", a(1.0), 1.0);
        l.record("x", a(1.0), 1.0);
        l.record("x", a(2.0), 1.0);
        l.record("y", a(1.0), 1.0);
        l.extra(true);
        l.extra(false);
        assert_eq!(l.totals(&[]), (6, 2));
        assert_eq!(l.totals(&["y"]), (6, 3));
        assert_eq!(l.totals(&["x"]), (6, 4));
    }
}
