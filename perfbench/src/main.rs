//! `st-perfbench`: the repository benchmark.
//!
//! ```text
//! st-perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1> [--records DIR]
//! st-perfbench compare OLD_DIR NEW_DIR
//! ```
//!
//! A run drives one workload's configs through the program's public
//! entry points (`st_bench::experiment::run`, `st_check::check`) in
//! rounds on one host thread, until `--seconds` have passed, and
//! reports medians over rounds. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it alternates untraced and
//! traced rounds and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. Every run also writes a record (per-config wall and
//! CPU times, digests, host cores, worker count) that `compare` reads.
//! See `perfbench/README.md` for the workloads and the metric map.

mod batch;
mod compare;
mod host;
mod percall;
mod stats;
mod trace;
mod workloads;
mod world;

use batch::{check_figure, same_digest, timed_catch, Tally};
use st_bench::experiment::{run, RunConfig, RunResult};
use st_check::{CheckConfig, CheckReport};
use st_obs::{Json, Metric};
use stats::{geomean, median};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Agg, Events, SpanKind, Traced, KINDS};
use workloads::{Workload, CHECK_EXPLORE};
use world::check_digest;

/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// End-to-end metrics: name and unit. Reported with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("host_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("host_peak_rss_mb", "MB"),
];

/// Per-layer metrics: name, unit and which direction is better.
/// Reported with `--trace 1`; a metric a workload does not exercise
/// reads 0.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("bench.setup_ms", "ms", "lower"),
    ("bench.worker_step_self_ms", "ms", "lower"),
    ("bench.config_cpu_ms.p50", "ms", "lower"),
    ("bench.config_cpu_ms.max", "ms", "lower"),
    ("machine.run_ms", "ms", "lower"),
    ("machine.self_ms", "ms", "lower"),
    ("machine.steps", "count", "lower"),
    ("machine.self_ns_per_step", "ns", "lower"),
    ("machine.ns_per_noop_step", "ns", "lower"),
    ("machine.context_switches", "count", "lower"),
    ("machine.neutralize_calls", "count", "lower"),
    ("machine.busy_cycles", "cycles", "lower"),
    ("reclaim.begin_op_ms", "ms", "lower"),
    ("reclaim.step_op_ms", "ms", "lower"),
    ("reclaim.step_op_calls", "count", "lower"),
    ("reclaim.ns_per_step_op", "ns", "lower"),
    ("reclaim.step_idle_ms", "ms", "lower"),
    ("reclaim.step_idle_calls", "count", "lower"),
    ("reclaim.teardown_ms", "ms", "lower"),
    ("reclaim.garbage_nodes.StackTrack", "nodes", "lower"),
    ("reclaim.garbage_nodes.Hazards", "nodes", "lower"),
    ("reclaim.garbage_nodes.NBR", "nodes", "lower"),
    ("reclaim.garbage_nodes.Hyaline", "nodes", "lower"),
    ("reclaim.garbage_nodes.Epoch", "nodes", "lower"),
    ("scheme.hazard.scans", "count", "lower"),
    ("scheme.epoch.freed", "count", "higher"),
    ("scheme.nbr.neutralizations", "count", "lower"),
    ("scheme.nbr.signals_sent", "count", "lower"),
    ("scheme.nbr.freed", "count", "higher"),
    ("scheme.hyaline.dispatches", "count", "lower"),
    ("scheme.hyaline.batch_handoffs", "count", "lower"),
    ("scheme.hyaline.freed", "count", "higher"),
    ("core.committed_segments", "count", "lower"),
    ("core.avg_split_length", "blocks", "higher"),
    ("core.segment_aborts", "count", "lower"),
    ("core.slow_ops", "count", "lower"),
    ("core.forced_slow_ops", "count", "lower"),
    ("core.scans", "count", "lower"),
    ("core.scan_words", "words", "lower"),
    ("core.scan_retries", "count", "lower"),
    ("core.free_yield", "ratio", "higher"),
    ("core.scan_cycle_share", "ratio", "lower"),
    ("core.ns_per_scan_word", "ns", "lower"),
    ("core.scan_attributed_ms", "ms", "lower"),
    ("simhtm.tx_begun", "count", "lower"),
    ("simhtm.commit_ratio", "ratio", "higher"),
    ("simhtm.aborts.conflict", "count", "lower"),
    ("simhtm.aborts.capacity", "count", "lower"),
    ("simhtm.aborts.explicit", "count", "lower"),
    ("simhtm.aborts.preempted", "count", "lower"),
    ("simhtm.aborts.other", "count", "lower"),
    ("simhtm.tx_loads", "count", "lower"),
    ("simhtm.tx_stores", "count", "lower"),
    ("simhtm.committed_reads", "count", "lower"),
    ("simhtm.ns_per_begin", "ns", "lower"),
    ("simhtm.ns_per_tx_read", "ns", "lower"),
    ("simhtm.ns_per_tx_write", "ns", "lower"),
    ("simhtm.ns_per_commit", "ns", "lower"),
    ("simhtm.ns_per_abort", "ns", "lower"),
    ("simhtm.attributed_ms", "ms", "lower"),
    ("simheap.loads", "count", "lower"),
    ("simheap.stores", "count", "lower"),
    ("simheap.cas_ops", "count", "lower"),
    ("simheap.fences", "count", "lower"),
    ("simheap.allocs", "count", "lower"),
    ("simheap.frees", "count", "lower"),
    ("simheap.live_words", "words", "lower"),
    ("simheap.ns_per_access", "ns", "lower"),
    ("simheap.ns_per_cas", "ns", "lower"),
    ("simheap.ns_per_alloc_free", "ns", "lower"),
    ("simheap.attributed_ms", "ms", "lower"),
    ("obs.report_ms", "ms", "lower"),
    ("obs.metric_keys", "count", "lower"),
    ("obs.ns_per_record", "ns", "lower"),
    ("check.schedules", "count", "higher"),
    ("check.decisions", "count", "higher"),
    ("check.ns_per_decision", "ns", "lower"),
    ("check.violations", "count", "lower"),
    ("layer.attributed_ms", "ms", "lower"),
    ("layer.residual_ms", "ms", "lower"),
    ("sim.minstr_per_host_s", "M/s", "higher"),
    ("sim.virt_ops_per_s", "ops/s", "higher"),
    ("sim.garbage_nodes", "nodes", "lower"),
    ("trace.host_s", "s", "lower"),
    ("trace.untraced_host_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Named values in declaration order.
struct MetricSet {
    rows: Vec<(&'static str, &'static str, f64)>,
}

impl MetricSet {
    fn new(decl: impl Iterator<Item = (&'static str, &'static str)>) -> MetricSet {
        MetricSet {
            rows: decl.map(|(name, unit)| (name, unit, 0.0)).collect(),
        }
    }

    fn end_to_end() -> MetricSet {
        MetricSet::new(END_TO_END.into_iter())
    }

    fn per_layer() -> MetricSet {
        MetricSet::new(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on a name the set does not declare.
    fn set(&mut self, name: &str, value: impl Into<f64>) {
        let row = self
            .rows
            .iter_mut()
            .find(|r| r.0 == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        row.2 = value.into();
    }

    fn print(&self, prefix: &str) {
        for (name, unit, value) in &self.rows {
            println!("{prefix}{name} = {value} {unit}");
        }
    }

    fn to_json(&self, prefix: &str) -> Vec<(String, Json)> {
        self.rows
            .iter()
            .map(|&(name, unit, value)| {
                let mut m = Json::obj();
                // Non-finite values cannot be written as JSON numbers.
                m.set("value", if value.is_finite() { value } else { 0.0 });
                m.set("unit", unit);
                (format!("{prefix}{name}"), m)
            })
            .collect()
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    records: PathBuf,
}

const USAGE: &str = "usage: st-perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1> [--records DIR]
       st-perfbench compare OLD_DIR NEW_DIR
workloads: list-stacktrack, hash-churn, skiplist-oversub, check-dfs";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut records = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("records");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            "--records" => records = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => Workload::ALL.to_vec(),
        name => vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?],
    };
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=3600).contains(&seconds) {
        return Err("--seconds must be 1..=3600".into());
    }
    let trace = match trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workloads,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        records,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return compare_main(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        println!(
            "workload {} seed {} trace {} host_cores {} workers {}",
            w.name(),
            args.seed,
            u8::from(args.trace),
            host::host_cores(),
            host::WORKERS
        );
        let out = run_workload(w, args.seed, budget, args.trace, &mut tally);
        let prefix = if args.workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        out.metrics.print(&prefix);
        metrics.extend(out.metrics.to_json(&prefix));
        if let Err(e) = write_record(&args, w, out.record, &out.spans) {
            eprintln!("could not write the run record: {e}");
            return ExitCode::FAILURE;
        }
    }
    let correct = tally.failed == 0;
    println!(
        "correct: {correct} (attempted {}, failed {}, failed_share {})",
        tally.attempted,
        tally.failed,
        tally.failed_share()
    );
    let mut result = Json::obj();
    result.set("correct", correct);
    result.set("attempted", tally.attempted);
    result.set("failed", tally.failed);
    result.set("metrics", Json::Obj(metrics));
    println!("{result}");
    ExitCode::SUCCESS
}

fn compare_main(args: &[String]) -> ExitCode {
    let [old, new] = args else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let load = |d: &String| compare::load_dir(std::path::Path::new(d));
    match (load(old), load(new)) {
        (Ok(o), Ok(n)) => {
            if compare::print(&compare::compare(&o, &n)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn write_record(
    args: &Args,
    w: Workload,
    record: Json,
    spans: &[trace::Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.records)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(
        args.records.join(format!("{stem}.json")),
        record.to_pretty_string() + "\n",
    )?;
    if !spans.is_empty() {
        let lines: String = spans
            .iter()
            .map(|s| s.to_json().to_string() + "\n")
            .collect();
        std::fs::write(args.records.join(format!("{stem}.spans.jsonl")), lines)?;
    }
    Ok(())
}

/// What one workload run reports.
struct Outcome {
    metrics: MetricSet,
    record: Json,
    spans: Vec<trace::Span>,
}

fn run_workload(
    w: Workload,
    seed: u64,
    budget: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Outcome {
    let figure = w.figure_configs(seed);
    let check = w.check_configs(seed);
    let mut record = Json::obj();
    record.set("workload", w.name());
    record.set("seed", seed);
    record.set("trace", u64::from(traced));
    record.set("host_cores", host::host_cores());
    record.set("workers", host::WORKERS);
    let (metrics, spans) = match (figure.is_empty(), traced) {
        (false, false) => (
            figure_untraced(&figure, budget, tally, &mut record),
            Vec::new(),
        ),
        (false, true) => figure_traced(&figure, budget, tally, &mut record),
        (true, false) => (
            check_untraced(&check, budget, tally, &mut record),
            Vec::new(),
        ),
        (true, true) => check_traced(&check, budget, tally, &mut record),
    };
    Outcome {
        metrics,
        record,
        spans,
    }
}

/// Calls `round` until `budget` would be exceeded by one more round of
/// the last round's length, and at least [`MIN_ROUNDS`] times.
fn in_rounds(budget: Duration, mut round: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        let t = Instant::now();
        round();
        done += 1;
        if done >= MIN_ROUNDS && start.elapsed() + t.elapsed() > budget {
            return;
        }
    }
}

/// Median over [`SETUP_REPS`] passes of the summed set-up wall time of
/// every config, in seconds, built one at a time on this thread. What
/// `set_up` returns is dropped after its timer stops.
fn setup_seconds<C, T>(
    configs: &[C],
    tally: &mut Tally,
    label: impl Fn(&C) -> String,
    set_up: impl Fn(&C) -> Result<T, String>,
) -> (f64, Vec<f64>) {
    let passes: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            configs
                .iter()
                .map(|c| {
                    let t = timed_catch(|| set_up(c));
                    let outcome = t.out.and_then(|built| built.map(drop));
                    tally.record(&format!("set-up of {}", label(c)), 1, outcome);
                    t.host_ms / 1e3
                })
                .sum()
        })
        .collect();
    (median(&passes), passes)
}

fn figure_label(c: &RunConfig) -> String {
    format!(
        "{}/{}/{} threads/seed {}",
        c.scheme.name(),
        c.spec.structure.name(),
        c.threads,
        c.seed
    )
}

fn check_label(c: &CheckConfig) -> String {
    format!(
        "check {}/{}/{} threads/seed {}",
        c.scheme.name(),
        c.structure.name(),
        c.threads,
        c.seed
    )
}

/// Per-config host samples and the first result of each config.
struct Rounds<R> {
    host_s: Vec<f64>,
    cpu_s: Vec<f64>,
    config_host_ms: Vec<Vec<f64>>,
    config_cpu_ms: Vec<Vec<f64>>,
    digests: Vec<Option<String>>,
    first: Vec<Option<R>>,
}

impl<R> Rounds<R> {
    fn new(n: usize) -> Self {
        Rounds {
            host_s: Vec::new(),
            cpu_s: Vec::new(),
            config_host_ms: vec![Vec::new(); n],
            config_cpu_ms: vec![Vec::new(); n],
            digests: vec![None; n],
            first: (0..n).map(|_| None).collect(),
        }
    }

    /// Runs every config once, one after another, and checks each
    /// result: `check` returns the result's digest and unit count.
    fn round<C>(
        &mut self,
        configs: &[C],
        tally: &mut Tally,
        label: impl Fn(&C) -> String,
        exec: impl Fn(&C) -> R,
        check: impl Fn(&R) -> (Result<String, String>, u64),
    ) {
        let t = Instant::now();
        let runs: Vec<_> = configs.iter().map(|c| timed_catch(|| exec(c))).collect();
        self.host_s.push(t.elapsed().as_secs_f64());
        self.cpu_s
            .push(runs.iter().map(|r| r.cpu_ms).sum::<f64>() / 1e3);
        for (i, r) in runs.into_iter().enumerate() {
            self.config_host_ms[i].push(r.host_ms);
            self.config_cpu_ms[i].push(r.cpu_ms);
            let (verdict, units) = match r.out {
                Err(panic) => (Err(format!("panicked: {panic}")), 1),
                Ok(result) => {
                    let (digest, units) = check(&result);
                    let verdict = digest.and_then(|d| {
                        same_digest(self.digests[i].as_deref(), &d)?;
                        self.digests[i].get_or_insert(d);
                        Ok(())
                    });
                    if verdict.is_ok() && self.first[i].is_none() {
                        self.first[i] = Some(result);
                    }
                    (verdict, units)
                }
            };
            tally.record(&label(&configs[i]), units, verdict);
        }
    }

    /// Writes the round times and per-config rows into the run record.
    fn record_into(&self, record: &mut Json, ids: impl Iterator<Item = (String, String, usize)>) {
        record.set("rounds", self.host_s.len());
        record.set("host_s", median(&self.host_s));
        record.set("cpu_s", median(&self.cpu_s));
        record.set("round_host_s", floats(&self.host_s));
        record.set("round_cpu_s", floats(&self.cpu_s));
        let rows = ids
            .enumerate()
            .map(|(i, (scheme, structure, threads))| {
                let mut o = Json::obj();
                o.set("scheme", scheme);
                o.set("structure", structure);
                o.set("threads", threads);
                o.set("digest", self.digests[i].clone().unwrap_or_default());
                o.set("host_ms", floats(&self.config_host_ms[i]));
                o.set("cpu_ms", floats(&self.config_cpu_ms[i]));
                o
            })
            .collect();
        record.set("configs", Json::Arr(rows));
    }

    /// The end-to-end metrics of an untraced run.
    fn end_to_end(&self, setup_s: f64) -> MetricSet {
        let mut m = MetricSet::end_to_end();
        m.set("host_s", median(&self.host_s));
        m.set("cpu_s", median(&self.cpu_s));
        m.set("setup_s", setup_s);
        m.set("host_peak_rss_mb", host::peak_rss_mb());
        m
    }
}

fn floats(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::from(x)).collect())
}

fn figure_check(r: &RunResult) -> (Result<String, String>, u64) {
    (check_figure(r).map(|()| world::digest_of(r)), 1)
}

fn figure_ids(configs: &[RunConfig]) -> impl Iterator<Item = (String, String, usize)> + '_ {
    configs.iter().map(|c| {
        (
            c.scheme.name().to_string(),
            c.spec.structure.name().to_string(),
            c.threads,
        )
    })
}

fn figure_untraced(
    configs: &[RunConfig],
    budget: Duration,
    tally: &mut Tally,
    record: &mut Json,
) -> MetricSet {
    let (setup_s, passes) = setup_seconds(configs, tally, figure_label, |c| {
        Ok(world::set_up_figure(c))
    });
    let mut rounds = Rounds::new(configs.len());
    in_rounds(budget, || {
        rounds.round(configs, tally, figure_label, run, figure_check)
    });
    rounds.record_into(record, figure_ids(configs));
    record.set("setup_s", floats(&passes));
    print_sim(sim_metrics(&rounds));
    rounds.end_to_end(setup_s)
}

/// Deterministic simulated outcomes of a figure workload: simulated
/// memory instructions per host CPU second (M/s), the geometric mean of
/// the configs' virtual throughput, and the largest deadline garbage.
fn sim_metrics(rounds: &Rounds<RunResult>) -> (f64, f64, f64) {
    let results: Vec<&RunResult> = rounds.first.iter().flatten().collect();
    let minstr: u64 = results
        .iter()
        .map(|r| r.loads + r.stores + r.tx_loads + r.tx_stores + r.cas_ops + r.fences)
        .sum();
    let cpu_s = median(&rounds.cpu_s);
    let ops: Vec<f64> = results.iter().map(|r| r.ops_per_sec).collect();
    let garbage = results.iter().map(|r| r.garbage).max().unwrap_or(0);
    (minstr as f64 / 1e6 / cpu_s, geomean(&ops), garbage as f64)
}

fn print_sim((minstr, ops, garbage): (f64, f64, f64)) {
    println!("sim_minstr_per_host_s = {minstr} M/s");
    println!("virt_ops_per_s = {ops} ops/s");
    println!("garbage_nodes = {garbage} nodes");
}

fn check_ids(configs: &[CheckConfig]) -> impl Iterator<Item = (String, String, usize)> + '_ {
    configs.iter().map(|c| {
        (
            c.scheme.name().to_string(),
            c.structure.name().to_string(),
            c.threads,
        )
    })
}

fn set_up_check(c: &CheckConfig) -> Result<(), String> {
    match world::set_up_check(c) {
        0 => Ok(()),
        n => Err(format!("{n} oracle finding(s) on an empty schedule")),
    }
}

fn check_untraced(
    configs: &[CheckConfig],
    budget: Duration,
    tally: &mut Tally,
    record: &mut Json,
) -> MetricSet {
    let (setup_s, passes) = setup_seconds(configs, tally, check_label, set_up_check);
    let mut rounds = Rounds::new(configs.len());
    in_rounds(budget, || {
        rounds.round(
            configs,
            tally,
            check_label,
            |c| st_check::check(c, &CHECK_EXPLORE),
            check_digest,
        )
    });
    rounds.record_into(record, check_ids(configs));
    record.set("setup_s", floats(&passes));
    rounds.end_to_end(setup_s)
}

/// Span totals of one traced round, summed over its configs.
fn round_aggs(traced: &[Traced]) -> [Agg; KINDS] {
    let mut total = [Agg::default(); KINDS];
    for t in traced {
        for (sum, a) in total.iter_mut().zip(&t.agg) {
            sum.add(*a);
        }
    }
    total
}

/// Per-kind medians over traced rounds: (total ms, self ms, calls).
struct SpanTimes {
    rounds: Vec<[Agg; KINDS]>,
}

impl SpanTimes {
    fn total_ms(&self, k: SpanKind) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .map(|r| r[k.index()].total_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn self_ms(&self, k: SpanKind) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .map(|r| r[k.index()].self_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn calls(&self, k: SpanKind) -> f64 {
        self.rounds
            .last()
            .map_or(0.0, |r| r[k.index()].calls as f64)
    }
}

/// Alternates untraced and traced rounds; every traced config must
/// simulate exactly what its untraced twin did.
fn traced_rounds<C, R>(
    configs: &[C],
    budget: Duration,
    tally: &mut Tally,
    label: impl Fn(&C) -> String + Copy,
    exec: impl Fn(&C) -> R + Copy,
    check: impl Fn(&R) -> (Result<String, String>, u64) + Copy,
    exec_traced: impl Fn(&C, u32) -> Traced,
) -> (Rounds<R>, Vec<f64>, SpanTimes, Vec<Traced>) {
    let mut untraced = Rounds::new(configs.len());
    let mut traced_host_s = Vec::new();
    let mut times = SpanTimes { rounds: Vec::new() };
    let mut last = Vec::new();
    in_rounds(budget, || {
        untraced.round(configs, tally, label, exec, check);
        let t = Instant::now();
        let runs: Vec<_> = (0..)
            .zip(configs)
            .map(|(i, c)| timed_catch(|| exec_traced(c, i)))
            .collect();
        traced_host_s.push(t.elapsed().as_secs_f64());
        let mut ok = Vec::new();
        for (i, r) in runs.into_iter().enumerate() {
            let verdict = r.out.and_then(|t| {
                let d = t.digest.clone()?;
                match untraced.digests[i].as_deref() {
                    Some(u) if u != d => {
                        Err(format!("traced digest {d} differs from untraced {u}"))
                    }
                    _ => {
                        ok.push(t);
                        Ok(())
                    }
                }
            });
            tally.record(&format!("traced {}", label(&configs[i])), 1, verdict);
        }
        times.rounds.push(round_aggs(&ok));
        last = ok;
    });
    (untraced, traced_host_s, times, last)
}

fn common_trace_metrics(
    m: &mut MetricSet,
    untraced_host_s: &[f64],
    traced_host_s: &[f64],
    times: &SpanTimes,
    config_cpu_ms: &[Vec<f64>],
) {
    let (u, t) = (median(untraced_host_s), median(traced_host_s));
    m.set("trace.untraced_host_s", u);
    m.set("trace.host_s", t);
    m.set("trace.overhead_s", t - u);
    m.set("bench.setup_ms", times.total_ms(SpanKind::Setup));
    let per_config: Vec<f64> = config_cpu_ms.iter().map(|v| median(v)).collect();
    m.set("bench.config_cpu_ms.p50", median(&per_config));
    m.set(
        "bench.config_cpu_ms.max",
        per_config.iter().copied().fold(0.0, f64::max),
    );
}

fn figure_traced(
    configs: &[RunConfig],
    budget: Duration,
    tally: &mut Tally,
    record: &mut Json,
) -> (MetricSet, Vec<trace::Span>) {
    let pc = percall::measure();
    let (rounds, traced_host_s, times, last) = traced_rounds(
        configs,
        budget,
        tally,
        figure_label,
        run,
        figure_check,
        trace::run_figure,
    );
    rounds.record_into(record, figure_ids(configs));
    record.set("traced_host_s", floats(&traced_host_s));

    let mut m = MetricSet::per_layer();
    common_trace_metrics(
        &mut m,
        &rounds.host_s,
        &traced_host_s,
        &times,
        &rounds.config_cpu_ms,
    );
    let sim = sim_metrics(&rounds);
    m.set("sim.minstr_per_host_s", sim.0);
    m.set("sim.virt_ops_per_s", sim.1);
    m.set("sim.garbage_nodes", sim.2);

    // Span times (median over traced rounds) and counts.
    let steps = times.calls(SpanKind::Step);
    m.set("bench.worker_step_self_ms", times.self_ms(SpanKind::Step));
    m.set("machine.run_ms", times.total_ms(SpanKind::Run));
    m.set("machine.self_ms", times.self_ms(SpanKind::Run));
    m.set("machine.steps", steps);
    m.set(
        "machine.self_ns_per_step",
        times.self_ms(SpanKind::Run) * 1e6 / steps.max(1.0),
    );
    m.set("machine.ns_per_noop_step", pc.noop_step);
    m.set(
        "machine.neutralize_calls",
        times.calls(SpanKind::Neutralize),
    );
    let step_op_ms = times.total_ms(SpanKind::StepOp);
    let step_op_calls = times.calls(SpanKind::StepOp);
    m.set("reclaim.begin_op_ms", times.total_ms(SpanKind::BeginOp));
    m.set("reclaim.step_op_ms", step_op_ms);
    m.set("reclaim.step_op_calls", step_op_calls);
    m.set(
        "reclaim.ns_per_step_op",
        step_op_ms * 1e6 / step_op_calls.max(1.0),
    );
    m.set("reclaim.step_idle_ms", times.total_ms(SpanKind::StepIdle));
    m.set("reclaim.step_idle_calls", times.calls(SpanKind::StepIdle));
    m.set("reclaim.teardown_ms", times.total_ms(SpanKind::Teardown));
    m.set("obs.report_ms", times.total_ms(SpanKind::Report));
    m.set(
        "obs.metric_keys",
        last.iter().map(|t| t.metric_keys as f64).sum::<f64>(),
    );
    m.set("obs.ns_per_record", pc.metric_record);

    // Simulated counts of the measured runs (identical in every round).
    let results: Vec<&RunResult> = rounds.first.iter().flatten().collect();
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let counter = |key: &str| sum(&|r| r.metrics.counter(key));
    let busy = sum(&|r| r.per_thread.iter().map(|t| t.busy_cycles).sum());
    m.set("machine.context_switches", sum(&|r| r.context_switches));
    m.set("machine.busy_cycles", busy);
    for scheme in ["StackTrack", "Hazards", "NBR", "Hyaline", "Epoch"] {
        let worst = results
            .iter()
            .filter(|r| r.scheme == scheme)
            .map(|r| r.garbage)
            .max()
            .unwrap_or(0);
        m.set(&format!("reclaim.garbage_nodes.{scheme}"), worst as f64);
    }
    for key in [
        "scheme.hazard.scans",
        "scheme.epoch.freed",
        "scheme.nbr.neutralizations",
        "scheme.nbr.signals_sent",
        "scheme.nbr.freed",
        "scheme.hyaline.dispatches",
        "scheme.hyaline.batch_handoffs",
        "scheme.hyaline.freed",
    ] {
        m.set(key, counter(key));
    }
    let segments = counter("st.committed_segments");
    let seg_len: (u64, u64) = results
        .iter()
        .filter_map(
            |r| match r.metrics.iter().find(|(k, _)| *k == "st.segment_length") {
                Some((_, Metric::Histogram(h))) => Some((h.sum(), h.count())),
                _ => None,
            },
        )
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    m.set("core.committed_segments", segments);
    m.set(
        "core.avg_split_length",
        seg_len.0 as f64 / seg_len.1.max(1) as f64,
    );
    m.set("core.segment_aborts", counter("st.segment_aborts"));
    m.set("core.slow_ops", counter("st.slow_ops"));
    m.set("core.forced_slow_ops", counter("st.forced_slow_ops"));
    m.set("core.scans", counter("st.scans"));
    m.set("core.scan_words", counter("st.scan_words"));
    m.set("core.scan_retries", counter("st.scan_retries"));
    m.set(
        "core.free_yield",
        counter("st.frees_completed") / counter("st.free_calls").max(1.0),
    );
    m.set(
        "core.scan_cycle_share",
        counter("st.scan_cycles") / busy.max(1.0),
    );
    m.set("core.ns_per_scan_word", pc.scan_word);
    let begun = sum(&|r| r.tx_begun);
    m.set("simhtm.tx_begun", begun);
    m.set(
        "simhtm.commit_ratio",
        sum(&|r| r.tx_committed) / begun.max(1.0),
    );
    m.set("simhtm.aborts.conflict", sum(&|r| r.aborts_conflict));
    m.set("simhtm.aborts.capacity", sum(&|r| r.aborts_capacity));
    m.set("simhtm.aborts.explicit", sum(&|r| r.aborts_explicit));
    m.set("simhtm.aborts.preempted", sum(&|r| r.aborts_preempted));
    m.set("simhtm.aborts.other", sum(&|r| r.aborts_other));
    m.set("simhtm.tx_loads", sum(&|r| r.tx_loads));
    m.set("simhtm.tx_stores", sum(&|r| r.tx_stores));
    m.set("simhtm.committed_reads", counter("htm.committed_reads"));
    m.set("simhtm.ns_per_begin", pc.tx_begin);
    m.set("simhtm.ns_per_tx_read", pc.tx_read);
    m.set("simhtm.ns_per_tx_write", pc.tx_write);
    m.set("simhtm.ns_per_commit", pc.tx_commit);
    m.set("simhtm.ns_per_abort", pc.tx_abort);
    m.set("simheap.loads", sum(&|r| r.loads));
    m.set("simheap.stores", sum(&|r| r.stores));
    m.set("simheap.cas_ops", sum(&|r| r.cas_ops));
    m.set("simheap.fences", sum(&|r| r.fences));
    m.set(
        "simheap.allocs",
        last.iter().map(|t| t.allocs as f64).sum::<f64>(),
    );
    m.set(
        "simheap.frees",
        last.iter().map(|t| t.frees as f64).sum::<f64>(),
    );
    m.set("simheap.live_words", sum(&|r| r.live_words));
    m.set("simheap.ns_per_access", (pc.load + pc.store) / 2.0);
    m.set("simheap.ns_per_cas", pc.cas);
    m.set("simheap.ns_per_alloc_free", pc.alloc_free);

    // Attribution of step_op time: per-call cost times the events the
    // traced run counted inside step_op calls.
    let mut ev = Events::default();
    for t in &last {
        ev.add(&t.step_op_events);
    }
    let n = |x: u64| x as f64;
    let heap_ms = (n(ev.loads) * pc.load
        + n(ev.stores) * pc.store
        + n(ev.cas_ops) * pc.cas
        + n(ev.fences) * pc.fence
        + n(ev.allocs + ev.frees) / 2.0 * pc.alloc_free)
        / 1e6;
    let htm_ms = (n(ev.tx_begun) * pc.tx_begin
        + n(ev.tx_loads) * pc.tx_read
        + n(ev.tx_stores) * pc.tx_write
        + n(ev.tx_committed) * pc.tx_commit
        + n(ev.tx_aborted) * pc.tx_abort)
        / 1e6;
    let scan_ms = n(ev.scan_words) * pc.scan_word / 1e6;
    m.set("simheap.attributed_ms", heap_ms);
    m.set("simhtm.attributed_ms", htm_ms);
    m.set("core.scan_attributed_ms", scan_ms);
    m.set("layer.attributed_ms", heap_ms + htm_ms + scan_ms);
    m.set(
        "layer.residual_ms",
        step_op_ms - (heap_ms + htm_ms + scan_ms),
    );

    let spans = last.into_iter().flat_map(|t| t.spans).collect();
    (m, spans)
}

fn check_traced(
    configs: &[CheckConfig],
    budget: Duration,
    tally: &mut Tally,
    record: &mut Json,
) -> (MetricSet, Vec<trace::Span>) {
    let (rounds, traced_host_s, times, last) = traced_rounds(
        configs,
        budget,
        tally,
        check_label,
        |c| st_check::check(c, &CHECK_EXPLORE),
        check_digest,
        trace::run_check,
    );
    rounds.record_into(record, check_ids(configs));
    record.set("traced_host_s", floats(&traced_host_s));

    let mut m = MetricSet::per_layer();
    common_trace_metrics(
        &mut m,
        &rounds.host_s,
        &traced_host_s,
        &times,
        &rounds.config_cpu_ms,
    );
    let reports: Vec<&CheckReport> = rounds.first.iter().flatten().collect();
    let decisions: u64 = reports.iter().map(|r| r.total_decisions).sum();
    m.set(
        "check.schedules",
        reports.iter().map(|r| r.schedules_run).sum::<u64>() as f64,
    );
    m.set("check.decisions", decisions as f64);
    m.set(
        "check.ns_per_decision",
        times.total_ms(SpanKind::Check) * 1e6 / decisions.max(1) as f64,
    );
    m.set(
        "check.violations",
        reports
            .iter()
            .filter_map(|r| r.failure.as_ref())
            .map(|f| f.violations.len())
            .sum::<usize>() as f64,
    );
    let spans = last.into_iter().flat_map(|t| t.spans).collect();
    (m, spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_fit_the_manifest_rules() {
        let names = END_TO_END
            .iter()
            .map(|&(n, u)| (n, u))
            .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(PER_LAYER
            .iter()
            .all(|&(_, _, b)| b == "higher" || b == "lower"));
    }

    #[test]
    fn the_manifest_lists_exactly_the_metrics_the_benchmark_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("manifest")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END.to_vec()));
        assert_eq!(
            listed("per_layer"),
            own(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
        );
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&s(&[
            "--workload",
            "hash-churn",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0"
        ]))
        .is_ok());
        assert!(parse_args(&s(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&s(&[
            "--workload",
            "all",
            "--seed",
            "x",
            "--seconds",
            "5",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&s(&[
            "--workload",
            "all",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&s(&[
            "--workload",
            "all",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&s(&["--workload", "all", "--seed", "1", "--trace", "0"])).is_err());
        assert!(parse_args(&s(&["--workload"])).is_err());
    }

    #[test]
    fn undeclared_metrics_are_a_bug() {
        let mut m = MetricSet::end_to_end();
        m.set("host_s", 1.5);
        assert_eq!(m.rows[0].2, 1.5);
        let caught = std::panic::catch_unwind(move || m.set("host_ms", 1.0));
        assert!(caught.is_err());
    }
}
