//! The traced run: spans recorded from the benchmark's own code around
//! every call into a layer's public functions.
//!
//! A traced figure config rebuilds `experiment::run`'s world
//! ([`World::build`]) and wraps each simulated thread twice: the
//! [`Worker`] the scheduler steps ([`TracedWorker`]) and the boxed
//! [`SchemeThread`] the bench worker drives ([`TracedScheme`]). Both
//! forward every call unchanged; the digest check against the untraced
//! twin proves it.
//!
//! Spans nest: config → setup | run | report, run → step | neutralize |
//! finish, step → begin_op | step_op | step_idle, finish → teardown. A
//! span's self time is its duration minus the time its direct children
//! cover. Every span is folded into a per-kind aggregate as it closes;
//! the coarse spans (and the first few fine ones of each config) are
//! also kept whole, in memory, and written out when the run ends.

use crate::workloads::CHECK_EXPLORE;
use crate::world::{check_digest, digest, set_up_check, ThreadRow, World};
use st_bench::experiment::RunConfig;
use st_bench::workload::BenchWorker;
use st_check::CheckConfig;
use st_machine::{Cpu, EventCounters, SimConfig, Simulator, StepOutcome, Worker};
use st_obs::{Json, MetricsRegistry};
use st_reclaim::SchemeThread;
use st_simheap::Word;
use stacktrack::{OpBody, StThread, StThreadStats};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What a span brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole config.
    Config,
    /// World build: heap, HTM engine, scheme factory, structure, workers.
    Setup,
    /// One `Simulator::run` (warm-up or measured).
    Run,
    /// One `Worker::step` of a bench worker.
    Step,
    /// `SchemeThread::begin_op`.
    BeginOp,
    /// `SchemeThread::step_op`.
    StepOp,
    /// `SchemeThread::step_idle`.
    StepIdle,
    /// `Worker::neutralize` (the NBR signal path).
    Neutralize,
    /// `Worker::finish`.
    Finish,
    /// `SchemeThread::teardown`.
    Teardown,
    /// Statistics extraction and snapshot render.
    Report,
    /// One `st_check::check` exploration.
    Check,
}

/// Number of span kinds.
pub const KINDS: usize = 12;

impl SpanKind {
    /// Position in a per-kind array.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The span's name in written traces.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Config => "config",
            SpanKind::Setup => "setup",
            SpanKind::Run => "simulator_run",
            SpanKind::Step => "step",
            SpanKind::BeginOp => "begin_op",
            SpanKind::StepOp => "step_op",
            SpanKind::StepIdle => "step_idle",
            SpanKind::Neutralize => "neutralize",
            SpanKind::Finish => "finish",
            SpanKind::Teardown => "teardown",
            SpanKind::Report => "report",
            SpanKind::Check => "check",
        }
    }

    /// Per-step spans: millions per config, so only aggregated.
    fn fine(self) -> bool {
        matches!(
            self,
            SpanKind::Step
                | SpanKind::BeginOp
                | SpanKind::StepOp
                | SpanKind::StepIdle
                | SpanKind::Neutralize
        )
    }
}

/// `thread` of a span outside any simulated thread.
pub const NO_THREAD: u32 = u32::MAX;

/// Fine spans kept whole per config (the rest are only aggregated).
const FINE_SPANS_KEPT: usize = 32;

/// Totals of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus direct children), ns.
    pub self_ns: u64,
}

impl Agg {
    /// Adds another aggregate.
    pub fn add(&mut self, other: Agg) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

/// One closed span. Times are ns since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What it bracketed.
    pub kind: SpanKind,
    /// Open time.
    pub start_ns: u64,
    /// Close time.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanKind>,
    /// Config index within the workload.
    pub config: u32,
    /// Simulated thread, or [`NO_THREAD`].
    pub thread: u32,
}

impl Span {
    /// One line of the written trace.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("name", self.kind.name());
        o.set("start_ns", self.start_ns);
        o.set("end_ns", self.end_ns);
        o.set("parent", self.parent.map_or("", SpanKind::name));
        o.set("config", u64::from(self.config));
        if self.thread != NO_THREAD {
            o.set("thread", u64::from(self.thread));
        }
        o
    }
}

/// Simulated events counted inside `step_op` calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Events {
    /// Plain loads.
    pub loads: u64,
    /// Plain stores (including a commit's write-back).
    pub stores: u64,
    /// Atomic read-modify-writes.
    pub cas_ops: u64,
    /// Fences.
    pub fences: u64,
    /// Transactional loads.
    pub tx_loads: u64,
    /// Transactional stores.
    pub tx_stores: u64,
    /// Transactions begun.
    pub tx_begun: u64,
    /// Transactions committed.
    pub tx_committed: u64,
    /// Transactions aborted.
    pub tx_aborted: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Words StackTrack's scan inspected.
    pub scan_words: u64,
}

impl Events {
    fn add_delta(&mut self, before: &EventCounters, after: &EventCounters, scan_words: u64) {
        self.loads += after.loads - before.loads;
        self.stores += after.stores - before.stores;
        self.cas_ops += after.cas_ops - before.cas_ops;
        self.fences += after.fences - before.fences;
        self.tx_loads += after.tx_loads - before.tx_loads;
        self.tx_stores += after.tx_stores - before.tx_stores;
        self.tx_begun += after.tx_begun - before.tx_begun;
        self.tx_committed += after.tx_committed - before.tx_committed;
        self.tx_aborted += after.tx_aborted - before.tx_aborted;
        self.allocs += after.allocs - before.allocs;
        self.frees += after.frees - before.frees;
        self.scan_words += scan_words;
    }

    /// Adds another count set.
    pub fn add(&mut self, o: &Events) {
        self.loads += o.loads;
        self.stores += o.stores;
        self.cas_ops += o.cas_ops;
        self.fences += o.fences;
        self.tx_loads += o.tx_loads;
        self.tx_stores += o.tx_stores;
        self.tx_begun += o.tx_begun;
        self.tx_committed += o.tx_committed;
        self.tx_aborted += o.tx_aborted;
        self.allocs += o.allocs;
        self.frees += o.frees;
        self.scan_words += o.scan_words;
    }
}

struct Frame {
    kind: SpanKind,
    thread: u32,
    start_ns: u64,
    child_ns: u64,
}

/// Span recorder of one config (one host thread).
pub struct Tracer {
    origin: Instant,
    config: u32,
    stack: Vec<Frame>,
    agg: [Agg; KINDS],
    spans: Vec<Span>,
    fine_kept: usize,
    step_op_events: Events,
}

impl Tracer {
    /// A tracer for config `config`.
    pub fn new(config: u32) -> Tracer {
        Tracer {
            origin: Instant::now(),
            config,
            stack: Vec::new(),
            agg: [Agg::default(); KINDS],
            spans: Vec::new(),
            fine_kept: 0,
            step_op_events: Events::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, kind: SpanKind, thread: u32) {
        let t = self.now_ns();
        self.open_at(kind, thread, t);
    }

    /// Closes the innermost open span now.
    pub fn close(&mut self) {
        let t = self.now_ns();
        self.close_at(t);
    }

    /// Opens a span at time `t`.
    pub fn open_at(&mut self, kind: SpanKind, thread: u32, t: u64) {
        self.stack.push(Frame {
            kind,
            thread,
            start_ns: t,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span at time `t`, charging its duration
    /// to its parent's children.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn close_at(&mut self, t: u64) {
        let f = self.stack.pop().expect("close without an open span");
        let dur = t.saturating_sub(f.start_ns);
        let agg = &mut self.agg[f.kind.index()];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(f.child_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.kind
        });
        let keep = !f.kind.fine() || self.fine_kept < FINE_SPANS_KEPT;
        if keep {
            self.fine_kept += usize::from(f.kind.fine());
            self.spans.push(Span {
                kind: f.kind,
                start_ns: f.start_ns,
                end_ns: t,
                parent,
                config: self.config,
                thread: f.thread,
            });
        }
    }
}

type Shared = Rc<RefCell<Tracer>>;

fn in_span<T>(tracer: &Shared, kind: SpanKind, thread: u32, f: impl FnOnce() -> T) -> T {
    tracer.borrow_mut().open(kind, thread);
    let out = f();
    tracer.borrow_mut().close();
    out
}

/// Words StackTrack's scan has inspected so far on this executor.
pub trait ScanWords {
    /// Running total of inspected words (0 for schemes without a scan).
    fn scan_words(&self) -> u64;
}

impl ScanWords for StThread {
    fn scan_words(&self) -> u64 {
        self.stats().scan_words
    }
}

impl ScanWords for dyn SchemeThread {
    fn scan_words(&self) -> u64 {
        0
    }
}

/// Forwarding [`SchemeThread`] that records spans around the calls a
/// bench worker makes, and the simulated events inside `step_op`.
pub struct TracedScheme<S: ?Sized> {
    tracer: Shared,
    thread: u32,
    inner: Box<S>,
}

impl<S: SchemeThread + ScanWords + ?Sized> SchemeThread for TracedScheme<S> {
    fn begin_op(&mut self, cpu: &mut Cpu, op_id: u32, slots: usize) {
        in_span(&self.tracer, SpanKind::BeginOp, self.thread, || {
            self.inner.begin_op(cpu, op_id, slots)
        });
    }

    fn step_op(&mut self, cpu: &mut Cpu, body: &mut OpBody<'_>) -> Option<Word> {
        let before = cpu.counters.clone();
        let words = self.inner.scan_words();
        self.tracer.borrow_mut().open(SpanKind::StepOp, self.thread);
        let out = self.inner.step_op(cpu, body);
        let mut tracer = self.tracer.borrow_mut();
        tracer.close();
        let scanned = self.inner.scan_words() - words;
        tracer
            .step_op_events
            .add_delta(&before, &cpu.counters, scanned);
        out
    }

    fn idle_work_pending(&self) -> bool {
        self.inner.idle_work_pending()
    }

    fn step_idle(&mut self, cpu: &mut Cpu) {
        in_span(&self.tracer, SpanKind::StepIdle, self.thread, || {
            self.inner.step_idle(cpu)
        });
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.inner.neutralize(cpu);
    }

    fn outstanding_garbage(&self) -> u64 {
        self.inner.outstanding_garbage()
    }

    fn st_stats(&self) -> Option<StThreadStats> {
        self.inner.st_stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn report_metrics(&self, reg: &mut MetricsRegistry) {
        self.inner.report_metrics(reg);
    }

    fn teardown(&mut self, cpu: &mut Cpu) {
        in_span(&self.tracer, SpanKind::Teardown, self.thread, || {
            self.inner.teardown(cpu)
        });
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }
}

/// Forwarding [`Worker`] that records spans around every scheduler call.
pub struct TracedWorker {
    tracer: Shared,
    thread: u32,
    inner: BenchWorker,
}

impl Worker for TracedWorker {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        in_span(&self.tracer, SpanKind::Step, self.thread, || {
            self.inner.step(cpu)
        })
    }

    fn finish(&mut self, cpu: &mut Cpu) {
        in_span(&self.tracer, SpanKind::Finish, self.thread, || {
            self.inner.finish(cpu)
        });
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        in_span(&self.tracer, SpanKind::Neutralize, self.thread, || {
            self.inner.neutralize(cpu)
        });
    }
}

/// What one traced config produced.
#[derive(Debug)]
pub struct Traced {
    /// Digest of the simulated statistics, or why the run failed.
    pub digest: Result<String, String>,
    /// Per-kind span totals.
    pub agg: [Agg; KINDS],
    /// Kept spans.
    pub spans: Vec<Span>,
    /// Events inside `step_op` calls, warm-up included.
    pub step_op_events: Events,
    /// Heap allocations and frees of the measured run.
    pub allocs: u64,
    /// See `allocs`.
    pub frees: u64,
    /// Keys in the run's metrics registry.
    pub metric_keys: u64,
}

fn finish_tracer(tracer: Shared) -> Tracer {
    Rc::try_unwrap(tracer)
        .ok()
        .expect("every traced worker was dropped")
        .into_inner()
}

/// Runs one figure config traced. Mirrors `experiment::run` step for step
/// for configs without faults or garbage sampling (the benchmark's
/// workloads use neither).
///
/// # Panics
///
/// Panics on a config with faults or garbage samples.
pub fn run_figure(config: &RunConfig, id: u32) -> Traced {
    assert!(
        config.faults.is_empty() && config.garbage_samples == 0,
        "the traced run covers fault-free configs without garbage sampling"
    );
    let tracer: Shared = Rc::new(RefCell::new(Tracer::new(id)));
    tracer.borrow_mut().open(SpanKind::Config, NO_THREAD);

    let (world, workers) = in_span(&tracer, SpanKind::Setup, NO_THREAD, || {
        let world = World::build(config);
        let workers: Vec<TracedWorker> = (0..config.threads)
            .map(|t| {
                let thread = t as u32;
                let th: Box<dyn SchemeThread> = match world.factory.st_runtime() {
                    // The same executor `SchemeFactory::thread` returns for
                    // StackTrack, kept concrete so its scan words can be read.
                    Some(rt) => Box::new(TracedScheme {
                        tracer: tracer.clone(),
                        thread,
                        inner: Box::new(rt.register_thread(t)),
                    }),
                    None => Box::new(TracedScheme {
                        tracer: tracer.clone(),
                        thread,
                        inner: world.factory.thread(t),
                    }),
                };
                TracedWorker {
                    tracer: tracer.clone(),
                    thread,
                    inner: BenchWorker::new(th, config.spec.clone(), world.instance.clone()),
                }
            })
            .collect();
        (world, workers)
    });

    let mut workers = if config.warmup_ms > 0 {
        let warm = Simulator::new(SimConfig::haswell_ms(config.warmup_ms, config.seed));
        let (_, mut workers) = in_span(&tracer, SpanKind::Run, NO_THREAD, || warm.run(workers));
        world.engine.reset_stats();
        for w in &mut workers {
            w.inner.reset_stats();
        }
        workers
    } else {
        workers
    };
    for w in &mut workers {
        w.inner.arm_teardown();
    }
    let sim = Simulator::new(
        SimConfig::haswell_ms(config.duration_ms, config.seed.wrapping_add(1))
            .with_faults(config.faults.clone()),
    );
    let (report, workers) = in_span(&tracer, SpanKind::Run, NO_THREAD, || sim.run(workers));

    let metrics = in_span(&tracer, SpanKind::Report, NO_THREAD, || {
        let mut metrics = MetricsRegistry::new();
        let mut garbage = 0;
        for w in &workers {
            w.inner.executor().report_metrics(&mut metrics);
            garbage += w.inner.garbage_at_deadline();
        }
        metrics.set("reclaim.outstanding_garbage", garbage);
        world.engine.total_stats().report(&mut metrics);
        metrics.add("run.total_ops", report.total_ops());
        metrics.add("machine.fences", report.sum_counter(|c| c.fences));
        metrics.add("machine.loads", report.sum_counter(|c| c.loads));
        metrics.add("machine.stores", report.sum_counter(|c| c.stores));
        metrics.add("machine.cas_ops", report.sum_counter(|c| c.cas_ops));
        metrics.add(
            "machine.context_switches",
            report.sum_counter(|c| c.context_switches),
        );
        metrics.set("heap.live_words", world.heap.stats().alloc.live_words);
        std::hint::black_box(metrics.to_json().to_string());
        metrics
    });
    let rows: Vec<ThreadRow> = report
        .threads
        .iter()
        .zip(&workers)
        .map(|(t, w)| (t.ops, t.final_time, w.inner.garbage_at_deadline()))
        .collect();
    drop(workers);
    tracer.borrow_mut().close();

    let tracer = finish_tracer(tracer);
    Traced {
        digest: Ok(digest(
            &rows,
            &metrics,
            report.sum_counter(|c| c.tx_loads),
            report.sum_counter(|c| c.tx_stores),
        )),
        agg: tracer.agg,
        spans: tracer.spans,
        step_op_events: tracer.step_op_events,
        allocs: report.sum_counter(|c| c.allocs),
        frees: report.sum_counter(|c| c.frees),
        metric_keys: metrics.len() as u64,
    }
}

/// Runs one `check-dfs` config traced: its set-up (a zero-operation
/// schedule) and the exploration.
pub fn run_check(config: &CheckConfig, id: u32) -> Traced {
    let tracer: Shared = Rc::new(RefCell::new(Tracer::new(id)));
    tracer.borrow_mut().open(SpanKind::Config, NO_THREAD);
    in_span(&tracer, SpanKind::Setup, NO_THREAD, || set_up_check(config));
    let report = in_span(&tracer, SpanKind::Check, NO_THREAD, || {
        st_check::check(config, &CHECK_EXPLORE)
    });
    tracer.borrow_mut().close();
    let tracer = finish_tracer(tracer);
    Traced {
        digest: check_digest(&report).0,
        agg: tracer.agg,
        spans: tracer.spans,
        step_op_events: Events::default(),
        allocs: 0,
        frees: 0,
        metric_keys: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(0);
        t.open_at(SpanKind::Run, NO_THREAD, 0);
        t.open_at(SpanKind::Step, 0, 10);
        t.open_at(SpanKind::StepOp, 0, 12);
        t.close_at(20); // step_op: 8 ns, no children
        t.open_at(SpanKind::BeginOp, 0, 21);
        t.close_at(25); // begin_op: 4 ns
        t.close_at(30); // step: 20 ns, children 12 → self 8
        t.open_at(SpanKind::Step, 1, 40);
        t.close_at(45); // step: 5 ns, no children
        t.close_at(100); // run: 100 ns, children 25 → self 75

        let agg = |k: SpanKind| t.agg[k.index()];
        let step = agg(SpanKind::Step);
        assert_eq!(
            step,
            Agg {
                calls: 2,
                total_ns: 25,
                self_ns: 13
            }
        );
        assert_eq!(agg(SpanKind::StepOp).self_ns, 8);
        assert_eq!(agg(SpanKind::BeginOp).total_ns, 4);
        let run = agg(SpanKind::Run);
        assert_eq!((run.total_ns, run.self_ns), (100, 75));
        // Self times partition the root's duration.
        let self_sum: u64 = t.agg.iter().map(|a| a.self_ns).sum();
        assert_eq!(self_sum, 100);
    }

    #[test]
    fn spans_record_their_parent_and_thread() {
        let mut t = Tracer::new(3);
        t.open_at(SpanKind::Config, NO_THREAD, 0);
        t.open_at(SpanKind::Finish, 2, 1);
        t.open_at(SpanKind::Teardown, 2, 2);
        t.close_at(3);
        t.close_at(4);
        t.close_at(5);
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::Teardown);
        assert_eq!(spans[0].parent, Some(SpanKind::Finish));
        assert_eq!(spans[0].thread, 2);
        assert_eq!(spans[0].config, 3);
        assert_eq!(spans[2].parent, None);
    }

    #[test]
    fn fine_spans_are_aggregated_past_the_kept_sample() {
        let mut t = Tracer::new(0);
        t.open_at(SpanKind::Run, NO_THREAD, 0);
        for i in 0..(FINE_SPANS_KEPT as u64 + 10) {
            t.open_at(SpanKind::Step, 0, 2 * i);
            t.close_at(2 * i + 1);
        }
        t.close_at(1_000);
        assert_eq!(
            t.agg[SpanKind::Step.index()].calls,
            FINE_SPANS_KEPT as u64 + 10
        );
        assert_eq!(t.spans.len(), FINE_SPANS_KEPT + 1);
    }

    #[test]
    #[should_panic(expected = "close without an open span")]
    fn closing_with_nothing_open_is_a_bug() {
        Tracer::new(0).close_at(1);
    }
}
