#![allow(dead_code)] // each test binary uses a different subset

//! Shared helpers for the workspace integration tests: a generic workload
//! worker that drives any structure under any scheme on the simulated
//! machine.

use st_machine::{
    Cpu, FaultPlan, SimConfig, SimReport, Simulator, StepOutcome, Worker, CYCLES_PER_SECOND,
};
use st_obs::MetricsRegistry;
use st_reclaim::{ReclaimConfig, Scheme, SchemeFactory, SchemeThread};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::{hash, list, queue, skiplist};
use stacktrack::OpBody;
use std::sync::Arc;

/// Virtual cycles per millisecond of simulated time.
pub const MS: u64 = CYCLES_PER_SECOND / 1000;

/// Structures the mixed workload can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    List,
    SkipList,
    Queue,
    Hash,
}

/// A built environment: heap, engine, factory, and the structure.
pub struct Env {
    pub heap: Arc<Heap>,
    pub engine: Arc<HtmEngine>,
    pub factory: SchemeFactory,
    pub instance: Instance,
}

/// The shared structure of a run.
#[derive(Clone)]
pub enum Instance {
    List(list::ListShape),
    SkipList(skiplist::SkipShape),
    Queue(queue::QueueShape),
    Hash(hash::HashShape),
}

/// Builds an environment for `scheme` with `threads` slots and default
/// scheme tuning.
pub fn build_env(target: Target, scheme: Scheme, threads: usize, initial: u64, seed: u64) -> Env {
    build_env_cfg(
        target,
        scheme,
        threads,
        initial,
        seed,
        ReclaimConfig::default(),
    )
}

/// Builds an environment with explicit scheme tuning.
pub fn build_env_cfg(
    target: Target,
    scheme: Scheme,
    threads: usize,
    initial: u64,
    seed: u64,
    rc: ReclaimConfig,
) -> Env {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 21,
        ..HeapConfig::default()
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), threads));
    let factory = SchemeFactory::builder(scheme)
        .engine(engine.clone())
        .max_threads(threads)
        .reclaim_config(rc)
        // Guard slots derived from the structures' declared requirements
        // rather than hand-computed per harness.
        .guard_requirement(st_structures::max_guard_requirement())
        .build();

    let mut rng = st_machine::Pcg32::new_stream(seed, 0x7e57);
    let key_range = 2 * initial.max(8);
    let instance = match target {
        Target::List => {
            let shape = list::ListShape::new_untimed(&heap);
            shape.populate_untimed(&heap, initial, key_range, &mut rng);
            Instance::List(shape)
        }
        Target::SkipList => {
            let shape = skiplist::SkipShape::new_untimed(&heap);
            shape.populate_untimed(&heap, initial, key_range, &mut rng);
            Instance::SkipList(shape)
        }
        Target::Queue => {
            let shape = queue::QueueShape::new_untimed(&heap);
            for i in 0..initial {
                shape.enqueue_untimed(&heap, i + 1);
            }
            Instance::Queue(shape)
        }
        Target::Hash => {
            let shape = hash::HashShape::new_untimed(&heap, 64);
            shape.populate_untimed(&heap, initial, key_range, &mut rng);
            Instance::Hash(shape)
        }
    };
    Env {
        heap,
        engine,
        factory,
        instance,
    }
}

/// A worker running a 20%-mutation mix against the shared structure.
pub struct MixWorker {
    th: Box<dyn SchemeThread>,
    instance: Instance,
    key_range: u64,
    current: Option<Box<OpBody<'static>>>,
}

impl MixWorker {
    pub fn new(th: Box<dyn SchemeThread>, instance: Instance, key_range: u64) -> Self {
        Self {
            th,
            instance,
            key_range,
            current: None,
        }
    }

    pub fn executor(&self) -> &dyn SchemeThread {
        self.th.as_ref()
    }

    pub fn executor_mut(&mut self) -> &mut dyn SchemeThread {
        self.th.as_mut()
    }

    fn pick(&self, cpu: &mut Cpu) -> (u32, usize, Box<OpBody<'static>>) {
        let roll = cpu.rng.below(100);
        let key = cpu.rng.below(self.key_range) + 1;
        let mutate = roll < 20;
        let alt = roll % 2 == 1;
        match &self.instance {
            Instance::List(s) => {
                let s = *s;
                if !mutate {
                    (0, list::LIST_SLOTS, Box::new(list::contains_body(s, key)))
                } else if alt {
                    (1, list::LIST_SLOTS, Box::new(list::insert_body(s, key)))
                } else {
                    (2, list::LIST_SLOTS, Box::new(list::delete_body(s, key)))
                }
            }
            Instance::SkipList(s) => {
                let s = *s;
                if !mutate {
                    (
                        0,
                        skiplist::SKIP_SLOTS,
                        Box::new(skiplist::contains_body(s, key)),
                    )
                } else if alt {
                    (
                        1,
                        skiplist::SKIP_SLOTS,
                        Box::new(skiplist::insert_body(s, key)),
                    )
                } else {
                    (
                        2,
                        skiplist::SKIP_SLOTS,
                        Box::new(skiplist::delete_body(s, key)),
                    )
                }
            }
            Instance::Queue(s) => {
                let s = *s;
                if !mutate {
                    (2, queue::QUEUE_SLOTS, Box::new(queue::peek_body(s)))
                } else if alt {
                    (0, queue::QUEUE_SLOTS, Box::new(queue::enqueue_body(s, key)))
                } else {
                    (1, queue::QUEUE_SLOTS, Box::new(queue::dequeue_body(s)))
                }
            }
            Instance::Hash(s) => {
                if !mutate {
                    (0, list::LIST_SLOTS, Box::new(hash::contains_body(s, key)))
                } else if alt {
                    (1, list::LIST_SLOTS, Box::new(hash::insert_body(s, key)))
                } else {
                    (2, list::LIST_SLOTS, Box::new(hash::delete_body(s, key)))
                }
            }
        }
    }
}

impl Worker for MixWorker {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        if self.th.idle_work_pending() {
            self.th.step_idle(cpu);
            return StepOutcome::Progress;
        }
        if self.current.is_none() {
            let (op, slots, body) = self.pick(cpu);
            self.th.begin_op(cpu, op, slots);
            self.current = Some(body);
            return StepOutcome::Progress;
        }
        let body = self.current.as_mut().expect("active op");
        match self.th.step_op(cpu, body.as_mut()) {
            Some(_) => {
                self.current = None;
                StepOutcome::OpDone
            }
            None => StepOutcome::Progress,
        }
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.th.neutralize(cpu);
    }
}

/// Runs `threads` mixed workers for `duration_ms` virtual milliseconds and
/// returns the report plus the workers (for teardown and inspection).
pub fn run_mix(
    env: &Env,
    threads: usize,
    duration_ms: u64,
    key_range: u64,
    seed: u64,
) -> (SimReport, Vec<MixWorker>) {
    run_mix_faulted(
        env,
        threads,
        duration_ms,
        key_range,
        seed,
        FaultPlan::default(),
    )
}

/// [`run_mix`] with a fault schedule applied to the run.
pub fn run_mix_faulted(
    env: &Env,
    threads: usize,
    duration_ms: u64,
    key_range: u64,
    seed: u64,
    faults: FaultPlan,
) -> (SimReport, Vec<MixWorker>) {
    let workers: Vec<MixWorker> = (0..threads)
        .map(|t| MixWorker::new(env.factory.thread(t), env.instance.clone(), key_range))
        .collect();
    let sim = Simulator::new(SimConfig::haswell_ms(duration_ms, seed).with_faults(faults));
    sim.run(workers)
}

/// Collects everything a run observed into one registry (scheme metrics
/// from every worker, machine counters, fault counters), rendered as
/// canonical JSON so tests can compare two runs byte for byte.
pub fn snapshot(report: &SimReport, workers: &[MixWorker]) -> String {
    let mut reg = MetricsRegistry::new();
    for w in workers {
        w.executor().report_metrics(&mut reg);
    }
    reg.add("run.total_ops", report.total_ops());
    reg.add("machine.fences", report.sum_counter(|c| c.fences));
    reg.add("machine.loads", report.sum_counter(|c| c.loads));
    reg.add("machine.stores", report.sum_counter(|c| c.stores));
    reg.add(
        "machine.context_switches",
        report.sum_counter(|c| c.context_switches),
    );
    reg.add("fault.stalls", report.faults.stalls);
    reg.add("fault.stall_cycles", report.faults.stall_cycles);
    reg.add("fault.kills", report.faults.kills);
    reg.add("fault.storm_switches", report.faults.storm_switches);
    reg.to_json().to_string()
}

/// The fault plan shared by the fault-injection tests: a mid-run stall on
/// thread 2 plus a preemption storm on context 0.
pub fn stall_storm_plan() -> FaultPlan {
    FaultPlan::default()
        .stall(2, MS / 2, MS)
        .storm(0, MS / 4, MS / 8)
}

/// Checks the structure's invariants.
pub fn check_instance(env: &Env) {
    match &env.instance {
        Instance::List(s) => s.check_invariants_untimed(&env.heap),
        Instance::SkipList(s) => s.check_invariants_untimed(&env.heap),
        Instance::Hash(s) => s.check_invariants_untimed(&env.heap),
        Instance::Queue(s) => {
            // FIFO structure: just walk it (panics on dangling pointers).
            let _ = s.collect_values_untimed(&env.heap);
        }
    }
}
