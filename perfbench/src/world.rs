//! The world `st_bench::experiment::run` builds before its first
//! simulated step, rebuilt here from the same public constructors, and
//! the digest of a run's simulated statistics.
//!
//! Rebuilding lets the benchmark time set-up from outside the program
//! and lets the traced run wrap the workers. The traced run checks that
//! its digest equals the untraced run's, which proves this copy of the
//! set-up matches the program's.

use crate::stats::Fnv;
use st_bench::experiment::{RunConfig, RunResult};
use st_bench::workload::{BenchWorker, StructureInstance};
use st_check::{CheckConfig, CheckReport, RecordingController};
use st_obs::MetricsRegistry;
use st_reclaim::SchemeFactory;
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use std::sync::Arc;

/// The shared state of one run: heap, HTM engine, scheme factory and the
/// populated structure.
pub struct World {
    /// Simulated heap.
    pub heap: Arc<Heap>,
    /// HTM engine over the heap.
    pub engine: Arc<HtmEngine>,
    /// Per-thread scheme executors come from here.
    pub factory: SchemeFactory,
    /// The populated structure.
    pub instance: Arc<StructureInstance>,
}

impl World {
    /// Builds the world exactly as `experiment::run` does.
    pub fn build(config: &RunConfig) -> World {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: config.spec.heap_words(config.duration_ms),
            ..HeapConfig::default()
        }));
        let engine = Arc::new(HtmEngine::new(
            heap.clone(),
            HtmConfig::default(),
            config.threads,
        ));
        let factory = SchemeFactory::builder(config.scheme)
            .engine(engine.clone())
            .max_threads(config.threads)
            .reclaim_config(config.reclaim_config.clone())
            .st_config(config.st_config.clone())
            .guard_requirement(st_structures::max_guard_requirement())
            .build();
        let instance = Arc::new(StructureInstance::build(&config.spec, &heap, config.seed));
        World {
            heap,
            engine,
            factory,
            instance,
        }
    }

    /// The untraced workers `experiment::run` steps.
    pub fn workers(&self, config: &RunConfig) -> Vec<BenchWorker> {
        (0..config.threads)
            .map(|t| {
                BenchWorker::new(
                    self.factory.thread(t),
                    config.spec.clone(),
                    self.instance.clone(),
                )
            })
            .collect()
    }
}

/// Builds a figure config's world and workers, as `experiment::run` does
/// before its first simulated step. The caller times this call and drops
/// the result afterwards, so teardown is not counted as set-up.
pub fn set_up_figure(config: &RunConfig) -> (World, Vec<BenchWorker>) {
    let world = World::build(config);
    let workers = world.workers(config);
    (world, workers)
}

/// Runs one `check-dfs` config with no scripted operations: the checker
/// builds its oracle-armed world, finds nothing to schedule, tears down
/// and checks the empty history. Its time is the checker's set-up cost,
/// measured through the public `run_schedule` entry point.
///
/// Returns the number of oracle findings (0 on an intact scheme).
pub fn set_up_check(config: &CheckConfig) -> usize {
    let empty = CheckConfig {
        ops_per_thread: 0,
        ..config.clone()
    };
    let controller = Arc::new(RecordingController::replay(Default::default()));
    st_check::run_schedule(&empty, controller).violations.len()
}

/// One simulated thread's row: operations, busy cycles, garbage at the
/// deadline.
pub type ThreadRow = (u64, u64, u64);

/// Digest of everything a run simulated: per-thread rows, the full
/// metrics registry, and the transactional access counts (the only
/// `RunResult` totals the registry does not carry).
pub fn digest(
    rows: &[ThreadRow],
    metrics: &MetricsRegistry,
    tx_loads: u64,
    tx_stores: u64,
) -> String {
    let mut h = Fnv::default();
    for &(ops, busy, garbage) in rows {
        h.write_u64(ops);
        h.write_u64(busy);
        h.write_u64(garbage);
    }
    h.write(metrics.to_json().to_string().as_bytes());
    h.write_u64(tx_loads);
    h.write_u64(tx_stores);
    h.hex()
}

/// The digest of an untraced run.
pub fn digest_of(result: &RunResult) -> String {
    let rows: Vec<ThreadRow> = result
        .per_thread
        .iter()
        .map(|t| (t.ops, t.busy_cycles, t.garbage))
        .collect();
    digest(&rows, &result.metrics, result.tx_loads, result.tx_stores)
}

/// The digest of an exploration (schedules run and decisions made), or
/// its oracle findings with the replay token; plus the schedules it ran.
pub fn check_digest(r: &CheckReport) -> (Result<String, String>, u64) {
    let mut h = Fnv::default();
    h.write_u64(r.schedules_run);
    h.write_u64(r.total_decisions);
    let verdict = match &r.failure {
        None => Ok(h.hex()),
        Some(f) => Err(format!(
            "{} oracle violation(s): {}; replay: {}",
            f.violations.len(),
            f.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; "),
            f.token
        )),
    };
    (verdict, r.schedules_run)
}
