//! Host cost of single calls into the layers the trace cannot bracket
//! (they run inside `step_op`): heap accesses, HTM transaction steps,
//! StackTrack's default scan, one scheduler step, one metric record.
//!
//! The traced run multiplies these by the exact event counts it saw
//! inside `step_op` to attribute host time to each layer. Each cost is
//! the median of several timed batches on the calling thread, taken on a
//! small hot working set, so it is a lower bound on the cost inside a
//! real run; what the attribution misses lands in `layer.residual_ms`.

use st_machine::{cpu::ActivityBoard, CostModel, Cpu, HwContext, SimConfig, Simulator, Topology};
use st_machine::{StepOutcome, Worker};
use st_obs::{MetricSchema, ScratchRegistry};
use st_reclaim::mem::{Mem, NodeType};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{HtmConfig, HtmEngine};
use stacktrack::{ScanMode, StConfig, StRuntime, Step};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Host ns per call, one field per measured call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerCall {
    /// `Heap::load`.
    pub load: f64,
    /// `Heap::store`.
    pub store: f64,
    /// `Heap::cas`.
    pub cas: f64,
    /// `Heap::fence`.
    pub fence: f64,
    /// One `Heap::alloc` plus one `Heap::free`.
    pub alloc_free: f64,
    /// `HtmEngine::begin_reuse`.
    pub tx_begin: f64,
    /// `HtmEngine::tx_read`.
    pub tx_read: f64,
    /// `HtmEngine::tx_write`.
    pub tx_write: f64,
    /// `HtmEngine::commit` of a read-only transaction.
    pub tx_commit: f64,
    /// `HtmEngine::tx_abort`.
    pub tx_abort: f64,
    /// One word of a `Batched` StackTrack scan, net of the heap calls
    /// the scan makes (those are charged at the heap costs above).
    pub scan_word: f64,
    /// One scheduler step of a worker that only charges cycles.
    pub noop_step: f64,
    /// One `ScratchRegistry::add` on an interned id.
    pub metric_record: f64,
}

const SAMPLES: usize = 9;
const BATCH: u64 = 20_000;

/// Median ns per call of `f` over [`SAMPLES`] batches of [`BATCH`] calls,
/// after one untimed batch.
fn per_call(mut f: impl FnMut(u64)) -> f64 {
    for i in 0..BATCH {
        f(i);
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..BATCH {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    crate::stats::median(&samples)
}

fn scratch_cpu(thread: usize) -> Cpu {
    let topo = Topology::haswell();
    Cpu::new(
        thread,
        HwContext::new(&topo, topo.place(thread)),
        Arc::new(CostModel::default()),
        Arc::new(ActivityBoard::new(topo.hw_contexts())),
        42,
    )
}

/// Words of the array the access benchmarks walk: 128 cache lines, so
/// consecutive calls touch different lines as a structure walk does.
const ARRAY_WORDS: u64 = 1024;

fn line_offset(i: u64) -> u64 {
    (i * 8) % ARRAY_WORDS
}

/// Measures every per-call cost (about one second of host time).
pub fn measure() -> PerCall {
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 16,
        ..HeapConfig::default()
    }));
    let mut cpu = scratch_cpu(0);
    let arr = heap
        .alloc_untimed(ARRAY_WORDS as usize)
        .expect("heap fits the array");

    let mut pc = PerCall {
        load: per_call(|i| {
            black_box(heap.load(&mut cpu, arr, line_offset(i)));
        }),
        store: per_call(|i| heap.store(&mut cpu, arr, line_offset(i), i)),
        cas: per_call(|i| {
            let off = line_offset(i);
            let seen = heap.peek(arr, off);
            black_box(heap.cas(&mut cpu, arr, off, seen, i).ok());
        }),
        fence: per_call(|_| heap.fence(&mut cpu)),
        alloc_free: per_call(|_| {
            let a = heap.alloc(&mut cpu, 4).expect("heap has room");
            heap.free(&mut cpu, a);
        }),
        ..PerCall::default()
    };

    // Transaction steps: time a bracket, subtract what it wraps.
    let engine = HtmEngine::new(heap.clone(), HtmConfig::default(), 1);
    let mut tx = engine.begin(&mut cpu);
    const ACCESSES: u64 = 16;
    pc.tx_begin = per_call(|_| engine.begin_reuse(&mut cpu, &mut tx));
    let begin_commit = per_call(|_| {
        engine.begin_reuse(&mut cpu, &mut tx);
        black_box(engine.commit(&mut cpu, &mut tx).is_ok());
    });
    let begin_abort = per_call(|_| {
        engine.begin_reuse(&mut cpu, &mut tx);
        black_box(engine.tx_abort(&mut cpu, &mut tx));
    });
    let reads = per_call(|_| {
        engine.begin_reuse(&mut cpu, &mut tx);
        for k in 0..ACCESSES {
            black_box(engine.tx_read(&mut cpu, &mut tx, arr, k * 8).ok());
        }
        black_box(engine.commit(&mut cpu, &mut tx).is_ok());
    });
    let writes = per_call(|_| {
        engine.begin_reuse(&mut cpu, &mut tx);
        for k in 0..ACCESSES {
            black_box(engine.tx_write(&mut cpu, &mut tx, arr, k * 8, k).is_ok());
        }
        black_box(engine.tx_abort(&mut cpu, &mut tx));
    });
    pc.tx_commit = (begin_commit - pc.tx_begin).max(0.0);
    pc.tx_abort = (begin_abort - pc.tx_begin).max(0.0);
    pc.tx_read = ((reads - begin_commit) / ACCESSES as f64).max(0.0);
    pc.tx_write = ((writes - begin_abort) / ACCESSES as f64).max(0.0);

    pc.scan_word = scan_word_ns(&pc);
    pc.noop_step = noop_step_ns();

    let mut schema = MetricSchema::new();
    let id = schema.intern("perfbench.probe");
    let mut scratch = ScratchRegistry::for_schema(&schema);
    pc.metric_record = per_call(|_| scratch.add(black_box(id), 1));
    black_box(&scratch);
    pc
}

/// The two-word node the scan benchmark retires.
#[derive(Debug, Clone, Copy)]
struct ScanNode;

impl NodeType for ScanNode {
    const WORDS: usize = 2;
}

/// Registered threads in the scan benchmark.
const SCAN_THREADS: usize = 32;

/// Net host ns per scanned word of a `Batched` scan of 16 candidates
/// over [`SCAN_THREADS`] threads, all but the scanner inside an
/// operation, less the heap calls the scan made. The words dominate: the
/// few frees' costs beyond `Heap::free` are spread over ~1200 words.
fn scan_word_ns(pc: &PerCall) -> f64 {
    let samples: Vec<f64> = (0..20)
        .filter_map(|_| {
            let heap = Arc::new(Heap::new(HeapConfig {
                capacity_words: 1 << 21, // 32 thread contexts of ~16K words
                ..HeapConfig::default()
            }));
            let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), SCAN_THREADS));
            let config = StConfig {
                scan_mode: ScanMode::Batched,
                max_free: 1 << 20, // collect only; the forced scan below runs it
                ..StConfig::default()
            };
            let rt = StRuntime::new(engine, config, SCAN_THREADS);
            let mut threads: Vec<_> = (0..SCAN_THREADS).map(|t| rt.register_thread(t)).collect();
            // Every other thread sits inside an operation, so the scan
            // has published frames to inspect.
            for (t, th) in threads.iter_mut().enumerate().skip(1) {
                th.begin_op(&mut rt.test_cpu(t), 0, 32);
            }
            let mut cpu = rt.test_cpu(0);
            for _ in 0..16 {
                threads[0].run_op(&mut cpu, 0, 1, &mut |m, cpu| {
                    let mut mem = Mem::new(m, cpu);
                    let n = mem.alloc::<ScanNode>();
                    n.dispose(&mut mem)?;
                    Ok(Step::Done(0))
                });
            }
            let before = cpu.counters.clone();
            let words = threads[0].stats().scan_words;
            let t = Instant::now();
            threads[0].force_full_scan(&mut cpu);
            let ns = t.elapsed().as_nanos() as f64;
            let c = &cpu.counters;
            let heap_ns = (c.loads - before.loads) as f64 * pc.load
                + (c.stores - before.stores) as f64 * pc.store
                + (c.cas_ops - before.cas_ops) as f64 * pc.cas
                + (c.fences - before.fences) as f64 * pc.fence
                + (c.frees - before.frees) as f64 * pc.alloc_free / 2.0;
            let scanned = threads[0].stats().scan_words - words;
            (scanned > 0).then(|| ((ns - heap_ns) / scanned as f64).max(0.0))
        })
        .collect();
    crate::stats::median(&samples)
}

/// A simulated thread that only spends cycles.
struct Noop {
    steps: u64,
}

impl Worker for Noop {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        cpu.charge(100);
        self.steps += 1;
        StepOutcome::Progress
    }
}

/// Host ns per scheduler step of 8 no-op workers.
fn noop_step_ns() -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let workers: Vec<Noop> = (0..8).map(|_| Noop { steps: 0 }).collect();
            let sim = Simulator::new(SimConfig::haswell_ms(1, 1));
            let t = Instant::now();
            let (_, workers) = sim.run(workers);
            let ns = t.elapsed().as_nanos() as f64;
            ns / workers.iter().map(|w| w.steps).sum::<u64>().max(1) as f64
        })
        .collect();
    crate::stats::median(&samples)
}
