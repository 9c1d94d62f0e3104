//! Micro-benchmarks of the substrate hot paths and StackTrack primitives,
//! including the Ablation 1 comparison (linear vs hashed SCAN_AND_FREE)
//! from DESIGN.md.
//!
//! These measure *host* nanoseconds of the simulator itself (how fast the
//! reproduction runs), complementing the virtual-cycle results in
//! `st-bench` (what the simulated machine measures).
//!
//! Plain `harness = false` timing loop (no external benchmark crate — the
//! build must work offline): each benchmark is warmed up, then timed over
//! enough iterations to smooth scheduler noise. `--test` (what
//! `cargo bench -- --test` passes, and what CI runs) does one iteration per
//! benchmark as a smoke test.

use st_machine::{cpu::ActivityBoard, CostModel, Cpu, HwContext, Topology};
use st_reclaim::mem::{Mem, NodeType};
use st_simheap::{Heap, HeapConfig};
use st_simhtm::{util::U64Set, HtmConfig, HtmEngine};
use st_structures::list::{self, ListShape};
use st_structures::skiplist::SkipShape;
use stacktrack::{predictor::SplitPredictor, ScanMode, StConfig, StRuntime, Step};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// How many timed iterations each benchmark runs (after an untimed warmup
/// of a tenth as many). Smoke mode (`--test`) runs exactly one.
const ITERS: u64 = 100_000;

struct Harness {
    smoke: bool,
    filter: Option<String>,
}

impl Harness {
    fn from_args() -> Harness {
        let mut smoke = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => smoke = true,
                "--bench" => {}
                other if !other.starts_with('-') => filter = Some(other.to_string()),
                _ => {}
            }
        }
        Harness { smoke, filter }
    }

    /// Times `f` and prints `name: <ns>/iter`, honoring filter/smoke mode.
    fn bench(&self, name: &str, mut f: impl FnMut()) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let iters = if self.smoke { 1 } else { ITERS };
        for _ in 0..iters / 10 {
            f();
        }
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        println!("{name:<40} {ns:>12.1} ns/iter");
    }

    /// Like [`Harness::bench`] but rebuilds fresh state for every one of
    /// `iters` iterations via `setup` (setup time is excluded from the
    /// average by timing only the `run` closure, which also drops what it
    /// consumes).
    fn bench_with_setup<S>(
        &self,
        name: &str,
        iters: u64,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S),
    ) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let iters = if self.smoke { 1 } else { iters };
        let mut total_ns = 0u128;
        for _ in 0..iters {
            let state = setup();
            let start = Instant::now();
            run(state);
            total_ns += start.elapsed().as_nanos();
        }
        let ns = total_ns as f64 / iters as f64;
        println!("{name:<40} {ns:>12.1} ns/iter");
    }
}

fn make_cpu(thread: usize) -> Cpu {
    let topo = Topology::haswell();
    Cpu::new(
        thread,
        HwContext::new(&topo, topo.place(thread)),
        Arc::new(CostModel::default()),
        Arc::new(ActivityBoard::new(topo.hw_contexts())),
        42,
    )
}

fn bench_heap_ops(h: &Harness) {
    let heap = Heap::new(HeapConfig::default());
    let mut cpu = make_cpu(0);
    let addr = heap.alloc_untimed(8).unwrap();

    h.bench("heap/load", || {
        black_box(heap.load(&mut cpu, addr, 0));
    });
    let mut v = 0u64;
    h.bench("heap/store", || {
        v = v.wrapping_add(1);
        heap.store(&mut cpu, addr, 1, v);
    });
    h.bench("heap/alloc_free", || {
        let a = heap.alloc(&mut cpu, 2).unwrap();
        heap.free(&mut cpu, a);
    });
}

fn bench_htm_segment(h: &Harness) {
    let heap = Arc::new(Heap::new(HeapConfig::default()));
    let engine = HtmEngine::new(heap.clone(), HtmConfig::default(), 1);
    let mut cpu = make_cpu(0);
    let arr = heap.alloc_untimed(1024).unwrap();

    for reads in [4u64, 16, 64] {
        h.bench(&format!("htm/segment/{reads}"), || {
            // Best-effort HTM: retry on (probabilistic capacity) aborts,
            // exactly as client code must.
            'attempt: loop {
                let mut tx = engine.begin(&mut cpu);
                for i in 0..reads {
                    if engine.tx_read(&mut cpu, &mut tx, arr, i * 8).is_err() {
                        continue 'attempt;
                    }
                }
                if engine.tx_write(&mut cpu, &mut tx, arr, 0, reads).is_err() {
                    continue 'attempt;
                }
                if engine.commit(&mut cpu, &mut tx).is_ok() {
                    break;
                }
            }
        });
    }
}

fn bench_u64set(h: &Harness) {
    let mut set = U64Set::with_capacity(64);
    h.bench("util/u64set_insert_64", || {
        set.clear();
        for i in 0..64u64 {
            set.insert(black_box(i * 64));
        }
    });
}

fn bench_predictor(h: &Harness) {
    let mut p = SplitPredictor::new(50, 1, 200, 5, 5);
    h.bench("predictor/commit_abort_cycle", || {
        for split in 0..8usize {
            p.on_abort(0, split);
            p.on_commit(0, split);
            black_box(p.limit(0, split));
        }
    });
}

fn bench_list_op(h: &Harness) {
    // One full StackTrack-protected list operation (search of a 1K list).
    let heap = Arc::new(Heap::new(HeapConfig {
        capacity_words: 1 << 20,
        ..HeapConfig::default()
    }));
    let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 1));
    let rt = StRuntime::new(engine, StConfig::default(), 1);
    let mut th = rt.register_thread(0);
    let mut cpu = rt.test_cpu(0);
    let shape = ListShape::new_untimed(&heap);
    for k in 1..=1000u64 {
        shape.insert_untimed(&heap, k * 2);
    }

    let mut key = 1u64;
    h.bench("stacktrack/list_contains_1k", || {
        key = key % 2000 + 1;
        let mut body = list::contains_body(shape, key);
        use st_reclaim::SchemeThread;
        black_box(SchemeThread::run_op(
            &mut th,
            &mut cpu,
            0,
            list::LIST_SLOTS,
            &mut body,
        ));
    });
}

/// The two-word throwaway node the scan benchmark retires.
#[derive(Debug, Clone, Copy)]
struct ScanNode;

impl NodeType for ScanNode {
    const WORDS: usize = 2;
}

fn bench_scan_modes(h: &Harness) {
    // Ablation 1: linear (Algorithm 1 as printed) vs hashed scan, with 8
    // registered threads to inspect and a batch of 16 candidates.
    for (name, mode) in [("linear", ScanMode::Linear), ("hashed", ScanMode::Hashed)] {
        h.bench_with_setup(
            &format!("stacktrack/scan/{name}"),
            ITERS / 100,
            || {
                let heap = Arc::new(Heap::new(HeapConfig {
                    capacity_words: 1 << 20,
                    ..HeapConfig::default()
                }));
                let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), 8));
                let rt = StRuntime::new(
                    engine,
                    StConfig {
                        scan_mode: mode,
                        max_free: 64, // collect, then force one scan
                        ..StConfig::default()
                    },
                    8,
                );
                let mut threads: Vec<_> = (0..8).map(|t| rt.register_thread(t)).collect();
                let mut cpu = rt.test_cpu(0);
                // 16 retired nodes in thread 0's free set (a dispose of a
                // never-published node routes through the same retire
                // pipeline).
                for _ in 0..16 {
                    threads[0].run_op(&mut cpu, 0, 1, &mut |m, cpu| {
                        let mut mem = Mem::new(m, cpu);
                        let n = mem.alloc::<ScanNode>();
                        n.dispose(&mut mem)?;
                        Ok(Step::Done(0))
                    });
                }
                (threads, cpu)
            },
            |(mut threads, mut cpu)| {
                threads[0].force_full_scan(&mut cpu);
                black_box(threads[0].stats().scans);
            },
        );
    }
}

fn bench_world_build(h: &Harness) {
    // World set-up and teardown: what every figure config and every
    // model-checked schedule pays before its first simulated step.
    h.bench_with_setup(
        "world_build/heap_new_drop_2^23",
        ITERS / 100,
        || (),
        |()| {
            black_box(Heap::new(HeapConfig {
                capacity_words: 1 << 23,
                ..HeapConfig::default()
            }));
        },
    );
    // The paper skip list: 100K keys from 1..=200K.
    h.bench_with_setup(
        "world_build/skiplist_populate_100k",
        20,
        || {
            let heap = Heap::new(HeapConfig {
                capacity_words: 1 << 23,
                ..HeapConfig::default()
            });
            let shape = SkipShape::new_untimed(&heap);
            (heap, shape)
        },
        |(heap, shape)| {
            let mut rng = st_machine::Pcg32::new_stream(1, 0x5742);
            shape.populate_untimed(&heap, 100_000, 200_000, &mut rng);
            black_box(heap.stats().alloc.allocs);
        },
    );
    h.bench_with_setup(
        "world_build/stacktrack_register_x16",
        ITERS / 100,
        || {
            let heap = Arc::new(Heap::new(HeapConfig {
                capacity_words: 1 << 20,
                ..HeapConfig::default()
            }));
            let engine = Arc::new(HtmEngine::new(heap, HtmConfig::default(), 16));
            StRuntime::new(engine, StConfig::default(), 16)
        },
        |rt| {
            black_box((0..16).map(|t| rt.register_thread(t)).collect::<Vec<_>>());
        },
    );
}

fn main() {
    let h = Harness::from_args();
    bench_heap_ops(&h);
    bench_htm_segment(&h);
    bench_u64set(&h);
    bench_predictor(&h);
    bench_list_op(&h);
    bench_scan_modes(&h);
    bench_world_build(&h);
}
