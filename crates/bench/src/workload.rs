//! Benchmark workloads: the paper's four data-structure configurations,
//! driven as discrete-event-simulator workers.

use st_machine::{Cpu, StepOutcome, Worker};
use st_reclaim::SchemeThread;
use st_simheap::Heap;
use st_structures::{hash, list, queue, rbtree, skiplist};
use stacktrack::OpBody;
use std::sync::Arc;

/// Which structure a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureKind {
    /// Harris list, 5 K keys (Figure 1a).
    List,
    /// Fraser-Harris skip list, 100 K keys (Figure 1b).
    SkipList,
    /// Michael-Scott queue (Figure 2a).
    Queue,
    /// Hash table, 10 K keys (Figure 2b).
    Hash,
    /// Red-black tree (the paper's Algorithm 3 example; extra workload).
    RbTree,
}

impl StructureKind {
    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::List => "List",
            StructureKind::SkipList => "SkipList",
            StructureKind::Queue => "Queue",
            StructureKind::Hash => "Hash",
            StructureKind::RbTree => "RbTree",
        }
    }
}

impl std::fmt::Display for StructureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for StructureKind {
    type Err = String;

    /// Parses the display name, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "list" => Ok(StructureKind::List),
            "skiplist" => Ok(StructureKind::SkipList),
            "queue" => Ok(StructureKind::Queue),
            "hash" => Ok(StructureKind::Hash),
            "rbtree" => Ok(StructureKind::RbTree),
            _ => Err(format!(
                "unknown structure {s:?} (expected List, SkipList, Queue, Hash, or RbTree)"
            )),
        }
    }
}

/// A workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Structure under test.
    pub structure: StructureKind,
    /// Initial number of elements.
    pub initial_size: u64,
    /// Keys drawn uniformly from `1..=key_range`.
    pub key_range: u64,
    /// Percentage of operations that mutate (split evenly between insert
    /// and delete, or enqueue and dequeue).
    pub mutation_pct: u32,
    /// Hash-table bucket count (ignored elsewhere).
    pub buckets: usize,
}

/// Validating constructor for [`WorkloadSpec`].
///
/// Obtained from [`WorkloadSpec::builder`]; [`WorkloadSpecBuilder::build`]
/// rejects inconsistent configurations instead of letting them skew a
/// benchmark silently (e.g. a key range smaller than the initial
/// population can never finish populating).
#[derive(Debug, Clone)]
pub struct WorkloadSpecBuilder {
    structure: StructureKind,
    initial_size: u64,
    key_range: u64,
    mutation_pct: u32,
    buckets: Option<usize>,
}

impl WorkloadSpecBuilder {
    /// Initial number of elements (default 1024).
    pub fn initial_size(mut self, initial_size: u64) -> Self {
        self.initial_size = initial_size;
        self
    }

    /// Keys drawn uniformly from `1..=key_range` (default 2048).
    pub fn key_range(mut self, key_range: u64) -> Self {
        self.key_range = key_range;
        self
    }

    /// Percentage of mutating operations (default 20).
    pub fn mutation_pct(mut self, mutation_pct: u32) -> Self {
        self.mutation_pct = mutation_pct;
        self
    }

    /// Hash-table bucket count; only valid for [`StructureKind::Hash`].
    pub fn buckets(mut self, buckets: usize) -> Self {
        self.buckets = Some(buckets);
        self
    }

    /// Validates and constructs the spec.
    ///
    /// # Errors
    ///
    /// - `key_range < initial_size`: the population could never fit.
    /// - `mutation_pct > 100`: not a percentage.
    /// - `buckets` set on a non-hash structure, or zero/unset for a hash.
    pub fn build(self) -> Result<WorkloadSpec, String> {
        if self.key_range < self.initial_size {
            return Err(format!(
                "key_range ({}) must be >= initial_size ({})",
                self.key_range, self.initial_size
            ));
        }
        if self.mutation_pct > 100 {
            return Err(format!(
                "mutation_pct ({}) must be <= 100",
                self.mutation_pct
            ));
        }
        let buckets = match (self.structure, self.buckets) {
            (StructureKind::Hash, Some(0)) => {
                return Err("a hash table needs at least one bucket".into());
            }
            (StructureKind::Hash, Some(b)) => b,
            (StructureKind::Hash, None) => {
                return Err("StructureKind::Hash requires .buckets(n)".into());
            }
            (other, Some(_)) => {
                return Err(format!("buckets is only meaningful for Hash, not {other}"));
            }
            (_, None) => 1,
        };
        Ok(WorkloadSpec {
            structure: self.structure,
            initial_size: self.initial_size,
            key_range: self.key_range,
            mutation_pct: self.mutation_pct,
            buckets,
        })
    }
}

impl WorkloadSpec {
    /// Re-checks the builder invariants on an existing spec (the fields
    /// are public, so a spec can drift after construction).
    pub fn validate(&self) -> Result<(), String> {
        let mut b = Self::builder(self.structure)
            .initial_size(self.initial_size)
            .key_range(self.key_range)
            .mutation_pct(self.mutation_pct);
        if self.structure == StructureKind::Hash {
            b = b.buckets(self.buckets);
        }
        b.build().map(|_| ())
    }
}

impl WorkloadSpec {
    /// Starts building a spec for `structure`.
    pub fn builder(structure: StructureKind) -> WorkloadSpecBuilder {
        WorkloadSpecBuilder {
            structure,
            initial_size: 1024,
            key_range: 2048,
            mutation_pct: 20,
            buckets: None,
        }
    }

    /// The paper's list configuration: 5 K nodes, 20 % mutations.
    pub fn paper_list() -> Self {
        Self::builder(StructureKind::List)
            .initial_size(5_000)
            .key_range(10_000)
            .mutation_pct(20)
            .build()
            .expect("paper preset is valid")
    }

    /// The paper's skip-list configuration: 100 K nodes, 20 % mutations.
    pub fn paper_skiplist() -> Self {
        Self::builder(StructureKind::SkipList)
            .initial_size(100_000)
            .key_range(200_000)
            .mutation_pct(20)
            .build()
            .expect("paper preset is valid")
    }

    /// The paper's queue configuration: 20 % mutations.
    pub fn paper_queue() -> Self {
        Self::builder(StructureKind::Queue)
            .initial_size(256)
            .key_range(1 << 32)
            .mutation_pct(20)
            .build()
            .expect("paper preset is valid")
    }

    /// Extra workload: red-black tree, 10 K keys, 10 % mutations
    /// (read-dominated, as tree indexes usually are).
    pub fn extra_rbtree() -> Self {
        Self::builder(StructureKind::RbTree)
            .initial_size(10_000)
            .key_range(20_000)
            .mutation_pct(10)
            .build()
            .expect("paper preset is valid")
    }

    /// The paper's hash configuration: 10 K nodes, 20 % mutations.
    pub fn paper_hash() -> Self {
        Self::builder(StructureKind::Hash)
            .initial_size(10_000)
            .key_range(20_000)
            .mutation_pct(20)
            .buckets(4_096)
            .build()
            .expect("paper preset is valid")
    }

    /// A scaled-down variant for fast test runs.
    pub fn shrunk(mut self, factor: u64) -> Self {
        self.initial_size = (self.initial_size / factor).max(8);
        self.key_range = (self.key_range / factor).max(16);
        self
    }

    /// Words of simulated heap this workload needs, with garbage headroom.
    pub fn heap_words(&self, duration_ms: u64) -> u64 {
        let per_node = match self.structure {
            StructureKind::SkipList | StructureKind::RbTree => 8,
            _ => 4,
        };
        // Sets hold at most one node per key; the queue's population is
        // bounded by its churn, not the value range.
        let resident_nodes = match self.structure {
            StructureKind::Queue => self.initial_size + 1,
            _ => self.key_range,
        };
        let base = resident_nodes * per_node + self.buckets as u64 * 8;
        // Leak headroom for the NoReclaim baseline.
        let headroom = 4_000_000 * duration_ms.max(1) / 10;
        (base * 2 + headroom + (1 << 16)).next_power_of_two()
    }
}

/// The structure instance shared by all workers of one run.
pub enum StructureInstance {
    /// A Harris list.
    List(list::ListShape),
    /// A skip list.
    SkipList(skiplist::SkipShape),
    /// A queue.
    Queue(queue::QueueShape),
    /// A hash table.
    Hash(hash::HashShape),
    /// A red-black tree.
    RbTree(rbtree::RbShape),
}

impl StructureInstance {
    /// Builds and pre-populates the structure (untimed).
    pub fn build(spec: &WorkloadSpec, heap: &Arc<Heap>, seed: u64) -> Self {
        let mut rng = st_machine::Pcg32::new_stream(seed, 0x5742);
        match spec.structure {
            StructureKind::List => {
                let shape = list::ListShape::new_untimed(heap);
                shape.populate_untimed(heap, spec.initial_size, spec.key_range, &mut rng);
                StructureInstance::List(shape)
            }
            StructureKind::SkipList => {
                let shape = skiplist::SkipShape::new_untimed(heap);
                shape.populate_untimed(heap, spec.initial_size, spec.key_range, &mut rng);
                StructureInstance::SkipList(shape)
            }
            StructureKind::Queue => {
                let shape = queue::QueueShape::new_untimed(heap);
                for i in 0..spec.initial_size {
                    shape.enqueue_untimed(heap, i + 1);
                }
                StructureInstance::Queue(shape)
            }
            StructureKind::Hash => {
                let shape = hash::HashShape::new_untimed(heap, spec.buckets);
                shape.populate_untimed(heap, spec.initial_size, spec.key_range, &mut rng);
                StructureInstance::Hash(shape)
            }
            StructureKind::RbTree => {
                // No untimed populate for the tree (balance bookkeeping);
                // build it through a throwaway writer on a scratch cpu.
                let shape = rbtree::RbShape::new_untimed(heap);
                let mut inserted = 0;
                let mut cpu = scratch_cpu();
                let mut writer = scratch_writer(heap);
                while inserted < spec.initial_size {
                    let key = rng.below(spec.key_range) + 1;
                    let mut body = rbtree::insert_body(shape, key);
                    if writer.run_op(&mut cpu, rbtree::OP_INSERT, rbtree::RB_SLOTS, &mut body) == 1
                    {
                        inserted += 1;
                    }
                }
                StructureInstance::RbTree(shape)
            }
        }
    }
}

/// A scratch CPU for untimed-ish setup work.
fn scratch_cpu() -> Cpu {
    use st_machine::{cpu::ActivityBoard, CostModel, HwContext, Topology};
    let topo = Topology::haswell();
    Cpu::new(
        0,
        HwContext::new(&topo, 0),
        Arc::new(CostModel::default()),
        Arc::new(ActivityBoard::new(topo.hw_contexts())),
        0x5e7,
    )
}

/// A leak-free executor for setup mutations (population is untimed, so
/// the scheme does not matter; NoReclaim never frees, which is safe).
fn scratch_writer(heap: &Arc<Heap>) -> st_reclaim::none::NoReclaimThread {
    st_reclaim::none::NoReclaimThread::new(heap.clone())
}

/// One benchmark thread: picks operations per the spec and drives them
/// through its scheme executor, one basic block per simulator step.
pub struct BenchWorker {
    th: Box<dyn SchemeThread>,
    spec: WorkloadSpec,
    instance: Arc<StructureInstance>,
    current: Option<Box<OpBody<'static>>>,
    ops_done: u64,
    /// Virtual times at which to sample `outstanding_garbage` (sorted).
    sample_points: Vec<st_machine::Cycles>,
    /// Samples taken so far; backfilled with the final value at `finish`.
    garbage_samples: Vec<u64>,
    /// Outstanding garbage at the deadline, captured in `finish` *before*
    /// any teardown drains it.
    garbage_at_deadline: Option<u64>,
    /// Run the executor's teardown in `finish` (armed for the measured
    /// run only, never for warm-up).
    teardown_armed: bool,
}

impl BenchWorker {
    /// Creates a worker over a scheme executor and a shared structure.
    pub fn new(
        th: Box<dyn SchemeThread>,
        spec: WorkloadSpec,
        instance: Arc<StructureInstance>,
    ) -> Self {
        Self {
            th,
            spec,
            instance,
            current: None,
            ops_done: 0,
            sample_points: Vec::new(),
            garbage_samples: Vec::new(),
            garbage_at_deadline: None,
            teardown_armed: false,
        }
    }

    /// Requests an `outstanding_garbage` sample each time this worker's
    /// clock crosses one of `points` (must be sorted ascending). A worker
    /// frozen by a fault keeps its last value: `finish` backfills.
    pub fn sample_garbage_at(&mut self, points: Vec<st_machine::Cycles>) {
        self.sample_points = points;
        self.garbage_samples.clear();
    }

    /// Arms the end-of-run teardown (drains the scheme's deferred frees so
    /// free-latency histograms cover short runs). Armed after warm-up so a
    /// warm-up deadline never drains mid-experiment.
    pub fn arm_teardown(&mut self) {
        self.teardown_armed = true;
    }

    /// The garbage samples taken at the configured points (complete after
    /// `finish`).
    pub fn garbage_samples(&self) -> &[u64] {
        &self.garbage_samples
    }

    /// Outstanding garbage at the deadline, before teardown drained it.
    pub fn garbage_at_deadline(&self) -> u64 {
        self.garbage_at_deadline
            .unwrap_or_else(|| self.th.outstanding_garbage())
    }

    fn take_due_samples(&mut self, now: st_machine::Cycles) {
        while let Some(&at) = self.sample_points.get(self.garbage_samples.len()) {
            if now < at {
                break;
            }
            self.garbage_samples.push(self.th.outstanding_garbage());
        }
    }

    /// The executor (for statistics extraction after the run).
    pub fn executor(&self) -> &dyn SchemeThread {
        self.th.as_ref()
    }

    /// Mutable executor access (teardown).
    #[allow(dead_code)]
    pub fn executor_mut(&mut self) -> &mut dyn SchemeThread {
        self.th.as_mut()
    }

    /// Operations completed by this worker.
    #[allow(dead_code)]
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Resets measurement statistics after a warm-up phase.
    pub fn reset_stats(&mut self) {
        self.ops_done = 0;
        self.garbage_samples.clear();
        self.garbage_at_deadline = None;
        self.th.reset_stats();
    }

    fn pick_op(&self, cpu: &mut Cpu) -> (u32, usize, Box<OpBody<'static>>) {
        let roll = cpu.rng.below(100) as u32;
        let key = cpu.rng.below(self.spec.key_range) + 1;
        let mutate = roll < self.spec.mutation_pct;
        let second_half = roll % 2 == 1;
        match &*self.instance {
            StructureInstance::List(shape) => {
                let shape = *shape;
                if !mutate {
                    (
                        list::OP_CONTAINS,
                        list::LIST_SLOTS,
                        Box::new(list::contains_body(shape, key)),
                    )
                } else if second_half {
                    (
                        list::OP_INSERT,
                        list::LIST_SLOTS,
                        Box::new(list::insert_body(shape, key)),
                    )
                } else {
                    (
                        list::OP_DELETE,
                        list::LIST_SLOTS,
                        Box::new(list::delete_body(shape, key)),
                    )
                }
            }
            StructureInstance::SkipList(shape) => {
                let shape = *shape;
                if !mutate {
                    (
                        skiplist::OP_CONTAINS,
                        skiplist::SKIP_SLOTS,
                        Box::new(skiplist::contains_body(shape, key)),
                    )
                } else if second_half {
                    (
                        skiplist::OP_INSERT,
                        skiplist::SKIP_SLOTS,
                        Box::new(skiplist::insert_body(shape, key)),
                    )
                } else {
                    (
                        skiplist::OP_DELETE,
                        skiplist::SKIP_SLOTS,
                        Box::new(skiplist::delete_body(shape, key)),
                    )
                }
            }
            StructureInstance::Queue(shape) => {
                let shape = *shape;
                if !mutate {
                    (
                        queue::OP_PEEK,
                        queue::QUEUE_SLOTS,
                        Box::new(queue::peek_body(shape)),
                    )
                } else if second_half {
                    (
                        queue::OP_ENQUEUE,
                        queue::QUEUE_SLOTS,
                        Box::new(queue::enqueue_body(shape, key)),
                    )
                } else {
                    (
                        queue::OP_DEQUEUE,
                        queue::QUEUE_SLOTS,
                        Box::new(queue::dequeue_body(shape)),
                    )
                }
            }
            StructureInstance::Hash(shape) => {
                if !mutate {
                    (
                        list::OP_CONTAINS,
                        list::LIST_SLOTS,
                        Box::new(hash::contains_body(shape, key)),
                    )
                } else if second_half {
                    (
                        list::OP_INSERT,
                        list::LIST_SLOTS,
                        Box::new(hash::insert_body(shape, key)),
                    )
                } else {
                    (
                        list::OP_DELETE,
                        list::LIST_SLOTS,
                        Box::new(hash::delete_body(shape, key)),
                    )
                }
            }
            StructureInstance::RbTree(shape) => {
                let shape = *shape;
                if !mutate {
                    (
                        rbtree::OP_SEARCH,
                        rbtree::RB_SLOTS,
                        Box::new(rbtree::search_body(shape, key)),
                    )
                } else if second_half {
                    (
                        rbtree::OP_INSERT,
                        rbtree::RB_SLOTS,
                        Box::new(rbtree::insert_body(shape, key)),
                    )
                } else {
                    (
                        rbtree::OP_DELETE,
                        rbtree::RB_SLOTS,
                        Box::new(rbtree::delete_body(shape, key)),
                    )
                }
            }
        }
    }
}

impl Worker for BenchWorker {
    fn step(&mut self, cpu: &mut Cpu) -> StepOutcome {
        self.take_due_samples(cpu.now());
        if self.th.idle_work_pending() {
            self.th.step_idle(cpu);
            return StepOutcome::Progress;
        }
        if self.current.is_none() {
            let (op_id, slots, body) = self.pick_op(cpu);
            self.th.begin_op(cpu, op_id, slots);
            self.current = Some(body);
            return StepOutcome::Progress;
        }
        let body = self.current.as_mut().expect("current body");
        match self.th.step_op(cpu, body.as_mut()) {
            Some(_) => {
                self.current = None;
                self.ops_done += 1;
                StepOutcome::OpDone
            }
            None => StepOutcome::Progress,
        }
    }

    fn finish(&mut self, cpu: &mut Cpu) {
        // A stalled worker reaches here with its clock frozen mid-run:
        // every remaining checkpoint sees the garbage it was holding.
        let frozen = self.th.outstanding_garbage();
        while self.garbage_samples.len() < self.sample_points.len() {
            self.garbage_samples.push(frozen);
        }
        self.garbage_at_deadline = Some(frozen);
        if self.teardown_armed {
            self.th.teardown(cpu);
        }
    }

    fn neutralize(&mut self, cpu: &mut Cpu) {
        self.th.neutralize(cpu);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_match_section_6() {
        let list = WorkloadSpec::paper_list();
        assert_eq!(list.initial_size, 5_000);
        assert_eq!(list.mutation_pct, 20);
        let sl = WorkloadSpec::paper_skiplist();
        assert_eq!(sl.initial_size, 100_000);
        let hash = WorkloadSpec::paper_hash();
        assert_eq!(hash.initial_size, 10_000);
        assert!(hash.buckets > 1);
    }

    #[test]
    fn heap_sizing_covers_the_population() {
        for spec in [
            WorkloadSpec::paper_list(),
            WorkloadSpec::paper_skiplist(),
            WorkloadSpec::paper_hash(),
            WorkloadSpec::paper_queue(),
            WorkloadSpec::extra_rbtree(),
        ] {
            let words = spec.heap_words(10);
            assert!(words.is_power_of_two());
            // Must at least hold the resident nodes twice over.
            let resident = match spec.structure {
                StructureKind::Queue => spec.initial_size,
                _ => spec.key_range,
            };
            assert!(words > resident * 2, "{:?} undersized", spec.structure);
            // And stay far below the address-space sanity bound.
            assert!(words < 1 << 28, "{:?} oversized", spec.structure);
        }
    }

    #[test]
    fn builder_rejects_inconsistent_specs() {
        assert!(WorkloadSpec::builder(StructureKind::List)
            .initial_size(100)
            .key_range(50)
            .build()
            .is_err());
        assert!(WorkloadSpec::builder(StructureKind::List)
            .mutation_pct(101)
            .build()
            .is_err());
        assert!(WorkloadSpec::builder(StructureKind::List)
            .buckets(4)
            .build()
            .is_err());
        assert!(WorkloadSpec::builder(StructureKind::Hash).build().is_err());
        assert!(WorkloadSpec::builder(StructureKind::Hash)
            .buckets(0)
            .build()
            .is_err());
        let hash = WorkloadSpec::builder(StructureKind::Hash)
            .buckets(64)
            .build()
            .unwrap();
        assert_eq!(hash.buckets, 64);
        let list = WorkloadSpec::builder(StructureKind::List).build().unwrap();
        assert_eq!(list.buckets, 1, "non-hash structures get a unit bucket");
    }

    #[test]
    fn structure_names_round_trip_through_fromstr() {
        for kind in [
            StructureKind::List,
            StructureKind::SkipList,
            StructureKind::Queue,
            StructureKind::Hash,
            StructureKind::RbTree,
        ] {
            assert_eq!(kind.name().parse::<StructureKind>(), Ok(kind));
            assert_eq!(
                kind.name().to_lowercase().parse::<StructureKind>(),
                Ok(kind)
            );
            assert_eq!(kind.to_string(), kind.name());
        }
        assert!("btree".parse::<StructureKind>().is_err());
    }

    #[test]
    fn shrunk_keeps_proportions() {
        let s = WorkloadSpec::paper_skiplist().shrunk(10);
        assert_eq!(s.initial_size, 10_000);
        assert_eq!(s.key_range, 20_000);
        assert_eq!(s.mutation_pct, 20);
        // Never shrinks to zero.
        let tiny = WorkloadSpec::paper_list().shrunk(1_000_000);
        assert!(tiny.initial_size >= 8);
        assert!(tiny.key_range >= 16);
    }

    #[test]
    fn populated_instances_have_the_requested_size() {
        let spec = WorkloadSpec::paper_list().shrunk(100);
        let heap = Arc::new(Heap::new(st_simheap::HeapConfig {
            capacity_words: spec.heap_words(1),
            ..st_simheap::HeapConfig::default()
        }));
        match StructureInstance::build(&spec, &heap, 1) {
            StructureInstance::List(shape) => {
                assert_eq!(
                    shape.collect_keys_untimed(&heap).len() as u64,
                    spec.initial_size
                );
            }
            _ => unreachable!(),
        }
    }
}
