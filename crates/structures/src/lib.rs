//! Lock-free data structures written once against [`stacktrack::OpMem`].
//!
//! The four structures of the paper's evaluation (section 6) plus its
//! running example, each from the original papers:
//!
//! - [`list`]: the Harris lock-free linked list with Michael's
//!   hazard-compatible `find` (help-unlink on traversal).
//! - [`skiplist`]: the Fraser-Harris lock-free skip list.
//! - [`queue`]: the Michael-Scott lock-free queue.
//! - [`hash`]: a closed-bucket hash table over Harris lists.
//! - [`rbtree`]: the red-black tree of the paper's Algorithm 3 —
//!   transactional readers over a single-writer CLRS tree.
//!
//! Every operation is a *basic-block step closure* (see
//! [`stacktrack::opmem`]): one closure call performs roughly one pointer
//! hop, the granularity at which StackTrack injects split checkpoints. The
//! same bodies run unchanged under every reclamation scheme in
//! `st-reclaim`. Every structure is written against the typed
//! reclamation API (`st_reclaim::mem` — typed guards, `Shared` borrows,
//! `Unlinked` retire proofs; see docs/MEMORY_API.md); the raw
//! `protect`/`retire` surface no longer exists outside the scheme
//! executors themselves.
//!
//! Each structure declares its guard requirement (`guard_requirement()`
//! next to its node layout); harnesses that drive the whole matrix
//! through one factory size guard slots with [`max_guard_requirement`].
//!
//! # Conventions
//!
//! - Keys are `u64` in `1..u64::MAX` (0 and `u64::MAX` are the sentinel
//!   keys).
//! - Set operations return `1` for success ("was present" / "inserted" /
//!   "removed") and `0` otherwise, as the operation's result word.
//! - Pointer words carry the Harris deletion mark in bit 0
//!   ([`st_simheap::TaggedPtr`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod history;
pub mod list;
pub mod queue;
pub mod rbtree;
pub mod skiplist;

pub use hash::HashSet;
pub use list::LockFreeList;
pub use queue::MsQueue;
pub use rbtree::RbTree;
pub use skiplist::SkipList;

/// Draws `n` distinct keys as `rng.below(key_range) + 1`, redrawing
/// repeats, and hands each new key to `new_key` in draw order together
/// with `rng` (the skip list draws a tower height from the same stream).
///
/// This is the draw sequence of a loop of untimed inserts that counts
/// only successful ones, which is what the structures' `populate_untimed`
/// reproduce. The repeat filter is sized by `n`, not by `key_range`.
///
/// # Panics
///
/// Panics when `1..=key_range` holds fewer than `n` keys, or when a key
/// could collide with the `u64::MAX` tail sentinel.
pub(crate) fn draw_distinct_keys(
    n: u64,
    key_range: u64,
    rng: &mut st_machine::Pcg32,
    mut new_key: impl FnMut(u64, &mut st_machine::Pcg32),
) {
    assert!(
        n <= key_range,
        "cannot draw {n} distinct keys from 1..={key_range}"
    );
    assert!(key_range < u64::MAX, "key range");
    let mut seen = st_simhtm::util::U64Set::with_capacity(n as usize);
    while (seen.len() as u64) < n {
        let key = rng.below(key_range) + 1;
        if seen.insert(key) {
            new_key(key, rng);
        }
    }
}

/// The pointwise maximum of every structure's declared guard requirement
/// — what a harness that drives any structure through one factory passes
/// to `SchemeFactoryBuilder::guard_requirement`.
///
/// Using the maximum (the skip list's, today) for every structure keeps
/// guard-table layout — and therefore heap addresses, stripe-conflict
/// patterns, and the committed deterministic figures — identical across
/// structures; per-structure requirements are still the right bound for
/// single-structure harnesses that don't carry that contract.
pub const fn max_guard_requirement() -> st_reclaim::mem::GuardRequirement {
    list::guard_requirement()
        .max(hash::guard_requirement())
        .max(queue::guard_requirement())
        .max(skiplist::guard_requirement())
        .max(rbtree::guard_requirement())
}

#[cfg(test)]
pub(crate) mod testutil {
    use st_machine::{cpu::ActivityBoard, CostModel, Cpu, HwContext, Topology};
    use st_reclaim::{ReclaimConfig, Scheme, SchemeFactory};
    use st_simheap::{Heap, HeapConfig};
    use st_simhtm::{HtmConfig, HtmEngine};
    use std::sync::Arc;

    /// A test heap (no factory).
    pub(crate) fn scheme_env() -> (Arc<Heap>, ()) {
        let heap = Arc::new(Heap::new(HeapConfig {
            capacity_words: 1 << 18,
            ..HeapConfig::default()
        }));
        (heap, ())
    }

    /// A factory for `scheme` with `threads` slots, plus its heap.
    pub(crate) fn all_scheme_factories(
        scheme: Scheme,
        threads: usize,
    ) -> (SchemeFactory, Arc<Heap>) {
        let (heap, ()) = scheme_env();
        let engine = Arc::new(HtmEngine::new(heap.clone(), HtmConfig::default(), threads));
        let factory = SchemeFactory::builder(scheme)
            .engine(engine)
            .max_threads(threads)
            .reclaim_config(ReclaimConfig::default())
            .guard_requirement(crate::max_guard_requirement())
            .build();
        (factory, heap)
    }

    /// A standalone CPU on thread slot `id`.
    pub(crate) fn test_cpu(id: usize) -> Cpu {
        let topo = Topology::haswell();
        Cpu::new(
            id,
            HwContext::new(&topo, topo.place(id)),
            Arc::new(CostModel::default()),
            Arc::new(ActivityBoard::new(topo.hw_contexts())),
            0xfeed + id as u64,
        )
    }
}
