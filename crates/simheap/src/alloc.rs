//! Size-class free-list allocator over the simulated heap.
//!
//! The allocator is deliberately simple: power-of-two size classes, a bump
//! pointer for fresh memory, and per-class LIFO free lists. Two properties
//! matter for the reproduction:
//!
//! - **Type-stable recycling**: a freed slot is only ever reused for the
//!   same size class, so a stale pointer always points at "an object-shaped
//!   hole", mirroring the arena allocators lock-free C code uses. (The
//!   correctness of every scheme here is nevertheless independent of this.)
//! - **An allocation table** recording `start -> object info` for every
//!   object ever carved out, answering the interior-pointer range queries of
//!   paper section 5.5 and the liveness assertions the test suite relies on.

use crate::addr::Addr;
use std::collections::BTreeMap;

/// Number of size classes (class `c` holds blocks of `1 << c` words).
pub const NUM_CLASSES: usize = 16;

/// Largest supported allocation, in words.
pub const MAX_ALLOC_WORDS: usize = 1 << (NUM_CLASSES - 1);

/// Information about one carved-out block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjInfo {
    /// Requested length in words.
    pub len: u32,
    /// Size class (block length is `1 << class`).
    pub class: u8,
    /// Whether the block is currently allocated.
    pub live: bool,
}

/// A block handed out by [`Allocator::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Base address.
    pub addr: Addr,
    /// Block length in words (the size class, not the request).
    pub words: u64,
    /// Whether the block was carved from the bump pointer rather than
    /// recycled from a free list. No word at or above the bump pointer
    /// has ever been written, so a fresh block is already all zero.
    pub fresh: bool,
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The heap is out of fresh memory and the class free list is empty.
    OutOfMemory,
    /// The request exceeds [`MAX_ALLOC_WORDS`] or is zero.
    BadSize,
}

/// Running allocator statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AllocStats {
    /// Total successful allocations.
    pub allocs: u64,
    /// Total frees.
    pub frees: u64,
    /// Allocations served from a free list (recycled).
    pub recycled: u64,
    /// Currently live objects.
    pub live_objects: u64,
    /// Currently live words (by block size).
    pub live_words: u64,
    /// High-water mark of live words.
    pub peak_live_words: u64,
}

/// The allocator state (kept behind the heap's lock).
#[derive(Debug)]
pub struct Allocator {
    capacity: u64,
    bump: u64,
    free_lists: Vec<Vec<u64>>,
    objects: BTreeMap<u64, ObjInfo>,
    stats: AllocStats,
}

fn class_of(words: usize) -> Option<u8> {
    if words == 0 || words > MAX_ALLOC_WORDS {
        return None;
    }
    Some(words.next_power_of_two().trailing_zeros() as u8)
}

impl Allocator {
    /// Creates an allocator over `capacity_words` of heap, reserving word 0
    /// (so that no object ever has the null address).
    pub fn new(capacity_words: u64) -> Self {
        Self {
            capacity: capacity_words,
            bump: 1,
            free_lists: vec![Vec::new(); NUM_CLASSES],
            objects: BTreeMap::new(),
            stats: AllocStats::default(),
        }
    }

    /// Allocates a block of at least `words` words.
    pub fn alloc(&mut self, words: usize) -> Result<Block, AllocError> {
        let class = class_of(words).ok_or(AllocError::BadSize)?;
        let block = 1u64 << class;

        let (start, fresh) = if let Some(idx) = self.free_lists[class as usize].pop() {
            self.stats.recycled += 1;
            (idx, false)
        } else {
            if self.bump + block > self.capacity {
                return Err(AllocError::OutOfMemory);
            }
            let idx = self.bump;
            self.bump += block;
            (idx, true)
        };

        self.objects.insert(
            start,
            ObjInfo {
                len: words as u32,
                class,
                live: true,
            },
        );
        self.stats.allocs += 1;
        self.stats.live_objects += 1;
        self.stats.live_words += block;
        self.stats.peak_live_words = self.stats.peak_live_words.max(self.stats.live_words);
        Ok(Block {
            addr: Addr::from_index(start),
            words: block,
            fresh,
        })
    }

    /// Returns a block to its class free list.
    ///
    /// # Panics
    ///
    /// Panics on double free or on an address that was never allocated —
    /// both are scheme bugs this reproduction wants loud.
    pub fn free(&mut self, addr: Addr) {
        let start = addr.index();
        let info = self
            .objects
            .get_mut(&start)
            .unwrap_or_else(|| panic!("free of never-allocated address {addr:?}"));
        assert!(info.live, "double free of {addr:?}");
        info.live = false;
        let class = info.class;
        self.free_lists[class as usize].push(start);
        self.stats.frees += 1;
        self.stats.live_objects -= 1;
        self.stats.live_words -= 1u64 << class;
    }

    /// Looks up the object containing the word address `raw` (which may
    /// point anywhere inside the object). Returns `(base, info)`.
    pub fn object_at(&self, raw: u64) -> Option<(Addr, ObjInfo)> {
        if raw & 7 != 0 {
            return None;
        }
        let idx = raw >> 3;
        if idx == 0 {
            return None;
        }
        let (&start, info) = self.objects.range(..=idx).next_back()?;
        let block = 1u64 << info.class;
        (idx < start + block).then(|| (Addr::from_index(start), *info))
    }

    /// Whether `addr` is the base of a currently live object.
    pub fn is_live(&self, addr: Addr) -> bool {
        self.objects
            .get(&addr.index())
            .is_some_and(|info| info.live)
    }

    /// The block length (in words) of the object based at `addr`, if known.
    pub fn block_len(&self, addr: Addr) -> Option<u64> {
        self.objects
            .get(&addr.index())
            .map(|info| 1u64 << info.class)
    }

    /// The bump pointer: the first word index never handed out. Every
    /// word at or above it has never been written.
    pub(crate) fn bump(&self) -> u64 {
        self.bump
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> AllocStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_rounding() {
        assert_eq!(class_of(1), Some(0));
        assert_eq!(class_of(2), Some(1));
        assert_eq!(class_of(3), Some(2));
        assert_eq!(class_of(4), Some(2));
        assert_eq!(class_of(5), Some(3));
        assert_eq!(class_of(0), None);
        assert_eq!(class_of(MAX_ALLOC_WORDS), Some((NUM_CLASSES - 1) as u8));
        assert_eq!(class_of(MAX_ALLOC_WORDS + 1), None);
    }

    #[test]
    fn alloc_never_returns_null_or_overlap() {
        let mut a = Allocator::new(1 << 16);
        let mut seen = std::collections::HashSet::new();
        for i in 1..100usize {
            let addr = a.alloc(i % 9 + 1).unwrap().addr;
            assert!(!addr.is_null());
            assert!(seen.insert(addr), "overlapping allocation {addr:?}");
        }
    }

    #[test]
    fn recycling_is_type_stable() {
        let mut a = Allocator::new(1 << 12);
        let x = a.alloc(4).unwrap();
        assert!(x.fresh);
        a.free(x.addr);
        let y = a.alloc(3).unwrap(); // same class (4 words)
        assert_eq!(
            x.addr, y.addr,
            "same-class alloc should recycle the freed slot"
        );
        assert!(!y.fresh, "a recycled block is not fresh");
        let z = a.alloc(8).unwrap(); // different class: fresh memory
        assert_ne!(x.addr, z.addr);
        assert!(z.fresh);
        assert_eq!((z.words, a.bump()), (8, 13));
        assert_eq!(a.stats().recycled, 1);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = Allocator::new(8);
        assert!(a.alloc(4).is_ok());
        assert_eq!(a.alloc(4), Err(AllocError::OutOfMemory));
        assert_eq!(a.alloc(0), Err(AllocError::BadSize));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = Allocator::new(1 << 10);
        let x = a.alloc(2).unwrap().addr;
        a.free(x);
        a.free(x);
    }

    #[test]
    #[should_panic(expected = "never-allocated")]
    fn foreign_free_panics() {
        let mut a = Allocator::new(1 << 10);
        a.free(Addr::from_index(5));
    }

    #[test]
    fn object_at_resolves_interior_pointers() {
        let mut a = Allocator::new(1 << 12);
        let x = a.alloc(6).unwrap().addr; // class 3, 8 words
        let interior = x.offset(5).raw();
        let (base, info) = a.object_at(interior).unwrap();
        assert_eq!(base, x);
        assert!(info.live);
        // One past the block is not inside.
        assert!(
            a.object_at(x.offset(8).raw()).map(|(b, _)| b) != Some(x),
            "past-the-end must not resolve to this object"
        );
        // Unaligned and null raw values resolve to nothing.
        assert_eq!(a.object_at(x.raw() + 1).map(|(b, _)| b), None);
        assert_eq!(a.object_at(0).map(|(b, _)| b), None);
    }

    #[test]
    fn stats_track_live_and_peak() {
        let mut a = Allocator::new(1 << 12);
        let x = a.alloc(4).unwrap().addr;
        let y = a.alloc(4).unwrap().addr;
        assert_eq!(a.stats().live_objects, 2);
        assert_eq!(a.stats().live_words, 8);
        a.free(x);
        a.free(y);
        assert_eq!(a.stats().live_objects, 0);
        assert_eq!(a.stats().peak_live_words, 8);
    }
}
