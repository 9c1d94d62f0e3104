//! Linear-time population is the incremental insert loop, word for word.
//!
//! Each structure's `populate_untimed(heap, n, key_range, rng)` must leave
//! the heap exactly as a loop of `insert_untimed` calls over fresh draws
//! (counting only successful inserts) does: the same RNG draws, the same
//! addresses, the same words, the same allocator statistics. The figures'
//! byte-identity rests on that, so it is checked here on every word of
//! both heaps.

use st_machine::Pcg32;
use st_simheap::{Addr, Heap, HeapConfig};
use st_structures::{hash::HashShape, list::ListShape, skiplist::SkipShape};

const CAPACITY: u64 = 1 << 16;

fn heap() -> Heap {
    Heap::new(HeapConfig {
        capacity_words: CAPACITY,
        ..HeapConfig::default()
    })
}

/// Asserts the two heaps are identical: every word, the allocator
/// statistics, the next fresh address (the bump pointer) and the RNG
/// state each path left behind.
fn assert_same(what: &str, fast: (&Heap, Pcg32), slow: (&Heap, Pcg32)) {
    let (fast, mut fast_rng) = fast;
    let (slow, mut slow_rng) = slow;
    for idx in 1..CAPACITY {
        let a = Addr::from_index(idx);
        assert_eq!(
            fast.peek(a, 0),
            slow.peek(a, 0),
            "{what}: word {idx} differs"
        );
    }
    assert_eq!(
        fast.stats().alloc,
        slow.stats().alloc,
        "{what}: allocator statistics differ"
    );
    assert_eq!(
        fast.alloc_untimed(1).unwrap(),
        slow.alloc_untimed(1).unwrap(),
        "{what}: bump pointers differ"
    );
    assert_eq!(
        fast_rng.next_u64(),
        slow_rng.next_u64(),
        "{what}: RNG streams differ"
    );
}

/// (initial size, key range, seed) triples: sparse, dense, full range, and
/// the empty population.
const CASES: [(u64, u64, u64); 5] = [
    (0, 16, 1),
    (1, 1, 2),
    (50, 100, 3),
    (300, 310, 4),
    (400, 5000, 5),
];

#[test]
fn list_populate_matches_incremental_inserts() {
    for (n, key_range, seed) in CASES {
        let (fast, slow) = (heap(), heap());
        let mut fast_rng = Pcg32::new_stream(seed, 0x5742);
        let list = ListShape::new_untimed(&fast);
        list.populate_untimed(&fast, n, key_range, &mut fast_rng);

        let mut slow_rng = Pcg32::new_stream(seed, 0x5742);
        let reference = ListShape::new_untimed(&slow);
        let mut inserted = 0;
        while inserted < n {
            if reference.insert_untimed(&slow, slow_rng.below(key_range) + 1) {
                inserted += 1;
            }
        }

        list.check_invariants_untimed(&fast);
        assert_eq!(list.collect_keys_untimed(&fast).len() as u64, n);
        let what = format!("list n={n} range={key_range} seed={seed}");
        assert_same(&what, (&fast, fast_rng), (&slow, slow_rng));
    }
}

#[test]
fn hash_populate_matches_incremental_inserts() {
    for (n, key_range, seed) in CASES {
        for buckets in [1, 7, 64] {
            let (fast, slow) = (heap(), heap());
            let mut fast_rng = Pcg32::new_stream(seed, 0x7e57);
            let table = HashShape::new_untimed(&fast, buckets);
            table.populate_untimed(&fast, n, key_range, &mut fast_rng);

            let mut slow_rng = Pcg32::new_stream(seed, 0x7e57);
            let reference = HashShape::new_untimed(&slow, buckets);
            let mut inserted = 0;
            while inserted < n {
                if reference.insert_untimed(&slow, slow_rng.below(key_range) + 1) {
                    inserted += 1;
                }
            }

            table.check_invariants_untimed(&fast);
            assert_eq!(table.collect_keys_untimed(&fast).len() as u64, n);
            let what = format!("hash n={n} range={key_range} seed={seed} buckets={buckets}");
            assert_same(&what, (&fast, fast_rng), (&slow, slow_rng));
        }
    }
}

#[test]
fn skiplist_populate_matches_incremental_inserts() {
    for (n, key_range, seed) in CASES {
        let (fast, slow) = (heap(), heap());
        let mut fast_rng = Pcg32::new_stream(seed, 0x5742);
        let skip = SkipShape::new_untimed(&fast);
        skip.populate_untimed(&fast, n, key_range, &mut fast_rng);

        let mut slow_rng = Pcg32::new_stream(seed, 0x5742);
        let reference = SkipShape::new_untimed(&slow);
        let mut inserted = 0;
        while inserted < n {
            let key = slow_rng.below(key_range) + 1;
            if reference.insert_untimed(&slow, key, &mut slow_rng) {
                inserted += 1;
            }
        }

        skip.check_invariants_untimed(&fast);
        assert_eq!(skip.collect_keys_untimed(&fast).len() as u64, n);
        let what = format!("skiplist n={n} range={key_range} seed={seed}");
        assert_same(&what, (&fast, fast_rng), (&slow, slow_rng));
    }
}

#[test]
#[should_panic(expected = "distinct keys")]
fn populate_refuses_more_keys_than_the_range_holds() {
    let heap = heap();
    let list = ListShape::new_untimed(&heap);
    list.populate_untimed(&heap, 11, 10, &mut Pcg32::new(1));
}
