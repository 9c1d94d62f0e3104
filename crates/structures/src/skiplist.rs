//! The Fraser-Harris lock-free skip list (Fraser 2004; the variant in
//! Herlihy & Shavit's *Art of Multiprocessor Programming*).
//!
//! Node layout (`2 + level` words): `[key, level, next_0 .. next_{l-1}]`,
//! with the deletion mark in bit 0 of each next pointer. A node is
//! logically deleted once its **bottom-level** next is marked; the unique
//! winner of that mark owns the node and retires it after a cleanup
//! search has physically unlinked it from every level (searches snip
//! marked nodes they encounter, so the owner's own search suffices).
//!
//! Guard budget (hazard pointers): one predecessor guard per level, one
//! traversal guard per level, one working guard, and one pinning the
//! operation's own node — [`SKIP_GUARDS`] in total. The shadow frame holds
//! the full `preds`/`succs` arrays, which is why
//! [`stacktrack::layout::STACK_SLOTS`] is sized the way it is.

//! Written against the typed reclamation API (`st_reclaim::mem`): the
//! per-level guard arrays are `GuardPool` handles in declaration order,
//! searches snip marked nodes with `cas_snip` (helping — no proof
//! minted), the bottom-level mark CAS decides ownership, and the owner
//! mints its `Unlinked` proof with `assume_unlinked` once its cleanup
//! search has unlinked every level — see docs/MEMORY_API.md.

use st_machine::{Cpu, Pcg32};
use st_reclaim::mem::{Guard, GuardPool, GuardRequirement, Mem, NodeType, Owned, Unlinked};
use st_reclaim::SchemeThread;
use st_simheap::{Addr, Heap, TaggedPtr, Word};
use st_simhtm::Abort;
use stacktrack::{OpMem, Step};
use std::sync::Arc;

/// Maximum tower height.
pub const MAX_LEVEL: usize = 16;

/// Contains operation id.
pub const OP_CONTAINS: u32 = 0;
/// Insert operation id.
pub const OP_INSERT: u32 = 1;
/// Delete operation id.
pub const OP_DELETE: u32 = 2;

/// Key word offset.
pub const NODE_KEY: u64 = 0;
/// Tower-height word offset.
pub const NODE_LEVEL: u64 = 1;
/// First next-pointer word offset.
pub const NODE_NEXT0: u64 = 2;

/// The skip list's node layout: `[key, level, next_0 .. next_{l-1}]`.
///
/// `WORDS` declares the maximum (full-height) tower; actual towers are
/// `2 + height` words and allocated with `Mem::alloc_var`.
#[derive(Debug, Clone, Copy)]
pub struct SkipNode;
impl NodeType for SkipNode {
    const WORDS: usize = 2 + MAX_LEVEL;
}

/// Shadow-stack slots used by skip-list operations.
pub const SKIP_SLOTS: usize = 10 + 2 * MAX_LEVEL;
/// Guard slots used by skip-list operations.
pub const SKIP_GUARDS: usize = 2 * MAX_LEVEL + 2;

/// The skip list's declared guard requirement: per-level predecessor and
/// traversal guards, one working guard, one pinning the operation's own
/// node. The deepest requirement in the crate — what
/// [`crate::max_guard_requirement`] resolves to.
pub const fn guard_requirement() -> GuardRequirement {
    GuardRequirement::new(SKIP_GUARDS)
}

// Local slot assignment.
const PHASE: usize = 0;
const LVL: usize = 1;
const PRED: usize = 2;
const CURR: usize = 3;
const NODE: usize = 4;
const TOPLVL: usize = 5;
const CKEY: usize = 6;
const CONT: usize = 7;
const MARK_LVL: usize = 8;
/// The insert's upper-level cursor. Must be distinct from `LVL`, which the
/// search machinery reuses as its own level cursor on every refresh.
const INS_LVL: usize = 9;
const PREDS: usize = 10;
const SUCCS: usize = 10 + MAX_LEVEL;

// Guard assignment, fixed by `GuardPool` declaration order in every
// body: `pred[l] = l`, `curr[l] = MAX_LEVEL + l`, work = 2*MAX_LEVEL,
// node = 2*MAX_LEVEL + 1.
fn take_guards(pool: &mut GuardPool) -> ([Guard; MAX_LEVEL], [Guard; MAX_LEVEL], Guard, Guard) {
    // `array::from_fn` fills in ascending index order, so `pred[l]`
    // always lands on scheme slot `l` (asserted by a unit test below).
    let pred: [Guard; MAX_LEVEL] = std::array::from_fn(|_| pool.guard());
    let curr: [Guard; MAX_LEVEL] = std::array::from_fn(|_| pool.guard());
    let work = pool.guard();
    let node = pool.guard();
    (pred, curr, work, node)
}

// Phases.
const P_SEARCH_START: Word = 0;
const P_SEARCH_STEP: Word = 1;
const P_CONTAINS_DONE: Word = 2;
const P_INS_CHECK: Word = 3;
const P_INS_BOTTOM: Word = 4;
const P_INS_UPPER: Word = 5;
const P_DEL_CHECK: Word = 6;
const P_DEL_MARK_UPPER: Word = 7;
const P_DEL_MARK_BOTTOM: Word = 8;
const P_DEL_CLEANUP_DONE: Word = 9;

/// The shared shape of one skip list: its sentinel addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipShape {
    /// Head sentinel (key 0, full height).
    pub head: Addr,
    /// Tail sentinel (key `u64::MAX`).
    pub tail: Addr,
}

impl SkipShape {
    /// Allocates an empty skip list (untimed; setup).
    pub fn new_untimed(heap: &Heap) -> Self {
        let head = heap
            .alloc_untimed(2 + MAX_LEVEL)
            .expect("heap too small for skip-list sentinels");
        let tail = heap
            .alloc_untimed(2 + MAX_LEVEL)
            .expect("heap too small for skip-list sentinels");
        heap.poke(head, NODE_KEY, 0);
        heap.poke(head, NODE_LEVEL, MAX_LEVEL as u64);
        heap.poke(tail, NODE_KEY, u64::MAX);
        heap.poke(tail, NODE_LEVEL, MAX_LEVEL as u64);
        for l in 0..MAX_LEVEL as u64 {
            heap.poke(head, NODE_NEXT0 + l, tail.raw());
            heap.poke(tail, NODE_NEXT0 + l, 0);
        }
        Self { head, tail }
    }

    /// Samples a tower height: geometric with p = 1/2, capped.
    pub fn random_level(rng: &mut Pcg32) -> usize {
        let mut h = 1;
        while h < MAX_LEVEL && rng.chance(0.5) {
            h += 1;
        }
        h
    }

    /// Inserts directly (untimed; set-up). Draws the tower height from
    /// `rng` only when `key` is new.
    pub fn insert_untimed(&self, heap: &Heap, key: u64, rng: &mut Pcg32) -> bool {
        assert!(key > 0 && key < u64::MAX, "key range");
        let mut preds = [Addr(0); MAX_LEVEL];
        let mut pred = self.head;
        for l in (0..MAX_LEVEL).rev() {
            loop {
                let next = Addr::from_raw(heap.peek(pred, NODE_NEXT0 + l as u64));
                if heap.peek(next, NODE_KEY) < key {
                    pred = next;
                } else {
                    break;
                }
            }
            preds[l] = pred;
        }
        let succ0 = Addr::from_raw(heap.peek(preds[0], NODE_NEXT0));
        if heap.peek(succ0, NODE_KEY) == key {
            return false;
        }
        let (node, h) = alloc_tower_untimed(heap, key, rng);
        for l in 0..h {
            let succ = heap.peek(preds[l], NODE_NEXT0 + l as u64);
            heap.poke(node, NODE_NEXT0 + l as u64, succ);
            heap.poke(preds[l], NODE_NEXT0 + l as u64, node.raw());
        }
        true
    }

    /// Populates this empty skip list with `n` distinct keys drawn as
    /// `rng.below(key_range) + 1` (untimed; initial population).
    ///
    /// Equivalent to calling [`SkipShape::insert_untimed`] on fresh draws
    /// until `n` succeed: the same draw sequence (a key, then a height for
    /// a new key only), towers allocated in draw order, so every address
    /// and heap word is the same. The towers are then sorted and every
    /// level linked in one pass, O(n log n) instead of O(n²).
    pub fn populate_untimed(&self, heap: &Heap, n: u64, key_range: u64, rng: &mut Pcg32) {
        assert_eq!(
            heap.peek(self.head, NODE_NEXT0),
            self.tail.raw(),
            "populate an empty skip list"
        );
        let mut towers = Vec::with_capacity(n as usize);
        crate::draw_distinct_keys(n, key_range, rng, |key, rng| {
            let (node, h) = alloc_tower_untimed(heap, key, rng);
            towers.push((key, node, h));
        });
        towers.sort_unstable();
        let mut preds = [self.head; MAX_LEVEL];
        for &(_, node, h) in &towers {
            for (l, pred) in preds.iter_mut().enumerate().take(h) {
                heap.poke(*pred, NODE_NEXT0 + l as u64, node.raw());
                *pred = node;
            }
        }
        for (l, pred) in preds.into_iter().enumerate() {
            heap.poke(pred, NODE_NEXT0 + l as u64, self.tail.raw());
        }
    }

    /// Keys present at the bottom level (untimed; tests). Marked nodes are
    /// excluded.
    pub fn collect_keys_untimed(&self, heap: &Heap) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut cur = TaggedPtr::from_word(heap.peek(self.head, NODE_NEXT0));
        while !cur.is_null() {
            let addr = cur.addr();
            if addr == self.tail {
                break;
            }
            let next = TaggedPtr::from_word(heap.peek(addr, NODE_NEXT0));
            if !next.marked() {
                keys.push(heap.peek(addr, NODE_KEY));
            }
            cur = next;
        }
        keys
    }

    /// Checks structural invariants: every level strictly sorted and
    /// terminated at the tail; every unmarked upper-level node also
    /// present below.
    ///
    /// # Panics
    ///
    /// Panics when an invariant is violated.
    pub fn check_invariants_untimed(&self, heap: &Heap) {
        for l in 0..MAX_LEVEL as u64 {
            let mut last = 0u64;
            let mut cur = TaggedPtr::from_word(heap.peek(self.head, NODE_NEXT0 + l));
            loop {
                assert!(!cur.is_null(), "level {l} must end at the tail");
                let addr = cur.addr();
                if addr == self.tail {
                    break;
                }
                assert!(heap.is_live(addr), "reachable node {addr:?} live");
                let key = heap.peek(addr, NODE_KEY);
                let height = heap.peek(addr, NODE_LEVEL);
                assert!(height as usize <= MAX_LEVEL && height > l, "height");
                let next = TaggedPtr::from_word(heap.peek(addr, NODE_NEXT0 + l));
                // Nodes are never moved: key order holds across marked
                // nodes too. Duplicates may only appear as a marked node
                // followed (not preceded) by its unmarked replacement.
                assert!(
                    key > last || (key == last && !next.marked()),
                    "level {l}: key {key} out of order after {last}"
                );
                last = key;
                cur = next;
            }
        }
    }
}

/// Allocates an unlinked tower for `key` with a height drawn from `rng`
/// (untimed; set-up). Returns the node and its height.
fn alloc_tower_untimed(heap: &Heap, key: u64, rng: &mut Pcg32) -> (Addr, usize) {
    let h = SkipShape::random_level(rng);
    let node = heap
        .alloc_untimed(2 + h)
        .expect("heap too small for initial population");
    heap.poke(node, NODE_KEY, key);
    heap.poke(node, NODE_LEVEL, h as u64);
    (node, h)
}

/// One step of the skip-list search. Ends with `PREDS`/`SUCCS` filled and
/// the phase set to the continuation in `CONT`; `CKEY` holds the key of
/// `SUCCS[0]`. Searches snip marked nodes (helping deletion) but never
/// retire them — retirement belongs to the deletion's owner.
fn search_step(
    shape: SkipShape,
    key: u64,
    mem: &mut Mem<'_, '_>,
    g_pred: &mut [Guard; MAX_LEVEL],
    g_curr: &mut [Guard; MAX_LEVEL],
    g_work: &mut Guard,
) -> Result<Step, Abort> {
    let phase = mem.local(PHASE);
    if phase == P_SEARCH_START {
        let top = MAX_LEVEL - 1;
        // The head sentinel is immortal — shielding it is always sound.
        let pred = g_pred[top].shield::<SkipNode>(mem, shape.head.raw());
        let curr = pred
            .link::<SkipNode>(NODE_NEXT0 + top as u64)
            .load(mem, &mut g_curr[top])?;
        mem.set_local(PRED, shape.head.raw());
        mem.set_local(CURR, curr.addr_word());
        mem.set_local(LVL, top as u64);
        mem.set_local(PHASE, P_SEARCH_STEP);
        return Ok(Step::Continue);
    }
    debug_assert_eq!(phase, P_SEARCH_STEP);

    let l = mem.local(LVL) as usize;
    let pred_word = mem.local(PRED);
    let curr_word = mem.local(CURR);
    let curr = g_curr[l].assume_protected::<SkipNode>(curr_word);
    let succ = curr
        .link::<SkipNode>(NODE_NEXT0 + l as u64)
        .load(mem, g_work)?;

    if succ.marked() {
        // `curr` is deleted: snip it out of this level — helping only,
        // so no unlink proof is minted (the bottom-mark winner owns the
        // retire; see `delete_body`).
        let pred = g_pred[l].assume_protected::<SkipNode>(pred_word);
        match pred
            .link::<SkipNode>(NODE_NEXT0 + l as u64)
            .cas_snip(mem, &curr, succ.addr_word())?
        {
            Ok(()) => {
                let _ = g_curr[l].shield::<SkipNode>(mem, succ.addr_word());
                mem.set_local(CURR, succ.addr_word());
            }
            Err(_actual) => {
                mem.set_local(PHASE, P_SEARCH_START);
            }
        }
        return Ok(Step::Continue);
    }

    let ckey = curr.read(mem, NODE_KEY)?;
    if ckey < key {
        let _ = g_pred[l].shield::<SkipNode>(mem, curr_word);
        let _ = g_curr[l].shield::<SkipNode>(mem, succ.addr_word());
        mem.set_local(PRED, curr_word);
        mem.set_local(CURR, succ.addr_word());
        return Ok(Step::Continue);
    }

    // Record this level and descend (or finish).
    mem.set_local(PREDS + l, pred_word);
    mem.set_local(SUCCS + l, curr_word);
    if l == 0 {
        mem.set_local(CKEY, ckey);
        let cont = mem.local(CONT);
        mem.set_local(PHASE, cont);
    } else {
        let below = l - 1;
        // The descend re-shields `pred` one level down while it is still
        // covered by `g_pred[l]`, then loads its link there.
        let pred_below = g_pred[below].shield::<SkipNode>(mem, pred_word);
        let c = pred_below
            .link::<SkipNode>(NODE_NEXT0 + below as u64)
            .load(mem, &mut g_curr[below])?;
        mem.set_local(CURR, c.addr_word());
        mem.set_local(LVL, below as u64);
    }
    Ok(Step::Continue)
}

/// Body of `contains(key)`.
pub fn contains_body(
    shape: SkipShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let (mut g_pred, mut g_curr, mut g_work, _g_node) = take_guards(&mut guards);
        let phase = mem.local(PHASE);
        match phase {
            P_SEARCH_START | P_SEARCH_STEP => {
                if phase == P_SEARCH_START {
                    mem.set_local(CONT, P_CONTAINS_DONE);
                }
                search_step(shape, key, &mut mem, &mut g_pred, &mut g_curr, &mut g_work)
            }
            P_CONTAINS_DONE => Ok(Step::Done(u64::from(mem.local(CKEY) == key))),
            other => unreachable!("contains phase {other}"),
        }
    }
}

/// Body of `insert(key)`: 1 if inserted, 0 if already present.
pub fn insert_body(
    shape: SkipShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let (mut g_pred, mut g_curr, mut g_work, mut g_node) = take_guards(&mut guards);
        let phase = mem.local(PHASE);
        match phase {
            P_SEARCH_START | P_SEARCH_STEP => {
                if phase == P_SEARCH_START && mem.local(CONT) == 0 {
                    mem.set_local(CONT, P_INS_CHECK);
                }
                search_step(shape, key, &mut mem, &mut g_pred, &mut g_curr, &mut g_work)
            }
            P_INS_CHECK => {
                if mem.local(CKEY) == key {
                    let node_word = mem.local(NODE);
                    if let Some(node) = Owned::<SkipNode>::unstash(node_word) {
                        // Never published; safe to hand back.
                        node.dispose(&mut mem)?;
                        mem.set_local(NODE, 0);
                    }
                    return Ok(Step::Done(0));
                }
                let node = match Owned::<SkipNode>::unstash(mem.local(NODE)) {
                    None => {
                        let h = SkipShape::random_level(&mut mem.cpu().rng);
                        let node = mem.alloc_var::<SkipNode>(2 + h);
                        node.store(&mut mem, NODE_KEY, key)?;
                        node.store(&mut mem, NODE_LEVEL, h as u64)?;
                        // Pin our own tower for the whole operation (it
                        // is still private, so the shield is sound).
                        let _ = g_node.shield::<SkipNode>(&mut mem, node.word());
                        mem.set_local(NODE, node.word());
                        mem.set_local(TOPLVL, h as u64);
                        node
                    }
                    Some(node) => node,
                };
                // Aim the unpublished tower at the current successors.
                let h = mem.local(TOPLVL);
                for l in 0..h as usize {
                    let succ = mem.local(SUCCS + l.min(MAX_LEVEL - 1));
                    node.store(&mut mem, NODE_NEXT0 + l as u64, succ)?;
                }
                // Still unpublished; it stays stashed for the next block.
                let _ = node.stash();
                mem.set_local(PHASE, P_INS_BOTTOM);
                Ok(Step::Continue)
            }
            P_INS_BOTTOM => {
                let node_word = mem.local(NODE);
                let pred_word = mem.local(PREDS);
                let succ = mem.local(SUCCS);
                // Never link in front of a marked successor: a deleted
                // same-key node hidden behind ours would be invisible to
                // its owner's cleanup search (which stops at the first
                // node with key >= target) and would be freed while still
                // linked. Re-search instead; the search snips it. The mark
                // check and the CAS share this block, which the simulated
                // machine executes atomically (segment granularity).
                let succ_sh = g_curr[0].assume_protected::<SkipNode>(succ);
                let succ_state = TaggedPtr::from_word(succ_sh.read(&mut mem, NODE_NEXT0)?);
                if succ_state.marked() {
                    mem.set_local(PHASE, P_SEARCH_START);
                    return Ok(Step::Continue);
                }
                let node = Owned::<SkipNode>::unstash(node_word).expect("tower stashed");
                let pred = g_pred[0].assume_protected::<SkipNode>(pred_word);
                match pred
                    .link::<SkipNode>(NODE_NEXT0)
                    .cas_publish(&mut mem, succ, node)?
                {
                    Ok(()) => {
                        mem.set_local(INS_LVL, 1);
                        mem.set_local(PHASE, P_INS_UPPER);
                    }
                    Err((lost, _actual)) => {
                        // Still unpublished; it stays stashed for retry.
                        let _ = lost.stash();
                        mem.set_local(PHASE, P_SEARCH_START);
                    }
                }
                Ok(Step::Continue)
            }
            P_INS_UPPER => {
                let l = mem.local(INS_LVL) as usize;
                let h = mem.local(TOPLVL) as usize;
                if l >= h {
                    return Ok(Step::Done(1));
                }
                // The tower is published (it carries readers), so upper
                // levels are linked with plain word CASes — no `Owned`
                // token exists any more.
                let node_word = mem.local(NODE);
                let pred_word = mem.local(PREDS + l);
                let succ = mem.local(SUCCS + l);
                let node = g_node.assume_protected::<SkipNode>(node_word);
                let cur_next = TaggedPtr::from_word(node.read(&mut mem, NODE_NEXT0 + l as u64)?);
                if cur_next.marked() {
                    // Deleted while inserting; the deleter unlinks.
                    return Ok(Step::Done(1));
                }
                if cur_next.word() != succ {
                    // Refresh the tower pointer before linking.
                    let _ = node.link::<SkipNode>(NODE_NEXT0 + l as u64).cas_word(
                        &mut mem,
                        cur_next.word(),
                        succ,
                    )?;
                    return Ok(Step::Continue);
                }
                // Same marked-successor guard as the bottom level (see
                // P_INS_BOTTOM); checked atomically with the link CAS.
                let succ_sh = g_curr[l].assume_protected::<SkipNode>(succ);
                let succ_state =
                    TaggedPtr::from_word(succ_sh.read(&mut mem, NODE_NEXT0 + l as u64)?);
                if succ_state.marked() {
                    mem.set_local(CONT, P_INS_UPPER);
                    mem.set_local(PHASE, P_SEARCH_START);
                    return Ok(Step::Continue);
                }
                let pred = g_pred[l].assume_protected::<SkipNode>(pred_word);
                match pred
                    .link::<SkipNode>(NODE_NEXT0 + l as u64)
                    .cas_word(&mut mem, succ, node_word)?
                {
                    Ok(_prev) => {
                        mem.set_local(INS_LVL, l as u64 + 1);
                        Ok(Step::Continue)
                    }
                    Err(_actual) => {
                        // Stale predecessor: refresh preds/succs and retry
                        // this level. The continuation must come back HERE —
                        // re-entering P_INS_CHECK would find our own linked
                        // node and retire it (a linked-node free).
                        mem.set_local(CONT, P_INS_UPPER);
                        mem.set_local(PHASE, P_SEARCH_START);
                        Ok(Step::Continue)
                    }
                }
            }
            other => unreachable!("insert phase {other}"),
        }
    }
}

/// Body of `delete(key)`: 1 if this thread removed the key.
pub fn delete_body(
    shape: SkipShape,
    key: u64,
) -> impl FnMut(&mut dyn OpMem, &mut Cpu) -> Result<Step, Abort> + Send + 'static {
    assert!(key > 0 && key < u64::MAX, "key range");
    move |m, cpu| {
        let mut mem = Mem::new(m, cpu);
        let mut guards = GuardPool::new(guard_requirement());
        let (mut g_pred, mut g_curr, mut g_work, mut g_node) = take_guards(&mut guards);
        let phase = mem.local(PHASE);
        match phase {
            P_SEARCH_START | P_SEARCH_STEP => {
                if phase == P_SEARCH_START && mem.local(CONT) == 0 {
                    mem.set_local(CONT, P_DEL_CHECK);
                }
                search_step(shape, key, &mut mem, &mut g_pred, &mut g_curr, &mut g_work)
            }
            P_DEL_CHECK => {
                if mem.local(CKEY) != key {
                    return Ok(Step::Done(0));
                }
                let node_word = mem.local(SUCCS);
                let node = g_curr[0].assume_protected::<SkipNode>(node_word);
                let h = node.read(&mut mem, NODE_LEVEL)?;
                // Pin the victim for the rest of the operation (it is
                // still covered by the search's bottom-level guard).
                let _ = g_node.shield::<SkipNode>(&mut mem, node_word);
                mem.set_local(NODE, node_word);
                mem.set_local(TOPLVL, h);
                mem.set_local(MARK_LVL, h - 1);
                mem.set_local(
                    PHASE,
                    if h > 1 {
                        P_DEL_MARK_UPPER
                    } else {
                        P_DEL_MARK_BOTTOM
                    },
                );
                Ok(Step::Continue)
            }
            P_DEL_MARK_UPPER => {
                let l = mem.local(MARK_LVL);
                debug_assert!(l >= 1);
                let node = g_node.assume_protected::<SkipNode>(mem.local(NODE));
                let next = TaggedPtr::from_word(node.read(&mut mem, NODE_NEXT0 + l)?);
                let advanced = if next.marked() {
                    true
                } else {
                    // A mark is a tag flip in place — `cas_word`, never an
                    // unlink.
                    node.link::<SkipNode>(NODE_NEXT0 + l)
                        .cas_word(&mut mem, next.word(), next.with_mark(true).word())?
                        .is_ok()
                };
                if advanced {
                    if l == 1 {
                        mem.set_local(PHASE, P_DEL_MARK_BOTTOM);
                    } else {
                        mem.set_local(MARK_LVL, l - 1);
                    }
                }
                Ok(Step::Continue)
            }
            P_DEL_MARK_BOTTOM => {
                let node = g_node.assume_protected::<SkipNode>(mem.local(NODE));
                let next = TaggedPtr::from_word(node.read(&mut mem, NODE_NEXT0)?);
                if next.marked() {
                    // Another deleter won the bottom mark and owns the node.
                    return Ok(Step::Done(0));
                }
                match node.link::<SkipNode>(NODE_NEXT0).cas_word(
                    &mut mem,
                    next.word(),
                    next.with_mark(true).word(),
                )? {
                    Ok(_prev) => {
                        // We own the deletion: snip everywhere via a
                        // cleanup search, then retire.
                        mem.set_local(CONT, P_DEL_CLEANUP_DONE);
                        mem.set_local(PHASE, P_SEARCH_START);
                        Ok(Step::Continue)
                    }
                    Err(_actual) => Ok(Step::Continue),
                }
            }
            P_DEL_CLEANUP_DONE => {
                // This operation won the bottom-level mark CAS (sole
                // ownership) and its cleanup search confirmed the node is
                // unlinked from every level — the audited premises of
                // `assume_unlinked`.
                let unlinked = Unlinked::<SkipNode>::assume_unlinked(mem.local(NODE));
                unlinked.retire(&mut mem)?;
                Ok(Step::Done(1))
            }
            other => unreachable!("delete phase {other}"),
        }
    }
}

/// High-level skip-list handle.
#[derive(Debug)]
pub struct SkipList {
    shape: SkipShape,
    heap: Arc<Heap>,
}

impl SkipList {
    /// Creates an empty skip list on `heap`.
    pub fn new(heap: Arc<Heap>) -> Self {
        let shape = SkipShape::new_untimed(&heap);
        Self { shape, heap }
    }

    /// The copyable shape.
    pub fn shape(&self) -> SkipShape {
        self.shape
    }

    /// The heap this skip list lives on.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// Membership test through a scheme executor.
    pub fn contains(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, key: u64) -> bool {
        let mut body = contains_body(self.shape, key);
        th.run_op(cpu, OP_CONTAINS, SKIP_SLOTS, &mut body) == 1
    }

    /// Insert through a scheme executor.
    pub fn insert(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, key: u64) -> bool {
        let mut body = insert_body(self.shape, key);
        th.run_op(cpu, OP_INSERT, SKIP_SLOTS, &mut body) == 1
    }

    /// Delete through a scheme executor.
    pub fn delete(&self, th: &mut dyn SchemeThread, cpu: &mut Cpu, key: u64) -> bool {
        let mut body = delete_body(self.shape, key);
        th.run_op(cpu, OP_DELETE, SKIP_SLOTS, &mut body) == 1
    }

    /// Keys currently present (untimed snapshot).
    pub fn collect_keys(&self) -> Vec<u64> {
        self.shape.collect_keys_untimed(&self.heap)
    }

    /// Structural invariant check.
    pub fn check_invariants(&self) {
        self.shape.check_invariants_untimed(&self.heap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{all_scheme_factories, test_cpu};
    use st_reclaim::Scheme;

    #[test]
    fn guard_declaration_order_matches_scheme_slots() {
        // The per-level guard arrays must land on the same scheme slots
        // the raw code used: `pred[l] = l`, `curr[l] = MAX_LEVEL + l`,
        // then the work and node guards — the declaration-order contract
        // `take_guards` relies on for byte-identical lowering.
        let mut pool = GuardPool::new(guard_requirement());
        let (pred, curr, work, node) = take_guards(&mut pool);
        for l in 0..MAX_LEVEL {
            assert_eq!(pred[l].index(), l);
            assert_eq!(curr[l].index(), MAX_LEVEL + l);
        }
        assert_eq!(work.index(), 2 * MAX_LEVEL);
        assert_eq!(node.index(), 2 * MAX_LEVEL + 1);
        assert_eq!(SKIP_GUARDS, 2 * MAX_LEVEL + 2);
    }

    #[test]
    fn untimed_population_is_sound() {
        let (_, heap) = all_scheme_factories(Scheme::None, 1);
        let shape = SkipShape::new_untimed(&heap);
        let mut rng = Pcg32::new(7);
        for k in 1..=200u64 {
            assert!(shape.insert_untimed(&heap, k * 3, &mut rng));
        }
        assert!(!shape.insert_untimed(&heap, 3, &mut rng));
        let keys = shape.collect_keys_untimed(&heap);
        assert_eq!(keys.len(), 200);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        shape.check_invariants_untimed(&heap);
    }

    #[test]
    fn random_levels_are_geometric() {
        let mut rng = Pcg32::new(42);
        let mut counts = [0u32; MAX_LEVEL + 1];
        for _ in 0..10_000 {
            counts[SkipShape::random_level(&mut rng)] += 1;
        }
        assert!(counts[1] > 4_000 && counts[1] < 6_000, "p=1/2 geometric");
        assert!(counts[2] > 1_800 && counts[2] < 3_200);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn set_semantics_under_every_scheme() {
        for scheme in Scheme::all() {
            let (factory, heap) = all_scheme_factories(scheme, 1);
            let sl = SkipList::new(heap);
            let mut th = factory.thread(0);
            let mut cpu = test_cpu(0);

            for k in [10u64, 4, 77, 30, 55] {
                assert!(sl.insert(th.as_mut(), &mut cpu, k), "{scheme:?} {k}");
            }
            assert!(!sl.insert(th.as_mut(), &mut cpu, 30), "{scheme:?} dup");
            for k in [10u64, 4, 77, 30, 55] {
                assert!(sl.contains(th.as_mut(), &mut cpu, k), "{scheme:?} {k}");
            }
            assert!(!sl.contains(th.as_mut(), &mut cpu, 31), "{scheme:?}");
            assert!(sl.delete(th.as_mut(), &mut cpu, 30), "{scheme:?}");
            assert!(!sl.delete(th.as_mut(), &mut cpu, 30), "{scheme:?} gone");
            assert_eq!(sl.collect_keys(), vec![4, 10, 55, 77], "{scheme:?}");
            sl.check_invariants();
            th.teardown(&mut cpu);
        }
    }

    #[test]
    fn towers_are_fully_unlinked_and_reclaimed() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let sl = SkipList::new(heap.clone());
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        let live_before = heap.stats().alloc.live_objects;
        for k in 1..=60u64 {
            assert!(sl.insert(th.as_mut(), &mut cpu, k));
        }
        for k in 1..=60u64 {
            assert!(sl.delete(th.as_mut(), &mut cpu, k));
        }
        sl.check_invariants();
        th.teardown(&mut cpu);
        assert_eq!(
            heap.stats().alloc.live_objects,
            live_before,
            "every tower reclaimed"
        );
    }

    #[test]
    fn interleaved_insert_delete_stays_sound() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 2);
        let sl = SkipList::new(heap);
        let mut a = factory.thread(0);
        let mut b = factory.thread(1);
        let mut cpu_a = test_cpu(0);
        let mut cpu_b = test_cpu(1);
        let shape = sl.shape();

        for round in 0..25u64 {
            let ka = round % 12 + 1;
            let kb = round % 9 + 1;
            let mut body_a = insert_body(shape, ka);
            let mut body_b = delete_body(shape, kb);
            while a.idle_work_pending() {
                a.step_idle(&mut cpu_a);
            }
            while b.idle_work_pending() {
                b.step_idle(&mut cpu_b);
            }
            a.begin_op(&mut cpu_a, OP_INSERT, SKIP_SLOTS);
            b.begin_op(&mut cpu_b, OP_DELETE, SKIP_SLOTS);
            let (mut da, mut db) = (false, false);
            while !da || !db {
                if !da {
                    da = a.step_op(&mut cpu_a, &mut body_a).is_some();
                }
                if !db {
                    db = b.step_op(&mut cpu_b, &mut body_b).is_some();
                }
            }
            sl.check_invariants();
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use crate::testutil::{all_scheme_factories, test_cpu};
    use st_reclaim::Scheme;

    #[test]
    fn delete_absent_and_reinsert_cycles() {
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let sl = SkipList::new(heap);
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        assert!(!sl.delete(th.as_mut(), &mut cpu, 10), "absent");
        for _ in 0..10 {
            assert!(sl.insert(th.as_mut(), &mut cpu, 10));
            assert!(sl.contains(th.as_mut(), &mut cpu, 10));
            assert!(sl.delete(th.as_mut(), &mut cpu, 10));
            assert!(!sl.contains(th.as_mut(), &mut cpu, 10));
            sl.check_invariants();
        }
        th.teardown(&mut cpu);
    }

    #[test]
    fn boundary_keys() {
        let (factory, heap) = all_scheme_factories(Scheme::Epoch, 1);
        let sl = SkipList::new(heap);
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);

        assert!(sl.insert(th.as_mut(), &mut cpu, 1), "minimum key");
        assert!(
            sl.insert(th.as_mut(), &mut cpu, u64::MAX - 1),
            "maximum key"
        );
        assert!(sl.contains(th.as_mut(), &mut cpu, 1));
        assert!(sl.contains(th.as_mut(), &mut cpu, u64::MAX - 1));
        sl.check_invariants();
    }

    #[test]
    #[should_panic(expected = "key range")]
    fn sentinel_keys_rejected() {
        let _ = contains_body(
            SkipShape {
                head: Addr::from_index(1),
                tail: Addr::from_index(2),
            },
            u64::MAX,
        );
    }

    #[test]
    fn tall_towers_link_every_level() {
        // Force tall towers by repeated insertion; every unmarked node
        // reachable at level l must carry height > l (checked by
        // check_invariants), and deleting them unlinks all levels.
        let (factory, heap) = all_scheme_factories(Scheme::StackTrack, 1);
        let sl = SkipList::new(heap.clone());
        let mut th = factory.thread(0);
        let mut cpu = test_cpu(0);
        for k in 1..=256u64 {
            assert!(sl.insert(th.as_mut(), &mut cpu, k));
        }
        sl.check_invariants();
        // At least one tower above level 3 exists with high probability.
        let mut tall = 0;
        let mut cur = TaggedPtr::from_word(heap.peek(sl.shape().head, NODE_NEXT0 + 4));
        while !cur.is_null() && cur.addr() != sl.shape().tail {
            tall += 1;
            cur = TaggedPtr::from_word(heap.peek(cur.addr(), NODE_NEXT0 + 4));
        }
        assert!(tall > 0, "expected towers above level 4");
        for k in 1..=256u64 {
            assert!(sl.delete(th.as_mut(), &mut cpu, k));
        }
        sl.check_invariants();
    }
}
