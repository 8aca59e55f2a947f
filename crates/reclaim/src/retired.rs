//! Per-thread retired batches and the lock-free orphan stack.
//!
//! Retired blocks wait on an intrusive, owner-thread-only batch until a
//! cleanup pass drains the batch against a reservation snapshot
//! ([`crate::scan::ReservationSet`]) taken once per pass. When a thread
//! handle is dropped with blocks still pending, the leftover batch is pushed
//! onto the owning domain's [`OrphanStack`] — a lock-free Treiber stack of
//! whole batches — and the next live thread's cleanup pass *adopts* it, so
//! memory retired by exited threads is reclaimed while the domain is still
//! running instead of waiting for domain teardown.
//!
//! # Runs
//!
//! A batch is an *unjudged* list plus *runs*. Fresh retirements go on the
//! unjudged list. A pass judges each unjudged block once: it is freed, or it
//! joins the run of the pin that covers it
//! ([`ReservationSet::pinned_by`]). On the next pass a run whose pin
//! [`still_pins`](ReservationSet::still_pins) is kept without touching its
//! blocks; any other run is spliced back onto the unjudged list and its
//! blocks are judged again.
//!
//! Invariant: every block in a run is covered by the run's pin. Era stamps
//! never change after retirement, so when the pin still holds, the new
//! snapshot covers every block of the run and a full walk would have kept
//! each of them: skipping the run frees exactly what the full walk frees.
//! A pass therefore costs `O(blocks retired or re-opened since the last
//! pass + runs)` instead of `O(blocks on the batch)` — a stalled reader's
//! pinned blocks are paid for once, not on every pass. Runs are sorted by
//! pin, so placing a survivor is a binary search (usually skipped: the
//! previous survivor's run is tried first). Snapshots with no exact pin
//! (2GEIBR's intervals) never keep a run, which is the old full walk.
//!
//! A payload destructor that panics mid-pass leaves the batch consistent:
//! the unjudged suffix, the runs and `len` are restored on unwind, and the
//! block whose destructor panicked is gone for good (its memory is freed by
//! the block layer, its payload never dropped again).

use core::ptr;
use wfe_sync::atomic::{AtomicU64, Ordering};

use crate::block::{free_block, BlockHeader};
use crate::cache::{LocalBlockCache, ShardCache};
use crate::scan::ReservationSet;
use crate::stats::Counters;
use crate::treiber::TypeStableStack;

/// Kept blocks covered by one pin, linked through `next_retired`.
#[derive(Debug)]
struct Run {
    pin: u64,
    head: *mut BlockHeader,
    tail: *mut BlockHeader,
}

/// Owner-thread-only batch of retired blocks, linked through the block
/// header's `next_retired` field: an unjudged list plus runs keyed by pin
/// (see the [module docs](self)).
///
/// `retire` appends; every `cleanup_freq` retirements the owning handle
/// drains the batch against one reservation snapshot
/// ([`RetiredBatch::scan_against`]). Blocks that survive stay on the batch
/// for the next pass.
#[derive(Debug)]
pub struct RetiredBatch {
    /// Blocks not yet judged against a snapshot.
    unjudged: *mut BlockHeader,
    /// Last block of `unjudged` (null when it is empty).
    unjudged_tail: *mut BlockHeader,
    /// Blocks kept by earlier passes, grouped by pin, sorted by pin.
    runs: Vec<Run>,
    len: usize,
}

// SAFETY: the batch is owned by exactly one thread at a time; sending it
// (e.g. onto the orphan stack) transfers that ownership wholesale.
unsafe impl Send for RetiredBatch {}

impl RetiredBatch {
    /// Creates an empty batch.
    pub const fn new() -> Self {
        Self {
            unjudged: ptr::null_mut(),
            unjudged_tail: ptr::null_mut(),
            runs: Vec::new(),
            len: 0,
        }
    }

    /// Number of blocks currently parked on the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pushes a retired block.
    ///
    /// # Safety
    ///
    /// `block` must be a valid, retired, unreachable block owned by the caller
    /// and not present on any other batch.
    pub unsafe fn push(&mut self, block: *mut BlockHeader) {
        // SAFETY: the caller owns `block`, so the intrusive link is ours to
        // write; no other thread can reach a retired, unreachable block.
        unsafe { (*block).next_retired = self.unjudged };
        if self.unjudged.is_null() {
            self.unjudged_tail = block;
        }
        self.unjudged = block;
        self.len += 1;
    }

    /// Index of the run for `pin`, inserting an empty one if needed. `hint`
    /// is the previous answer: consecutive survivors usually share a pin.
    fn run_index(&mut self, pin: u64, hint: &mut usize) -> usize {
        let index = match self.runs.get(*hint) {
            Some(run) if run.pin == pin => *hint,
            _ => match self.runs.binary_search_by_key(&pin, |run| run.pin) {
                Ok(index) => index,
                Err(index) => {
                    self.runs.insert(
                        index,
                        Run {
                            pin,
                            head: ptr::null_mut(),
                            tail: ptr::null_mut(),
                        },
                    );
                    index
                }
            },
        };
        *hint = index;
        index
    }

    /// Splices the list `head..=tail` onto the run for `pin`.
    ///
    /// # Safety
    ///
    /// The list must be owned by this batch, linked through `next_retired`,
    /// with every block covered by `pin` (the run invariant).
    unsafe fn splice_into_run(
        &mut self,
        pin: u64,
        head: *mut BlockHeader,
        tail: *mut BlockHeader,
        hint: &mut usize,
    ) {
        let index = self.run_index(pin, hint);
        let run = &mut self.runs[index];
        // SAFETY: `tail` is owned by this batch (caller contract), so its
        // intrusive link is ours to write.
        unsafe { (*tail).next_retired = run.head };
        if run.tail.is_null() {
            run.tail = tail;
        }
        run.head = head;
    }

    /// Drains the batch against a reservation snapshot: every block the
    /// snapshot does not cover is freed, the rest are kept for the next pass.
    /// Returns the number of blocks freed.
    ///
    /// This is the batch scan protocol: the caller takes the snapshot **once**
    /// (after every block in the batch has been retired — for adopted batches,
    /// after popping them from the orphan stack) and the per-block test runs
    /// against the snapshot without touching shared memory. Runs whose pin
    /// still holds are kept whole; only unjudged blocks and the blocks of
    /// re-opened runs are judged (see the [module docs](self)).
    ///
    /// Freed class blocks are routed into `local` (the scanning thread's
    /// private magazine) first, spilling into `shard` (its home-shard cache)
    /// when the magazine fills; with neither, blocks free straight to the
    /// allocator.
    ///
    /// If a payload destructor panics, the batch keeps every block not yet
    /// freed and the panic propagates; the next pass resumes.
    ///
    /// # Safety
    ///
    /// `snapshot` must have been filled from the domain's reservation tables
    /// *after* every block on this batch was retired, so that any reservation
    /// still protecting a block is visible in it. Every run on the batch must
    /// have been formed against snapshots of the same domain.
    pub unsafe fn scan_against<S: ReservationSet>(
        &mut self,
        snapshot: &S,
        mut local: Option<&mut LocalBlockCache>,
        shard: Option<&ShardCache>,
    ) -> usize {
        let cursor = core::mem::replace(&mut self.unjudged, ptr::null_mut());
        self.unjudged_tail = ptr::null_mut();
        let mut scan = Scan {
            batch: self,
            cursor,
            freed: 0,
        };
        let Scan { batch, cursor, .. } = &mut scan;
        batch.runs.retain(|run| {
            if snapshot.still_pins(run.pin) {
                return true;
            }
            // SAFETY: the run's blocks are owned by this batch; re-opening
            // it links its tail to the unjudged blocks.
            unsafe { (*run.tail).next_retired = *cursor };
            *cursor = run.head;
            false
        });
        let mut hint = 0;
        while !scan.cursor.is_null() {
            let block = scan.cursor;
            // SAFETY: every block on the batch is owned by this batch (push
            // contract), so the header and its intrusive link are valid and
            // exclusively ours. The cursor moves past the block before it is
            // freed or linked elsewhere.
            scan.cursor = unsafe { (*block).next_retired };
            // SAFETY: as above — the header is valid.
            match snapshot.pinned_by(unsafe { &*block }) {
                // SAFETY: `pin` covers `block`, so the run invariant holds.
                Some(pin) => unsafe { scan.batch.splice_into_run(pin, block, block, &mut hint) },
                None => {
                    // Counted before the destructor runs: a panicking
                    // destructor must not leave the block on the batch.
                    scan.freed += 1;
                    // SAFETY: a block the snapshot does not cover is — per
                    // the caller's snapshot-freshness contract — unprotected
                    // and unreachable, and it left the batch above, so
                    // `free_block` frees it exactly once.
                    unsafe { free_block(block, local.as_deref_mut(), shard) };
                }
            }
        }
        scan.freed
    }

    /// Unconditionally frees every block on the batch. Returns the count.
    ///
    /// If a payload destructor panics, the remaining blocks are still freed
    /// while the panic unwinds (a second panic aborts, as in std's
    /// collections).
    ///
    /// # Safety
    ///
    /// No thread may still hold or acquire references to any block on the
    /// batch (e.g. the owning domain is being dropped).
    pub unsafe fn free_all(&mut self) -> usize {
        let freed = core::mem::replace(&mut self.len, 0);
        let mut list = FreeList(self.take_list());
        // SAFETY: forwarded contract — no thread can still reach these
        // blocks, and they left the batch above.
        unsafe { list.free() };
        freed
    }

    /// Unlinks every block (unjudged and runs) as one list, leaving the
    /// batch empty apart from `len`.
    fn take_list(&mut self) -> *mut BlockHeader {
        let mut head = core::mem::replace(&mut self.unjudged, ptr::null_mut());
        self.unjudged_tail = ptr::null_mut();
        for run in self.runs.drain(..) {
            // SAFETY: the run's blocks are owned by this batch.
            unsafe { (*run.tail).next_retired = head };
            head = run.head;
        }
        head
    }

    /// Moves every block from `other` onto `self`: its unjudged list and
    /// each of its runs are spliced in whole.
    pub fn append(&mut self, other: &mut RetiredBatch) {
        if !other.unjudged.is_null() {
            // SAFETY: both batches are exclusively borrowed, so every
            // intrusive link they own is valid and unaliased.
            unsafe { (*other.unjudged_tail).next_retired = self.unjudged };
            if self.unjudged.is_null() {
                self.unjudged_tail = other.unjudged_tail;
            }
            self.unjudged = core::mem::replace(&mut other.unjudged, ptr::null_mut());
            other.unjudged_tail = ptr::null_mut();
        }
        if self.runs.is_empty() {
            core::mem::swap(&mut self.runs, &mut other.runs);
        } else {
            let mut hint = 0;
            for run in other.runs.drain(..) {
                // SAFETY: the run moves to `self` whole and keeps its pin,
                // so the run invariant carries over.
                unsafe { self.splice_into_run(run.pin, run.head, run.tail, &mut hint) };
            }
        }
        self.len += core::mem::replace(&mut other.len, 0);
    }

    /// Takes the whole batch, runs included, leaving `self` empty.
    pub fn take(&mut self) -> RetiredBatch {
        core::mem::take(self)
    }
}

impl Default for RetiredBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for RetiredBatch {
    fn drop(&mut self) {
        // Skipped while unwinding: a second panic would abort the process.
        if !std::thread::panicking() {
            debug_assert!(
                self.is_empty(),
                "RetiredBatch dropped with {} blocks still pending; \
                 they must be pushed onto an orphan stack or freed first",
                self.len
            );
        }
    }
}

/// One judging pass over a batch. Dropped at the end of
/// [`RetiredBatch::scan_against`] — also when a payload destructor unwinds —
/// it puts the unjudged suffix back and accounts for the freed blocks.
struct Scan<'a> {
    batch: &'a mut RetiredBatch,
    /// Blocks not yet judged by this pass.
    cursor: *mut BlockHeader,
    freed: usize,
}

impl Drop for Scan<'_> {
    fn drop(&mut self) {
        let mut tail = self.cursor;
        // SAFETY: the suffix is owned by the batch. Empty unless a
        // destructor unwound, so the walk runs only on that cold path.
        unsafe {
            while !tail.is_null() && !(*tail).next_retired.is_null() {
                tail = (*tail).next_retired;
            }
        }
        self.batch.unjudged = self.cursor;
        self.batch.unjudged_tail = tail;
        self.batch.len -= self.freed;
    }
}

/// A detached list of blocks to free. [`free`](Self::free) walks it; if a
/// payload destructor unwinds, `Drop` frees the rest.
struct FreeList(*mut BlockHeader);

impl FreeList {
    /// # Safety
    ///
    /// No thread may still reach any block on the list.
    unsafe fn free(&mut self) {
        while !self.0.is_null() {
            let block = self.0;
            // SAFETY: the list owns its blocks (caller contract); the head
            // moves past `block` before it is freed exactly once.
            unsafe {
                self.0 = (*block).next_retired;
                free_block(block, None, None);
            }
        }
    }
}

impl Drop for FreeList {
    fn drop(&mut self) {
        // SAFETY: only non-empty after `free` unwound, whose contract then
        // still holds for the rest of the list.
        unsafe { self.free() }
    }
}

/// One cleanup pass of the batch scan protocol, shared by every scheme's
/// handle: pop an orphaned batch (if any), take the reservation snapshot once
/// via `fill`, then drain the own batch and the adopted batch against that
/// single snapshot, crediting `counters` (frees and adoption).
///
/// The orphan batch is popped *before* `fill` runs so that every adopted
/// block was retired before the snapshot's loads — the batch scan safety
/// condition. Adopted survivors, runs included, are merged into `retired`
/// and rescanned on the owner's next pass — also when a payload destructor
/// unwinds out of the pass. Freed class blocks land on `local` (the scanning
/// thread's private magazine), spilling into `shard` (its home-shard block
/// cache) when the magazine fills; the magazine's hit/miss tallies are
/// flushed to the shard at the end of the pass, so domain-level stats lag by
/// at most one cleanup interval.
///
/// # Safety
///
/// Same contract as [`RetiredBatch::scan_against`]: `fill` must fill
/// `snapshot` from the domain's reservation tables such that any reservation
/// still protecting a block on `retired` (or on the popped orphan batch) is
/// visible in it.
pub unsafe fn cleanup_pass<S: ReservationSet>(
    retired: &mut RetiredBatch,
    orphans: &OrphanStack,
    counters: &Counters,
    snapshot: &mut S,
    mut local: Option<&mut LocalBlockCache>,
    shard: Option<&ShardCache>,
    fill: impl FnOnce(&mut S),
) {
    let adopted = orphans.pop();
    let mut pass = Pass {
        own_len: retired.len(),
        adopted_len: adopted.as_ref().map_or(0, RetiredBatch::len),
        retired,
        adopted,
        counters,
    };
    fill(snapshot);
    // SAFETY: `fill` ran after every block on `retired` was retired and after
    // the orphan batch was popped, so the snapshot-freshness contract of
    // `scan_against` holds for both batches (the caller's obligation).
    unsafe {
        pass.retired
            .scan_against(snapshot, local.as_deref_mut(), shard)
    };
    if let Some(batch) = pass.adopted.as_mut() {
        // SAFETY: as above — the snapshot was taken after the pop.
        unsafe { batch.scan_against(snapshot, local.as_deref_mut(), shard) };
    }
    drop(pass);
    if let (Some(local), Some(shard)) = (local, shard) {
        local.flush_stats(shard);
    }
}

/// The state of one [`cleanup_pass`]. Dropped at its end — also when a
/// payload destructor unwinds — it credits the frees and merges the adopted
/// batch into the owner's, so a popped orphan batch is never lost.
struct Pass<'a> {
    retired: &'a mut RetiredBatch,
    adopted: Option<RetiredBatch>,
    counters: &'a Counters,
    own_len: usize,
    adopted_len: usize,
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        let freed = self.own_len - self.retired.len();
        self.counters.on_free(freed as u64);
        if let Some(mut batch) = self.adopted.take() {
            let freed = self.adopted_len - batch.len();
            self.counters.on_free(freed as u64);
            self.counters.on_adoption(freed as u64);
            self.retired.append(&mut batch);
        }
    }
}

/// Lock-free Treiber stack of whole retired batches abandoned by exited
/// threads.
///
/// A dropping handle [`push`](Self::push)es its leftover batch; any live
/// thread's cleanup pass [`pop`](Self::pop)s one batch and adopts it (scans
/// it against its freshly taken reservation snapshot and keeps the
/// survivors). The stack itself is a `TypeStableStack` — versioned
/// wide-CAS ends, recycled nodes — so it is lock-free and ABA-safe; whatever
/// is still parked when the domain drops is freed by
/// [`free_all`](Self::free_all).
pub struct OrphanStack {
    stack: TypeStableStack<RetiredBatch>,
    /// Blocks currently parked (approximate between operations, exact when
    /// quiescent); used by stats and tests.
    blocks: AtomicU64,
}

impl OrphanStack {
    /// Creates an empty orphan stack.
    pub fn new() -> Self {
        Self {
            stack: TypeStableStack::new(),
            blocks: AtomicU64::new(0),
        }
    }

    /// Number of orphaned blocks currently parked.
    pub fn len(&self) -> usize {
        self.blocks.load(Ordering::Acquire) as usize // ORDER: gauge read; pairs with the AcqRel park/adopt updates.
    }

    /// Whether no blocks are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parks `batch` on the stack (no-op for an empty batch).
    pub fn push(&self, batch: RetiredBatch) {
        if batch.is_empty() {
            return;
        }
        self.blocks.fetch_add(batch.len() as u64, Ordering::AcqRel); // ORDER: keeps the gauge ordered with the batch push it mirrors.
        self.stack.push(batch);
    }

    /// Pops one parked batch for adoption, if any.
    ///
    /// The caller must take its reservation snapshot **after** this returns,
    /// so that any reservation still protecting an adopted block is observed
    /// by the snapshot.
    pub fn pop(&self) -> Option<RetiredBatch> {
        // Opportunistic empty check: the common no-orphans cleanup pass must
        // not pay a wide-CAS RMW on the shared head line. A batch whose push
        // is in flight may be missed — adoption is opportunistic, the next
        // pass will see it.
        // ORDER: opportunistic empty check; a missed in-flight push is adopted next pass.
        if self.blocks.load(Ordering::Acquire) == 0 {
            return None;
        }
        let batch = self.stack.pop()?;
        self.blocks.fetch_sub(batch.len() as u64, Ordering::AcqRel); // ORDER: keeps the gauge ordered with the batch pop it mirrors.
        Some(batch)
    }

    /// Frees every parked block. Returns the count.
    ///
    /// # Safety
    ///
    /// Callable only when no thread can still reach the orphaned blocks
    /// (typically from the domain's `Drop`).
    ///
    /// If a payload destructor panics, the remaining batches are still freed
    /// while the panic unwinds.
    pub unsafe fn free_all(&self) -> usize {
        /// Frees whatever is still parked if a destructor unwinds.
        struct Rest<'a>(&'a OrphanStack);
        impl Drop for Rest<'_> {
            fn drop(&mut self) {
                while let Some(mut batch) = self.0.pop() {
                    // SAFETY: `free_all`'s contract, still in force.
                    unsafe { batch.free_all() };
                }
            }
        }
        let rest = Rest(self);
        let mut freed = 0usize;
        while let Some(mut batch) = self.pop() {
            // SAFETY: forwarded contract — no thread can reach these blocks.
            freed += unsafe { batch.free_all() };
        }
        drop(rest);
        freed
    }
}

impl Default for OrphanStack {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for OrphanStack {
    fn drop(&mut self) {
        debug_assert!(
            self.is_empty(),
            "OrphanStack dropped with {} blocks still parked; \
             the owning domain must call free_all() first",
            self.len()
        );
        // The inner stack deallocates its type-stable nodes.
    }
}

impl core::fmt::Debug for OrphanStack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OrphanStack")
            .field("blocks", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Linked;
    use crate::scan::{EraSnapshot, HazardSnapshot};
    use std::sync::Arc;
    use wfe_sync::atomic::{AtomicUsize, Ordering::SeqCst};

    struct Canary(Arc<AtomicUsize>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    fn make(drops: &Arc<AtomicUsize>) -> *mut BlockHeader {
        Linked::as_header(Linked::alloc(Canary(drops.clone()), 0))
    }

    #[test]
    fn push_scan_keep_and_free() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        let a = make(&drops);
        let b = make(&drops);
        let c = make(&drops);
        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
        unsafe {
            batch.push(a);
            batch.push(b);
            batch.push(c);
        }
        assert_eq!(batch.len(), 3);
        // Snapshot covering `a` and `c`: only `b` may be freed.
        let mut snap = HazardSnapshot::new();
        snap.insert(a as usize);
        snap.insert(c as usize);
        snap.seal();
        // SAFETY: the snapshot was filled after every push; nothing else references
        // the blocks.
        let freed = unsafe { batch.scan_against(&snap, None, None) };
        assert_eq!(freed, 1);
        assert_eq!(batch.len(), 2);
        assert_eq!(drops.load(SeqCst), 1);
        // SAFETY: no other thread references the batch's blocks.
        let freed = unsafe { batch.free_all() };
        assert_eq!(freed, 2);
        assert_eq!(drops.load(SeqCst), 3);
        assert!(batch.is_empty());
    }

    fn make_stamped(drops: &Arc<AtomicUsize>, alloc_era: u64, retire_era: u64) -> *mut BlockHeader {
        let block = Linked::as_header(Linked::alloc(Canary(drops.clone()), alloc_era));
        // SAFETY: freshly allocated and owned by the test.
        unsafe { (*block).retire_era.store(retire_era, SeqCst) };
        block
    }

    fn era_snapshot(eras: &[u64]) -> EraSnapshot {
        let mut snap = EraSnapshot::new();
        eras.iter().for_each(|&era| snap.insert(era));
        snap.seal();
        snap
    }

    #[test]
    fn runs_are_kept_whole_while_their_pin_holds() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
        unsafe {
            for _ in 0..3 {
                batch.push(make_stamped(&drops, 5, 15)); // era 10 pins these
            }
            batch.push(make_stamped(&drops, 11, 20)); // era 20 pins this one
            batch.push(make_stamped(&drops, 21, 30)); // nothing pins this one
        }
        let both = era_snapshot(&[10, 20]);
        // SAFETY: every snapshot below is taken after the pushes; nothing
        // else references the blocks.
        unsafe {
            assert_eq!(batch.scan_against(&both, None, None), 1);
            assert_eq!(batch.runs.len(), 2, "one run per pin");
            assert!(batch.unjudged.is_null());
            assert_eq!(batch.scan_against(&both, None, None), 0, "kept whole");
            assert_eq!(batch.scan_against(&era_snapshot(&[10]), None, None), 1);
            assert_eq!(drops.load(SeqCst), 2);
            assert_eq!(batch.runs.len(), 1);
            assert_eq!(batch.scan_against(&era_snapshot(&[]), None, None), 3);
            assert!(batch.runs.is_empty() && batch.is_empty());
        }
        assert_eq!(drops.load(SeqCst), 5);
    }

    #[test]
    fn append_merges_runs_with_equal_pins() {
        let drops = Arc::new(AtomicUsize::new(0));
        let snap = era_snapshot(&[10, 40]);
        let mut own = RetiredBatch::new();
        let mut adopted = RetiredBatch::new();
        // SAFETY: freshly allocated blocks owned by the test; each pushed
        // once; the snapshot covers the pushes' stamps and nothing else
        // references the blocks.
        unsafe {
            own.push(make_stamped(&drops, 5, 15));
            adopted.push(make_stamped(&drops, 8, 12));
            adopted.push(make_stamped(&drops, 35, 45));
            own.scan_against(&snap, None, None);
            adopted.scan_against(&snap, None, None);
            adopted.push(make_stamped(&drops, 1, 2)); // still unjudged
        }
        own.append(&mut adopted);
        assert!(adopted.is_empty() && adopted.runs.is_empty());
        assert_eq!(own.len(), 4);
        let pins: Vec<u64> = own.runs.iter().map(|run| run.pin).collect();
        assert_eq!(pins, [10, 40], "equal pins merged, sorted");
        // SAFETY: as above.
        unsafe {
            assert_eq!(own.scan_against(&era_snapshot(&[40]), None, None), 3);
            assert_eq!(own.free_all(), 1);
        }
        assert_eq!(drops.load(SeqCst), 4);
    }

    struct Bomb(Arc<AtomicUsize>, bool);
    impl Drop for Bomb {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
            if self.1 {
                panic!("Bomb: destructor panics on purpose");
            }
        }
    }

    #[test]
    fn panicking_destructor_leaves_the_batch_consistent() {
        let drops = Arc::new(AtomicUsize::new(0));
        let pinned_drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        let pinned = make_stamped(&pinned_drops, 5, 15);
        // SAFETY: freshly allocated blocks owned by the test; each pushed
        // once; every snapshot is taken after the pushes.
        unsafe {
            batch.push(pinned);
            batch.scan_against(&era_snapshot(&[10]), None, None);
            for i in 0..6 {
                let bomb = Linked::alloc(Bomb(drops.clone(), i == 2), 20);
                batch.push(Linked::as_header(bomb));
            }
        }
        let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: as above.
            unsafe { batch.scan_against(&era_snapshot(&[10]), None, None) }
        }));
        assert!(scan.is_err(), "the destructor's panic propagates");
        // LIFO: bombs 5, 4 and 3 were freed, bomb 2 panicked, 1 and 0 wait.
        assert_eq!(drops.load(SeqCst), 4);
        assert_eq!(batch.len(), 3, "the run and the unjudged suffix remain");
        assert_eq!(batch.runs.len(), 1);
        // SAFETY: as above.
        unsafe {
            assert_eq!(batch.scan_against(&era_snapshot(&[]), None, None), 3);
        }
        assert_eq!(drops.load(SeqCst), 6, "each bomb dropped exactly once");
        assert_eq!(pinned_drops.load(SeqCst), 1);
        assert!(batch.is_empty());
    }

    #[test]
    fn cleanup_pass_keeps_a_popped_orphan_batch_on_unwind() {
        let drops = Arc::new(AtomicUsize::new(0));
        let orphans = OrphanStack::new();
        let counters = Counters::new();
        let mut own = RetiredBatch::new();
        let mut orphan = RetiredBatch::new();
        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
        unsafe {
            own.push(make(&drops));
            for i in 0..4 {
                orphan.push(Linked::as_header(Linked::alloc(
                    Bomb(drops.clone(), i == 2),
                    0,
                )));
            }
        }
        orphans.push(orphan);
        let mut snap = HazardSnapshot::new();
        let pass = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: the snapshot is filled inside the pass, after the
            // pushes and the pop; nothing else references the blocks.
            unsafe {
                cleanup_pass(
                    &mut own,
                    &orphans,
                    &counters,
                    &mut snap,
                    None,
                    None,
                    HazardSnapshot::seal,
                )
            };
        }));
        assert!(pass.is_err(), "the adopted block's panic propagates");
        assert!(orphans.is_empty());
        // Own block freed; orphans 3 and 2 (the panicking one) freed; 1 and 0 merged.
        assert_eq!(own.len(), 2, "the adopted remainder was merged, not lost");
        let stats = counters.snapshot(0);
        assert_eq!(
            (stats.freed, stats.adopted_batches, stats.freed_via_adoption),
            (3, 1, 2)
        );
        // SAFETY: as above.
        unsafe {
            cleanup_pass(
                &mut own,
                &orphans,
                &counters,
                &mut snap,
                None,
                None,
                HazardSnapshot::seal,
            )
        };
        assert!(own.is_empty());
        assert_eq!(drops.load(SeqCst), 5, "every block dropped exactly once");
        assert_eq!(counters.snapshot(0).freed, 5);
    }

    #[test]
    fn free_all_frees_the_rest_past_a_panicking_destructor() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
        unsafe {
            for i in 0..5 {
                batch.push(Linked::as_header(Linked::alloc(
                    Bomb(drops.clone(), i == 3),
                    0,
                )));
            }
        }
        let freed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: nothing else references the batch's blocks.
            unsafe { batch.free_all() }
        }));
        assert!(freed.is_err());
        assert_eq!(drops.load(SeqCst), 5, "every block dropped exactly once");
        assert!(batch.is_empty());
    }

    #[test]
    fn scan_routes_freed_blocks_into_the_cache() {
        let drops = Arc::new(AtomicUsize::new(0));
        let caches = crate::cache::BlockCaches::new(
            &crate::cache::BlockCacheConfig {
                enabled: true,
                per_class_capacity: 8,
            },
            1,
        );
        let mut batch = RetiredBatch::new();
        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
        unsafe {
            batch.push(make(&drops));
            batch.push(make(&drops));
        }
        // An empty (sealed) snapshot covers nothing: everything is freeable.
        let mut snap = HazardSnapshot::new();
        snap.seal();
        // SAFETY: snapshot taken after the pushes; nothing else references them.
        let freed = unsafe { batch.scan_against(&snap, None, caches.shard(0)) };
        assert_eq!(freed, 2);
        assert_eq!(drops.load(SeqCst), 2, "payloads dropped");
        assert!(
            caches.shard(0).unwrap().cached_bytes() > 0,
            "freed memory parked on the shard cache"
        );
    }

    #[test]
    fn append_moves_all_blocks() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut a_batch = RetiredBatch::new();
        let mut b_batch = RetiredBatch::new();
        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
        unsafe {
            a_batch.push(make(&drops));
            b_batch.push(make(&drops));
            b_batch.push(make(&drops));
        }
        a_batch.append(&mut b_batch);
        assert_eq!(a_batch.len(), 3);
        assert!(b_batch.is_empty());
        a_batch.append(&mut b_batch); // appending an empty batch is a no-op
        assert_eq!(a_batch.len(), 3);
        let taken = a_batch.take();
        assert!(a_batch.is_empty());
        let mut taken = taken;
        // SAFETY: no other thread references the batch's blocks.
        unsafe { taken.free_all() };
        assert_eq!(drops.load(SeqCst), 3);
    }

    #[test]
    fn orphan_stack_push_pop_is_lifo_batches() {
        let drops = Arc::new(AtomicUsize::new(0));
        let stack = OrphanStack::new();
        let mut first = RetiredBatch::new();
        let mut second = RetiredBatch::new();
        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
        unsafe {
            first.push(make(&drops));
            second.push(make(&drops));
            second.push(make(&drops));
        }
        stack.push(first);
        stack.push(second);
        assert_eq!(stack.len(), 3);
        let mut adopted = stack.pop().expect("a batch is parked");
        assert_eq!(adopted.len(), 2, "batches pop LIFO");
        assert_eq!(stack.len(), 1);
        // SAFETY: no other thread references the batch's blocks.
        unsafe { adopted.free_all() };
        // SAFETY: all pushes happened-before; nothing references the parked blocks.
        assert_eq!(unsafe { stack.free_all() }, 1);
        assert!(stack.is_empty());
        assert!(stack.pop().is_none());
        assert_eq!(drops.load(SeqCst), 3);
    }

    #[test]
    fn orphan_stack_recycles_nodes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let stack = OrphanStack::new();
        for _ in 0..10 {
            let mut batch = RetiredBatch::new();
            // SAFETY: freshly allocated blocks owned by the test; each pushed once.
            unsafe { batch.push(make(&drops)) };
            stack.push(batch);
            let mut adopted = stack.pop().unwrap();
            // SAFETY: no other thread references the batch's blocks.
            unsafe { adopted.free_all() };
        }
        assert!(stack.is_empty());
        assert_eq!(drops.load(SeqCst), 10);
    }

    #[test]
    fn empty_batch_push_is_a_noop() {
        let stack = OrphanStack::new();
        stack.push(RetiredBatch::new());
        assert!(stack.pop().is_none());
    }

    #[test]
    fn concurrent_push_pop_conserves_blocks() {
        const THREADS: usize = 4;
        const BATCHES: usize = 200;
        let drops = Arc::new(AtomicUsize::new(0));
        let stack = Arc::new(OrphanStack::new());
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let drops = Arc::clone(&drops);
                let stack = Arc::clone(&stack);
                scope.spawn(move || {
                    for i in 0..BATCHES {
                        let mut batch = RetiredBatch::new();
                        // SAFETY: freshly allocated blocks owned by the test; each pushed once.
                        unsafe {
                            batch.push(make(&drops));
                            batch.push(make(&drops));
                        }
                        stack.push(batch);
                        if i % 2 == 0 {
                            if let Some(mut adopted) = stack.pop() {
                                // SAFETY: no other thread references the batch's blocks.
                                unsafe { adopted.free_all() };
                            }
                        }
                    }
                });
            }
        });
        // SAFETY: all workers have joined; nothing references the parked blocks.
        let remaining = unsafe { stack.free_all() };
        assert!(stack.is_empty());
        assert_eq!(
            drops.load(SeqCst),
            THREADS * BATCHES * 2,
            "every block freed exactly once (popped {remaining} at teardown)"
        );
    }
}
