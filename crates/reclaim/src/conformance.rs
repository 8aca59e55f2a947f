//! Reusable conformance scenarios for reclamation schemes.
//!
//! Every scheme in the suite (the baselines here and WFE in `wfe-core`) must
//! behave identically through the [`Reclaimer`]/[`Handle`] API. The functions
//! in this module encode the behavioural contract once, so each scheme's test
//! module — and the integration tests — simply instantiate them. They are
//! compiled into the library (not `#[cfg(test)]`) precisely so that dependent
//! crates can reuse them.

use core::ptr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{Handle, RawHandle, Reclaimer, ReclaimerConfig};
use crate::block::{BlockHeader, Linked};
use crate::ptr::Atomic;
use crate::retired::RetiredBatch;
use crate::scan::ReservationSet;

/// A payload that counts its drops, used to prove blocks are really freed.
pub struct DropCounter {
    counter: Arc<AtomicUsize>,
}

impl DropCounter {
    /// Creates a counter handle; `counter` is incremented on drop.
    pub fn new(counter: &Arc<AtomicUsize>) -> Self {
        Self {
            counter: Arc::clone(counter),
        }
    }
}

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.counter.fetch_add(1, Ordering::SeqCst);
    }
}

/// A payload that counts its drop and then, if asked to, panics — used to
/// prove that a panicking destructor neither loses nor double-frees blocks.
pub struct PanicOnDrop {
    counter: Arc<AtomicUsize>,
    panics: bool,
}

impl PanicOnDrop {
    /// Creates a payload that increments `counter` on drop and then panics
    /// when `panics` is set.
    pub fn new(counter: &Arc<AtomicUsize>, panics: bool) -> Self {
        Self {
            counter: Arc::clone(counter),
            panics,
        }
    }
}

impl Drop for PanicOnDrop {
    fn drop(&mut self) {
        self.counter.fetch_add(1, Ordering::SeqCst);
        if self.panics {
            panic!("PanicOnDrop: this payload's destructor panics on purpose");
        }
    }
}

/// Node of the miniature Treiber stack used by the stress scenarios.
pub struct StackNode {
    next: *mut Linked<StackNode>,
    value: usize,
    _drops: Option<DropCounter>,
}

/// A miniature Treiber stack written directly against the raw SMR API.
///
/// This is intentionally the same shape as Figure 2 of the paper (the usage
/// example for Hazard Eras): `pop` protects the head with reservation index 0,
/// unlinks it with CAS and retires it.
pub struct MiniStack {
    head: Atomic<StackNode>,
}

impl MiniStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    /// Pushes `value` using `handle` for allocation.
    pub fn push<H: RawHandle>(&self, handle: &mut H, value: usize, drops: Option<DropCounter>) {
        let node = handle.alloc(StackNode {
            next: ptr::null_mut(),
            value,
            _drops: drops,
        });
        loop {
            let head = self.head.load(Ordering::Acquire); // ORDER: pairs with the AcqRel push/pop CASes on `head`.
                                                          // SAFETY: `node` is owned and unpublished until the CAS succeeds.
            unsafe { (*node).value.next = head };
            if self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the node (and its `next` write); failure observes the winner.
                .is_ok()
            {
                return;
            }
        }
    }

    /// Pops the top element, if any.
    pub fn pop<H: RawHandle>(&self, handle: &mut H) -> Option<usize> {
        handle.begin_op();
        let result = loop {
            let node = handle.protect(&self.head, 0, ptr::null_mut());
            if node.is_null() {
                break None;
            }
            // SAFETY: `node` is protected by reservation slot 0, so the read is valid.
            let next = unsafe { (*node).value.next };
            if self
                .head
                .compare_exchange(node, next, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the unlink; failure observes the winning pop/push.
                .is_ok()
            {
                // SAFETY: we won the unlink CAS; the node stays valid until retired readers
                // finish, and its value is ours.
                let value = unsafe { (*node).value.value };
                // SAFETY: the same CAS unlinked the node; it is retired exactly once.
                unsafe { handle.retire(node) };
                break Some(value);
            }
        };
        handle.end_op();
        result
    }

    /// Frees every node still in the stack (no concurrency allowed).
    pub fn drain(&self) -> usize {
        let mut count = 0;
        let mut cur = self.head.load(Ordering::Acquire); // ORDER: `drain` requires no concurrency; Acquire is more than enough.
        self.head.store(ptr::null_mut(), Ordering::Release); // ORDER: `drain` requires no concurrency; Release is more than enough.
        while !cur.is_null() {
            // SAFETY: `drain` requires no concurrency; every node is exclusively owned.
            let next = unsafe { (*cur).value.next };
            // SAFETY: as above — exclusive access, freed exactly once.
            unsafe { Linked::dealloc(cur) };
            cur = next;
            count += 1;
        }
        count
    }
}

impl Default for MiniStack {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MiniStack {
    fn drop(&mut self) {
        self.drain();
    }
}

/// A freshly created domain hands out distinct thread ids, allocates blocks
/// stamped with its era clock, and reclaims a retired block once nothing
/// protects it.
pub fn basic_lifecycle<R: Reclaimer>() {
    let domain = R::with_config(ReclaimerConfig::with_max_threads(4));
    let mut h1 = domain.register();
    let mut h2 = domain.register();
    assert_ne!(h1.thread_id(), h2.thread_id());
    assert!(h1.slots() >= 2);

    let node = h1.alloc(123u64);
    assert!(!node.is_null());
    // SAFETY: the block was just allocated and is owned by this thread.
    unsafe {
        assert_eq!((*node).value, 123);
    }
    let stats = domain.stats();
    assert_eq!(stats.allocated, 1);
    assert_eq!(stats.retired, 0);

    // SAFETY: the block was never published; it is trivially unreachable and
    // retired exactly once.
    unsafe { h1.retire(node) };
    assert_eq!(domain.stats().retired, 1);

    // Give bounded schemes every chance to reclaim; Leak legitimately won't.
    for _ in 0..4 {
        h1.force_cleanup();
        h2.force_cleanup();
    }
    let stats = domain.stats();
    assert!(stats.freed <= stats.retired);
    drop(h1);
    drop(h2);
}

/// While a reservation (or operation bracket) covers a block, a cleanup by the
/// retiring thread must not free it; dropping the protection releases it.
///
/// Skipped automatically for schemes that never reclaim (`Leak`).
pub fn protection_blocks_reclamation<R: Reclaimer>() {
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 1,
        era_freq: 1,
        ..ReclaimerConfig::with_max_threads(2)
    });
    let mut reader = domain.register();
    let mut writer = domain.register();

    let stack = MiniStack::new();
    stack.push(&mut writer, 1, None);

    // Reader protects the head node mid-operation and then stalls.
    reader.begin_op();
    let protected = reader.protect(&stack.head, 0, ptr::null_mut());
    assert!(!protected.is_null());

    // Writer pops (and thereby retires) that same node, then tries hard to
    // reclaim it.
    let popped = stack.pop(&mut writer);
    assert_eq!(popped, Some(1));
    for _ in 0..4 {
        writer.force_cleanup();
    }
    assert_eq!(
        domain.stats().unreclaimed,
        1,
        "a protected block must survive cleanup"
    );
    // The block is still readable.
    // SAFETY: the reader's reservation from slot 0 still pins the block.
    unsafe {
        assert_eq!((*protected).value.value, 1);
    }

    // Dropping the protection allows reclamation.
    reader.clear();
    reader.end_op();
    for _ in 0..4 {
        writer.force_cleanup();
    }
    assert_eq!(
        domain.stats().unreclaimed,
        0,
        "unprotected block is reclaimed"
    );
}

/// Every allocated block is eventually dropped exactly once: either reclaimed
/// during the run, freed by the stack's `Drop`, or released when the domain
/// is destroyed (orphans).
pub fn all_blocks_freed_on_drop<R: Reclaimer>() {
    const NODES: usize = 500;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let domain = R::with_config(ReclaimerConfig::with_max_threads(2));
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..NODES {
            stack.push(&mut handle, i, Some(DropCounter::new(&drops)));
        }
        // Pop half of them (these go through retire), leave the rest in the
        // stack (these are freed by MiniStack::drop).
        for _ in 0..NODES / 2 {
            stack.pop(&mut handle);
        }
        drop(stack);
        drop(handle);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        NODES,
        "every node dropped exactly once"
    );
}

/// Multi-threaded push/pop stress; checks value conservation and that no node
/// is dropped twice or leaked (drop counter equals allocation count).
pub fn concurrent_stack_stress<R: Reclaimer>(threads: usize, ops_per_thread: usize) {
    let drops = Arc::new(AtomicUsize::new(0));
    let pushed_sum = Arc::new(AtomicUsize::new(0));
    let popped_sum = Arc::new(AtomicUsize::new(0));
    let allocated = Arc::new(AtomicUsize::new(0));
    {
        let domain = R::with_config(ReclaimerConfig {
            cleanup_freq: 8,
            era_freq: 4,
            ..ReclaimerConfig::with_max_threads(threads)
        });
        let stack = MiniStack::new();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let domain = Arc::clone(&domain);
                let stack = &stack;
                let drops = Arc::clone(&drops);
                let pushed_sum = Arc::clone(&pushed_sum);
                let popped_sum = Arc::clone(&popped_sum);
                let allocated = Arc::clone(&allocated);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..ops_per_thread {
                        let value = t * ops_per_thread + i + 1;
                        if i % 2 == 0 {
                            stack.push(&mut handle, value, Some(DropCounter::new(&drops)));
                            pushed_sum.fetch_add(value, Ordering::Relaxed); // ORDER: oracle counter, checked after the threads join.
                            allocated.fetch_add(1, Ordering::Relaxed); // ORDER: oracle counter, checked after the threads join.
                        } else if let Some(v) = stack.pop(&mut handle) {
                            popped_sum.fetch_add(v, Ordering::Relaxed); // ORDER: oracle counter, checked after the threads join.
                        }
                    }
                });
            }
        });
        let in_stack: usize = {
            // Count and sum what's left before dropping everything.
            let mut sum = 0usize;
            let mut cur = stack.head.load(Ordering::Acquire); // ORDER: all workers joined; the stack is exclusively owned here.
            while !cur.is_null() {
                // SAFETY: all workers have joined; the stack is exclusively owned here.
                sum += unsafe { (*cur).value.value };
                // SAFETY: as above.
                cur = unsafe { (*cur).value.next };
            }
            sum
        };
        assert_eq!(
            pushed_sum.load(Ordering::Relaxed), // ORDER: oracle counter, checked after the threads join.
            popped_sum.load(Ordering::Relaxed) + in_stack, // ORDER: oracle counter, checked after the threads join.
            "every pushed value is either popped or still in the stack"
        );
        drop(stack);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        allocated.load(Ordering::SeqCst),
        "every allocated node dropped exactly once, none leaked, none double-freed"
    );
}

/// Orphan adoption: a handle dropped with pending retirements parks them on
/// the domain's orphan stack, and a *surviving* thread's next cleanup pass
/// adopts and frees them — before the domain is dropped.
///
/// `reclaims` is `false` for schemes that never run cleanup passes (`Leak`):
/// for those the scenario instead asserts the orphans survive untouched until
/// domain teardown.
pub fn orphan_adoption_reclaims_exited_threads_blocks<R: Reclaimer>(reclaims: bool) {
    const NODES: usize = 40;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let domain = R::with_config(ReclaimerConfig {
            // No automatic cleanup during the retire burst: the exiting
            // thread must leave with a non-empty batch.
            cleanup_freq: usize::MAX,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(3)
        });
        let mut survivor = domain.register();
        let mut reader = domain.register();
        let stack = MiniStack::new();
        {
            let mut exiting = domain.register();
            for i in 0..NODES {
                stack.push(&mut exiting, i, Some(DropCounter::new(&drops)));
            }
            // The reader pins the head (era/epoch schemes thereby pin every
            // block retired from here on; HP pins at least the head block).
            reader.begin_op();
            let protected = reader.protect(&stack.head, 0, ptr::null_mut());
            assert!(!protected.is_null());
            while stack.pop(&mut exiting).is_some() {}
            // The exiting thread's final cleanup cannot free the protected
            // block(s); the leftover batch is pushed onto the orphan stack.
            drop(exiting);
        }
        assert!(
            drops.load(Ordering::SeqCst) < NODES,
            "the reader's protection must orphan at least one block"
        );

        // Protection released: the surviving thread's cleanup pass must now
        // adopt the orphaned batch and free it.
        reader.clear();
        reader.end_op();
        survivor.force_cleanup();
        survivor.force_cleanup();

        let stats = domain.stats();
        if reclaims {
            assert!(
                stats.adopted_batches >= 1,
                "the survivor adopted the orphaned batch"
            );
            assert!(
                stats.freed_via_adoption >= 1,
                "adoption freed at least one orphaned block"
            );
            assert_eq!(
                drops.load(Ordering::SeqCst),
                NODES,
                "every retired block freed before domain drop"
            );
        } else {
            assert_eq!(
                stats.freed, 0,
                "a leaking scheme frees nothing while running"
            );
            assert_eq!(stats.adopted_batches, 0);
        }
        drop(stack);
        drop(reader);
        drop(survivor);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        NODES,
        "every node dropped exactly once"
    );
}

/// For schemes with bounded memory usage, the number of unreclaimed blocks
/// after a long single-threaded churn must stay below `bound`.
pub fn unreclaimed_is_bounded<R: Reclaimer>(bound: u64) {
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 16,
        era_freq: 8,
        ..ReclaimerConfig::with_max_threads(2)
    });
    let mut handle = domain.register();
    let stack = MiniStack::new();
    for i in 0..20_000 {
        stack.push(&mut handle, i, None);
        stack.pop(&mut handle);
    }
    let stats = domain.stats();
    assert!(
        stats.unreclaimed <= bound,
        "unreclaimed {} exceeds bound {}",
        stats.unreclaimed,
        bound
    );
    drop(stack);
    drop(handle);
}

/// How far one held reservation reaches under a scheme. It fixes the exact
/// set of blocks [`stalled_pin_then_release`] expects cleanup passes to keep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PinReach {
    /// Era schemes (HE, 2GEIBR, WFE): every block allocated before the
    /// reservation was published and retired after it.
    Lifespan,
    /// EBR: every block retired after the reader entered its operation.
    Epoch,
    /// HP: the protected block only.
    Pointer,
    /// Leak: nothing is freed while the domain lives.
    Never,
}

/// A stalled reader's held shield pins blocks across many cleanup passes,
/// then releases them.
///
/// The reader protects one of `OLD` blocks that were live when it published
/// its shield; the retirer retires all of them, then over `PASSES` passes
/// retires fresh blocks allocated after the publication. Every pass must
/// free exactly the unpinned retirees (per `reach`), checked by drop counts,
/// while the pinned ones sit in runs. Once the shield is released, one
/// `force_cleanup` drains the domain to zero.
///
/// With `drop_retirer`, the retiring handle is dropped while its runs exist:
/// its final pass cannot free them, the batch is orphaned runs and all, and
/// the surviving thread's single `force_cleanup` must adopt and drain it.
pub fn stalled_pin_then_release<R: Reclaimer>(reach: PinReach, drop_retirer: bool) {
    const OLD: usize = 16;
    const NEW_PER_PASS: usize = 8;
    const PASSES: usize = 4;
    let old_drops = Arc::new(AtomicUsize::new(0));
    let new_drops = Arc::new(AtomicUsize::new(0));
    {
        let domain = R::with_config(ReclaimerConfig {
            // Passes run only when forced; every allocation advances the
            // era, so blocks allocated after the publication are unpinned.
            cleanup_freq: usize::MAX,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(3)
        });
        let mut retirer = Some(domain.register());
        let mut survivor = domain.register();
        let mut reader = domain.register();
        let writer = retirer.as_mut().unwrap();
        let old: Vec<_> = (0..OLD)
            .map(|_| writer.alloc(DropCounter::new(&old_drops)))
            .collect();
        let root = Atomic::new(old[0]);
        let mut shield = reader.shield::<DropCounter>().expect("a free slot");
        let guard = reader.enter();
        let pinned = shield.protect(&guard, &root, None);
        assert_eq!(pinned.as_raw(), old[0]);
        root.store(ptr::null_mut(), Ordering::Release); // ORDER: single-threaded scenario; nothing pairs with it.
        for &block in &old {
            // SAFETY: unlinked above (or never published), retired once.
            unsafe { writer.retire(block) };
        }

        let kept_old = if reach == PinReach::Pointer { 1 } else { OLD };
        for pass in 1..=PASSES {
            for _ in 0..NEW_PER_PASS {
                let block = writer.alloc(DropCounter::new(&new_drops));
                // SAFETY: never published; retired exactly once.
                unsafe { writer.retire(block) };
            }
            writer.force_cleanup();
            let freed_new = match reach {
                PinReach::Lifespan | PinReach::Pointer => pass * NEW_PER_PASS,
                PinReach::Epoch | PinReach::Never => 0,
            };
            assert_eq!(
                old_drops.load(Ordering::SeqCst),
                OLD - kept_old,
                "pass {pass}: the pinned blocks survive, no other old block does"
            );
            assert_eq!(
                new_drops.load(Ordering::SeqCst),
                freed_new,
                "pass {pass}: exactly the unpinned new blocks are freed"
            );
        }
        // SAFETY: the held shield still pins the block.
        assert!(unsafe { pinned.as_ref() }.is_some());

        if drop_retirer {
            // The final pass keeps the runs; the batch is orphaned with them.
            drop(retirer.take());
            assert!(domain.stats().unreclaimed > 0, "the runs were orphaned");
        }
        drop(guard);
        drop(shield);
        retirer.as_mut().unwrap_or(&mut survivor).force_cleanup();

        let stats = domain.stats();
        if reach == PinReach::Never {
            assert_eq!(
                stats.freed, 0,
                "a leaking scheme frees nothing while running"
            );
        } else {
            assert_eq!(
                stats.unreclaimed, 0,
                "one pass after the release drains every run"
            );
            assert_eq!(old_drops.load(Ordering::SeqCst), OLD);
            assert_eq!(new_drops.load(Ordering::SeqCst), PASSES * NEW_PER_PASS);
            if drop_retirer {
                assert!(stats.adopted_batches >= 1, "the orphaned runs were adopted");
            }
        }
    }
    assert_eq!(
        old_drops.load(Ordering::SeqCst),
        OLD,
        "every old block dropped exactly once"
    );
    assert_eq!(
        new_drops.load(Ordering::SeqCst),
        PASSES * NEW_PER_PASS,
        "every new block dropped exactly once"
    );
}

/// A payload destructor that panics is contained: the handle retires 10
/// blocks, the destructor of #5 panics and the unwind is caught. A later
/// pass plus the handle's drop (or, for a scheme that frees only at
/// teardown, the domain's drop) must then drop every payload exactly once —
/// no block lost, none freed twice, no abort. Runs with the block cache on
/// and off, since the two free paths differ.
pub fn panicking_destructor_is_contained<R: Reclaimer>(block_cache: bool) {
    const BLOCKS: usize = 10;
    const PANICS: usize = 5;
    let drops: Vec<_> = (0..BLOCKS).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let mut config = ReclaimerConfig {
        cleanup_freq: usize::MAX,
        ..ReclaimerConfig::with_max_threads(2)
    };
    config.block_cache.enabled = block_cache;
    let domain = R::with_config(config);
    let mut handle = domain.register();
    for (i, counter) in drops.iter().enumerate() {
        let block = handle.alloc(PanicOnDrop::new(counter, i == PANICS));
        // SAFETY: never published; retired exactly once.
        unsafe { handle.retire(block) };
    }
    let pass = catch_unwind(AssertUnwindSafe(|| handle.force_cleanup()));
    handle.force_cleanup();
    let stats = domain.stats();
    drop(handle);
    let teardown = catch_unwind(AssertUnwindSafe(move || drop(domain)));
    assert_eq!(
        usize::from(pass.is_err()) + usize::from(teardown.is_err()),
        1,
        "the destructor's panic surfaces exactly once"
    );
    if pass.is_err() {
        assert_eq!(stats.unreclaimed, 0, "the later pass freed the rest");
    }
    for (i, counter) in drops.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::SeqCst),
            1,
            "payload {i} dropped exactly once"
        );
    }
}

/// Reference equivalence of the run-grouped scan: blocks with the given
/// `(alloc_era, retire_era)` stamps are retired in bursts, one burst before
/// each pass, and each pass judges the batch against `snapshot_for(pass,
/// live)`, where `live` lists the addresses of every block still retired.
/// Every pass must free exactly the blocks a naive walk calling
/// [`ReservationSet::covers`] on each block frees.
///
/// Odd bursts take the adoption path: they go onto a second batch that is
/// scanned against the same snapshot and then appended, runs and all, as
/// [`cleanup_pass`](crate::retired::cleanup_pass) does with an orphan batch.
pub fn grouped_scan_matches_reference<S: ReservationSet>(
    bursts: &[Vec<(u64, u64)>],
    mut snapshot_for: impl FnMut(usize, &[usize]) -> S,
) {
    let mut main = RetiredBatch::new();
    // (header, drop counter) of every block still retired.
    let mut live: Vec<(*mut BlockHeader, Arc<AtomicUsize>)> = Vec::new();
    let mut all = Vec::new();
    for (pass, burst) in bursts.iter().enumerate() {
        let mut side = RetiredBatch::new();
        for &(alloc_era, retire_era) in burst {
            let counter = Arc::new(AtomicUsize::new(0));
            let block = Linked::as_header(Linked::alloc(DropCounter::new(&counter), alloc_era));
            // SAFETY: freshly allocated, owned here, pushed onto one batch.
            unsafe {
                (*block).retire_era.store(retire_era, Ordering::Relaxed); // ORDER: single-threaded test; nothing pairs with it.
                if pass % 2 == 0 {
                    main.push(block);
                } else {
                    side.push(block);
                }
            }
            live.push((block, Arc::clone(&counter)));
            all.push(counter);
        }
        let addresses: Vec<usize> = live.iter().map(|&(block, _)| block as usize).collect();
        let snapshot = snapshot_for(pass, &addresses);
        // SAFETY: every live block is still on a batch, so its header is valid.
        let expected: Vec<bool> = live
            .iter()
            .map(|&(block, _)| !snapshot.covers(unsafe { &*block }))
            .collect();
        let expected_freed = expected.iter().filter(|&&freed| freed).count();
        // SAFETY: the snapshot was built after every push; nothing else
        // references the blocks.
        let freed = unsafe {
            main.scan_against(&snapshot, None, None) + side.scan_against(&snapshot, None, None)
        };
        main.append(&mut side);
        let mut survivors = Vec::new();
        for ((block, counter), expect_freed) in live.drain(..).zip(expected) {
            let dropped = counter.load(Ordering::SeqCst);
            assert_eq!(
                dropped,
                usize::from(expect_freed),
                "pass {pass}: block {block:p} freed {dropped} times, reference says {expect_freed}"
            );
            if !expect_freed {
                survivors.push((block, counter));
            }
        }
        live = survivors;
        assert_eq!(freed, expected_freed, "pass {pass}: freed count");
        assert_eq!(
            main.len(),
            live.len(),
            "pass {pass}: len tracks the survivors"
        );
    }
    // SAFETY: single-threaded; nothing references the remaining blocks.
    unsafe { main.free_all() };
    assert!(
        all.iter()
            .all(|counter| counter.load(Ordering::SeqCst) == 1),
        "every block dropped exactly once"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_counter_counts() {
        let counter = Arc::new(AtomicUsize::new(0));
        drop(DropCounter::new(&counter));
        drop(DropCounter::new(&counter));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn mini_stack_is_lifo_single_threaded() {
        let domain = crate::He::new_default();
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..10 {
            stack.push(&mut handle, i, None);
        }
        for i in (0..10).rev() {
            assert_eq!(stack.pop(&mut handle), Some(i));
        }
        assert_eq!(stack.pop(&mut handle), None);
    }

    #[test]
    fn drain_frees_remaining_nodes() {
        let domain = crate::He::new_default();
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..5 {
            stack.push(&mut handle, i, None);
        }
        assert_eq!(stack.drain(), 5);
        assert_eq!(stack.pop(&mut handle), None);
    }
}
