//! The domain/handle skeleton every scheme shares.
//!
//! All six schemes of the evaluation follow the one `begin_op` / `protect` /
//! `retire` / `clear` interface of the IBR harness, and all of them keep the
//! same bookkeeping around it: a configuration, a sharded thread registry,
//! reclamation counters, an orphan stack for the batches of exited threads,
//! per-shard block caches and (for the era schemes) a global era clock. That
//! bookkeeping lives here, once:
//!
//! * [`Domain<S>`] owns the shared state plus the scheme's own state `S`
//!   (its reservation table), stored inline;
//! * [`SchemeHandle<S>`] owns the per-thread state: the shield lease table,
//!   the block-cache magazine, the retired batch, the scan scratch and the
//!   cleanup/era cadences;
//! * the one [`Reclaimer`] impl and the one [`RawHandle`] impl carry the
//!   shared logic — registration and teardown, stats, the cleanup pass,
//!   retire (stamp → push → cadence → advance the clock if unchanged →
//!   pass), the `era_freq` clock advance on allocation and the cache tiers.
//!
//! A scheme is one [`Scheme`] impl supplying only what differs: its
//! reservation table and `protect`, the `begin_op`/`end_op`/`clear`
//! brackets, the cleanup-pass snapshot, and how (or whether) the clock
//! advances. The public scheme names are aliases over the skeleton, e.g.
//! `type He = Domain<HeScheme>` and `type HeHandle = SchemeHandle<HeScheme>`.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};
use wfe_sync::EraSource;

use crate::api::{debug_assert_slot_index, DomainConfig, Progress, RawHandle, Reclaimer};
use crate::block::BlockHeader;
use crate::cache::{BlockCaches, LocalBlockCache, ShardCache};
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{OrphanStack, RetiredBatch};
use crate::scan::ReservationSet;
use crate::stats::{Counters, SmrStats};

/// The per-scheme policy plugged into [`Domain`] and [`SchemeHandle`].
///
/// Hooks are associated functions that receive the domain (for the clock,
/// the registry, the counters and, through [`Domain::scheme`], the scheme's
/// own reservation table) and the calling handle's thread id. They are
/// monomorphised into the skeleton, so a scheme pays no indirection.
///
/// # Safety
///
/// [`protect`](Self::protect) must publish whatever reservation the scheme
/// needs *before* returning, so that the block behind the returned pointer
/// (with its tag bits masked by `mask`) is not freed by any cleanup pass —
/// i.e. is not judged unpinned by [`fill_snapshot`](Self::fill_snapshot)'s
/// snapshot — until the same slot `index` is overwritten by a later
/// `protect`, or [`clear`](Self::clear) / [`end_op`](Self::end_op) runs for
/// that thread. This is the [`RawHandle`] validity contract, which the
/// skeleton's single `unsafe impl RawHandle` discharges by forwarding here.
pub unsafe trait Scheme: Send + Sync + Sized + 'static {
    /// Short scheme name as used in the paper's plots ([`Reclaimer::name`]).
    const NAME: &'static str;

    /// Progress guarantee of the reclamation operations
    /// ([`Reclaimer::progress`]).
    const PROGRESS: Progress;

    /// Whether the scheme runs the global era clock. HP and Leak do not:
    /// their clock stays at 0, blocks are stamped with era 0 and
    /// [`SmrStats::era`] reports 0.
    const CLOCKED: bool = true;

    /// Whether retired blocks are freed while the domain lives. Leak sets
    /// this to `false`: its handles run no cleanup pass and use no cache
    /// tier, and its retired blocks wait for the domain drop.
    const RECLAIMS: bool = true;

    /// The per-handle cleanup-pass scratch (see [`crate::scan`]).
    type Snapshot: ReservationSet + Default + Send;

    /// Builds the scheme's state (its reservation table) for `config`.
    fn new(config: &DomainConfig) -> Self;

    /// `begin_op`: marks the start of a data-structure operation.
    #[inline]
    fn begin_op(_domain: &Domain<Self>, _tid: usize) {}

    /// `end_op`: marks the end of an operation and drops all protections.
    /// Also run when a handle is dropped.
    #[inline]
    fn end_op(domain: &Domain<Self>, tid: usize) {
        Self::clear(domain, tid);
    }

    /// `clear`: resets the reservations `protect` made for `tid`.
    fn clear(domain: &Domain<Self>, tid: usize);

    /// `get_protected`: reads the pointer stored at `src` and publishes the
    /// reservation that keeps its pointee alive (see the trait's safety
    /// contract). `index` is already range-checked; `parent` is the block
    /// containing `src` (null for roots), used only by WFE's slow path.
    fn protect(
        domain: &Domain<Self>,
        tid: usize,
        src: &AtomicUsize,
        index: usize,
        parent: *mut BlockHeader,
        mask: usize,
    ) -> usize;

    /// Snapshots the reservation table into `snapshot` for one cleanup
    /// pass. Called inside [`crate::retired::cleanup_pass`], after every
    /// block of the pass was retired — the snapshot-freshness contract.
    fn fill_snapshot(domain: &Domain<Self>, snapshot: &mut Self::Snapshot);

    /// Advances the era clock on behalf of `tid` (only called when
    /// [`CLOCKED`](Self::CLOCKED)). The default is a plain advance; WFE helps
    /// pending slow-path readers first.
    #[inline]
    fn advance_era(domain: &Domain<Self>, _tid: usize) {
        domain.clock.advance(Ordering::AcqRel); // ORDER: era advance; orders the clock with the allocations and retires it brackets.
    }
}

/// A reclamation domain running scheme `S`: the shared state of the
/// skeleton plus the scheme's own state.
pub struct Domain<S: Scheme> {
    config: DomainConfig,
    registry: ThreadRegistry,
    counters: Counters,
    orphans: OrphanStack,
    /// Per-shard size-class block caches (empty when disabled).
    caches: BlockCaches,
    /// The global era (or epoch) clock; never advanced unless `S::CLOCKED`.
    clock: EraSource,
    scheme: S,
}

impl<S: Scheme> Domain<S> {
    /// Current value of the global era clock (0 for HP and Leak).
    #[inline]
    pub fn era(&self) -> u64 {
        self.clock.load(Ordering::Acquire) // ORDER: era clock read; pairs with the AcqRel era advances.
    }

    /// The domain's era clock. Exposed so deterministic model tests can pin
    /// or bump the clock mid-schedule; production code never writes through
    /// this (it only ever advances via [`Scheme::advance_era`]).
    pub fn era_source(&self) -> &EraSource {
        &self.clock
    }

    /// The scheme's own state (its reservation table).
    #[inline]
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The domain's reclamation counters (schemes record scheme-specific
    /// events such as WFE's slow paths and helps here).
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }
}

impl<S: Scheme> Reclaimer for Domain<S> {
    type Handle = SchemeHandle<S>;

    fn with_config(config: DomainConfig) -> Arc<Self> {
        let registry = config.build_registry();
        // A scheme that never frees has nothing to cache: no shard caches.
        let cache_shards = if S::RECLAIMS {
            registry.shard_count()
        } else {
            0
        };
        let caches = BlockCaches::new(&config.block_cache, cache_shards);
        Arc::new(Self {
            scheme: S::new(&config),
            registry,
            caches,
            counters: Counters::new(),
            orphans: OrphanStack::new(),
            // Era clocks start at 1; the unused clock of HP and Leak stays 0.
            clock: EraSource::new(u64::from(S::CLOCKED)),
            config,
        })
    }

    // Out of line: inlining the ~1.5 KB handle construction into callers
    // (`HandlePool::check_out`'s hit path) measurably slowed them.
    #[inline(never)]
    fn try_register(self: &Arc<Self>) -> Option<SchemeHandle<S>> {
        let tid = self.registry.try_acquire()?;
        Some(SchemeHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            cache_shard: self.registry.shard_of(tid),
            local_cache: LocalBlockCache::new(),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
            snapshot: S::Snapshot::default(),
            since_cleanup: 0,
            alloc_counter: 0,
        })
    }

    fn name() -> &'static str {
        S::NAME
    }

    fn progress() -> Progress {
        S::PROGRESS
    }

    fn stats(&self) -> SmrStats {
        let mut stats = self.counters.snapshot(self.era());
        self.caches.merge_into(&mut stats);
        stats
    }

    fn config(&self) -> &DomainConfig {
        &self.config
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }
}

impl<S: Scheme> Drop for Domain<S> {
    fn drop(&mut self) {
        // SAFETY: no handle can exist any more (handles hold an `Arc` to the
        // domain), so every orphaned block is unreachable and unprotected.
        unsafe {
            self.orphans.free_all();
        }
    }
}

impl<S: Scheme> core::fmt::Debug for Domain<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Domain")
            .field("scheme", &S::NAME)
            .field("era", &self.era())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The per-thread handle of a [`Domain<S>`].
pub struct SchemeHandle<S: Scheme> {
    /// Lease table for this handle's [`Shield`](crate::Shield)s, sized by the
    /// application slots (schemes that ignore the indices keep leases so
    /// data structures stay scheme-generic).
    shield_slots: Arc<ShieldSlots>,
    /// Home registry shard, fixed at registration (indexes the block caches).
    cache_shard: usize,
    /// Private block-cache magazine fronting the home shard's freelists.
    local_cache: LocalBlockCache,
    domain: Arc<Domain<S>>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable reservation snapshot (the batch scan scratch).
    snapshot: S::Snapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
    /// Allocations so far (drives the `era_freq` clock advance).
    alloc_counter: usize,
}

impl<S: Scheme> SchemeHandle<S> {
    /// The domain this handle belongs to.
    pub fn domain(&self) -> &Arc<Domain<S>> {
        &self.domain
    }

    /// One cleanup pass of the batch scan protocol
    /// ([`crate::retired::cleanup_pass`]).
    fn cleanup(&mut self) {
        self.since_cleanup = 0;
        let domain = &*self.domain;
        let shard = domain.caches.shard(self.cache_shard);
        // SAFETY: `fill_snapshot` reads the reservation tables inside
        // `cleanup_pass`, i.e. after the orphan pop and after every block on the
        // batch was retired — the snapshot-freshness contract.
        unsafe {
            crate::retired::cleanup_pass(
                &mut self.retired,
                &domain.orphans,
                &domain.counters,
                &mut self.snapshot,
                shard.is_some().then_some(&mut self.local_cache),
                shard,
                |snapshot| S::fill_snapshot(domain, snapshot),
            );
        }
    }
}

// SAFETY: `thread_id` is unique per live handle (acquired from the registry
// and released on drop), and `protect_raw` forwards to `Scheme::protect`,
// whose safety contract is exactly the `RawHandle` validity contract.
unsafe impl<S: Scheme> RawHandle for SchemeHandle<S> {
    #[inline]
    fn thread_id(&self) -> usize {
        self.tid
    }

    #[inline]
    fn slots(&self) -> usize {
        self.domain.config.slots_per_thread
    }

    #[inline]
    fn shield_slots(&self) -> &Arc<ShieldSlots> {
        &self.shield_slots
    }

    #[inline]
    fn begin_op(&mut self) {
        S::begin_op(&self.domain, self.tid);
    }

    #[inline]
    fn end_op(&mut self) {
        S::end_op(&self.domain, self.tid);
    }

    #[inline]
    fn protect_raw(
        &mut self,
        src: &AtomicUsize,
        index: usize,
        parent: *mut BlockHeader,
        mask: usize,
    ) -> usize {
        debug_assert_slot_index(index, self.slots());
        S::protect(&self.domain, self.tid, src, index, parent, mask)
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        let domain = &*self.domain;
        // SAFETY: the caller's `retire_raw` contract — `block` is a valid,
        // unreachable block retired exactly once — covers both the header
        // stamp and the batch push.
        unsafe {
            if S::CLOCKED {
                let era = domain.era();
                (*block).retire_era.store(era, Ordering::Release); // ORDER: stamps the header before the push that makes it scannable.
            }
            self.retired.push(block);
        }
        domain.counters.on_retire();
        if !S::RECLAIMS {
            return;
        }
        self.since_cleanup += 1;
        if self.since_cleanup >= domain.config.cleanup_freq {
            // Figure 1 lines 27-28 / Figure 4 lines 80-82: advance the clock
            // only if nothing else advanced it since this block was stamped,
            // then scan.
            // SAFETY: same contract — the header is valid for the whole call.
            if S::CLOCKED && unsafe { (*block).retire_era() } == domain.era() {
                S::advance_era(domain, self.tid);
            }
            self.cleanup();
        }
    }

    #[inline]
    fn clear(&mut self) {
        S::clear(&self.domain, self.tid);
    }

    #[inline]
    fn pre_alloc(&mut self) -> u64 {
        let domain = &*self.domain;
        domain.counters.on_alloc();
        if !S::CLOCKED {
            return 0;
        }
        self.alloc_counter += 1;
        if self.alloc_counter % domain.config.era_freq == 0 {
            S::advance_era(domain, self.tid);
        }
        domain.era()
    }

    fn force_cleanup(&mut self) {
        if !S::RECLAIMS {
            return;
        }
        if S::CLOCKED {
            S::advance_era(&self.domain, self.tid);
        }
        self.cleanup();
    }

    #[inline]
    fn block_caches(&mut self) -> (Option<&mut LocalBlockCache>, Option<&ShardCache>) {
        let shard = self.domain.caches.shard(self.cache_shard);
        (shard.is_some().then_some(&mut self.local_cache), shard)
    }
}

impl<S: Scheme> Drop for SchemeHandle<S> {
    fn drop(&mut self) {
        self.end_op();
        if S::RECLAIMS {
            self.cleanup();
            // Park the magazine's blocks on the home shard (freeing them when
            // the cache is off) so surviving threads can recycle them.
            self.local_cache
                .drain(self.domain.caches.shard(self.cache_shard));
        }
        // Whatever the final pass could not free is parked on the orphan
        // stack; the next live thread's cleanup pass adopts it.
        self.domain.orphans.push(self.retired.take());
        self.domain.registry.release(self.tid);
    }
}
