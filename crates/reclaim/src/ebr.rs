//! Epoch-Based Reclamation (EBR).
//!
//! The classic scheme descending from RCU and Fraser's epochs: a thread
//! publishes the global epoch when it starts an operation and withdraws the
//! reservation when it finishes; a retired block may be freed once every
//! *active* thread's published epoch is newer than the block's retirement
//! epoch. EBR has the lowest per-read overhead of all schemes (reads need no
//! per-pointer work at all), but a stalled or preempted thread pins every
//! block retired after it began its operation — memory usage is unbounded,
//! which is why the paper classifies it as blocking and why it cannot be used
//! under a wait-free data structure without forfeiting the guarantee.
//!
//! The scheme is [`EbrScheme`] on the shared [`Domain`] skeleton: one
//! published epoch per thread, set by `begin_op` and withdrawn by `end_op`.
//! The domain's era clock is the epoch clock ([`Domain::era`]); the
//! skeleton's plain clock advance runs on allocation and retirement.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::{BlockHeader, ERA_INF};
use crate::domain::{Domain, Scheme, SchemeHandle};
use crate::scan::EpochSnapshot;
use crate::slots::SlotArray;

/// The EBR domain.
pub type Ebr = Domain<EbrScheme>;

/// Per-thread EBR handle.
pub type EbrHandle = SchemeHandle<EbrScheme>;

/// The EBR policy: one published epoch per thread.
pub struct EbrScheme {
    /// One published epoch per thread; `ERA_INF` = quiescent.
    reservations: SlotArray,
}

// SAFETY: `begin_op` publishes the epoch (SeqCst) before any read of the
// operation, and `protect` only returns pointers read after it; the epoch
// stays published until `end_op`, and `fill_snapshot` reads every thread's.
unsafe impl Scheme for EbrScheme {
    const NAME: &'static str = "EBR";
    const PROGRESS: Progress = Progress::Blocking;
    type Snapshot = EpochSnapshot;

    fn new(config: &DomainConfig) -> Self {
        Self {
            reservations: SlotArray::new(config.max_threads, 1, ERA_INF),
        }
    }

    #[inline]
    fn begin_op(domain: &Ebr, tid: usize) {
        let epoch = domain.era();
        domain
            .scheme()
            .reservations
            .get(tid, 0)
            .store(epoch, Ordering::SeqCst);
    }

    #[inline]
    fn end_op(domain: &Ebr, tid: usize) {
        domain
            .scheme()
            .reservations
            .get(tid, 0)
            .store(ERA_INF, Ordering::Release); // ORDER: withdraws the epoch; pairs with the snapshot's Acquire loads.
    }

    #[inline]
    fn clear(_domain: &Ebr, _tid: usize) {
        // Within an operation the epoch reservation must stay put; dropping
        // protection happens in `end_op`.
    }

    #[inline]
    fn protect(
        _domain: &Ebr,
        _tid: usize,
        src: &AtomicUsize,
        _index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        // Protection comes from the epoch published in `begin_op`.
        src.load(Ordering::Acquire) // ORDER: pairs with the Release publish of the pointer being protected.
    }

    /// Snapshots every published epoch once per cleanup pass: only the oldest
    /// active epoch matters, so the scratch is a single word. The walk goes
    /// shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`](crate::ThreadRegistry::occupied_ranges)).
    fn fill_snapshot(domain: &Ebr, snapshot: &mut EpochSnapshot) {
        snapshot.clear();
        for range in domain.registry().occupied_ranges() {
            for thread in range {
                // ORDER: snapshot load; pairs with the Release epoch withdrawal (see scan.rs safety argument).
                snapshot.insert(
                    domain
                        .scheme()
                        .reservations
                        .get(thread, 0)
                        .load(Ordering::Acquire),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use crate::{RawHandle, ReclaimerConfig};

    #[test]
    fn naming_and_progress() {
        assert_eq!(Ebr::name(), "EBR");
        assert_eq!(Ebr::progress(), Progress::Blocking);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Ebr>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<Ebr>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Ebr>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Ebr>(4, 2_000);
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Ebr>(true);
    }

    #[test]
    fn stalled_reader_pins_memory() {
        // The defining weakness of EBR: a thread inside an operation bracket
        // prevents every later retirement from being freed.
        use crate::Handle;
        let domain = Ebr::with_config(ReclaimerConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut stalled = domain.register();
        let mut worker = domain.register();
        stalled.begin_op(); // ... and never ends its operation.
        for _ in 0..100 {
            let ptr = worker.alloc(0u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { worker.retire(ptr) };
        }
        worker.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            100,
            "nothing can be freed while a reader is stalled"
        );
        stalled.end_op();
        worker.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            0,
            "everything freed once the reader leaves"
        );
    }
}
