//! Hazard Eras (Figure 1 of the paper).
//!
//! Hazard Eras [Ramalhete & Correia, SPAA'17] merges epoch-based reclamation
//! with Hazard Pointers: instead of publishing the *pointer* it is about to
//! dereference, a thread publishes the current value of a global era clock in
//! one of its reservation slots. A retired block may be freed once no
//! published era falls inside its `[alloc_era, retire_era]` lifespan.
//!
//! Every operation except `get_protected()` is wait-free (given wait-free
//! fetch-and-add); `get_protected()` is only lock-free because its loop keeps
//! retrying while other threads advance the era clock — this is exactly the
//! loop WFE (in the `wfe-core` crate) makes wait-free.
//!
//! The scheme is [`HeScheme`] on the shared [`Domain`] skeleton: the
//! reservation table, `protect`, `clear` and the snapshot; the skeleton's
//! plain clock advance runs on allocation and retirement.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::{BlockHeader, ERA_INF};
use crate::domain::{Domain, Scheme, SchemeHandle};
use crate::scan::EraSnapshot;
use crate::slots::SlotArray;

/// The Hazard Eras domain.
pub type He = Domain<HeScheme>;

/// Per-thread Hazard Eras handle.
pub type HeHandle = SchemeHandle<HeScheme>;

/// The Hazard Eras policy: one published era per reservation slot.
pub struct HeScheme {
    /// `max_threads × slots_per_thread` published eras (`ERA_INF` = none).
    reservations: SlotArray,
}

// SAFETY: `protect` returns only once the era it read the pointer under is
// published (SeqCst) in the slot, and `fill_snapshot` reads every slot of
// every registered thread, so the block stays pinned until the slot moves on.
unsafe impl Scheme for HeScheme {
    const NAME: &'static str = "HE";
    const PROGRESS: Progress = Progress::LockFree;
    type Snapshot = EraSnapshot;

    fn new(config: &DomainConfig) -> Self {
        Self {
            reservations: SlotArray::new(config.max_threads, config.slots_per_thread, ERA_INF),
        }
    }

    #[inline]
    fn clear(domain: &He, tid: usize) {
        domain
            .scheme()
            .reservations
            .fill_row(tid, ERA_INF, Ordering::Release); // ORDER: withdraws the eras; pairs with the snapshot's Acquire loads.
    }

    #[inline]
    fn protect(
        domain: &He,
        tid: usize,
        src: &AtomicUsize,
        index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        let reservation = domain.scheme().reservations.get(tid, index);
        let mut prev_era = reservation.load(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store in the loop.
        loop {
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = domain.era();
            if prev_era == new_era {
                return value;
            }
            // Publishing the era must become visible to era-advancing threads
            // before we re-read the source pointer, hence SeqCst (the paper's
            // pseudo-code assumes sequential consistency here).
            reservation.store(new_era, Ordering::SeqCst);
            prev_era = new_era;
        }
    }

    /// Snapshots every published era once per cleanup pass, sorted so the
    /// Figure-1 `can_delete` lifespan test becomes one binary search per
    /// block instead of a full reservation-table walk. The walk goes
    /// shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`](crate::ThreadRegistry::occupied_ranges)).
    fn fill_snapshot(domain: &He, snapshot: &mut EraSnapshot) {
        let reservations = &domain.scheme().reservations;
        snapshot.clear();
        for range in domain.registry().occupied_ranges() {
            for thread in range {
                for slot in 0..reservations.slots() {
                    // ORDER: snapshot load; pairs with the Release era withdrawal (see scan.rs safety argument).
                    snapshot.insert(reservations.get(thread, slot).load(Ordering::Acquire));
                }
            }
        }
        snapshot.seal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn naming_and_progress() {
        assert_eq!(He::name(), "HE");
        assert_eq!(He::progress(), Progress::LockFree);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<He>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<He>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<He>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<He>(4, 2_000);
    }

    #[test]
    fn unreclaimed_is_bounded() {
        conformance::unreclaimed_is_bounded::<He>(4_000);
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<He>(true);
    }

    #[test]
    fn era_advances_with_allocations() {
        conformance::era_advances_every_era_freq_allocs::<He>();
    }
}
