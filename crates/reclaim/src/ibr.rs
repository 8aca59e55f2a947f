//! Interval-Based Reclamation, 2GE variant (Wen et al., PPoPP'18).
//!
//! 2GEIBR ("two global epochs") keeps one `[lower, upper]` era interval per
//! thread instead of one era per protected pointer. `begin_op` seeds both
//! bounds with the current era; every hazardous read bumps `upper` to the era
//! observed while reading. A retired block may be freed when its
//! `[alloc_era, retire_era]` lifespan overlaps no thread's interval.
//!
//! Compared with Hazard Eras, IBR needs no per-pointer index, but a single
//! long-running operation widens its interval without bound, so a stalled
//! thread can pin arbitrarily many blocks (the paper keeps HE as its base for
//! exactly this reason). The paper notes WFE's helping idea applies to 2GEIBR
//! as well; the wait-free extension in this repository targets HE.
//!
//! The scheme is [`IbrScheme`] on the shared [`Domain`] skeleton: the
//! interval table, the `begin_op`/`end_op` brackets, `protect` and the
//! snapshot; the skeleton's plain clock advance runs on allocation and
//! retirement.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::{BlockHeader, ERA_INF};
use crate::domain::{Domain, Scheme, SchemeHandle};
use crate::scan::IntervalSnapshot;
use crate::slots::SlotArray;

const LOWER: usize = 0;
const UPPER: usize = 1;

/// The 2GEIBR domain.
pub type Ibr2Ge = Domain<IbrScheme>;

/// Per-thread 2GEIBR handle.
pub type IbrHandle = SchemeHandle<IbrScheme>;

/// The 2GEIBR policy: one `[lower, upper]` era interval per thread.
pub struct IbrScheme {
    /// `max_threads × 2`: per-thread `[lower, upper]` interval (`ERA_INF` = idle).
    reservations: SlotArray,
}

// SAFETY: `begin_op` publishes `lower` (SeqCst) before any read, and
// `protect` returns only once `upper` holds the era the pointer was read
// under, so every block read in the bracket overlaps the published interval
// until `end_op` withdraws it; `fill_snapshot` reads every active interval.
unsafe impl Scheme for IbrScheme {
    const NAME: &'static str = "2GEIBR";
    const PROGRESS: Progress = Progress::LockFree;
    type Snapshot = IntervalSnapshot;

    fn new(config: &DomainConfig) -> Self {
        Self {
            reservations: SlotArray::new(config.max_threads, 2, ERA_INF),
        }
    }

    #[inline]
    fn begin_op(domain: &Ibr2Ge, tid: usize) {
        let era = domain.era();
        let res = &domain.scheme().reservations;
        // Seed the interval with the current era; `lower` is published last so
        // a scanner never observes an active interval with a stale upper bound.
        res.get(tid, UPPER).store(era, Ordering::SeqCst);
        res.get(tid, LOWER).store(era, Ordering::SeqCst);
    }

    #[inline]
    fn end_op(domain: &Ibr2Ge, tid: usize) {
        let res = &domain.scheme().reservations;
        res.get(tid, LOWER).store(ERA_INF, Ordering::Release); // ORDER: withdraws the interval; pairs with the snapshot's Acquire loads.
        res.get(tid, UPPER).store(ERA_INF, Ordering::Release); // ORDER: withdraws the interval; pairs with the snapshot's Acquire loads.
    }

    #[inline]
    fn clear(_domain: &Ibr2Ge, _tid: usize) {
        // Protection is interval-based; dropping it happens in `end_op`.
    }

    #[inline]
    fn protect(
        domain: &Ibr2Ge,
        tid: usize,
        src: &AtomicUsize,
        _index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        // The index is unused: the interval lives in the fixed LOWER/UPPER cells.
        let upper = domain.scheme().reservations.get(tid, UPPER);
        let mut prev_era = upper.load(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store below.
        loop {
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = domain.era();
            if prev_era == new_era {
                return value;
            }
            upper.store(new_era, Ordering::SeqCst);
            prev_era = new_era;
        }
    }

    /// Snapshots every active `[lower, upper]` interval once per cleanup
    /// pass; the per-block overlap test then runs without atomic loads. The
    /// walk goes shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`](crate::ThreadRegistry::occupied_ranges)).
    fn fill_snapshot(domain: &Ibr2Ge, snapshot: &mut IntervalSnapshot) {
        let res = &domain.scheme().reservations;
        snapshot.clear();
        for range in domain.registry().occupied_ranges() {
            for thread in range {
                let lower = res.get(thread, LOWER).load(Ordering::Acquire); // ORDER: snapshot load; pairs with the Release interval withdrawal (see scan.rs safety argument).
                if lower == ERA_INF {
                    continue;
                }
                let upper = res.get(thread, UPPER).load(Ordering::Acquire); // ORDER: snapshot load; pairs with the Release interval withdrawal.
                snapshot.insert(lower, upper);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use crate::Handle;
    use crate::{RawHandle, ReclaimerConfig};

    #[test]
    fn naming_and_progress() {
        assert_eq!(Ibr2Ge::name(), "2GEIBR");
        assert_eq!(Ibr2Ge::progress(), Progress::LockFree);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Ibr2Ge>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<Ibr2Ge>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Ibr2Ge>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Ibr2Ge>(4, 2_000);
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Ibr2Ge>(true);
    }

    #[test]
    fn interval_only_pins_overlapping_lifespans() {
        let domain = Ibr2Ge::with_config(ReclaimerConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut reader = domain.register();
        let mut writer = domain.register();

        // Blocks allocated and retired strictly before the reader's interval
        // begins can always be reclaimed.
        for _ in 0..10 {
            let ptr = writer.alloc(1u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { writer.retire(ptr) };
        }
        writer.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);

        // A block allocated *before* the reader's interval starts but retired
        // *after* overlaps the interval and stays pinned.
        let pinned = writer.alloc(2u64);
        reader.begin_op();
        // SAFETY: `pinned` was never published; retired exactly once.
        unsafe { writer.retire(pinned) };
        writer.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            1,
            "the overlapping block is pinned"
        );

        // A block allocated *after* the interval began is invisible to the
        // reader (it never protected it), so IBR may reclaim it right away.
        let fresh = writer.alloc(3u64);
        // SAFETY: `fresh` was never published; retired exactly once.
        unsafe { writer.retire(fresh) };
        writer.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            1,
            "the non-overlapping block is reclaimed immediately"
        );

        reader.end_op();
        writer.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
    }
}
