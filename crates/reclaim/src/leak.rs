//! The "Leak Memory" baseline: no reclamation at all.
//!
//! The paper's throughput plots include a scheme that simply never frees
//! retired blocks. It provides an upper bound on attainable throughput
//! (no reclamation overhead whatsoever) at the cost of unbounded memory.
//!
//! To keep the test suite leak-free, retired blocks are parked on the domain
//! (a dropping handle pushes its batch onto the orphan stack) and freed when
//! the domain itself is dropped; during the measured run this behaves exactly
//! like leaking — live threads never run a cleanup pass, so they never adopt.
//!
//! The scheme is [`LeakScheme`] on the shared [`Domain`] skeleton with
//! [`Scheme::RECLAIMS`] and [`Scheme::CLOCKED`] off: no reservations, no
//! cleanup pass, no cache tier and no era clock.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress};
use crate::block::BlockHeader;
use crate::domain::{Domain, Scheme, SchemeHandle};
use crate::scan::ReservationSet;

/// The leak-memory domain.
pub type Leak = Domain<LeakScheme>;

/// Per-thread leak-memory handle.
pub type LeakHandle = SchemeHandle<LeakScheme>;

/// The leak-memory policy: nothing to publish, nothing ever freed.
pub struct LeakScheme;

/// Leak's reservation set: every block counts as pinned. No cleanup pass
/// ever consults it (Leak does not reclaim); it only types the handle's
/// scratch.
#[derive(Debug, Default)]
pub struct PinsEverything;

impl ReservationSet for PinsEverything {
    fn pinned_by(&self, _block: &BlockHeader) -> Option<u64> {
        Some(0)
    }

    fn still_pins(&self, _pin: u64) -> bool {
        true
    }
}

// SAFETY: nothing is ever freed while the domain lives, so every pointer
// trivially satisfies the validity contract without a reservation.
unsafe impl Scheme for LeakScheme {
    const NAME: &'static str = "Leak";
    const PROGRESS: Progress = Progress::None;
    const CLOCKED: bool = false;
    const RECLAIMS: bool = false;
    type Snapshot = PinsEverything;

    fn new(_config: &DomainConfig) -> Self {
        Self
    }

    #[inline]
    fn clear(_domain: &Leak, _tid: usize) {}

    #[inline]
    fn protect(
        _domain: &Leak,
        _tid: usize,
        src: &AtomicUsize,
        _index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        src.load(Ordering::Acquire) // ORDER: pairs with the Release publish of the pointer being protected.
    }

    fn fill_snapshot(_domain: &Leak, _snapshot: &mut PinsEverything) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;
    use crate::Handle;
    use crate::{RawHandle, Reclaimer, ReclaimerConfig};

    #[test]
    fn naming_and_progress() {
        assert_eq!(Leak::name(), "Leak");
        assert_eq!(Leak::progress(), Progress::None);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Leak>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Leak>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Leak>(4, 2_000);
    }

    #[test]
    fn orphans_wait_for_domain_drop() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Leak>(false);
    }

    #[test]
    fn nothing_is_ever_freed_while_running() {
        let domain = Leak::with_config(ReclaimerConfig::with_max_threads(1));
        let mut handle = domain.register();
        for _ in 0..50 {
            let ptr = handle.alloc(0u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { handle.retire(ptr) };
        }
        handle.force_cleanup();
        let stats = domain.stats();
        assert_eq!(stats.retired, 50);
        assert_eq!(stats.freed, 0);
        assert_eq!(stats.unreclaimed, 50);
        assert_eq!(stats.era, 0, "Leak has no era clock");
    }
}
