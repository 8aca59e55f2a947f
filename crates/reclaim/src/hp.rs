//! Hazard Pointers (Michael, 2004).
//!
//! Each thread owns a small set of *hazard slots*; before dereferencing a
//! shared pointer it publishes the pointer in a slot and re-reads the source
//! to validate that the pointer is still reachable. A retired block may be
//! freed once its address appears in no slot. Memory usage is tightly bounded
//! (at most `max_threads × slots` blocks can be pinned), but every traversal
//! step pays a store + fence + re-read, which is why HP is the slowest scheme
//! in most of the paper's figures.
//!
//! The scheme is [`HpScheme`] on the shared [`Domain`] skeleton: the hazard
//! table, `protect`, `clear` and the snapshot. HP has no era clock
//! ([`Scheme::CLOCKED`] is `false`), so its stats report era 0.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::BlockHeader;
use crate::domain::{Domain, Scheme, SchemeHandle};
use crate::scan::HazardSnapshot;
use crate::slots::PtrSlotArray;

/// The Hazard Pointers domain.
pub type Hp = Domain<HpScheme>;

/// Per-thread Hazard Pointers handle.
pub type HpHandle = SchemeHandle<HpScheme>;

/// The Hazard Pointers policy: one published address per reservation slot.
pub struct HpScheme {
    /// `max_threads × slots_per_thread` published addresses (0 = none).
    hazards: PtrSlotArray,
}

// SAFETY: `protect` publishes the untagged address (SeqCst) and returns only
// after re-reading the same value from `src`, so the block was still
// reachable after the hazard became visible; `fill_snapshot` reads every
// slot of every registered thread until `clear` withdraws it.
unsafe impl Scheme for HpScheme {
    const NAME: &'static str = "HP";
    const PROGRESS: Progress = Progress::LockFree;
    const CLOCKED: bool = false;
    type Snapshot = HazardSnapshot;

    fn new(config: &DomainConfig) -> Self {
        Self {
            hazards: PtrSlotArray::new(config.max_threads, config.slots_per_thread),
        }
    }

    #[inline]
    fn clear(domain: &Hp, tid: usize) {
        domain.scheme().hazards.fill_row(tid, 0, Ordering::Release); // ORDER: withdraws the hazards; pairs with the snapshot's Acquire loads.
    }

    #[inline]
    fn protect(
        domain: &Hp,
        tid: usize,
        src: &AtomicUsize,
        index: usize,
        _parent: *mut BlockHeader,
        mask: usize,
    ) -> usize {
        let slot = domain.scheme().hazards.get(tid, index);
        let mut value = src.load(Ordering::Acquire); // ORDER: first read is optimistic; the SeqCst publish + re-read below validate it.
        loop {
            // Publish the (untagged) address, then validate that the source
            // still holds the same value: if it does, the block cannot have
            // been retired-and-scanned before our publication became visible.
            slot.store(value & mask, Ordering::SeqCst);
            let again = src.load(Ordering::Acquire); // ORDER: re-validation read; pairs with the Release publish of the pointer.
            if again == value {
                return value;
            }
            value = again;
        }
    }

    /// Snapshots the current hazard set once per cleanup pass, sorted so the
    /// per-block membership test is one binary search. The walk goes
    /// shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`](crate::ThreadRegistry::occupied_ranges)).
    fn fill_snapshot(domain: &Hp, snapshot: &mut HazardSnapshot) {
        let hazards = &domain.scheme().hazards;
        snapshot.clear();
        for range in domain.registry().occupied_ranges() {
            for thread in range {
                for slot in 0..hazards.slots() {
                    // ORDER: snapshot load; pairs with the Release hazard clear (see scan.rs safety argument).
                    snapshot.insert(hazards.get(thread, slot).load(Ordering::Acquire));
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
    use crate::{Atomic, Handle};
    use crate::{RawHandle, ReclaimerConfig};

    #[test]
    fn naming_and_progress() {
        assert_eq!(Hp::name(), "HP");
        assert_eq!(Hp::progress(), Progress::LockFree);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Hp>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<Hp>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Hp>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Hp>(4, 2_000);
    }

    #[test]
    fn unreclaimed_is_bounded() {
        conformance::unreclaimed_is_bounded::<Hp>(2_000);
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Hp>(true);
    }

    #[test]
    fn hazard_protects_exact_address_not_tag() {
        // Protecting a tagged pointer must publish the *untagged* address,
        // otherwise the scan would not recognise the block as protected.
        let domain = Hp::with_config(ReclaimerConfig::with_max_threads(2));
        let mut owner = domain.register();
        let mut other = domain.register();

        let node = owner.alloc(7u64);
        let tagged = crate::ptr::tag::with_tag(node, 1);
        let root: Atomic<u64> = Atomic::new(tagged);

        let seen = other.protect(&root, 0, core::ptr::null_mut());
        assert_eq!(seen, tagged, "raw tagged value is returned");

        // Retire from the owner; the other thread's hazard must keep it alive.
        root.store(core::ptr::null_mut(), Ordering::SeqCst);
        // SAFETY: `node` was just unlinked from `root`; retired exactly once.
        unsafe { owner.retire(node) };
        owner.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            1,
            "hazard pointer pins the block"
        );

        other.clear();
        owner.force_cleanup();
        let stats = domain.stats();
        assert_eq!(stats.unreclaimed, 0);
        assert_eq!(stats.era, 0, "HP has no era clock");
    }
}
