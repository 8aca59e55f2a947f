//! Reservation snapshots: the batch scan protocol.
//!
//! Under the old protocol every retired block re-read every reservation slot
//! (`can_free` per block, `O(blocks × threads × slots)` atomic loads per
//! cleanup). The batch protocol — the design of the Hazard Eras reference
//! implementation and of Wen et al.'s IBR harness — snapshots all
//! reservations **once** per cleanup pass into a reusable scratch structure
//! and then judges the retired batch against that snapshot, so the
//! per-block work drops to a binary search (or a single comparison).
//!
//! Safety of snapshotting once: every block in a batch was retired — and was
//! therefore already unreachable — *before* the snapshot is taken. A
//! reservation that protects such a block must have been published before the
//! block was unlinked (the publish-then-validate protocol guarantees this),
//! hence before the snapshot's loads; the snapshot therefore observes it, or
//! observes a later value of the same slot, which means the owner has since
//! withdrawn that protection. Adopted orphan batches preserve the same
//! argument because they are popped from the orphan stack *before* the
//! snapshot is taken (see [`crate::retired::OrphanStack`]).
//!
//! # Pins
//!
//! A snapshot does not just answer "is this block covered?": it names the
//! reservation that covers it, a *pin* ([`ReservationSet::pinned_by`]). The
//! retired batch groups the blocks a pass keeps into runs, one per pin, and
//! on the next pass asks the new snapshot whether each pin
//! [`still_pins`](ReservationSet::still_pins). A run whose pin holds is kept
//! without touching its blocks; the rest are re-judged one by one (see
//! [`crate::retired`]). That is exact — it frees the same blocks as judging
//! every block — because of the *pin invariant*: `still_pins(pin)` implies
//! that the new snapshot covers every block the pin covered in the old one.
//! Era stamps never change after retirement, so the implication only has to
//! hold per pin value:
//!
//! | snapshot | pin | `still_pins(pin)` |
//! |---|---|---|
//! | [`EraSnapshot`] (HE) | smallest recorded era in `[alloc_era, retire_era]` | the era is recorded again |
//! | [`EpochSnapshot`] (EBR) | the oldest active epoch `m` (`m <= retire_era`) | the new oldest epoch is `<= m` |
//! | [`HazardSnapshot`] (HP) | the block's address | the address is published again |
//! | [`IntervalSnapshot`] (2GEIBR) | `0` (no exact pin) | never |
//!
//! WFE's three-phase snapshot follows the era rule phase by phase (see
//! `wfe-core`). A 2GEIBR interval is two words that drift independently, so
//! no single value names it exactly; its runs never survive a pass and every
//! survivor is re-judged each time, as under a plain full walk.

use crate::block::{BlockHeader, ERA_INF};

/// A point-in-time snapshot of every reservation in a domain, reused across
/// cleanup passes so the scratch allocation is paid once per thread.
///
/// Implementors are the per-scheme scratch structures; the retired batch is
/// drained against one via
/// [`RetiredBatch::scan_against`](crate::retired::RetiredBatch::scan_against).
pub trait ReservationSet {
    /// A pin from this snapshot that covers `block` — the scheme's safety
    /// condition, evaluated against the snapshot — or `None` when no
    /// reservation in the snapshot may still reach it.
    fn pinned_by(&self, block: &BlockHeader) -> Option<u64>;

    /// Whether `pin`, returned by [`pinned_by`](Self::pinned_by) on an
    /// earlier snapshot of the same domain, covers in this snapshot every
    /// block it covered then (the pin invariant of the [module
    /// docs](self)). Returning `false` is always safe: it only costs a
    /// re-judgement.
    fn still_pins(&self, pin: u64) -> bool;

    /// Whether some reservation in the snapshot may still reach `block`.
    #[inline]
    fn covers(&self, block: &BlockHeader) -> bool {
        self.pinned_by(block).is_some()
    }
}

/// EBR scratch: only the *oldest* active epoch matters, so the snapshot is a
/// single word.
#[derive(Debug, Default)]
pub struct EpochSnapshot {
    min_active: u64,
}

impl EpochSnapshot {
    /// Creates an empty snapshot (no active reader).
    pub fn new() -> Self {
        Self {
            min_active: ERA_INF,
        }
    }

    /// Resets the snapshot to "no active reader".
    #[inline]
    pub fn clear(&mut self) {
        self.min_active = ERA_INF;
    }

    /// Records one published epoch (`ERA_INF` = quiescent, ignored).
    #[inline]
    pub fn insert(&mut self, epoch: u64) {
        self.min_active = self.min_active.min(epoch);
    }

    /// The oldest active epoch observed, or `ERA_INF` if none.
    #[inline]
    pub fn min_active(&self) -> u64 {
        self.min_active
    }
}

impl ReservationSet for EpochSnapshot {
    #[inline]
    fn pinned_by(&self, block: &BlockHeader) -> Option<u64> {
        // A block is pinned while some reader entered its operation at or
        // before the block's retirement epoch.
        (self.min_active <= block.retire_era()).then_some(self.min_active)
    }

    #[inline]
    fn still_pins(&self, pin: u64) -> bool {
        // Every block pinned by `pin` was retired at or after it.
        self.min_active <= pin
    }
}

/// Hazard-Eras scratch: the published eras, sorted so that the per-block
/// lifespan test is one binary search.
#[derive(Debug, Default)]
pub struct EraSnapshot {
    eras: Vec<u64>,
}

impl EraSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards the previous snapshot, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.eras.clear();
    }

    /// Records one published era (`ERA_INF` = empty slot, ignored).
    #[inline]
    pub fn insert(&mut self, era: u64) {
        if era != ERA_INF {
            self.eras.push(era);
        }
    }

    /// Sorts the recorded eras; must be called once after the last `insert`
    /// and before the first query.
    pub fn seal(&mut self) {
        self.eras.sort_unstable();
        self.eras.dedup();
    }

    /// The smallest recorded era inside `[alloc_era, retire_era]`, if any.
    #[inline]
    pub fn pin_span(&self, alloc_era: u64, retire_era: u64) -> Option<u64> {
        let idx = self.eras.partition_point(|&era| era < alloc_era);
        self.eras.get(idx).copied().filter(|&era| era <= retire_era)
    }

    /// Whether `era` was recorded.
    #[inline]
    pub fn contains(&self, era: u64) -> bool {
        self.eras.binary_search(&era).is_ok()
    }

    /// Number of distinct recorded eras.
    pub fn len(&self) -> usize {
        self.eras.len()
    }

    /// Whether no era was recorded.
    pub fn is_empty(&self) -> bool {
        self.eras.is_empty()
    }
}

impl ReservationSet for EraSnapshot {
    #[inline]
    fn pinned_by(&self, block: &BlockHeader) -> Option<u64> {
        self.pin_span(block.alloc_era(), block.retire_era())
    }

    #[inline]
    fn still_pins(&self, pin: u64) -> bool {
        // The pin lies inside the lifespan of every block it pinned.
        self.contains(pin)
    }
}

/// 2GEIBR scratch: one `[lower, upper]` interval per active thread. The
/// per-block test is a linear overlap check over the (few) active intervals —
/// with zero atomic loads, where the old protocol paid two per thread per
/// block.
#[derive(Debug, Default)]
pub struct IntervalSnapshot {
    intervals: Vec<(u64, u64)>,
}

impl IntervalSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards the previous snapshot, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.intervals.clear();
    }

    /// Records one active `[lower, upper]` interval.
    #[inline]
    pub fn insert(&mut self, lower: u64, upper: u64) {
        self.intervals.push((lower, upper));
    }

    /// Number of active intervals recorded.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether no interval was recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

impl ReservationSet for IntervalSnapshot {
    #[inline]
    fn pinned_by(&self, block: &BlockHeader) -> Option<u64> {
        let (alloc_era, retire_era) = (block.alloc_era(), block.retire_era());
        self.intervals
            .iter()
            .any(|&(lower, upper)| alloc_era <= upper && retire_era >= lower)
            .then_some(0)
    }

    #[inline]
    fn still_pins(&self, _pin: u64) -> bool {
        // No exact pin (see the module docs): re-judge every survivor.
        false
    }
}

/// Hazard-Pointers scratch: the published addresses, sorted for binary
/// search.
#[derive(Debug, Default)]
pub struct HazardSnapshot {
    pointers: Vec<usize>,
}

impl HazardSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards the previous snapshot, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.pointers.clear();
    }

    /// Records one published hazard address (0 = empty slot, ignored).
    #[inline]
    pub fn insert(&mut self, pointer: usize) {
        if pointer != 0 {
            self.pointers.push(pointer);
        }
    }

    /// Sorts the recorded addresses; must be called once after the last
    /// `insert` and before the first query.
    pub fn seal(&mut self) {
        self.pointers.sort_unstable();
        self.pointers.dedup();
    }

    /// Number of distinct recorded addresses.
    pub fn len(&self) -> usize {
        self.pointers.len()
    }

    /// Whether no address was recorded.
    pub fn is_empty(&self) -> bool {
        self.pointers.is_empty()
    }
}

impl ReservationSet for HazardSnapshot {
    #[inline]
    fn pinned_by(&self, block: &BlockHeader) -> Option<u64> {
        let addr = block as *const BlockHeader as usize;
        self.still_pins(addr as u64).then_some(addr as u64)
    }

    #[inline]
    fn still_pins(&self, pin: u64) -> bool {
        self.pointers.binary_search(&(pin as usize)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Linked;

    fn block_with(alloc_era: u64, retire_era: u64) -> *mut Linked<u64> {
        let ptr = Linked::alloc(0u64, alloc_era);
        // SAFETY: test-owned live block(s); dereferenced and freed exactly once.
        unsafe {
            (*ptr)
                .header
                .retire_era
                .store(retire_era, wfe_sync::atomic::Ordering::Relaxed);
        }
        ptr
    }

    #[test]
    fn epoch_snapshot_pins_blocks_retired_at_or_after_min() {
        let mut snap = EpochSnapshot::new();
        assert_eq!(snap.min_active(), ERA_INF);
        snap.insert(ERA_INF);
        snap.insert(7);
        snap.insert(5);
        assert_eq!(snap.min_active(), 5);

        let old = block_with(1, 4); // retired before the oldest reader
        let pinned = block_with(1, 5); // retired at the oldest reader's epoch
                                       // SAFETY: test-owned live block(s); dereferenced and freed exactly once.
        unsafe {
            assert!(!snap.covers(&*Linked::as_header(old)));
            assert_eq!(snap.pinned_by(&*Linked::as_header(pinned)), Some(5));
            Linked::dealloc(old);
            Linked::dealloc(pinned);
        }
        // The pin holds while the oldest reader is no younger than it.
        assert!(snap.still_pins(5) && snap.still_pins(9) && !snap.still_pins(4));
        snap.clear();
        assert_eq!(snap.min_active(), ERA_INF);
    }

    #[test]
    fn era_snapshot_binary_searches_lifespans() {
        let mut snap = EraSnapshot::new();
        snap.insert(ERA_INF); // ignored
        snap.insert(10);
        snap.insert(20);
        snap.insert(10); // deduped
        snap.seal();
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());

        assert_eq!(snap.pin_span(5, 10), Some(10), "era 10 inside [5,10]");
        assert_eq!(snap.pin_span(10, 30), Some(10), "the smallest era pins");
        assert_eq!(snap.pin_span(15, 25), Some(20), "era 20 inside [15,25]");
        assert_eq!(snap.pin_span(11, 19), None, "gap between the eras");
        assert_eq!(snap.pin_span(21, 99), None, "after every era");
        assert_eq!(snap.pin_span(1, 9), None, "before every era");
        assert!(snap.still_pins(20) && !snap.still_pins(15));

        let block = block_with(15, 25);
        // SAFETY: test-owned live block(s); dereferenced and freed exactly once.
        unsafe {
            assert!(snap.covers(&*Linked::as_header(block)));
            Linked::dealloc(block);
        }
        snap.clear();
        assert!(snap.is_empty());
        assert_eq!(snap.pin_span(0, ERA_INF), None);
    }

    #[test]
    fn interval_snapshot_checks_overlap() {
        let mut snap = IntervalSnapshot::new();
        snap.insert(10, 20);
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());

        let overlapping = block_with(15, 30);
        let disjoint = block_with(21, 30);
        // SAFETY: test-owned live block(s); dereferenced and freed exactly once.
        unsafe {
            assert!(snap.covers(&*Linked::as_header(overlapping)));
            assert!(!snap.covers(&*Linked::as_header(disjoint)));
            Linked::dealloc(overlapping);
            Linked::dealloc(disjoint);
        }
        assert!(!snap.still_pins(0), "no exact pin: survivors are re-judged");
        snap.clear();
        assert!(snap.is_empty());
    }

    #[test]
    fn hazard_snapshot_matches_exact_addresses() {
        let a = block_with(0, 0);
        let b = block_with(0, 0);
        let mut snap = HazardSnapshot::new();
        snap.insert(0); // ignored
        snap.insert(a as usize);
        snap.insert(a as usize); // deduped
        snap.seal();
        assert_eq!(snap.len(), 1);
        // SAFETY: test-owned live block(s); dereferenced and freed exactly once.
        unsafe {
            assert_eq!(snap.pinned_by(&*Linked::as_header(a)), Some(a as u64));
            assert!(!snap.covers(&*Linked::as_header(b)));
            Linked::dealloc(a);
            Linked::dealloc(b);
        }
        assert!(snap.still_pins(a as u64) && !snap.still_pins(b as u64));
    }
}
