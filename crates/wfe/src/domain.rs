//! The WFE domain state: reservations, slow-path records, helping and the
//! modified `cleanup()` snapshot (Figure 4, right-hand column).

use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use wfe_atomics::CachePadded;
use wfe_reclaim::api::{DomainConfig, Progress, Reclaimer};
use wfe_reclaim::block::BlockHeader;
use wfe_reclaim::domain::{Domain, Scheme};
use wfe_reclaim::scan::{EraSnapshot, ReservationSet};
use wfe_reclaim::slots::PairSlotArray;
use wfe_reclaim::{ERA_INF, INVPTR};

use crate::state::StateTable;

/// Index (relative to a thread's reservation row) of the first internal
/// reservation: the *parent pin* used by helpers (paper: `max_hes`).
pub(crate) const PARENT_SLOT_OFFSET: usize = 0;
/// Index offset of the second internal reservation: the *hand-over pin*
/// (paper: `max_hes + 1`).
pub(crate) const HANDOVER_SLOT_OFFSET: usize = 1;
/// Number of internal reservation slots appended to every thread's row.
pub(crate) const EXTRA_SLOTS: usize = 2;

/// The Wait-Free Eras domain: [`WfeScheme`] on the shared
/// [`Domain`](wfe_reclaim::Domain) skeleton, which owns the era clock
/// (`global_era` in Figure 4), the registry, the counters, the orphan stack
/// and the block caches.
pub type Wfe = Domain<WfeScheme>;

/// The WFE scheme state (paper, Figure 4 top), reached through
/// [`Domain::scheme`](wfe_reclaim::Domain::scheme):
/// * `counter_start` / `counter_end` — how many slow-path cycles have begun /
///   finished; their difference tells era-advancing threads whether anyone
///   needs help, and movement of `counter_start` tells `cleanup()` that a new
///   slow path may have started mid-scan,
/// * `reservations` — `max_threads × (max_hes + 2)` pairs `(era, tag)`;
///   the last two columns are internal to the `help_thread` slow path,
/// * `state` — `max_threads × max_hes` slow-path request records.
pub struct WfeScheme {
    pub(crate) counter_start: CachePadded<AtomicU64>,
    pub(crate) counter_end: CachePadded<AtomicU64>,
    pub(crate) reservations: PairSlotArray,
    pub(crate) state: StateTable,
}

impl WfeScheme {
    /// Number of application-visible reservation slots per thread (`max_hes`).
    #[inline]
    pub(crate) fn app_slots(&self) -> usize {
        self.state.slots()
    }

    /// Row index of a thread's parent-pin internal reservation.
    #[inline]
    pub(crate) fn parent_slot(&self) -> usize {
        self.app_slots() + PARENT_SLOT_OFFSET
    }

    /// Row index of a thread's hand-over internal reservation.
    #[inline]
    pub(crate) fn handover_slot(&self) -> usize {
        self.app_slots() + HANDOVER_SLOT_OFFSET
    }

    /// Snapshots one column range of the reservation table into `snapshot`
    /// (eras only; the tag word is irrelevant to reclamation). The walk goes
    /// shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`](wfe_reclaim::ThreadRegistry::occupied_ranges)):
    /// helper pins live in the rows of *live, registered* helpers, so an idle
    /// shard cannot carry one.
    fn snapshot_columns(domain: &Wfe, snapshot: &mut EraSnapshot, js: usize, je: usize) {
        snapshot.clear();
        for range in domain.registry().occupied_ranges() {
            for thread in range {
                for slot in js..je {
                    snapshot.insert(
                        domain
                            .scheme()
                            .reservations
                            .get(thread, slot)
                            .load_first(Ordering::Acquire), // ORDER: snapshot load; pairs with the Release era withdrawal (see scan.rs safety argument).
                    );
                }
            }
        }
        snapshot.seal();
    }

    /// `increment_era()` (Figure 4, lines 87-98): before advancing the global
    /// era clock, help every pending slow-path request so that the pending
    /// `get_protected()` calls cannot be starved by the very increment we are
    /// about to perform.
    pub(crate) fn increment_era(domain: &Wfe, helper_tid: usize) {
        let scheme = domain.scheme();
        let counter_end = scheme.counter_end.load(Ordering::SeqCst);
        let counter_start = scheme.counter_start.load(Ordering::SeqCst);
        if counter_start != counter_end {
            for thread in 0..scheme.state.threads() {
                for slot in 0..scheme.state.slots() {
                    if scheme.state.get(thread, slot).is_pending() {
                        Self::help_thread(domain, thread, slot, helper_tid);
                    }
                }
            }
        }
        domain.era_source().advance(Ordering::SeqCst);
    }

    /// `help_thread(i, j, tid)` (Figure 4, lines 100-134): completes thread
    /// `i`'s pending `get_protected()` request in slot `j` on its behalf.
    ///
    /// The helper (`helper_tid`) pins the requester's *parent* block by
    /// publishing its `alloc_era` in the parent-pin internal reservation, and
    /// pins the block it reads out of the hazardous location by publishing the
    /// era it read under in the hand-over internal reservation. Both pins are
    /// withdrawn before returning; reclamation safety across the hand-over is
    /// provided by the `cleanup()` scan order (Lemmas 4 and 5).
    pub(crate) fn help_thread(domain: &Wfe, requester: usize, slot: usize, helper_tid: usize) {
        let scheme = domain.scheme();
        domain.counters().on_help();
        let state = scheme.state.get(requester, slot);
        let request = state.result.load();
        if request.0 != INVPTR {
            return;
        }
        // Pin the parent block before touching anything else (Lemma 4).
        let parent_era = state.era.load(Ordering::Acquire); // ORDER: pairs with the requester's SeqCst publish of the slow-path state.
        let parent_pin = scheme.reservations.get(helper_tid, scheme.parent_slot());
        parent_pin.store_first(parent_era, Ordering::SeqCst);

        let location = state.pointer.load(Ordering::Acquire); // ORDER: pairs with the requester's SeqCst publish of the slow-path state.
        let requester_res = scheme.reservations.get(requester, slot);
        let tag = requester_res.load_second(Ordering::SeqCst);
        // If the tag moved on, the request we read belongs to an already
        // finished slow-path cycle: the state fields may be stale, so bail out.
        if tag == request.1 {
            let handover_pin = scheme.reservations.get(helper_tid, scheme.handover_slot());
            let mut prev_era = domain.era();
            // Bounded by the number of in-flight era increments (Lemma 2).
            loop {
                handover_pin.store_first(prev_era, Ordering::SeqCst);
                // SAFETY: `location` is the address of an `AtomicUsize` inside
                // the parent block (or a data-structure root). The tag matched
                // after the parent pin was published, so by Lemma 4 the parent
                // cannot have been reclaimed and the location is still valid.
                let value = unsafe { (*(location as *const AtomicUsize)).load(Ordering::Acquire) }; // ORDER: pairs with the Release publish of the pointer being protected.
                let new_era = domain.era();
                if prev_era == new_era {
                    if state
                        .result
                        .compare_exchange(request, (value as u64, new_era))
                        .is_ok()
                    {
                        // Update the requester's reservation on its behalf;
                        // at most two iterations (Lemma 3).
                        loop {
                            let old = requester_res.load();
                            if old.1 != tag {
                                break;
                            }
                            if requester_res
                                .compare_exchange(old, (new_era, tag + 1))
                                .is_ok()
                            {
                                break;
                            }
                        }
                    }
                    break;
                }
                prev_era = new_era;
                if state.result.load() != request {
                    break;
                }
            }
            handover_pin.store_first(ERA_INF, Ordering::SeqCst);
        }
        parent_pin.store_first(ERA_INF, Ordering::SeqCst);
    }
}

/// The WFE batch-scan scratch: three reusable era snapshots mirroring the
/// three phases of the Figure-4 `cleanup()` eligibility check.
#[derive(Debug, Default)]
pub struct WfeSnapshot {
    /// Normal reservations + parent pins, first pass.
    primary: EraSnapshot,
    /// Whether no slow-path cycle was in flight
    /// (`counter_start == counter_end`) when the primary snapshot was taken.
    quiescent: bool,
    /// Hand-over pins (filled only when a slow path may be in flight).
    handover: EraSnapshot,
    /// Normal reservations, second pass (ditto).
    recheck: EraSnapshot,
}

/// Pins follow the era rule of [`EraSnapshot`] phase by phase: the smallest
/// covering era of `primary`, else — only when a slow path may be in flight
/// — of `handover`, else of `recheck`. `still_pins` accepts an era exactly
/// when `covers` would accept a block whose lifespan holds only that era, so
/// a kept run is one the Figure-4 check would keep block by block and the
/// scan-order argument (Lemmas 4–5) is unchanged.
impl ReservationSet for WfeSnapshot {
    fn pinned_by(&self, block: &BlockHeader) -> Option<u64> {
        let (alloc_era, retire_era) = (block.alloc_era(), block.retire_era());
        let pin = self.primary.pin_span(alloc_era, retire_era);
        if pin.is_some() || self.quiescent {
            return pin;
        }
        self.handover
            .pin_span(alloc_era, retire_era)
            .or_else(|| self.recheck.pin_span(alloc_era, retire_era))
    }

    fn still_pins(&self, pin: u64) -> bool {
        self.primary.contains(pin)
            || (!self.quiescent && (self.handover.contains(pin) || self.recheck.contains(pin)))
    }
}

// SAFETY: the fast path returns only once the era it read the pointer under
// is published (SeqCst) in the slot; the slow path returns either after its
// own stable-era publish or after adopting the era a helper protected the
// value under (Lemmas 1-5), and `fill_snapshot` keeps the Figure-4 scan
// order, so the block stays pinned until the slot moves on or is cleared.
unsafe impl Scheme for WfeScheme {
    const NAME: &'static str = "WFE";
    const PROGRESS: Progress = Progress::WaitFree;
    type Snapshot = WfeSnapshot;

    fn new(config: &DomainConfig) -> Self {
        assert!(
            config.slots_per_thread >= 1,
            "WFE needs at least one application reservation slot"
        );
        assert!(
            config.fast_path_attempts >= 1,
            "WFE needs at least one fast-path attempt"
        );
        Self {
            counter_start: CachePadded::new(AtomicU64::new(0)),
            counter_end: CachePadded::new(AtomicU64::new(0)),
            reservations: PairSlotArray::new(
                config.max_threads,
                config.slots_per_thread + EXTRA_SLOTS,
                (ERA_INF, 0),
            ),
            state: StateTable::new(config.max_threads, config.slots_per_thread),
        }
    }

    #[inline]
    fn clear(domain: &Wfe, tid: usize) {
        // Only the application-visible slots are cleared; the two internal
        // slots belong to the helping machinery. The slow-path tag (second
        // word) must survive, so only the era word is reset.
        for slot in 0..domain.config().slots_per_thread {
            domain
                .scheme()
                .reservations
                .get(tid, slot)
                .store_first(ERA_INF, Ordering::Release); // ORDER: withdraws the era reservations; pairs with the snapshot's Acquire loads.
        }
    }

    #[inline]
    fn protect(
        domain: &Wfe,
        tid: usize,
        src: &AtomicUsize,
        index: usize,
        parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        let reservation = domain.scheme().reservations.get(tid, index);
        let mut prev_era = reservation.load_first(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store in the loop.

        // Fast path (lines 15-24): identical to Hazard Eras, but bounded.
        let mut attempts = domain.config().fast_path_attempts;
        while attempts > 0 {
            attempts -= 1;
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = domain.era();
            if prev_era == new_era {
                return value;
            }
            reservation.store_first(new_era, Ordering::SeqCst);
            prev_era = new_era;
        }

        // The era kept moving: ask for help.
        Self::protect_slow(domain, tid, src, index, parent, prev_era)
    }

    /// Takes the batch-scan snapshot for one `cleanup()` pass, preserving the
    /// Figure-4 (lines 55-67) scan order at batch granularity: normal
    /// reservations and parent pins first, then — unless no slow path was in
    /// flight — the hand-over pins followed by a re-scan of the normal
    /// reservations. Lemmas 4 and 5 rely on exactly this order; taking each
    /// snapshot once per batch (instead of re-reading the table per block)
    /// preserves it, because every block in the batch was retired before the
    /// first snapshot load.
    fn fill_snapshot(domain: &Wfe, snapshot: &mut WfeSnapshot) {
        let scheme = domain.scheme();
        let max_hes = scheme.app_slots();
        // Figure 4, line 56: `counter_end` is read before any reservation.
        let counter_end = scheme.counter_end.load(Ordering::SeqCst);
        // Normal reservations + parent pins (columns 0..=max_hes).
        Self::snapshot_columns(domain, &mut snapshot.primary, 0, max_hes + 1);
        snapshot.quiescent = counter_end == scheme.counter_start.load(Ordering::SeqCst);
        if snapshot.quiescent {
            snapshot.handover.clear();
            snapshot.recheck.clear();
        } else {
            // A slow path may be in flight: a helper may be handing a
            // protected era over to a requester, so scan the hand-over pins
            // and then the normal reservations *again*.
            Self::snapshot_columns(domain, &mut snapshot.handover, max_hes + 1, max_hes + 2);
            Self::snapshot_columns(domain, &mut snapshot.recheck, 0, max_hes);
        }
    }

    /// Figure 4, lines 69-71 and 80-82: help pending readers before
    /// advancing the clock.
    #[inline]
    fn advance_era(domain: &Wfe, tid: usize) {
        Self::increment_era(domain, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wfe_reclaim::conformance::grouped_scan_matches_reference;
    use wfe_reclaim::{Atomic, Handle, Linked, RawHandle, ReclaimerConfig};

    /// Reservations of one snapshot phase across passes: those that appear
    /// for the pass, and which earlier ones persist (bit `i` of the mask
    /// keeps the `i`-th, modulo 64).
    type Phase = (Vec<u64>, u64);

    fn phase() -> impl Strategy<Value = Phase> {
        (proptest::collection::vec(0u64..64, 0..3), any::<u64>())
    }

    /// Withdraws the reservations whose bit in `keep` is clear, publishes
    /// `appear`, and seals the result into `snapshot`.
    fn evolve(active: &mut Vec<u64>, (appear, keep): &Phase, snapshot: &mut EraSnapshot) {
        let mut index = 0;
        active.retain(|_| {
            index += 1;
            keep >> (index % 64) & 1 == 1
        });
        active.extend_from_slice(appear);
        snapshot.clear();
        active.iter().for_each(|&era| snapshot.insert(era));
        snapshot.seal();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The run-grouped scan frees exactly what the Figure-4 check frees
        /// block by block, with `quiescent` drawn per pass so that both
        /// values and the transitions between them occur.
        #[test]
        fn wfe_snapshot_runs_match_reference(
            script in proptest::collection::vec(
                (
                    proptest::collection::vec(
                        (0u64..48, 0u64..12).prop_map(|(alloc, span)| (alloc, alloc + span)),
                        0..10,
                    ),
                    (phase(), phase(), phase()),
                    any::<bool>(),
                ),
                1..12,
            )
        ) {
            let bursts: Vec<_> = script.iter().map(|pass| pass.0.clone()).collect();
            let mut active: [Vec<u64>; 3] = Default::default();
            grouped_scan_matches_reference(&bursts, |pass, _| {
                let (_, (primary, handover, recheck), quiescent) = &script[pass];
                let mut snapshot = WfeSnapshot { quiescent: *quiescent, ..Default::default() };
                evolve(&mut active[0], primary, &mut snapshot.primary);
                // A quiescent pass does not read the helper columns.
                if !snapshot.quiescent {
                    evolve(&mut active[1], handover, &mut snapshot.handover);
                    evolve(&mut active[2], recheck, &mut snapshot.recheck);
                }
                snapshot
            });
        }
    }

    #[test]
    fn reservation_row_has_two_extra_internal_slots() {
        let domain = Wfe::with_config(ReclaimerConfig {
            slots_per_thread: 3,
            ..ReclaimerConfig::with_max_threads(2)
        });
        assert_eq!(domain.scheme().reservations.slots(), 5);
        assert_eq!(domain.scheme().parent_slot(), 3);
        assert_eq!(domain.scheme().handover_slot(), 4);
        assert_eq!(domain.scheme().state.slots(), 3);
    }

    #[test]
    fn help_thread_completes_a_pending_request() {
        // Deterministic exercise of `help_thread`: thread 0 stages a request
        // by hand exactly as the slow path of `get_protected` would, then
        // thread 1 runs `increment_era` and must produce the result.
        let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(2));
        let mut owner = domain.register();
        let helper = domain.register();

        let node = owner.alloc(99u64);
        let root: Atomic<u64> = Atomic::new(node);

        let tid = owner.thread_id();
        let slot = 0usize;
        let tag = domain
            .scheme()
            .reservations
            .get(tid, slot)
            .load_second(Ordering::SeqCst);

        // Stage the request (Figure 4, lines 31-33).
        domain.scheme().counter_start.fetch_add(1, Ordering::SeqCst);
        let state = domain.scheme().state.get(tid, slot);
        state
            .pointer
            .store(root.as_raw_atomic() as *const _ as usize, Ordering::SeqCst);
        state.era.store(ERA_INF, Ordering::SeqCst);
        state.result.store((INVPTR, tag));
        assert!(state.is_pending());

        // A thread about to advance the era must first help.
        WfeScheme::increment_era(&domain, helper.thread_id());

        let produced = state.result.load();
        assert_ne!(produced.0, INVPTR, "request was completed by the helper");
        assert_eq!(produced.0, node as u64, "helper read the hazardous pointer");
        let reservation = domain.scheme().reservations.get(tid, slot).load();
        assert_eq!(
            reservation.0, produced.1,
            "reservation era set on requester's behalf"
        );
        assert_eq!(reservation.1, tag + 1, "tag advanced to close the cycle");
        // Helper pins are withdrawn.
        assert_eq!(
            domain
                .scheme()
                .reservations
                .get(helper.thread_id(), domain.scheme().parent_slot())
                .load_first(Ordering::SeqCst),
            ERA_INF
        );
        assert_eq!(
            domain
                .scheme()
                .reservations
                .get(helper.thread_id(), domain.scheme().handover_slot())
                .load_first(Ordering::SeqCst),
            ERA_INF
        );
        assert!(domain.stats().helps >= 1);

        // Finish the staged cycle the way get_protected would.
        domain.scheme().counter_end.fetch_add(1, Ordering::SeqCst);
        // SAFETY: test-owned block, unlinked and freed exactly once.
        unsafe { Linked::dealloc(node) };
    }

    #[test]
    fn help_thread_ignores_stale_requests() {
        // If the requester's tag has already moved past the tag recorded in
        // the request, the helper must not touch anything.
        let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(2));
        let owner = domain.register();
        let helper = domain.register();
        let tid = owner.thread_id();

        let root: Atomic<u64> = Atomic::null();
        let state = domain.scheme().state.get(tid, 0);
        state
            .pointer
            .store(root.as_raw_atomic() as *const _ as usize, Ordering::SeqCst);
        state.era.store(ERA_INF, Ordering::SeqCst);
        // Stage a request whose tag is already out of date (reservation tag is
        // 0, the request claims tag 5).
        state.result.store((INVPTR, 5));

        WfeScheme::help_thread(&domain, tid, 0, helper.thread_id());

        assert!(state.is_pending(), "stale request left untouched");
        assert_eq!(
            domain.scheme().reservations.get(tid, 0).load(),
            (ERA_INF, 0),
            "requester's reservation untouched"
        );
    }

    #[test]
    fn increment_era_without_pending_requests_just_bumps_the_clock() {
        let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(2));
        let handle = domain.register();
        let before = domain.era();
        WfeScheme::increment_era(&domain, handle.thread_id());
        assert_eq!(domain.era(), before + 1);
        assert_eq!(domain.stats().helps, 0);
    }
}
