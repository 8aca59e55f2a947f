//! Smoke test: every reclamation scheme in the suite (`Ebr`, `Hp`, `He`,
//! `Ibr2Ge`, `Leak`, `Wfe`) driven through the shared conformance scenarios
//! in `wfe_reclaim::conformance`, via the public `wfe-suite` facade.
//!
//! Each scheme also runs these scenarios in its own crate's unit tests; this
//! file guarantees a plain `cargo test -q` at the workspace root covers all
//! six schemes uniformly even if those per-crate tests are filtered out, and
//! pins down that the conformance suite stays usable from *outside* the
//! `wfe-reclaim` crate (it is deliberately compiled into the library).

use std::sync::Arc;

use wfe_suite::wfe_reclaim::conformance::{self, PinReach};
use wfe_suite::{
    Atomic, CrTurnQueue, Ebr, Handle, He, Hp, Ibr2Ge, Leak, RawHandle, Reclaimer, ReclaimerConfig,
    ResizableHashMap, Wfe,
};

/// Instantiates the conformance battery for one scheme.
///
/// `protection`, `bound`, `adoption` and `clock` are opt-outs: `Leak` never reclaims,
/// so "dropping the protection allows reclamation", the unreclaimed-memory
/// bound and live orphan adoption do not apply to it (its orphans are instead
/// asserted to survive until domain drop); `Ebr`/`Ibr2Ge` get no bound either
/// (epoch advance is batched, so the single-threaded-churn bound is
/// scheme-specific); `Hp` and `Leak` run no era clock, so the `era_freq`
/// cadence does not apply to them. `reach` is how far one held reservation pins blocks,
/// which fixes the exact drop counts of the stalled-reader scenario.
macro_rules! conformance_smoke {
    ($module:ident, $scheme:ty, protection: $protection:expr, bound: $bound:expr,
     adoption: $adoption:expr, clock: $clock:expr, reach: $reach:expr) => {
        mod $module {
            use super::*;

            #[test]
            fn basic_lifecycle() {
                conformance::basic_lifecycle::<$scheme>();
            }

            #[test]
            fn protection_blocks_reclamation() {
                if $protection {
                    conformance::protection_blocks_reclamation::<$scheme>();
                }
            }

            #[test]
            fn all_blocks_freed_on_drop() {
                conformance::all_blocks_freed_on_drop::<$scheme>();
            }

            #[test]
            fn concurrent_stack_stress() {
                conformance::concurrent_stack_stress::<$scheme>(4, 1_000);
            }

            #[test]
            fn unreclaimed_is_bounded() {
                if let Some(bound) = $bound {
                    conformance::unreclaimed_is_bounded::<$scheme>(bound);
                }
            }

            #[test]
            fn orphan_adoption_reclaims_exited_threads_blocks() {
                conformance::orphan_adoption_reclaims_exited_threads_blocks::<$scheme>($adoption);
            }

            #[test]
            fn era_advances_every_era_freq_allocs() {
                if $clock {
                    conformance::era_advances_every_era_freq_allocs::<$scheme>();
                }
            }

            #[test]
            fn stalled_pin_then_release() {
                conformance::stalled_pin_then_release::<$scheme>($reach, false);
            }

            #[test]
            fn stalled_pin_then_release_orphaned() {
                conformance::stalled_pin_then_release::<$scheme>($reach, true);
            }

            #[test]
            fn panicking_destructor_is_contained_cache_on() {
                conformance::panicking_destructor_is_contained::<$scheme>(true);
            }

            #[test]
            fn panicking_destructor_is_contained_cache_off() {
                conformance::panicking_destructor_is_contained::<$scheme>(false);
            }
        }
    };
}

conformance_smoke!(ebr, Ebr, protection: true, bound: None, adoption: true,
                   clock: true, reach: PinReach::Epoch);
conformance_smoke!(hp, Hp, protection: true, bound: Some(2_000), adoption: true,
                   clock: false, reach: PinReach::Pointer);
conformance_smoke!(he, He, protection: true, bound: Some(4_000), adoption: true,
                   clock: true, reach: PinReach::Lifespan);
conformance_smoke!(ibr2ge, Ibr2Ge, protection: true, bound: None, adoption: true,
                   clock: true, reach: PinReach::Lifespan);
conformance_smoke!(leak, Leak, protection: false, bound: None, adoption: false,
                   clock: false, reach: PinReach::Never);
conformance_smoke!(wfe, Wfe, protection: true, bound: Some(4_000), adoption: true,
                   clock: true, reach: PinReach::Lifespan);

/// CRTurn-specific conformance: the queue composes with every scheme. A
/// short two-thread producer/consumer run plus a drain must conserve every
/// element under each of the six reclaimers (the figure sweep of Fig. 5c/5d
/// relies on exactly this matrix).
fn crturn_conserves_elements_under<R: Reclaimer>() {
    const PER_THREAD: u64 = 500;
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..ReclaimerConfig::with_max_threads(3)
    });
    let queue = CrTurnQueue::<u64, R>::new(Arc::clone(&domain));
    let consumed = wfe_sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let queue = &queue;
            let domain = Arc::clone(&domain);
            let consumed = &consumed;
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 1..=PER_THREAD {
                    queue.enqueue(&mut handle, t * PER_THREAD + i);
                    if i % 2 == 0 {
                        if let Some(v) = queue.dequeue(&mut handle) {
                            consumed.fetch_add(v, wfe_sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let mut handle = domain.register();
    while let Some(v) = queue.dequeue(&mut handle) {
        consumed.fetch_add(v, wfe_sync::atomic::Ordering::Relaxed);
    }
    let expected: u64 = (1..=2 * PER_THREAD).sum();
    assert_eq!(consumed.load(wfe_sync::atomic::Ordering::Relaxed), expected);
}

macro_rules! crturn_smoke {
    ($($test:ident: $scheme:ty;)*) => {
        mod crturn {
            use super::*;
            $(
                #[test]
                fn $test() {
                    crturn_conserves_elements_under::<$scheme>();
                }
            )*
        }
    };
}

crturn_smoke! {
    under_ebr: Ebr;
    under_hp: Hp;
    under_he: He;
    under_ibr2ge: Ibr2Ge;
    under_leak: Leak;
    under_wfe: Wfe;
}

/// Resizable-map conformance: the split-ordered map's growth path composes
/// with every scheme. Two writer threads insert disjoint key ranges while a
/// third keeps forcing directory doublings; every key must survive every
/// migration under each of the six reclaimers.
fn resizable_map_conserves_elements_under<R: Reclaimer>() {
    const PER_THREAD: u64 = 400;
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..ReclaimerConfig::with_max_threads(4)
    });
    let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let map = &map;
            let domain = Arc::clone(&domain);
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 0..PER_THREAD {
                    let key = t * PER_THREAD + i;
                    assert!(map.insert(&mut handle, key, key * 3), "key {key} is fresh");
                }
            });
        }
        let map = &map;
        let domain = Arc::clone(&domain);
        scope.spawn(move || {
            let mut handle = domain.register();
            for _ in 0..6 {
                map.force_resize(&mut handle);
                std::thread::yield_now();
            }
        });
    });
    let mut handle = domain.register();
    for key in 0..2 * PER_THREAD {
        assert_eq!(
            map.get(&mut handle, key),
            Some(key * 3),
            "key {key} lost across migrations"
        );
    }
    assert_eq!(map.len(), 2 * PER_THREAD as usize);
    assert!(
        map.stats().resizes >= 6,
        "the resizer thread's doublings landed"
    );
}

/// The mid-resize handle-drop case: a thread grows the map (the superseded
/// bucket arrays land in *its* retired batches) and exits while another
/// thread's reservation still covers its batch — so the exiting thread's
/// final scan cannot drain it and the arrays are parked on the orphan stack.
/// A later thread's cleanup must adopt and free them (`reclaims: true`);
/// under `Leak` the orphans instead survive until domain drop.
///
/// The reservation is a raw-SPI protect on a sentinel block retired by the
/// doomed handle into the same batches as the arrays (hazard-pointer schemes
/// pin only what is explicitly protected, so the sentinel is what guarantees
/// a non-empty orphan batch under every scheme; era schemes additionally pin
/// the arrays themselves through the open operation's span).
fn resizable_map_orphaned_arrays_adopted_under<R: Reclaimer>(reclaims: bool) {
    let domain = R::with_config(ReclaimerConfig {
        // No organic scans: whatever the doomed handle retires stays in its
        // batches until its drop-time final scan.
        cleanup_freq: usize::MAX,
        era_freq: 1,
        ..ReclaimerConfig::with_max_threads(3)
    });
    let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);
    let mut adopter = domain.register();
    let mut reader = domain.register();
    {
        let mut doomed = domain.register();
        let sentinel = doomed.alloc(0u64);
        let root: Atomic<u64> = Atomic::new(sentinel);
        reader.begin_op();
        let protected = reader.protect(&root, 0, std::ptr::null_mut());
        assert!(!protected.is_null());

        for key in 0..64 {
            assert!(map.insert(&mut doomed, key, key));
        }
        for _ in 0..4 {
            assert!(map.force_resize(&mut doomed));
        }
        // The sentinel is unreachable (its root is this local) but pinned by
        // the reader; it rides the same batches as the superseded arrays.
        // SAFETY: allocated above on this domain, never retired elsewhere.
        unsafe { doomed.retire(sentinel) };
        // `doomed` drops here, mid-growth from the map's point of view: the
        // reader's reservation blocks its final scan from draining the
        // batch, which is pushed onto the orphan stack instead.
    }
    assert!(
        domain.stats().unreclaimed > 0,
        "the reader's reservation must orphan the exiting thread's batch"
    );

    reader.clear();
    reader.end_op();
    adopter.force_cleanup();
    adopter.force_cleanup();

    let stats = domain.stats();
    if reclaims {
        assert_eq!(
            stats.unreclaimed, 0,
            "adoption must free the exited thread's retired bucket arrays"
        );
        assert!(
            stats.adopted_batches > 0,
            "the batch must arrive via the orphan path, not a live scan"
        );
    } else {
        assert!(
            stats.unreclaimed > 0,
            "Leak parks orphans until domain drop"
        );
    }
    // The map itself is untouched by the orphan dance.
    for key in 0..64 {
        assert_eq!(map.get(&mut adopter, key), Some(key));
    }
}

macro_rules! resizable_smoke {
    ($($module:ident: $scheme:ty, adoption: $adoption:expr;)*) => {
        mod resizable {
            use super::*;
            $(
                mod $module {
                    use super::*;

                    #[test]
                    fn conserves_elements_across_resizes() {
                        resizable_map_conserves_elements_under::<$scheme>();
                    }

                    #[test]
                    fn orphaned_bucket_arrays_are_adopted() {
                        resizable_map_orphaned_arrays_adopted_under::<$scheme>($adoption);
                    }
                }
            )*
        }
    };
}

resizable_smoke! {
    under_ebr: Ebr, adoption: true;
    under_hp: Hp, adoption: true;
    under_he: He, adoption: true;
    under_ibr2ge: Ibr2Ge, adoption: true;
    under_leak: Leak, adoption: false;
    under_wfe: Wfe, adoption: true;
}
