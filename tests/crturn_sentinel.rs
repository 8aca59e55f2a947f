//! Leak check for the CRTurn queue's initial sentinel.
//!
//! The sentinel a fresh queue starts with must be freed once the head has
//! moved past it: retired by its owner while the queue runs, or freed by
//! the queue's drop. In debug builds the block layer keeps a process-wide
//! balance of class allocations minus class deallocations, so dropping the
//! queue and its domain must bring the balance back to zero — which is why
//! this is the only test in its binary.

use std::sync::Arc;

use wfe_suite::wfe_reclaim::cache::outstanding_cached_allocs;
use wfe_suite::wfe_reclaim::BlockCacheConfig;
use wfe_suite::{CrTurnQueue, Ebr, He, Hp, Ibr2Ge, Leak, Reclaimer, ReclaimerConfig, Wfe};

/// Moves the head past the initial sentinel from two threads (so both the
/// sentinel's owner and another thread dequeue), then drops queue and
/// domain. `balance` is checked by the caller once every scheme ran.
fn run_and_drop<R: Reclaimer>() {
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 1,
        era_freq: 1,
        block_cache: BlockCacheConfig {
            enabled: true,
            per_class_capacity: 8,
        },
        ..ReclaimerConfig::with_max_threads(2)
    });
    let queue = CrTurnQueue::<u64, R>::new(Arc::clone(&domain));
    let mut first = domain.register();
    let mut second = domain.register();
    for i in 0..32u64 {
        queue.enqueue(&mut first, i);
        let handle = if i % 2 == 0 { &mut first } else { &mut second };
        assert_eq!(queue.dequeue(handle), Some(i));
    }
    drop((first, second));
    drop(queue);
    assert_eq!(
        Arc::strong_count(&domain),
        1,
        "queue and handles released the domain"
    );
    drop(domain);
}

#[test]
fn initial_sentinel_is_freed_under_every_scheme() {
    run_and_drop::<Wfe>();
    run_and_drop::<He>();
    run_and_drop::<Hp>();
    run_and_drop::<Ebr>();
    run_and_drop::<Ibr2Ge>();
    run_and_drop::<Leak>();
    // Release builds return `None` (no counter) and the test degrades to
    // the run itself.
    if let Some(balance) = outstanding_cached_allocs() {
        assert_eq!(balance, 0, "{balance} CRTurn block(s) were never freed");
    }
}
