//! Reference equivalence of the run-grouped batch scan.
//!
//! For random era stamps, retirement bursts and reservation sets that
//! appear, persist and vanish from pass to pass, every pass of
//! `RetiredBatch::scan_against` must free exactly the blocks a naive
//! per-block `covers` walk frees (see
//! `wfe_reclaim::conformance::grouped_scan_matches_reference`). A failing
//! case prints the `PROPTEST_SEED` that replays it.

use proptest::prelude::*;
use wfe_reclaim::conformance::grouped_scan_matches_reference;
use wfe_reclaim::scan::{EpochSnapshot, EraSnapshot, HazardSnapshot, IntervalSnapshot};

/// One pass: the `(alloc_era, retire_era)` stamps retired before it, the
/// reservations that appear for it, and which earlier ones persist (bit `i`
/// of the mask keeps the `i`-th, modulo 64).
type Pass = (Vec<(u64, u64)>, Vec<u64>, u64);

fn script() -> impl Strategy<Value = Vec<Pass>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(
                (0u64..48, 0u64..12).prop_map(|(alloc, span)| (alloc, alloc + span)),
                0..10,
            ),
            proptest::collection::vec(0u64..64, 0..4),
            any::<u64>(),
        ),
        1..12,
    )
}

fn bursts(script: &[Pass]) -> Vec<Vec<(u64, u64)>> {
    script.iter().map(|pass| pass.0.clone()).collect()
}

/// Withdraws the reservations whose bit in `keep` is clear, then publishes
/// `appear`.
fn evolve(active: &mut Vec<u64>, keep: u64, appear: impl IntoIterator<Item = u64>) {
    let mut index = 0;
    active.retain(|_| {
        index += 1;
        keep >> (index % 64) & 1 == 1
    });
    active.extend(appear);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn era_snapshot_runs_match_reference(script in script()) {
        let mut active = Vec::new();
        grouped_scan_matches_reference(&bursts(&script), |pass, _| {
            let (_, appear, keep) = &script[pass];
            evolve(&mut active, *keep, appear.iter().copied());
            let mut snapshot = EraSnapshot::new();
            active.iter().for_each(|&era| snapshot.insert(era));
            snapshot.seal();
            snapshot
        });
    }

    #[test]
    fn epoch_snapshot_runs_match_reference(script in script()) {
        let mut active = Vec::new();
        grouped_scan_matches_reference(&bursts(&script), |pass, _| {
            let (_, appear, keep) = &script[pass];
            evolve(&mut active, *keep, appear.iter().copied());
            let mut snapshot = EpochSnapshot::new();
            active.iter().for_each(|&epoch| snapshot.insert(epoch));
            snapshot
        });
    }

    #[test]
    fn hazard_snapshot_runs_match_reference(script in script()) {
        // Hazards name live blocks; a persisting hazard may outlive its
        // block, and the address may then be reused by a later block.
        let mut active = Vec::new();
        grouped_scan_matches_reference(&bursts(&script), |pass, live| {
            let (_, appear, keep) = &script[pass];
            let appear = appear
                .iter()
                .filter_map(|&pick| live.get(pick as usize % live.len().max(1)))
                .map(|&addr| addr as u64);
            evolve(&mut active, *keep, appear);
            let mut snapshot = HazardSnapshot::new();
            active.iter().for_each(|&addr| snapshot.insert(addr as usize));
            snapshot.seal();
            snapshot
        });
    }

    #[test]
    fn interval_snapshot_runs_match_reference(script in script()) {
        // An interval `[lower, lower + lower % 8]` per reservation.
        let mut active = Vec::new();
        grouped_scan_matches_reference(&bursts(&script), |pass, _| {
            let (_, appear, keep) = &script[pass];
            evolve(&mut active, *keep, appear.iter().copied());
            let mut snapshot = IntervalSnapshot::new();
            active.iter().for_each(|&lower| snapshot.insert(lower, lower + lower % 8));
            snapshot
        });
    }
}
