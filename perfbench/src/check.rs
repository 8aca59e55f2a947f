//! Output checks: per-key conservation over the whole run.

/// Counts the keys that break conservation: prefill presence, plus the
/// workers' successful inserts, minus their successful removes, must equal
/// the key's presence after the run (so both are 0 or 1). `net` holds the
/// summed per-worker tallies.
pub fn bad_keys(prefilled: &[bool], net: &[i64], present: &[bool]) -> usize {
    assert!(prefilled.len() == net.len() && net.len() == present.len());
    prefilled
        .iter()
        .zip(net)
        .zip(present)
        .filter(|((&before, &delta), &after)| i64::from(before) + delta != i64::from(after))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_a_wrong_tally() {
        let prefilled = [true, false, true, false];
        let present = [false, true, true, false];
        let right = [-1, 1, 0, 0];
        assert_eq!(bad_keys(&prefilled, &right, &present), 0);

        // One lost remove: key 2 reads as removed twice.
        let lost = [-1, 1, -1, 0];
        assert_eq!(bad_keys(&prefilled, &lost, &present), 1);
        // A double insert that happened to leave the key present.
        let doubled = [-1, 2, 0, 0];
        assert_eq!(bad_keys(&prefilled, &doubled, &present), 1);
    }
}
