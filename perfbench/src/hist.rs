//! Fixed-size latency histogram shared by the end-to-end and traced runs.

use std::time::Instant;

/// Values below `2^LINEAR_BITS` ns are kept exactly.
const LINEAR_BITS: u32 = 16;
/// Each power of two above that is split into `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 6;
const SUBS: usize = 1 << SUB_BITS;

/// Exact 1 ns buckets below 65.5 µs and 64 buckets per power of two above
/// (1.6% wide), so a quantile is exact unless it lies beyond 65.5 µs.
/// Recording is O(1) and the memory is fixed, whatever the run length.
pub struct Hist {
    linear: Vec<u32>,
    wide: Vec<u64>,
    count: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            linear: vec![0; 1 << LINEAR_BITS],
            wide: vec![0; (64 - LINEAR_BITS as usize) * SUBS],
            count: 0,
        }
    }
}

/// Index into `Hist::wide` of a value of at least `2^LINEAR_BITS` ns.
fn wide_index(ns: u64) -> usize {
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUBS - 1);
    (exp - LINEAR_BITS) as usize * SUBS + sub
}

/// The lower bound of `Hist::wide` bucket `index`.
fn wide_floor(index: usize) -> u64 {
    let exp = index / SUBS + LINEAR_BITS as usize;
    ((SUBS + index % SUBS) as u64) << (exp - SUB_BITS as usize)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        match self.linear.get_mut(ns as usize) {
            Some(bucket) => *bucket += 1,
            None => self.wide[wide_index(ns)] += 1,
        }
        self.count += 1;
    }

    pub fn record_since(&mut self, start: Instant) {
        self.record(start.elapsed().as_nanos() as u64);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.linear.iter_mut().zip(&other.linear) {
            *mine += theirs;
        }
        for (mine, theirs) in self.wide.iter_mut().zip(&other.wide) {
            *mine += theirs;
        }
        self.count += other.count;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank quantile in ns (0 for an empty histogram). A value above
    /// the exact range reads as its bucket's lower bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (ns, &n) in self.linear.iter().enumerate() {
            seen += u64::from(n);
            if seen >= rank {
                return ns as f64;
            }
        }
        for (index, &n) in self.wide.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return wide_floor(index) as f64;
            }
        }
        unreachable!("rank {rank} is at most the count {}", self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_below_the_linear_limit() {
        let mut h = Hist::default();
        for ns in 1..=100 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        let mut other = Hist::default();
        other.record(1_000_000);
        h.merge(&other);
        assert_eq!(h.count(), 101);
        // 1 ms lands in the 8 192 ns wide bucket starting at 999 424 ns.
        assert_eq!(h.quantile(1.0), 999_424.0);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn wide_buckets_floor_their_values_within_two_percent() {
        for ns in [
            1u64 << 16,
            70_000,
            524_288,
            1_000_000,
            123_456_789,
            u64::MAX,
        ] {
            let floor = wide_floor(wide_index(ns));
            assert!(floor <= ns && ns - floor <= ns / 64, "{ns} -> {floor}");
        }
    }
}
