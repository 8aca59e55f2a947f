//! Workload definitions (paper §5) plus the kv-service mixes.
//!
//! Two map workloads are used throughout the paper's evaluation:
//!
//! * **write-dominated** — 50% `insert`, 50% `delete` (Figures 5-8);
//! * **read-mostly** — 90% `get`, 10% `put` (Figures 9-11).
//!
//! Queues only support `enqueue`/`dequeue`, so they always run the
//! write-dominated mix (Figure 5). Keys are drawn uniformly from
//! `0..key_range` using a per-thread PRNG.
//!
//! The **kv-service** figure goes beyond the paper's uniform draws: a
//! service-shaped key popularity (Zipfian, via a self-contained SplitMix64
//! PRNG so the streams are seed-replayable byte for byte), read-mostly and
//! write-heavy mixes over it, a TTL sweep (every entry is removed a fixed
//! number of ticks after insertion, the classic cache-expiry churn), and a
//! resize-storm leg of monotonically fresh keys that forces the resizable
//! map through directory doubling after doubling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wfe_ds::hash::mix64;

/// The operation mix applied to key-value structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapWorkload {
    /// 50% `insert`, 50% `delete`.
    WriteDominated,
    /// 90% `get`, 10% `put` (insert).
    ReadMostly,
}

impl MapWorkload {
    /// Human-readable label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            MapWorkload::WriteDominated => "write50",
            MapWorkload::ReadMostly => "read90",
        }
    }
}

/// A single key-value operation to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// Insert `key`.
    Insert(u64),
    /// Remove `key`.
    Remove(u64),
    /// Look up `key`.
    Get(u64),
}

/// Per-thread deterministic operation generator.
#[derive(Debug)]
pub struct OpGenerator {
    rng: StdRng,
    workload: MapWorkload,
    key_range: u64,
}

impl OpGenerator {
    /// Creates a generator seeded from `(seed, thread)` so runs are
    /// reproducible yet threads do not correlate.
    pub fn new(workload: MapWorkload, key_range: u64, seed: u64, thread: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(
                seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            workload,
            key_range,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> MapOp {
        let key = self.rng.gen_range(0..self.key_range);
        match self.workload {
            MapWorkload::WriteDominated => {
                if self.rng.gen_bool(0.5) {
                    MapOp::Insert(key)
                } else {
                    MapOp::Remove(key)
                }
            }
            MapWorkload::ReadMostly => {
                if self.rng.gen_bool(0.9) {
                    MapOp::Get(key)
                } else {
                    MapOp::Insert(key)
                }
            }
        }
    }

    /// Draws a uniformly random key (used by queue workloads for values and by
    /// the prefill phase).
    pub fn next_key(&mut self) -> u64 {
        self.rng.gen_range(0..self.key_range)
    }

    /// Draws a fair coin (used by queue workloads to pick enqueue/dequeue).
    pub fn next_bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }
}

/// Minimal SplitMix64 PRNG (Steele, Lea & Flood): one `u64` of state, a
/// golden-gamma increment and [`mix64`] as the finaliser. Used by the
/// kv-service generators so their streams are replayable from a single seed
/// with no dependence on an external RNG crate's stream layout.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a stream from `seed` (equal seeds ⇒ identical streams).
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A uniform draw from `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Zipfian rank sampler (YCSB's rejection-free inverse-CDF construction)
/// with the standard skew θ = 0.99: rank 0 is the hottest, popularity decays
/// as `1 / rank^θ`. Ranks are scrambled through [`mix64`] (the SplitMix64
/// finaliser the data-structure layer hashes with) before use so the hot set is spread across the key space (and across the
/// resizable map's buckets) instead of clustering at 0.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    key_range: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl ZipfKeys {
    /// The YCSB-standard skew.
    pub const THETA: f64 = 0.99;

    /// Builds the sampler for keys `0..key_range` (θ fixed at
    /// [`THETA`](Self::THETA)). The ζ(n, θ) sum is computed once here.
    pub fn new(key_range: u64) -> Self {
        let key_range = key_range.max(2);
        let theta = Self::THETA;
        let zetan: f64 = (1..=key_range).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = (1.0 - (2.0 / key_range as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            key_range,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            zeta2,
        }
    }

    /// Draws a Zipf-distributed *rank* in `0..key_range` from `rng`.
    pub fn next_rank(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        let rank =
            (self.key_range as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.key_range - 1)
    }

    /// Draws a Zipf-popular *key*: the rank scrambled over the key space so
    /// hot keys do not cluster in one bucket run.
    pub fn next_key(&self, rng: &mut SplitMix64) -> u64 {
        mix64(self.next_rank(rng)) % self.key_range
    }
}

/// The kv-service figure legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceWorkload {
    /// Zipf-popular keys, 90% `get` / 5% `insert` / 5% `remove`.
    ZipfReadMostly,
    /// Zipf-popular keys, 50% `insert` / 50% `remove`.
    ZipfWriteHeavy,
    /// TTL expiry sweep: every tick inserts a fresh key and removes the key
    /// whose TTL just elapsed, so the live set is a sliding window of
    /// [`TTL_WINDOW`](Self::TTL_WINDOW) entries per thread.
    TtlExpiry,
    /// Resize storm: monotonically fresh keys, insert-only — the live set
    /// grows without bound and drives the resizable map through doubling
    /// after doubling.
    ResizeStorm,
}

impl ServiceWorkload {
    /// Ticks an entry lives in the TTL sweep before it is expired.
    pub const TTL_WINDOW: u64 = 512;

    /// All legs, in CSV emission order.
    pub const ALL: [ServiceWorkload; 4] = [
        ServiceWorkload::ZipfReadMostly,
        ServiceWorkload::ZipfWriteHeavy,
        ServiceWorkload::TtlExpiry,
        ServiceWorkload::ResizeStorm,
    ];

    /// Human-readable label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            ServiceWorkload::ZipfReadMostly => "kv-zipf-read90",
            ServiceWorkload::ZipfWriteHeavy => "kv-zipf-write50",
            ServiceWorkload::TtlExpiry => "kv-ttl",
            ServiceWorkload::ResizeStorm => "kv-resize-storm",
        }
    }

    /// Whether the leg starts from a prefilled table (the Zipf mixes) or an
    /// empty one (TTL and the storm build their own live set).
    pub fn prefills(self) -> bool {
        matches!(
            self,
            ServiceWorkload::ZipfReadMostly | ServiceWorkload::ZipfWriteHeavy
        )
    }
}

/// Per-thread deterministic kv-service operation generator, seeded exactly
/// like [`OpGenerator`] (`seed ^ (thread + 1) · golden-gamma`) but on the
/// self-contained SplitMix64 stream.
#[derive(Debug)]
pub struct ServiceOpGenerator {
    rng: SplitMix64,
    workload: ServiceWorkload,
    zipf: Option<ZipfKeys>,
    /// Thread-disjoint namespace for the fresh keys of the TTL and storm
    /// legs (top bits carry the thread id, so threads never collide).
    fresh_base: u64,
    /// Fresh keys handed out so far (the TTL leg's clock).
    tick: u64,
    /// TTL leg bookkeeping: the next call expires instead of inserting.
    expire_next: bool,
}

impl ServiceOpGenerator {
    /// Creates a generator for `thread` under `workload`.
    pub fn new(workload: ServiceWorkload, key_range: u64, seed: u64, thread: usize) -> Self {
        let zipf = match workload {
            ServiceWorkload::ZipfReadMostly | ServiceWorkload::ZipfWriteHeavy => {
                Some(ZipfKeys::new(key_range))
            }
            _ => None,
        };
        Self {
            rng: SplitMix64::new(seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            workload,
            zipf,
            fresh_base: (thread as u64 + 1) << 48,
            tick: 0,
            expire_next: false,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> MapOp {
        match self.workload {
            ServiceWorkload::ZipfReadMostly => {
                let key = self
                    .zipf
                    .as_ref()
                    .expect("zipf leg")
                    .next_key(&mut self.rng);
                let p = self.rng.next_f64();
                if p < 0.90 {
                    MapOp::Get(key)
                } else if p < 0.95 {
                    MapOp::Insert(key)
                } else {
                    MapOp::Remove(key)
                }
            }
            ServiceWorkload::ZipfWriteHeavy => {
                let key = self
                    .zipf
                    .as_ref()
                    .expect("zipf leg")
                    .next_key(&mut self.rng);
                if self.rng.next_u64() & 1 == 0 {
                    MapOp::Insert(key)
                } else {
                    MapOp::Remove(key)
                }
            }
            ServiceWorkload::TtlExpiry => {
                if self.expire_next && self.tick >= ServiceWorkload::TTL_WINDOW {
                    self.expire_next = false;
                    MapOp::Remove(self.fresh_base + (self.tick - ServiceWorkload::TTL_WINDOW))
                } else {
                    self.expire_next = true;
                    let key = self.fresh_base + self.tick;
                    self.tick += 1;
                    MapOp::Insert(key)
                }
            }
            ServiceWorkload::ResizeStorm => {
                let key = self.fresh_base + self.tick;
                self.tick += 1;
                MapOp::Insert(key)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed_and_thread() {
        let mut a = OpGenerator::new(MapWorkload::WriteDominated, 100, 7, 0);
        let mut b = OpGenerator::new(MapWorkload::WriteDominated, 100, 7, 0);
        let mut c = OpGenerator::new(MapWorkload::WriteDominated, 100, 7, 1);
        let seq_a: Vec<MapOp> = (0..100).map(|_| a.next_op()).collect();
        let seq_b: Vec<MapOp> = (0..100).map(|_| b.next_op()).collect();
        let seq_c: Vec<MapOp> = (0..100).map(|_| c.next_op()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn write_dominated_mix_is_roughly_balanced() {
        let mut gen = OpGenerator::new(MapWorkload::WriteDominated, 1000, 1, 0);
        let mut inserts = 0;
        for _ in 0..10_000 {
            match gen.next_op() {
                MapOp::Insert(_) => inserts += 1,
                MapOp::Remove(_) => {}
                MapOp::Get(_) => panic!("no gets in the write-dominated mix"),
            }
        }
        assert!((4_000..=6_000).contains(&inserts));
    }

    #[test]
    fn read_mostly_mix_is_ninety_percent_reads() {
        let mut gen = OpGenerator::new(MapWorkload::ReadMostly, 1000, 2, 0);
        let mut gets = 0;
        let mut removes = 0;
        for _ in 0..10_000 {
            match gen.next_op() {
                MapOp::Get(_) => gets += 1,
                MapOp::Insert(_) => {}
                MapOp::Remove(_) => removes += 1,
            }
        }
        assert!((8_500..=9_500).contains(&gets));
        assert_eq!(removes, 0);
    }

    #[test]
    fn keys_stay_in_range() {
        let mut gen = OpGenerator::new(MapWorkload::ReadMostly, 64, 3, 0);
        for _ in 0..1_000 {
            assert!(gen.next_key() < 64);
            let key = match gen.next_op() {
                MapOp::Insert(k) | MapOp::Remove(k) | MapOp::Get(k) => k,
            };
            assert!(key < 64);
        }
    }

    #[test]
    fn splitmix_streams_replay_from_the_seed() {
        let mut a = SplitMix64::new(0xFEED);
        let mut b = SplitMix64::new(0xFEED);
        let mut c = SplitMix64::new(0xFEED + 1);
        let sa: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb, "equal seeds must replay byte-identically");
        assert_ne!(sa, sc);
    }

    #[test]
    fn zipf_ranks_are_skewed_and_in_range() {
        const RANGE: u64 = 10_000;
        let zipf = ZipfKeys::new(RANGE);
        let mut rng = SplitMix64::new(42);
        let mut head = 0usize;
        for _ in 0..20_000 {
            let rank = zipf.next_rank(&mut rng);
            assert!(rank < RANGE);
            if rank < 10 {
                head += 1;
            }
        }
        // θ = 0.99 puts far more than a uniform 0.1% of draws on the top-10
        // ranks; empirically ≈ 25%. Assert the order of magnitude.
        assert!(head > 2_000, "zipf head too cold: {head} of 20000");
    }

    #[test]
    fn service_generators_replay_and_ttl_slides_a_window() {
        let ops = |seed| {
            let mut g = ServiceOpGenerator::new(ServiceWorkload::TtlExpiry, 1000, seed, 2);
            (0..4_000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(9), ops(9), "service streams must be seed-replayable");
        // Replaying the stream against a set model: the live set stays
        // pinned at the TTL window (every expired key was really present).
        let mut live = std::collections::BTreeSet::new();
        for op in ops(9) {
            match op {
                MapOp::Insert(k) => assert!(live.insert(k), "fresh keys never repeat"),
                MapOp::Remove(k) => assert!(live.remove(&k), "expiry targets a live key"),
                MapOp::Get(_) => {}
            }
            assert!(live.len() as u64 <= ServiceWorkload::TTL_WINDOW + 1);
        }
        let settled = live.len() as u64;
        assert!(
            (ServiceWorkload::TTL_WINDOW - 1..=ServiceWorkload::TTL_WINDOW + 1).contains(&settled),
            "TTL live set must settle at the window, got {settled}"
        );
    }

    #[test]
    fn storm_keys_are_fresh_and_thread_disjoint() {
        let mut a = ServiceOpGenerator::new(ServiceWorkload::ResizeStorm, 1000, 5, 0);
        let mut b = ServiceOpGenerator::new(ServiceWorkload::ResizeStorm, 1000, 5, 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1_000 {
            for g in [&mut a, &mut b] {
                match g.next_op() {
                    MapOp::Insert(k) => assert!(seen.insert(k), "storm keys never repeat"),
                    other => panic!("storm is insert-only, got {other:?}"),
                }
            }
        }
    }
}
