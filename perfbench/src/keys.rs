//! Seeded operation streams: the only source of inputs the workloads see.

/// Keys are drawn uniformly from `0..KEY_RANGE` (the paper's §5 setting).
pub const KEY_RANGE: u64 = 100_000;

/// One map operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(u64),
    Remove(u64),
    Get(u64),
}

/// Operation mix in percent; the remainder are gets.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub insert: u64,
    pub remove: u64,
}

/// A splitmix64 stream. Stream `n` of seed `s` is independent of every other
/// stream of `s`, and the same `(s, n)` always yields the same sequence.
#[derive(Debug, Clone)]
pub struct OpStream {
    state: u64,
}

impl OpStream {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut seeded = Self {
            state: seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F),
        };
        // Discard one output so nearby (seed, stream) pairs diverge at once.
        seeded.next_u64();
        seeded
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A key uniform in `0..KEY_RANGE` (multiply-shift, no modulo bias).
    pub fn next_key(&mut self) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(KEY_RANGE)) >> 64) as u64
    }

    pub fn next_op(&mut self, mix: Mix) -> Op {
        let pick = ((u128::from(self.next_u64()) * 100) >> 64) as u64;
        let key = self.next_key();
        if pick < mix.insert {
            Op::Insert(key)
        } else if pick < mix.insert + mix.remove {
            Op::Remove(key)
        } else {
            Op::Get(key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        insert: 50,
        remove: 50,
    };

    fn ops(seed: u64, stream: u64) -> Vec<Op> {
        let mut s = OpStream::new(seed, stream);
        (0..1000).map(|_| s.next_op(MIX)).collect()
    }

    #[test]
    fn seed_changes_the_key_stream_and_repeats_it() {
        assert_eq!(ops(7, 0), ops(7, 0), "same seed must reproduce the stream");
        assert_ne!(ops(7, 0), ops(8, 0), "another seed must change the stream");
        assert_ne!(ops(7, 0), ops(7, 1), "worker streams must differ");
    }

    #[test]
    fn keys_and_mix_stay_in_range() {
        let mut s = OpStream::new(1, 0);
        let mut inserts = 0;
        for _ in 0..100_000 {
            match s.next_op(MIX) {
                Op::Insert(k) => {
                    inserts += 1;
                    assert!(k < KEY_RANGE);
                }
                Op::Remove(k) => assert!(k < KEY_RANGE),
                Op::Get(_) => panic!("a 50/50 mix issues no gets"),
            }
        }
        assert!((48_000..52_000).contains(&inserts), "{inserts}");
    }
}
