//! Seeded input generation. The seed decides buffer slots, payload bytes,
//! fresh-buffer positions, visiting order and rogue-op positions; it never
//! decides the mix proportions, so runs with different seeds do the same
//! amount of work of each kind.

/// SplitMix64 finaliser: a stateless hash of `x`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A stateless draw for (`seed`, `stream`, `index`): the same triple always
/// gives the same value, so an op's inputs do not depend on how many ops
/// ran before it.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ index)
}

/// A small sequential generator for bulk data (payloads, permutations).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(draw(seed, stream, 0))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    pub fn fill(&mut self, bytes: &mut [u8]) {
        for chunk in bytes.chunks_mut(8) {
            let word = self.next().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }

    /// A permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// One op in every `period` is special (rogue, fresh buffer): op `index`
/// is the special one of its block iff its position in the block equals the
/// block's seed-drawn position. Exactly one per block, whatever the seed.
pub fn one_in(seed: u64, stream: u64, index: u64, period: u64) -> bool {
    draw(seed, stream, index / period) % period == index % period
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_in_marks_exactly_one_op_per_block() {
        for seed in [0, 1, 42] {
            for block in 0..8u64 {
                let marked = (0..1024)
                    .filter(|i| one_in(seed, 7, block * 1024 + i, 1024))
                    .count();
                assert_eq!(marked, 1, "seed {seed} block {block}");
            }
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut order = Rng::new(3, 1).permutation(1000);
        order.sort_unstable();
        assert!(order.iter().enumerate().all(|(i, &g)| i as u32 == g));
    }

    #[test]
    fn same_seed_same_bytes() {
        let (mut a, mut b) = ([0u8; 37], [0u8; 37]);
        Rng::new(9, 2).fill(&mut a);
        Rng::new(9, 2).fill(&mut b);
        assert_eq!(a, b);
        Rng::new(10, 2).fill(&mut b);
        assert_ne!(a, b);
    }
}
