//! The deterministic runner: PRNG and failure type.

use std::fmt;

/// Number of generated cases per property.
pub const CASES: u32 = 64;

/// A splitmix64 PRNG; deterministic per test name so failures reproduce.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator seeded from the test's name.
    pub fn deterministic(name: &str) -> Self {
        // FNV-1a over the name, folded into a fixed global seed.
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for byte in name.bytes() {
            seed ^= u64::from(byte);
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "empty range");
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % bound
    }
}

/// A failed property case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Fails the current case with `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}
