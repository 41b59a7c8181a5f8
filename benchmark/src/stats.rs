//! Robust statistics with a fixed memory footprint: a log-linear latency
//! histogram, the sliced window, medians, and the process's peak RSS.
//!
//! Nothing here grows with the number of operations measured, so
//! `peak_rss_mib` is the system's memory, not the benchmark's.

use std::time::Instant;

/// Sub-buckets per power of two: bucket width is 1/64 of its lower bound
/// (1.6 %), and quantiles interpolate inside the bucket.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values up to 2^41 ns (~37 min) get their own bucket; larger ones clamp.
const MAX_OCTAVE: u32 = 40;
const BUCKETS: usize = (2 * SUB + (MAX_OCTAVE - SUB_BITS) as u64 * SUB) as usize;

/// Fixed log-bucket histogram of nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(value: u64) -> usize {
        if value < 2 * SUB {
            return value as usize;
        }
        let octave = (63 - value.leading_zeros()).min(MAX_OCTAVE);
        let shift = octave - SUB_BITS;
        let sub = (value >> shift).min(2 * SUB - 1) - SUB;
        (2 * SUB + u64::from(octave - SUB_BITS - 1) * SUB + sub) as usize
    }

    /// Lower bound and width of bucket `index`.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < 2 * SUB {
            return (index, 1);
        }
        let octave = (index - 2 * SUB) / SUB + u64::from(SUB_BITS) + 1;
        let sub = (index - 2 * SUB) % SUB;
        let shift = octave - u64::from(SUB_BITS);
        ((SUB + sub) << shift, 1 << shift)
    }

    pub fn record(&mut self, value_ns: u64) {
        self.counts[Self::index(value_ns)] += 1;
        self.total += 1;
    }

    pub fn samples(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile in nanoseconds (0 when empty), interpolated by rank
    /// inside the bucket that holds it.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * (self.total - 1) as f64;
        let mut before = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && rank < (before + count) as f64 {
                let (low, width) = Self::bounds(index);
                let within = (rank - before as f64 + 0.5) / count as f64;
                return low as f64 + width as f64 * within;
            }
            before += count;
        }
        let (low, width) = Self::bounds(BUCKETS - 1);
        (low + width) as f64
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One metric over a run's slices (or set-ups): the value reported and the
/// min / median / max it was picked from.
#[derive(Clone, Copy, Default, Debug)]
pub struct Spread {
    pub picked: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Spread {
    /// The spread of `values`, picking their median (all 0 when empty).
    pub fn of(values: &[f64]) -> Spread {
        if values.is_empty() {
            return Spread::default();
        }
        let median = median(values);
        Spread {
            picked: median,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            median,
            max: values.iter().copied().fold(0.0, f64::max),
        }
    }
}

/// Op classes a workload times separately.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Ioctl = 0,
    Write = 1,
    Read = 2,
}

pub const CLASSES: [Class; 3] = [Class::Ioctl, Class::Write, Class::Read];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Ioctl => "ioctl",
            Class::Write => "write",
            Class::Read => "read",
        }
    }
}

/// How a run's slices become one number: the slice a tenth of the way from
/// the fastest to the slowest is the measurement.
///
/// Every workload here differs from slice to slice only by things that slow
/// it down. On the CI box memory-bound code swings by a fifth over seconds
/// while an ALU loop does not move, and no steal time is reported: the
/// disturbance comes from outside the guest, and the fast slices are the
/// ones it spared. The single fastest slice is an outlier too often (a
/// generator that stalls and then takes a burst of completions reads five
/// times the rate for one slice; a dozen-sample median reads anything), the
/// median slice drifts with the box; over ten runs the fastest-decile slice
/// spread least on every workload (README, "How steady it is").
const PICKED_QUANTILE: f64 = 0.9;

/// The picked value of `values`, where faster is `higher` or lower (0 when
/// empty).
pub fn pick(values: &[f64], higher_is_faster: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let towards_fastest = if higher_is_faster {
        PICKED_QUANTILE
    } else {
        1.0 - PICKED_QUANTILE
    };
    sorted[((sorted.len() - 1) as f64 * towards_fastest).round() as usize]
}

/// The timed window, cut into short slices. Each slice keeps only its op
/// count and its median latency, so memory does not grow with the ops
/// measured.
pub struct Window {
    slice_ns: u64,
    /// Counted ops per slice, and when the last of them completed.
    ops: Vec<u32>,
    last_at_ns: Vec<u64>,
    /// Median gated latency per closed slice, ns (0 where it saw none).
    p50_ns: Vec<f64>,
    /// The slice being filled and its gated latencies.
    open: usize,
    scratch: Histogram,
    /// Whole-window gated latency, and latency per op class (diagnostics).
    gated: Histogram,
    by_class: [Histogram; 3],
}

impl Window {
    pub fn new(slices: usize, slice_ns: u64) -> Window {
        Window {
            slice_ns,
            ops: vec![0; slices],
            last_at_ns: vec![0; slices],
            p50_ns: vec![0.0; slices],
            open: 0,
            scratch: Histogram::default(),
            gated: Histogram::default(),
            by_class: Default::default(),
        }
    }

    pub fn len_ns(&self) -> u64 {
        self.slice_ns * self.ops.len() as u64
    }

    fn close_slices_before(&mut self, index: usize) {
        while self.open < index.min(self.ops.len()) {
            self.p50_ns[self.open] = self.scratch.quantile_ns(0.5);
            self.scratch.clear();
            self.open += 1;
        }
    }

    /// Records one op completed `at_ns` after the window opened: `counted`
    /// ops make the rate, `gated` ops make the gated median, every op lands
    /// in its class's histogram. Completions after the window closed are
    /// ignored.
    pub fn record(
        &mut self,
        at_ns: u64,
        latency_ns: u64,
        class: Class,
        counted: bool,
        gated: bool,
    ) {
        let index = (at_ns / self.slice_ns) as usize;
        if index >= self.ops.len() {
            return;
        }
        self.close_slices_before(index);
        if counted {
            self.ops[index] += 1;
            self.last_at_ns[index] = at_ns;
        }
        if gated {
            self.scratch.record(latency_ns);
            self.gated.record(latency_ns);
        }
        self.by_class[class as usize].record(latency_ns);
    }

    /// Closes the last slice; call once, when the window's time is up.
    pub fn finish(&mut self) {
        self.close_slices_before(self.ops.len());
    }

    /// Completed ops per second: the picked slice, with the slices' spread.
    /// A slice's ops are timed from the last completion before it to its own
    /// last completion, so a slice of few long ops is not rounded to a whole
    /// number of them.
    pub fn ops_per_s(&self) -> Spread {
        let mut previous = 0;
        let rates: Vec<f64> = self
            .ops
            .iter()
            .zip(&self.last_at_ns)
            .map(|(&ops, &last)| {
                if ops == 0 || last <= previous {
                    return 0.0;
                }
                let rate = f64::from(ops) * 1e9 / (last - previous) as f64;
                previous = last;
                rate
            })
            .collect();
        Spread {
            picked: pick(&rates, true),
            ..Spread::of(&rates)
        }
    }

    /// Median gated latency in µs: the picked slice among those that saw a
    /// sample, with their spread.
    pub fn p50_us(&self) -> Spread {
        let medians: Vec<f64> = self
            .p50_ns
            .iter()
            .filter(|&&ns| ns > 0.0)
            .map(|ns| ns / 1e3)
            .collect();
        Spread {
            picked: pick(&medians, false),
            ..Spread::of(&medians)
        }
    }

    /// Whole-window gated latency.
    pub fn gated(&self) -> &Histogram {
        &self.gated
    }

    pub fn class(&self, class: Class) -> &Histogram {
        &self.by_class[class as usize]
    }
}

/// Monotonic nanoseconds since the run's epoch.
#[derive(Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn start() -> Epoch {
        Epoch(Instant::now())
    }

    #[inline]
    pub fn ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not provide it).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut previous = 0;
        for value in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            65_535,
            1 << 30,
            u64::MAX,
        ] {
            let index = Histogram::index(value);
            assert!(index >= previous && index < BUCKETS, "{value} -> {index}");
            let (low, width) = Histogram::bounds(index);
            if value < 1 << (MAX_OCTAVE + 1) {
                assert!(
                    low <= value && value < low + width,
                    "{value} in [{low},+{width})"
                );
            }
            previous = index;
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket_of_the_truth() {
        let mut hist = Histogram::default();
        for value in 1..=10_000u64 {
            hist.record(value * 100);
        }
        let p50 = hist.quantile_ns(0.5);
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.02, "p50 {p50}");
        let p99 = hist.quantile_ns(0.99);
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.02, "p99 {p99}");
    }

    #[test]
    fn the_pick_is_a_tenth_of_the_way_from_the_fastest() {
        let rates = [5.0, 1.0, 3.0, 2.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0];
        assert_eq!(pick(&rates, true), 10.0);
        assert_eq!(pick(&rates, false), 2.0);
        assert_eq!(pick(&[], false), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
