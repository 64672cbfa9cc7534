//! Summaries of repeated cells, percentiles of integer samples, and the
//! seeded generator behind every generated input.

/// One metric over the measured cells of a run: the median is the reported
/// value, min/max and the raw cells sit beside it so a reader (and
/// `compare`) can see the spread it was taken from.
#[derive(Clone, Debug)]
pub struct Stat {
    pub unit: &'static str,
    pub cells: Vec<f64>,
}

impl Stat {
    pub fn new(unit: &'static str, cells: Vec<f64>) -> Stat {
        assert!(!cells.is_empty(), "a metric needs at least one cell");
        Stat { unit, cells }
    }

    /// A value that is computed, not timed: one reading.
    pub fn exact(unit: &'static str, value: f64) -> Stat {
        Stat::new(unit, vec![value])
    }

    pub fn median(&self) -> f64 {
        median(&self.cells)
    }

    pub fn min(&self) -> f64 {
        self.cells.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.cells.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile (0..=1) of integer nanosecond samples, interpolated
/// inside the run of equal values that holds the rank. Clock readings are
/// whole nanoseconds, so the plain order statistic of a 100 ns operation
/// would read the same integer on every run and hide a 0.4 ns shift; the
/// grouped-data interpolation keeps the digits the sample counts carry.
/// Sorts `samples`. Returns 0 for an empty set (a layer the workload never
/// called).
pub fn quantile_ns(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = p * samples.len() as f64;
    let at = (rank as usize).min(samples.len() - 1);
    let v = samples[at];
    let below = samples.partition_point(|&s| s < v);
    let equal = samples.partition_point(|&s| s <= v) - below;
    v as f64 + (rank - below as f64) / equal as f64
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer as a stateless hash: both ends of a workload
/// derive a request's generated properties from `mix(seed ^ id)` without a
/// shared table.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_inside_ties() {
        // 100 samples: 40 × 10 ns, 60 × 11 ns. The median rank (50) sits a
        // sixth of the way into the run of 11s.
        let mut s: Vec<u32> = std::iter::repeat_n(10, 40)
            .chain(std::iter::repeat_n(11, 60))
            .collect();
        let q = quantile_ns(&mut s, 0.5);
        assert!((q - (11.0 + 10.0 / 60.0)).abs() < 1e-9, "{q}");
        assert_eq!(quantile_ns(&mut [], 0.5), 0.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let u = Rng::new(9).unit();
        assert!(u > 0.0 && u <= 1.0);
    }
}
