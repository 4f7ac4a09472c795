//! Seeded input generation shared by every workload.

/// SplitMix64: small, fast and fully determined by its seed, so the same
/// `--seed` always yields the same op stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed; distinct streams of
    /// a seed are independent (preload keys, op mix, corpus, ...).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Picks an entry of a weighted table.
    pub fn pick<T: Copy>(&mut self, table: &[(u32, T)]) -> T {
        let total: u32 = table.iter().map(|(w, _)| w).sum();
        let mut x = self.below(u64::from(total)) as u32;
        for &(w, t) in table {
            if x < w {
                return t;
            }
            x -= w;
        }
        unreachable!("weights sum to total")
    }
}

/// The request class a latency sample is filed under. `Reopen` takes
/// precedence: a request during which its target was remapped counts
/// as a reopen, whatever its op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Point lookup (`Get` / `contains`).
    Read,
    /// Prefix listing (`PrefixQuery` / `prefix_scan`).
    Scan,
    /// One put or delete.
    Write,
    /// A batch of 8 writes.
    Batch,
    /// A request that paid a remapped reopen of its target.
    Reopen,
    /// An explicit eviction (counted, not reported as a latency class).
    Evict,
}

impl Class {
    /// The classes with latency metrics, in report order.
    pub const REPORTED: [Class; 5] = [
        Class::Read,
        Class::Scan,
        Class::Write,
        Class::Batch,
        Class::Reopen,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Scan => "scan",
            Class::Write => "write",
            Class::Batch => "batch",
            Class::Reopen => "reopen",
            Class::Evict => "evict",
        }
    }

    /// Index into per-class arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// Number of [`Class`] variants.
pub const NUM_CLASSES: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&v| v == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        let mut r = Rng::new(1, 1);
        assert!((0..1000).all(|_| r.below(10) < 10));
    }
}
