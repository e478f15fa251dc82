//! Order statistics, the run fingerprint, the seeded generator, and the two
//! process-level counters (heap allocations, peak resident memory).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sort a sample in place (timings are finite, so `total_cmp` is a plain
/// numeric order).
fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// The `p`-quantile (`0.0..=1.0`) of a **sorted** sample, linearly
/// interpolated between the two nearest ranks. Empty samples read 0.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    quantile_sorted(&v, 0.5)
}

/// The highest percentile (in percent) that still has at least ten samples
/// beyond it, and the sample value there. With fewer than twenty samples no
/// tail is supported and the median is returned as the 50th percentile.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    sort(&mut v);
    if v.len() < 20 {
        return (50.0, quantile_sorted(&v, 0.5));
    }
    let idx = v.len() - 11;
    (100.0 * idx as f64 / (v.len() - 1) as f64, v[idx])
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) gives them. Needs at
/// least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let m = n + 1;
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the spread figure the
/// acceptance rule is written in.
pub fn relative_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// CRC-32 (IEEE, reflected) over everything a run decided: frame fates,
/// port counters, deploy reports. Exact for a seed, so a change that only
/// makes the simulator faster must leave it untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u32);

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(!0)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = CRC_TABLE[((self.0 ^ u32::from(b)) & 0xff) as usize] ^ (self.0 >> 8);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u32 {
        !self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, so "same seed,
/// same inputs" does not depend on any library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Counts heap allocations of the whole process. Installed as the global
/// allocator of the benchmark binary; one relaxed add per allocation, in
/// traced and untraced runs alike.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's own arguments.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (and reallocations) made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 where `/proc` does
/// not offer it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert!((relative_spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let (pct, v) = tail(&xs);
        assert_eq!(v, 989.0);
        assert!((pct - 99.0).abs() < 0.1, "{pct}");
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }

    #[test]
    fn fingerprint_is_crc32() {
        let mut f = Fingerprint::new();
        f.bytes(b"123456789");
        assert_eq!(f.value(), 0xcbf4_3926);
        let mut a = Fingerprint::new();
        let mut b = Fingerprint::new();
        a.u64(1);
        a.u64(2);
        b.u64(2);
        b.u64(1);
        assert_ne!(a.value(), b.value(), "order must matter");
    }

    #[test]
    fn allocation_counter_sees_a_box() {
        let before = allocations();
        let b = std::hint::black_box(Box::new(7u64));
        assert!(allocations() > before);
        drop(b);
    }

    #[test]
    fn rng_is_seeded_and_in_range() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1000 {
            assert!(a.below(10) < 10);
            let u = a.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
