//! Sample statistics, the simulated-result digest, and the process's own
//! clocks and memory counters.

use std::time::Instant;

/// Median of `values`; with an even count the lower of the two middle
/// samples, not their mean: interference from the host only ever adds time,
/// so of two repetitions the faster one is the better estimate. Zero for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[(n - 1) / 2],
    }
}

/// The sample-count rule for a tail latency: the highest whole percentile
/// that still has at least ten samples beyond it, capped at 99. With fewer
/// than twenty samples no percentile above the median qualifies and the
/// median itself (50) is returned, so the caller never reports a tail that a
/// single slow sample decides.
pub fn tail_percentile(samples: usize) -> u32 {
    if samples < 20 {
        return 50;
    }
    ((100 * (samples - 10) / samples) as u32).clamp(50, 99)
}

/// FNV-1a over everything a workload simulated: seconds as bit patterns,
/// byte and iteration counts, model coordinates, emitted documents. Two runs
/// agree on the digest exactly when they produced the same simulated result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// One whole word per step: the shuffle workload digests two million
    /// words per job, and a byte-wise pass would rival the job itself.
    pub fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(FNV_PRIME).rotate_left(29);
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The layout of `struct timespec` on 64-bit Linux, where `time_t` and
/// `long` are both 64 bits wide.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads its CPU clock and /proc the way 64-bit Linux provides them");

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process so far, all threads, including
/// threads that have already exited (the vendored rayon spawns scoped
/// threads per parallel call). The standard library has no CPU clock, and
/// `/proc/self/stat` counts in ticks of 10 ms, too coarse for repetitions of
/// a fifth of a second.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of the layout the
    // cfg above pins, and `clock_gettime` writes nothing else. The call
    // cannot fail for this clock id on Linux; a failure would leave zeros.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far: `VmHWM`, which the kernel
/// gives in kB of 1024 bytes, divided by 1024.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status (the benchmark needs Linux): {e}"))?;
    parse_peak_rss_mb(&status)
}

fn parse_peak_rss_mb(status: &str) -> Result<f64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "malformed /proc/self/status: no VmHWM line".to_string())
}

/// Wall and CPU seconds of one stretch of the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, other: Usage) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
    }
}

impl std::ops::Sub for Usage {
    type Output = Usage;
    fn sub(self, other: Usage) -> Usage {
        Usage {
            wall_s: self.wall_s - other.wall_s,
            cpu_s: self.cpu_s - other.cpu_s,
        }
    }
}

/// A reading of both clocks; [`Stamp::elapsed`] is the usage since then.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    wall: Instant,
    cpu_s: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            cpu_s: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Usage {
        Usage {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - self.cpu_s,
        }
    }
}

/// SplitMix64, the seed expander every workload draws its inputs from (the
/// same generator the repo's `event_bench` uses for its hold model).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[9.0, 6.0]), 6.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // Below twenty samples nothing above the median has ten beyond it.
        assert_eq!(tail_percentile(0), 50);
        assert_eq!(tail_percentile(19), 50);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(60), 83);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(120), 91);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(1_000_000), 99);
        for n in 20..500 {
            let p = tail_percentile(n);
            // The rank `pic_simnet::report::nearest_rank` picks.
            let rank = (f64::from(p) / 100.0 * n as f64).ceil() as usize;
            assert!(n - rank >= 10, "n={n} p={p} leaves {} beyond", n - rank);
        }
    }

    #[test]
    fn digest_separates_order_and_value() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.float(0.0);
        let mut d = Digest::default();
        d.float(-0.0);
        assert_ne!(c.finish(), d.finish(), "digest sees bit patterns");
        let mut e = Digest::default();
        e.bytes(b"abc");
        assert_eq!(e.finish(), 0xe71f_a219_0541_574b, "FNV-1a test vector");
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  209092 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status).unwrap(), 209092.0 / 1024.0);
        assert!(parse_peak_rss_mb("Name:\tx\n").is_err());
    }

    #[test]
    fn clocks_advance() {
        let t = Stamp::now();
        let mut s = 1;
        let mut acc = 0;
        for _ in 0..3_000_000 {
            acc ^= splitmix64(&mut s);
        }
        std::hint::black_box(acc);
        let u = t.elapsed();
        // A busy loop on one thread: CPU time tracks wall time.
        assert!(u.wall_s > 0.0 && u.cpu_s > 0.0 && u.cpu_s < 4.0 * u.wall_s);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..18).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut 7);
        shuffle(&mut b, &mut 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert_ne!(a, sorted);
    }
}
