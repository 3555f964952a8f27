//! Measurement helpers: nearest-rank percentiles with their sample
//! counts, process CPU time and peak resident memory from procfs,
//! outcome accounting, and a bit-exact output digest.

use shmt::Tensor;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat` (Linux `USER_HZ`, 100 on every mainstream ABI).
const USER_HZ: f64 = 100.0;

/// A tail percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples per tail window: the p99 of 1000 samples leaves exactly
/// [`MIN_BEYOND`] beyond it.
pub const TAIL_WINDOW: usize = 1000;

/// A percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly ranked beyond the percentile.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending slice: the sample at rank
/// `ceil(p/100 · n)`. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0).clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Sorts a copy of `samples` and takes the nearest-rank percentile.
pub fn percentile_of(samples: &[f64], p: f64) -> Option<Percentile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of a sample (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A tail estimate robust to one host stall: `samples` (in completion
/// order) are cut into consecutive windows of at least [`TAIL_WINDOW`]
/// samples, each window's p99 keeps at least [`MIN_BEYOND`] samples
/// beyond it, and the estimate is the median of the window p99s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedTail {
    /// Median of the per-window p99s.
    pub value: f64,
    /// Windows the samples were cut into.
    pub windows: usize,
    /// Fewest samples beyond the p99 in any window.
    pub min_beyond: usize,
}

/// See [`WindowedTail`]. `None` when fewer than [`TAIL_WINDOW`] samples
/// exist, i.e. no p99 with [`MIN_BEYOND`] samples beyond it.
pub fn windowed_p99(samples: &[f64]) -> Option<WindowedTail> {
    let windows = samples.len() / TAIL_WINDOW;
    if windows == 0 {
        return None;
    }
    let per = samples.len() / windows;
    let mut p99s = Vec::with_capacity(windows);
    let mut min_beyond = usize::MAX;
    for w in 0..windows {
        let end = if w + 1 == windows {
            samples.len()
        } else {
            (w + 1) * per
        };
        let p = percentile_of(&samples[w * per..end], 99.0)?;
        min_beyond = min_beyond.min(p.beyond);
        p99s.push(p.value);
    }
    Some(WindowedTail {
        value: median(&p99s)?,
        windows,
        min_beyond,
    })
}

/// User+system CPU seconds from the text of a `/proc/<pid>/stat` file.
/// The command name is parenthesised and may itself contain spaces or
/// parentheses, so fields are counted from the last `)`: the next field
/// is field 3 (`state`), which puts `utime` and `stime` (fields 14 and
/// 15) at offsets 11 and 12.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// This process's user+system CPU seconds, all threads included.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "malformed /proc/self/stat".to_owned())
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_peak_rss_mb(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// How the requests one phase offered resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests the phase offered.
    pub offered: usize,
    /// Responses whose output passed its check.
    pub ok: usize,
    /// Responses whose output failed its check.
    pub wrong: usize,
    /// Requests the router shed.
    pub shed: usize,
    /// Requests that resolved to any other typed error.
    pub failed: usize,
}

impl Tally {
    /// Offered requests that never resolved to any outcome (a sender
    /// died with them unsent or in flight).
    pub fn lost(&self) -> usize {
        self.offered
            .saturating_sub(self.ok + self.wrong + self.shed + self.failed)
    }

    /// Every offered request that did not produce a correct output.
    pub fn not_ok(&self) -> usize {
        self.wrong + self.shed + self.failed + self.lost()
    }

    /// `not_ok ÷ offered`.
    pub fn failed_frac(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.not_ok() as f64 / self.offered as f64
    }
}

/// A 64-bit digest of a tensor's shape and exact `f32` bit patterns.
/// Two outputs with equal digests are taken as bit-identical (a
/// collision between distinct outputs has probability about 2^-64).
/// Four independent lanes keep the multiply chains short.
pub fn digest(t: &Tensor) -> u64 {
    const K: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x27d4_eb2f_1656_67c5,
    ];
    let mut lanes = K;
    let data = t.as_slice();
    let chunks = data.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for l in 0..4 {
            lanes[l] = (lanes[l] ^ u64::from(c[l].to_bits()))
                .wrapping_mul(K[l])
                .rotate_left(29);
        }
    }
    let mut h = (t.rows() as u64) << 32 ^ t.cols() as u64;
    for &v in tail {
        h = (h ^ u64::from(v.to_bits()))
            .wrapping_mul(K[0])
            .rotate_left(29);
    }
    for l in lanes {
        h = (h ^ l).wrapping_mul(K[1]).rotate_left(31);
    }
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_reports_its_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, MIN_BEYOND);
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        assert_eq!(percentile(&v, 100.0).unwrap().value, 1000.0);
        assert_eq!(percentile(&[], 50.0), None);
        let single = percentile(&[7.0], 99.0).unwrap();
        assert_eq!((single.value, single.beyond), (7.0, 0));
    }

    #[test]
    fn windowed_tail_needs_ten_samples_beyond_each_window() {
        assert_eq!(windowed_p99(&vec![1.0; TAIL_WINDOW - 1]), None);
        // Three windows; one holds a stall that only moves its own p99.
        let mut s: Vec<f64> = (0..3 * TAIL_WINDOW).map(|i| (i % 100) as f64).collect();
        for v in &mut s[TAIL_WINDOW..TAIL_WINDOW + 50] {
            *v = 1.0e6;
        }
        let tail = windowed_p99(&s).unwrap();
        assert_eq!(tail.windows, 3);
        assert!(tail.min_beyond >= MIN_BEYOND);
        assert_eq!(tail.value, 98.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn cpu_time_reader_counts_fields_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let stat = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    250 75 0 0 20 0 9 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.25));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2"), None);
        let own = process_cpu_seconds().unwrap();
        assert!(own >= 0.0);
        let status = "Name:\tperfbench\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn failures_count_wrong_shed_failed_and_lost() {
        let t = Tally {
            offered: 100,
            ok: 90,
            wrong: 2,
            shed: 3,
            failed: 1,
        };
        assert_eq!(t.lost(), 4);
        assert_eq!(t.not_ok(), 10);
        assert!((t.failed_frac() - 0.1).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
        let clean = Tally {
            offered: 5,
            ok: 5,
            ..Tally::default()
        };
        assert_eq!((clean.lost(), clean.not_ok()), (0, 0));
    }

    #[test]
    fn digest_sees_every_bit_and_the_shape() {
        let a = Tensor::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b.as_mut_slice()[14] = f32::from_bits(b.as_slice()[14].to_bits() ^ 1);
        assert_ne!(digest(&a), digest(&b));
        let mut z = Tensor::zeros(3, 5);
        let zero = digest(&z);
        z.as_mut_slice()[0] = -0.0;
        assert_ne!(zero, digest(&z), "-0.0 and 0.0 differ bitwise");
        assert_ne!(digest(&Tensor::zeros(5, 3)), zero);
    }
}
