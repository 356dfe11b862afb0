//! The benchmark's own statistics: percentiles under the ten-beyond rule,
//! open-loop lateness accounting, a seeded generator, a solution digest
//! and the metric-name charset. Nothing here calls into the program under
//! test, so a change to the program cannot change how it is measured.

use std::time::Duration;

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: its value and the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`.
///
/// Refuses (returns `None`) when fewer than [`MIN_BEYOND`] samples lie
/// beyond the rank, so a "p99" over 24 samples can never pass for
/// anything but the maximum it is.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = (q * n as f64).ceil() as usize; // 1-based nearest rank
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A fixed-rate open-loop schedule: request `k` is due at
/// `k / rate_per_s` seconds after the phase starts, whatever happened to
/// the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub rate_per_s: f64,
}

impl Schedule {
    /// Offset of request `k` from the phase start.
    pub fn due(&self, k: usize) -> Duration {
        Duration::from_secs_f64(k as f64 / self.rate_per_s)
    }

    /// How late request `k` went out, given when it was actually sent
    /// (both offsets from the phase start). Never negative.
    pub fn lateness(&self, k: usize, sent: Duration) -> Duration {
        sent.saturating_sub(self.due(k))
    }

    /// Latency of request `k` as an open loop must count it: from when it
    /// was due, not when it was sent, so a generator stall is charged to
    /// every request it delayed.
    pub fn latency(&self, k: usize, received: Duration) -> Duration {
        received.saturating_sub(self.due(k))
    }
}

/// SplitMix64: a small seeded generator, so inputs depend on the
/// workload seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005E_ED0F_BE4C_4D42)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A child seed for an independent stream (`tag` names the stream).
    /// Kept below 2^53 so it survives a JSON number on the wire.
    pub fn derive(seed: u64, tag: u64) -> u64 {
        Rng::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64() >> 11
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a digest of a rendered solution.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 0.99).expect("1000 samples leave 10 beyond p99");
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert!(
            percentile(&xs[..999], 0.99).is_none(),
            "9 beyond is refused"
        );
        assert!(
            percentile(&xs[..99], 0.9).is_none(),
            "p90 of 99 has 9 beyond"
        );
        assert_eq!(percentile(&xs[..100], 0.9).map(|p| p.value), Some(90.0));
        assert_eq!(percentile(&xs[..20], 0.5).map(|p| p.value), Some(10.0));
        assert!(percentile(&xs[..19], 0.5).is_none());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64).collect();
        let a = percentile(&xs, 0.9);
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&xs, 0.9));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "core.solve_ms.mm.cpu",
            "core.repair_ms.100",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".lead", "_lead", "sp ace", "p99%", "ü", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn stalled_schedule_charges_the_stall_to_later_requests() {
        // 100 requests/s: due every 10 ms. The generator stalls 50 ms at
        // request 3, then sends the backlog back to back.
        let s = Schedule { rate_per_s: 100.0 };
        let ms = |x: u64| Duration::from_millis(x);
        let sent = [
            ms(0),
            ms(10),
            ms(20),
            ms(80),
            ms(80),
            ms(80),
            ms(80),
            ms(80),
            ms(80),
            ms(90),
        ];
        let late: Vec<u64> = (0..sent.len())
            .map(|k| s.lateness(k, sent[k]).as_millis() as u64)
            .collect();
        assert_eq!(late, vec![0, 0, 0, 50, 40, 30, 20, 10, 0, 0]);
        // Each reply arrives 1 ms after it was sent; the latency counted
        // from the due time includes the stall, the service time does not.
        for k in 0..sent.len() {
            let received = sent[k] + ms(1);
            assert_eq!(s.latency(k, received), ms(late[k] + 1));
        }
        // A reply can never count as earlier than it was due.
        assert_eq!(s.lateness(5, ms(0)), Duration::ZERO);
    }

    #[test]
    fn rng_is_seed_deterministic() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(Rng::derive(7, 1), Rng::derive(7, 2));
    }
}
