//! The frozen calibration kernel behind the `cal` unit.
//!
//! Seconds do not repeat on a shared host: the same binary runs 30–35%
//! apart between invocations because the CPU's effective speed follows the
//! neighbours' load. This kernel touches no repository code, fits in L1,
//! and is run on the bench thread immediately before and after every timed
//! rep, so a rep's wall and CPU time can be divided by the speed of the host
//! *at that moment*.
//!
//! FROZEN: editing anything in this file invalidates every recorded `cal`
//! number. A change here is a benchmark PR of its own.

use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 3000;
const SLOTS: usize = 2048;

/// One calibration pass: `ROUNDS` × {fill `SLOTS` words from xorshift64,
/// `sort_unstable`, fold the middle element}. Returns its wall seconds.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut buf = [0u64; SLOTS];
    let mut fold = 0u64;
    for _ in 0..ROUNDS {
        for slot in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x;
        }
        buf.sort_unstable();
        fold ^= buf[SLOTS / 2];
    }
    black_box(fold);
    start.elapsed().as_secs_f64()
}

/// Per-rep units from `reps + 1` interleaved calibration passes: rep `i`
/// ran between pass `i` and pass `i + 1`, so its unit is their mean.
pub fn units(cal: &[f64]) -> Vec<f64> {
    cal.windows(2).map(|w| (w[0] + w[1]) / 2.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn units_average_neighbouring_passes() {
        assert_eq!(units(&[1.0, 3.0, 5.0]), vec![2.0, 4.0]);
        assert!(units(&[1.0]).is_empty());
    }

    /// A host that slows by 30% halfway through a run must not move the
    /// median of the per-rep ratio by more than 2%.
    #[test]
    fn ratio_median_survives_injected_drift() {
        let reps = 24;
        let true_ratio = 8.0;
        // Slowness of the host at each calibration pass: 1.0, then a 30%
        // slowdown that lands 90% of the way through rep 11.
        let slow = |pass: usize| if pass >= 12 { 1.3 } else { 1.0 };
        let cal: Vec<f64> = (0..=reps).map(|i| 0.09 * slow(i)).collect();
        let u = units(&cal);
        // What each rep really ran at: the slowness over its own span, which
        // the neighbouring passes only approximate, times a ±5% jitter of
        // its own that no calibration can see.
        let wall: Vec<f64> = (0..reps)
            .map(|i| {
                let own = if i == 11 {
                    0.9 * 1.0 + 0.1 * 1.3
                } else {
                    slow(i)
                };
                let jitter = 1.0 + 0.05 * ((i * 7 % 11) as f64 / 5.0 - 1.0);
                true_ratio * 0.09 * own * jitter
            })
            .collect();
        let ratios: Vec<f64> = wall.iter().zip(&u).map(|(w, u)| w / u).collect();
        let got = median(&ratios);
        assert!((got / true_ratio - 1.0).abs() < 0.02, "ratio median {got}");
        // Raw seconds, for contrast, drift by well over 2%.
        let raw = median(&wall) / (true_ratio * 0.09);
        assert!((raw - 1.0).abs() > 0.1, "raw median moved only {raw}");
    }

    #[test]
    fn calibration_takes_measurable_time() {
        assert!(calibrate() > 0.0);
    }
}
