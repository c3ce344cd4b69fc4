//! Host-speed calibration: a fixed piece of benchmark-owned work, timed in
//! short slices between the intervals of every repeat, so the end-to-end
//! times can be scaled to one reference host speed.
//!
//! Why: the 2-vCPU VM the bounds were set on shares its cores with other
//! tenants. It slows down in bursts of under a second and in phases of
//! minutes, by up to 50 %, so raw medians of two sets of runs taken
//! minutes apart disagree by more than any usable bound. A slice run on
//! the same thread right after an interval slows by about the same share
//! as the interval did. Over 50-second runs of each workload in a slow
//! phase, the quartile spread of the repeats' loop times fell from 5-32 %
//! raw to 2-8 % scaled.
//!
//! The kernel never calls the system under test, and it works in its own
//! 32 KiB buffer without allocating, so the state the system under test
//! leaves behind barely moves it: its median differed by under 10 %
//! between the five workloads, where an allocating kernel differed by 60 %.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A slice's time on the host the bounds were set on, in a quiet phase.
/// Scaling by `REFERENCE_SLICE_S / measured` keeps reported times in that
/// host's seconds.
pub const REFERENCE_SLICE_S: f64 = 0.000_65;

/// Loop time between two slices: about 2.5 % of a repeat goes to slices.
const EVERY: Duration = Duration::from_millis(25);

/// Values the kernel sorts and searches per round.
const VALUES: usize = 4096;

/// Fill, sort and search rounds per slice.
const ROUNDS: u64 = 6;

/// The slices one repeat took, and when the last one ran.
pub struct Calibration {
    pub slices_s: Vec<f64>,
    buffer: Vec<u64>,
    last: Instant,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            slices_s: Vec::new(),
            buffer: vec![0; VALUES],
            last: Instant::now(),
        }
    }

    /// Run one slice now: fill the buffer with pseudo-random values, sort
    /// it and binary-search it, [`ROUNDS`] times. Returns its time.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut found = 0u64;
        for round in 0..ROUNDS {
            let mut state = round;
            for v in self.buffer.iter_mut() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *v = state >> 40;
            }
            self.buffer.sort_unstable();
            for i in 0..VALUES as u64 {
                found += u64::from(self.buffer.binary_search(&black_box(i * 4099)).is_ok());
            }
        }
        black_box(found);
        let secs = start.elapsed().as_secs_f64();
        self.slices_s.push(secs);
        self.last = Instant::now();
        secs
    }

    /// Between two intervals: run a slice when [`EVERY`] has passed.
    pub fn between_intervals(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.run();
        }
    }

    /// Time spent in slices so far, in seconds.
    pub fn spent_s(&self) -> f64 {
        self.slices_s.iter().sum()
    }
}

/// The factor that scales a repeat's times to the reference host speed,
/// from the mean of its slices without their lowest and highest tenth:
/// the mean follows the bursts the intervals met, and the trim keeps one
/// slice that lost its core for milliseconds from moving it.
pub fn factor(slices_s: &[f64]) -> f64 {
    let sorted = crate::stats::sorted(slices_s);
    let cut = sorted.len() / 10;
    let kept = &sorted[cut..sorted.len() - cut];
    if kept.is_empty() {
        return 1.0;
    }
    let typical = kept.iter().sum::<f64>() / kept.len() as f64;
    REFERENCE_SLICE_S / typical
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference_slice() {
        assert_eq!(factor(&[REFERENCE_SLICE_S; 3]), 1.0);
        assert_eq!(factor(&[]), 1.0);
        let mut slow = vec![2.0 * REFERENCE_SLICE_S; 9];
        slow.push(1.0);
        assert!(
            (factor(&slow) - 0.5).abs() < 1e-12,
            "the trim drops one slice in ten"
        );
    }

    #[test]
    fn slices_run_only_after_the_gap() {
        let mut c = Calibration::new();
        c.run();
        c.between_intervals();
        assert_eq!(c.slices_s.len(), 1, "no second slice right away");
        assert!(c.spent_s() > 0.0);
    }
}
