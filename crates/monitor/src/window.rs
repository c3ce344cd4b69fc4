//! The controller's watch-time mean.
//!
//! Section 4.1 sets the fuzzy controller's load inputs to "the arithmetic
//! means of the load values during the service specific watchTime".
//! [`MeanWindow`] is that mean for one subject: the last
//! [`WATCH_MEAN_SAMPLES`] samples, summed oldest to newest and divided by
//! how many there are. The workload engine smooths its per-server loads
//! with it and the supervisor's load view reads server CPU through it, so
//! the two agree bit for bit by construction.
//!
//! The window counts samples, not time: at the one-minute monitoring
//! interval ten samples are the paper's ten-minute watch time, and a
//! stream with a different interval still averages the same samples the
//! engine does.

/// Samples in a [`MeanWindow`]: the ten-minute overload watch time at one
/// sample per minute.
pub const WATCH_MEAN_SAMPLES: usize = 10;

/// The last [`WATCH_MEAN_SAMPLES`] values of one subject, in a fixed ring.
/// A push is one store and a count; the mean is computed when it is read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanWindow {
    ring: [f64; WATCH_MEAN_SAMPLES],
    /// Values pushed so far; the next push writes slot
    /// `pushed % WATCH_MEAN_SAMPLES`.
    pushed: u64,
}

impl MeanWindow {
    /// Append a value, evicting the oldest once the window is full.
    pub fn push(&mut self, value: f64) {
        self.ring[(self.pushed % WATCH_MEAN_SAMPLES as u64) as usize] = value;
        self.pushed += 1;
    }

    /// The held values as two runs, oldest first.
    fn runs(&self) -> (&[f64], &[f64]) {
        if self.pushed < WATCH_MEAN_SAMPLES as u64 {
            (&self.ring[..self.pushed as usize], &[])
        } else {
            let next = (self.pushed % WATCH_MEAN_SAMPLES as u64) as usize;
            (&self.ring[next..], &self.ring[..next])
        }
    }

    /// The arithmetic mean of the held values, summed oldest to newest;
    /// NaN when the window is empty.
    pub fn mean(&self) -> f64 {
        let (older, newer) = self.runs();
        older.iter().chain(newer).sum::<f64>() / (older.len() + newer.len()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn mean_equals_a_front_to_back_deque_sum_bit_for_bit() {
        let mut rng = autoglobe_rng::Rng::seed_from_u64(11);
        let mut window = MeanWindow::default();
        let mut deque: VecDeque<f64> = VecDeque::new();
        assert!(window.mean().is_nan(), "an empty window has no mean");
        for _ in 0..200 {
            let value = rng.next_f64();
            window.push(value);
            deque.push_back(value);
            if deque.len() > WATCH_MEAN_SAMPLES {
                deque.pop_front();
            }
            let expected = deque.iter().sum::<f64>() / deque.len() as f64;
            let (older, newer) = window.runs();
            assert!(older.iter().chain(newer).eq(deque.iter()));
            assert_eq!(window.mean().to_bits(), expected.to_bits());
        }
    }
}
