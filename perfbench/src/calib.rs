//! Host-speed calibration.
//!
//! On a shared guest the host's speed drifts by up to 2x within minutes,
//! with no steal ticks to show for it, and every time a run measures
//! drifts with it. Each run therefore also times a fixed piece of work
//! that belongs to the benchmark, not to the program under test — hash
//! map updates, floating-point math and small formatted allocations, the
//! mix the simulator and the broker are made of — at the start of each
//! pass or iteration and every [`SAMPLE_EVERY_S`] between the operations
//! it times. Each measured time is scaled by the samples of its own pass
//! to a host on which that work takes [`REFERENCE_S`]: on a host half as
//! fast both take twice as long, and the scaled figure stays put. A
//! change to the program moves the program's time and not the reference
//! work, so it shows in full.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference work takes on the host the figures are scaled
/// to (a 2-vCPU Xeon guest in a quiet minute).
pub const REFERENCE_S: f64 = 3.0e-4;
/// Least time between two samples: a few hundred per run, under 1% of it.
pub const SAMPLE_EVERY_S: f64 = 0.05;

/// The fixed reference work. Its result depends on every step, so none
/// of it can be optimised away. It touches only memory it allocates
/// itself, a few KiB, so its time does not depend on what the program
/// left in the caches.
fn reference_work() -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(64);
    let mut acc = 0u64;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..4_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *map.entry(state % 1_024).or_insert(0) += i;
        if i % 8 == 0 {
            let text = format!("{:.6}", (state as f64).ln() * (i as f64).sqrt());
            acc = acc.wrapping_add(text.len() as u64);
        }
        let x = (i as f64 + 1.0) * 1e-3;
        acc = acc.wrapping_add((x.exp() * x.sin() * 1e6) as u64);
    }
    acc.wrapping_add(map.values().sum::<u64>())
}

/// The reference-work samples of one run.
pub struct HostSpeed {
    samples: Vec<f64>,
    last: Instant,
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut host = HostSpeed { samples: Vec::new(), last: Instant::now() };
        host.sample();
        host
    }
}

impl HostSpeed {
    /// Time the reference work once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(reference_work());
        self.samples.push(t.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Sample when [`SAMPLE_EVERY_S`] has passed since the last sample.
    /// Call it between timed operations, never inside one.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SAMPLE_EVERY_S {
            self.sample();
        }
    }

    /// Start a window of samples with a fresh one; returns its start for
    /// [`HostSpeed::slowdown_since`].
    pub fn window(&mut self) -> usize {
        self.sample();
        self.samples.len() - 1
    }

    /// How much slower than the reference host the host was since
    /// `from`: the median sample over [`REFERENCE_S`]. Divide a time
    /// measured in that window by it, or multiply a rate, to scale it to
    /// the reference host.
    pub fn slowdown_since(&self, from: usize) -> f64 {
        median(&self.samples[from..]) / REFERENCE_S
    }

    /// [`HostSpeed::slowdown_since`] over every sample.
    pub fn slowdown(&self) -> f64 {
        self.slowdown_since(0)
    }

    pub fn note(&self) -> String {
        format!(
            "host slowdown {:.4} (median of {} reference samples over {:.0} us)",
            self.slowdown(),
            self.samples.len(),
            REFERENCE_S * 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed() {
        assert_eq!(reference_work(), reference_work());
        let host = HostSpeed::default();
        assert!(host.slowdown() > 0.0);
    }
}
