//! A host-speed gauge: a fixed, memory-bound kernel timed between the
//! measured operations, so their times can be scaled to a reference
//! host speed.
//!
//! On a shared host the simulator's speed follows the pressure other
//! tenants put on the caches and memory, in phases of seconds to
//! minutes: whole runs of the same code differ by 30% or more. An ALU
//! loop hardly notices those phases, but a set-associative table probe
//! (the simulator's own dominant access pattern) slows down with the
//! simulator. Dividing each measured time by the gauge's time around it
//! cancels most of the phase. The kernel lives here, not in the
//! simulator, so a change to the simulator cannot move the gauge.

use crate::host;
use std::hint::black_box;
use std::time::Instant;

/// Table words: 2 MiB, about the simulator's working set per cell.
const TABLE_WORDS: usize = 1 << 18;
/// Associativity of the probed table.
const WAYS: usize = 8;
/// Probes per sample: a few milliseconds, short against a cell.
const PROBES: u32 = 100_000;
/// Samples taken before the first measured one, so the table is full.
const WARM_SAMPLES: usize = 16;
/// Gauge samples on each side of a measurement that its local host
/// speed is the median of.
const HALF_WINDOW: usize = 3;
/// About the gauge's median time, in ms, on the host the benchmark was
/// tuned on (a shared two-vCPU Intel Xeon). Scaled times read as times
/// on that host.
pub const REFERENCE_MS: f64 = 3.0;

/// The gauge and the samples it has taken, in order.
pub struct Gauge {
    table: Vec<u64>,
    state: u64,
    samples: Vec<f64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl Gauge {
    /// A gauge with its table filled.
    pub fn new() -> Gauge {
        let mut g = Gauge {
            table: vec![0; TABLE_WORDS],
            state: 0x2545_f491_4f6c_dd1d,
            samples: Vec::new(),
        };
        for _ in 0..WARM_SAMPLES {
            g.sample();
        }
        g.samples.clear();
        g
    }

    /// Times one run of the kernel and returns the sample's index.
    pub fn sample(&mut self) -> usize {
        let t = Instant::now();
        black_box(self.probe());
        self.samples.push(t.elapsed().as_secs_f64() * 1e3);
        self.samples.len() - 1
    }

    /// `PROBES` lookups of pseudo-random tags in an 8-way table,
    /// installing each miss over a pseudo-random way. Returns the hits.
    fn probe(&mut self) -> u32 {
        let sets = self.table.len() / WAYS;
        let mut x = self.state;
        let mut hits = 0;
        for _ in 0..PROBES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let tag = (x >> 20) & 0xf_ffff;
            let set = &mut self.table[(tag as usize % sets) * WAYS..][..WAYS];
            if set.contains(&tag) {
                hits += 1;
            } else {
                set[x as usize % WAYS] = tag;
            }
        }
        self.state = x;
        hits
    }

    /// `raw` (a time measured just before sample `at`) scaled to the
    /// reference host: `raw × REFERENCE_MS / local`, where `local` is
    /// the median of the samples within `HALF_WINDOW` of `at`.
    pub fn scale(&self, raw: f64, at: usize) -> f64 {
        let lo = at.saturating_sub(HALF_WINDOW);
        let hi = (at + HALF_WINDOW + 1).min(self.samples.len());
        raw * REFERENCE_MS / host::median(&self.samples[lo..hi])
    }

    /// Median of every sample taken, in ms.
    pub fn median_ms(&self) -> f64 {
        host::median(&self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_divides_by_the_local_median() {
        let mut g = Gauge { table: vec![0; 64], state: 1, samples: Vec::new() };
        g.samples = vec![1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0];
        assert_eq!(g.scale(2.0, 0), 2.0 * REFERENCE_MS);
        assert_eq!(g.scale(9.0, 8), REFERENCE_MS);
        assert!(g.sample() == 9 && g.samples[9] > 0.0);
    }
}
