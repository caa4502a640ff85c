//! A host speed index, so timings from a shared machine compare across
//! runs.
//!
//! On a host shared with other tenants, the whole machine runs faster or
//! slower for stretches of seconds to minutes, and every op of a run moves
//! with it: per-case minimum times drift by 10% between runs minutes apart.
//! A fixed kernel timed beside the ops moves the same way: on the 2-vCPU
//! machine the reference was taken on, the spread (interquartile range
//! over median) of throughput across eight runs of each workload was
//! 11–14% raw and 1–4% scaled. The
//! kernel is timed before every round of ops and before every set-up, and
//! each op or set-up time is scaled by `REFERENCE_KERNEL_MS / kernel time`
//! — reported at the reference host's speed. The raw wall-clock values
//! print beside the scaled ones.
//!
//! The kernel uses only the standard library — sorting, an ordered map,
//! string formatting and float math, the mix the workloads run — so no
//! change to the repository's crates moves it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;

use mobius::obs::WallTimer;
use mobius::sim::units::secs_to_ms;

use crate::stats::median;

/// The kernel's median time on the reference host, a 2-vCPU Xeon VM at
/// 2.0 GHz.
pub const REFERENCE_KERNEL_MS: f64 = 1.45;

/// Kernel runs per sample; the median resists a one-off preemption and
/// the cold first run after an op evicted the kernel's data.
const RUNS_PER_SAMPLE: usize = 3;

/// Times the fixed kernel. Its large buffer is allocated once and reused,
/// so its time does not depend on what the allocator did in between.
pub struct Calibrator {
    buf: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            buf: vec![0; 40_000],
        }
    }
}

impl Calibrator {
    /// A fixed computation of about two milliseconds.
    fn kernel(&mut self, seed: u64) -> u64 {
        let mut x = seed | 1;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        self.buf.sort_unstable();
        let map: BTreeMap<u64, usize> = self
            .buf
            .iter()
            .step_by(4)
            .enumerate()
            .map(|(i, k)| (k % 100_003, i))
            .collect();
        let mut s = String::new();
        for (k, i) in map.iter().take(5_000) {
            let _ = write!(s, "{k}:{i};");
        }
        let acc: f64 = self
            .buf
            .iter()
            .take(20_000)
            .enumerate()
            .map(|(i, k)| ((k >> 11) as f64).sqrt() * (i as f64 + 1.0).ln())
            .sum();
        s.len() as u64 + map.len() as u64 + acc as u64
    }

    /// Times the kernel now and returns the factor that scales a wall
    /// time measured around this moment to the reference host's speed.
    pub fn speed_factor(&mut self) -> f64 {
        let times: Vec<f64> = (0..RUNS_PER_SAMPLE)
            .map(|i| {
                let timer = WallTimer::start();
                black_box(self.kernel(black_box(i as u64)));
                secs_to_ms(timer.elapsed().secs())
            })
            .collect();
        REFERENCE_KERNEL_MS / median(&times)
    }
}
