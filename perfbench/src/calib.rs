//! Host-speed adjustment for CPU-bound timings.
//!
//! Shared hosts change speed by up to ~1.9× within minutes as other
//! tenants' load comes and goes, and every CPU-bound wall time moves with
//! it. So a fixed kernel, written here with the standard library only and
//! therefore the same in every version of the repository, is timed right
//! before and after each set-up and each cycle. The measurement is scaled
//! by [`REFERENCE_S`] over the kernel's mean time, and reads as seconds on
//! a host where the kernel takes [`REFERENCE_S`]. A change to the program
//! moves the adjusted time as it moves the wall time; host drift mostly
//! cancels. The kernel is shaped like the miner's counting-sort partition
//! passes, whose slowdowns it tracked best of the kernels tried.

use std::time::Instant;

/// Kernel time that defines the reference host speed.
const REFERENCE_S: f64 = 0.05;
const POSITIONS: usize = 1 << 20;
const PASSES: usize = 6;

pub struct Calibrator {
    keys: Vec<u16>,
    pos: Vec<u32>,
    out: Vec<u32>,
    /// Every kernel time taken, in seconds.
    pub samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let keys = (0..POSITIONS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 256) as u16
            })
            .collect();
        let mut cal = Calibrator {
            keys,
            pos: (0..POSITIONS as u32).collect(),
            out: vec![0; POSITIONS],
            samples: Vec::new(),
        };
        // The first run sorts the identity order; later runs re-sort an
        // already sorted one, so keep only those.
        cal.kernel();
        cal.samples.clear();
        cal
    }

    /// Counting-sort passes: histogram the keys of `pos`, then scatter.
    fn kernel(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..PASSES {
            let mut starts = [0u32; 257];
            for &p in &self.pos {
                starts[self.keys[p as usize] as usize + 1] += 1;
            }
            for b in 1..starts.len() {
                starts[b] += starts[b - 1];
            }
            for &p in &self.pos {
                let k = self.keys[p as usize] as usize;
                self.out[starts[k] as usize] = p;
                starts[k] += 1;
            }
            std::mem::swap(&mut self.pos, &mut self.out);
        }
        std::hint::black_box(&self.pos);
        let secs = start.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }

    /// Run `f` between two kernel timings: its value, its wall time, and
    /// that time scaled to the reference host speed.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.kernel();
        let start = Instant::now();
        let value = f();
        let wall = start.elapsed().as_secs_f64();
        let after = self.kernel();
        (value, wall, wall * 2.0 * REFERENCE_S / (before + after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusted_time_scales_wall_time_by_host_speed() {
        let mut cal = Calibrator::new();
        let ((), wall, adjusted) =
            cal.measure(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        let [before, after] = cal.samples[..] else {
            panic!("expected two kernel timings, got {:?}", cal.samples)
        };
        assert!(wall >= 0.005);
        let expected = wall * 2.0 * REFERENCE_S / (before + after);
        assert!((adjusted - expected).abs() < 1e-12);
    }
}
