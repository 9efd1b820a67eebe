//! Host-speed reference: a fixed piece of work in the benchmark's own code,
//! timed between a run's jobs, so a run's times can be stated in
//! reference-host seconds.
//!
//! On a shared host the speed of a core moves by a third over minutes
//! (neighbours on the same physical cores, hypervisor steal), and every
//! wall time of a run moves with it. The reference work moves the same way
//! (in ten ligand runs on a 2-vCPU host, two of them while the hypervisor
//! stole 27 % of the CPU and the job's wall time doubled, the run medians
//! of the reference time and the job time correlated at 0.985), and no
//! change to the program can move it, so dividing by it takes out most of
//! the host's share and none of the program's.

use crate::host;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Usual wall time of the reference work on the reference host (2 vCPUs,
/// AVX2 GEMM microkernel, 2 MiB L2), s.
pub const REFERENCE_S: f64 = 0.06;

/// Side of the dense matrices: the ligand's basis size.
const N: usize = 145;

/// Length of the shared arrays the work streams and gathers over: 1 MiB of
/// `f64`. Small enough that the allocator keeps no more than that resident
/// after a sample.
const LEN: usize = 1 << 17;

/// Passes over the shared arrays.
const PASSES: usize = 32;

/// Dense product `c = a · b` of row-major `N × N` matrices, i-k-j order.
fn matmul(a: &[f64], b: &[f64], c: &mut [f64]) {
    c.fill(0.0);
    for i in 0..N {
        for k in 0..N {
            let aik = a[i * N + k];
            let out = &mut c[i * N..(i + 1) * N];
            for (o, &bkj) in out.iter_mut().zip(&b[k * N..(k + 1) * N]) {
                *o += aik * bkj;
            }
        }
    }
}

/// Inputs of the reference work, shared by its threads.
struct Inputs {
    a: Vec<f64>,
    b: Vec<f64>,
    xs: Vec<f64>,
    idx: Vec<u32>,
}

/// One thread's share: cache-resident matrix products into `c`,
/// transcendental functions over a stream, and a scattered gather, the
/// three kinds of work the SCF and DFPT cycles are made of.
fn work(inp: &Inputs, c: &mut [f64]) -> f64 {
    let mut acc = 0.0;
    for _ in 0..12 {
        matmul(black_box(&inp.a), black_box(&inp.b), c);
        acc += c[N + 1];
    }
    for _ in 0..PASSES {
        acc += black_box(&inp.xs)
            .iter()
            .map(|x| (-x * x).exp() * x.sqrt())
            .sum::<f64>();
    }
    for _ in 0..PASSES {
        acc += black_box(&inp.idx)
            .iter()
            .map(|&i| inp.xs[i as usize])
            .sum::<f64>();
    }
    acc
}

/// Wall time of the reference work, one share on each of `threads` threads
/// at once, s. Every buffer is allocated here, on the calling thread, so
/// the threads allocate nothing the allocator could keep resident after
/// they exit.
pub fn reference_s(threads: usize) -> f64 {
    let t = Instant::now();
    let inp = Inputs {
        a: (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect(),
        b: (0..N * N).map(|i| (i % 5) as f64 * 0.2).collect(),
        xs: (0..LEN).map(|i| (i % 1000) as f64 * 1e-3).collect(),
        idx: (0..LEN).map(|i| ((i * 7919) % LEN) as u32).collect(),
    };
    let mut out = vec![0.0; threads * N * N];
    std::thread::scope(|s| {
        let shares: Vec<_> = out
            .chunks_mut(N * N)
            .map(|c| {
                let inp = &inp;
                s.spawn(move || work(inp, c))
            })
            .collect();
        for h in shares {
            black_box(h.join().expect("reference thread"));
        }
    });
    t.elapsed().as_secs_f64()
}

/// Runs of the reference work in one reading of the host's speed.
const READING_RUNS: usize = 3;

/// A run's readings of the host's speed.
pub struct HostSpeed {
    readings: Vec<f64>,
    /// Peak resident set before the latest reading, MiB.
    peak_mib: f64,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            readings: Vec::new(),
            peak_mib: 0.0,
        }
    }

    /// Read the host's speed: the median of [`READING_RUNS`] runs of the
    /// reference work on every core. Its own memory stays out of the run's
    /// peak resident set: the peak so far is kept, and the OS peak is reset
    /// after the reading.
    pub fn read(&mut self) {
        self.peak_mib = self.peak_mib.max(host::peak_rss_mib());
        let runs: Vec<f64> = (0..READING_RUNS)
            .map(|_| reference_s(host::nproc()))
            .collect();
        host::reset_peak_rss().expect("the peak resident set reset worked at start");
        self.readings.push(median(&runs));
    }

    /// How much slower than the reference host at its usual speed this run
    /// ran: the median reading over [`REFERENCE_S`]. One figure for the
    /// whole run: the host's speed drifts over minutes, and a single pair of
    /// readings around a job is noisier than that drift.
    pub fn slowdown(&self) -> f64 {
        median(&self.readings) / REFERENCE_S
    }

    /// `secs` of wall time measured in this run, in reference-host seconds.
    pub fn to_reference(&self, secs: f64) -> f64 {
        secs / self.slowdown()
    }

    /// Peak resident set of the run so far, MiB, without the reference
    /// work's own.
    pub fn peak_rss_mib(&self) -> f64 {
        self.peak_mib.max(host::peak_rss_mib())
    }

    /// Context line: the readings, their median and the slowdown.
    pub fn describe(&self) -> String {
        format!(
            "{{\"host_speed\": {{\"readings\": {}, \"reference_s\": {:?}, \"slowdown\": {:.4}}}}}",
            self.readings.len(),
            median(&self.readings),
            self.slowdown()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_converts_by_the_median_reading() {
        // A host half as fast as the reference host's usual speed, with one
        // stray reading.
        let speed = HostSpeed {
            readings: [1.9, 2.0, 2.1, 9.0].map(|x| x * REFERENCE_S).to_vec(),
            peak_mib: 0.0,
        };
        assert!((speed.slowdown() - 2.05).abs() < 1e-12);
        assert!((speed.to_reference(4.1) - 2.0).abs() < 1e-12);
    }
}
