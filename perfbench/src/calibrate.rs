//! Host-speed calibration.
//!
//! The shared host this benchmark runs on changes speed by up to 1.8x
//! over minutes as other tenants come and go, and user CPU time tracks
//! wall time, so the slowdown is the host's, not the program's. At
//! times its two vCPUs also share one physical core, so two threads at
//! once run at half speed each while one thread alone does not slow.
//! The benchmark therefore times a fixed CPU kernel, which has no code
//! of the program in it, between every two rounds of child runs, and
//! scales the times of each round by [`REFERENCE_S`] over the mean of
//! the kernel samples just before and just after it. A change to the
//! program moves the scaled times; a change in host speed moves the
//! kernel with them and cancels out. The host's speed also wanders
//! within seconds, so the pair next to each round tracks it better than
//! one figure for the whole invocation.
//!
//! The kernel runs on as many threads at once as the timed work keeps
//! busy: every worker for a workload whose cells fan out over the pool,
//! one thread for the serial drivers and for set-up. The choice is the
//! workload's, fixed in the benchmark, so a change to the program is
//! measured against the same kernel as its parent.
//!
//! The kernel mixes the kinds of work the workloads do: small dense
//! floating-point products (the NN learners), sorting (tree split
//! search, ECDFs), scalar `ln`/`exp`/`sqrt` chains (losses, drift
//! statistics) and binary search over an L2-sized table (tree descent,
//! KNN candidate lookups).

use std::hint::black_box;

use oeb_trace::Stopwatch;

/// The kernel's time on a quiet 2-vCPU Intel Xeon host, in seconds:
/// scaled times read as seconds on such a host.
pub const REFERENCE_S: f64 = 0.08;

/// Kernel samples taken before the first round: the first ones fault in
/// the kernel's code and data, the last is the first round's sample
/// before. One more is taken after every round.
const WARM_SAMPLES: usize = 3;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Repeated 48x48 matrix products.
fn dense(reps: usize) -> f64 {
    const N: usize = 48;
    let mut s = 0x2545_f491_4f6c_dd1d;
    let a: Vec<f64> = (0..N * N)
        .map(|_| (xorshift(&mut s) % 1000) as f64 / 1e3)
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|_| (xorshift(&mut s) % 1000) as f64 / 1e3)
        .collect();
    let mut c = vec![0.0; N * N];
    for _ in 0..reps {
        let a = black_box(&a);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    c.iter().sum()
}

/// Sorts of 4096 pseudo-random keys.
fn sorting(reps: usize) -> u64 {
    let mut s = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0;
    for _ in 0..reps {
        let mut v: Vec<u64> = (0..4096).map(|_| xorshift(&mut s)).collect();
        v.sort_unstable();
        acc ^= v[black_box(17)];
    }
    acc
}

/// A dependent chain of `ln`, `exp` and `sqrt`.
fn scalar(n: usize) -> f64 {
    let mut acc = 0.0f64;
    for i in 0..n {
        let x = black_box(i as f64) * 1e-4;
        acc += (1.0 + x).ln() * (-x).exp() + x.sqrt();
    }
    acc
}

/// Binary searches over a sorted table of 2^17 keys (512 KiB).
fn search(n: usize) -> u64 {
    let mut s = 0x1234_5678_9abc_def1;
    let mut table: Vec<u32> = (0..1 << 17).map(|_| xorshift(&mut s) as u32).collect();
    table.sort_unstable();
    let mut acc = 0u64;
    for _ in 0..n {
        let key = xorshift(&mut s) as u32;
        acc += table.partition_point(|&x| x < key) as u64;
    }
    acc
}

/// The fixed kernel: about [`REFERENCE_S`] on a quiet host.
fn kernel() {
    const K: usize = 16;
    black_box(dense(60 * K));
    black_box(sorting(30 * K));
    black_box(scalar(100_000 * K));
    black_box(search(100_000 * K));
}

/// Runs the kernel once on each of `threads` threads at the same time
/// and returns their mean time, seconds.
fn kernel_seconds(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let watch = Stopwatch::start();
                    kernel();
                    watch.elapsed_seconds()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The factor that turns a time measured while the kernel took
/// `kernel_s` into seconds on the reference host.
fn scale(kernel_s: f64) -> f64 {
    REFERENCE_S / kernel_s
}

/// Scale factors for the times of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundScales {
    /// For the workload's wall time.
    pub work: f64,
    /// For set-up time, which is serial.
    pub setup: f64,
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The kernel samples of one benchmark invocation.
#[derive(Debug)]
pub struct Calibration {
    /// Threads the timed work keeps busy; 1 for serial work.
    wide_threads: usize,
    /// Kernel seconds on one thread.
    pub serial_s: Vec<f64>,
    /// Kernel seconds on `wide_threads` threads at once; empty when
    /// that is one thread.
    pub wide_s: Vec<f64>,
}

impl Calibration {
    /// Takes the warm-up samples for work that keeps `busy_threads`
    /// threads busy.
    pub fn start(busy_threads: usize) -> Self {
        let mut c = Calibration {
            wide_threads: busy_threads.max(1),
            serial_s: Vec::new(),
            wide_s: Vec::new(),
        };
        for _ in 0..WARM_SAMPLES {
            c.sample();
        }
        c
    }

    /// Times the kernel once on one thread and, for parallel work, once
    /// on every busy thread.
    pub fn sample(&mut self) {
        self.serial_s.push(kernel_seconds(1));
        if self.wide_threads > 1 {
            self.wide_s.push(kernel_seconds(self.wide_threads));
        }
    }

    /// Kernel samples on the threads the timed work keeps busy.
    fn work_samples(&self) -> &[f64] {
        if self.wide_s.is_empty() {
            &self.serial_s
        } else {
            &self.wide_s
        }
    }

    /// Median kernel seconds on the threads the timed work keeps busy.
    pub fn work_kernel_s(&self) -> f64 {
        median(self.work_samples())
    }

    /// Scales for the round between the last two samples.
    pub fn round_scales(&self) -> RoundScales {
        let last_pair = |v: &[f64]| match v {
            [.., before, after] => scale((before + after) / 2.0),
            _ => unreachable!("start() takes more than one sample"),
        };
        RoundScales {
            work: last_pair(self.work_samples()),
            setup: last_pair(&self.serial_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_cancels_a_uniform_slowdown() {
        // A run of 3 s between kernels at the reference speed, and the
        // same run on a host half as fast, scale to the same time.
        let quiet = 3.0 * scale(REFERENCE_S);
        let slow = 6.0 * scale(2.0 * REFERENCE_S);
        assert!((quiet - 3.0).abs() < 1e-12);
        assert!((slow - quiet).abs() < 1e-12);
    }

    #[test]
    fn serial_work_is_scaled_by_the_one_thread_kernel() {
        let serial = Calibration::start(1);
        assert!(serial.wide_s.is_empty());
        assert_eq!(serial.serial_s.len(), WARM_SAMPLES);
        let scales = serial.round_scales();
        assert_eq!(scales.work, scales.setup);
        let wide = Calibration::start(2);
        assert_eq!(wide.wide_s.len(), WARM_SAMPLES);
        assert!(wide.wide_s.iter().chain(&wide.serial_s).all(|s| *s > 0.0));
        assert_eq!(wide.work_kernel_s(), median(&wide.wide_s));
        let pair = (wide.wide_s[1] + wide.wide_s[2]) / 2.0;
        assert_eq!(wide.round_scales().work, REFERENCE_S / pair);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
