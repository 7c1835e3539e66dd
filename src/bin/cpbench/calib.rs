// cpsim-lint: profile(harness): host-speed calibration loop; reads the wall clock by design
//! The calibration loop: a fixed piece of CPU and memory work timed
//! between stretches of measured work, so each stretch's wall time can
//! be rescaled to a reference host speed.
//!
//! A shared host changes speed within seconds, with no CPU steal to show
//! for it. Much of the change comes from other tenants' use of the shared
//! last-level cache, which work that stays in a core's private caches
//! feels less than a simulation does. The loop therefore does both kinds
//! of work. About a third of its time churns a small binary heap,
//! resident in the private caches like a simulation's hottest state; the
//! rest reads and writes random words of a 64 MiB buffer, which lives in
//! the shared cache like the rest of a simulation's state. Measured next
//! to every experiment, this mix tracked the simulator better than the
//! heap churn alone (`README.md`, "Calibration").
//!
//! The loop must never change: every recorded result is scaled by it,
//! and [`CALIB_REF_S`] was measured with exactly this code.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Median seconds of 20 runs of the loop on one thread, measured when the
/// benchmark was created (2-core KVM guest, release build). It only sets
/// the scale of calibrated times; it changes only in a change to the
/// benchmark.
pub const CALIB_REF_S: f64 = 0.0877;

/// Entries kept in the heap: 16 Ki × 8 B, resident in a private cache.
const HEAP_LEN: usize = 1 << 14;
/// Pop/push pairs on the heap.
const HEAP_OPS: usize = 360_000;
/// Words in the scatter buffer: 64 MiB.
const SCATTER_WORDS: usize = 8 << 20;
/// Random read-modify-writes of the scatter buffer.
const SCATTER_OPS: usize = 3_000_000;

/// A fixed xorshift64* stream: the loop's "randomness" is part of its
/// definition, not an input.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// One thread's loop, with its scatter buffer. The buffer is allocated
/// and written once, so no run of the loop pays for page faults.
struct Loop {
    buf: Vec<u64>,
}

impl Loop {
    fn new() -> Self {
        Loop {
            buf: vec![1; SCATTER_WORDS],
        }
    }

    /// Runs the loop once and returns its wall time in seconds.
    fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mut rng = Stream(0x9E37_79B9_7F4A_7C15);
        let mut heap: BinaryHeap<u64> = (0..HEAP_LEN).map(|_| rng.next()).collect();
        for _ in 0..HEAP_OPS {
            let top = heap.pop().unwrap_or(0);
            heap.push(top.wrapping_sub(rng.next() >> 16));
        }
        let mut acc = heap.peek().copied().unwrap_or(0);
        for _ in 0..SCATTER_OPS {
            // The buffer length is a power of two.
            let i = (rng.next() as usize) & (SCATTER_WORDS - 1);
            acc = acc.wrapping_add(self.buf[i]);
            self.buf[i] = acc;
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

/// The loops of this process, one per thread that has run one, kept so
/// their buffers are reused.
static LOOPS: Mutex<Vec<Loop>> = Mutex::new(Vec::new());

/// Runs the loop on `threads` threads at once and returns their mean
/// time: the speed of as many cores as a parallel sample uses.
pub fn run_on(threads: usize) -> f64 {
    let threads = threads.max(1);
    let mut loops = LOOPS.lock().unwrap_or_else(|e| e.into_inner());
    while loops.len() < threads {
        loops.push(Loop::new());
    }
    let loops = &mut loops[..threads];
    if let [one] = loops {
        return one.run();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = loops.iter_mut().map(|l| s.spawn(move || l.run())).collect();
        let total: f64 = handles
            .into_iter()
            .map(|h| h.join().expect("the calibration loop does not panic"))
            .sum();
        total / threads as f64
    })
}

/// Rescales stretches of work to the reference host speed. Each call to
/// [`factor`](Calibrator::factor) closes a stretch: it runs the loop and
/// returns the scale for the work done since the previous run.
pub struct Calibrator {
    threads: usize,
    last: f64,
    /// Every loop time so far, seconds.
    pub runs: Vec<f64>,
}

impl Calibrator {
    /// Starts with one run of the loop on `threads` threads.
    pub fn new(threads: usize) -> Self {
        let first = run_on(threads);
        Calibrator {
            threads,
            last: first,
            runs: vec![first],
        }
    }

    /// Runs the loop and returns `CALIB_REF_S` over the mean of this run
    /// and the previous one: the factor that rescales the wall time of
    /// the work between them.
    pub fn factor(&mut self) -> f64 {
        let now = run_on(self.threads);
        let f = CALIB_REF_S / ((self.last + now) / 2.0);
        self.last = now;
        self.runs.push(now);
        f
    }
}
