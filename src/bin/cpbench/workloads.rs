// cpsim-lint: profile(harness): benchmark workloads; runs and times experiments with the wall clock
//! The four workloads, one sample of each, the digest that checks a
//! sample's tables, and the set-up measurement.
//!
//! Each workload is a closed loop of one: its experiments run back to
//! back through the public `cpsim::experiments::all()` runners. Together
//! the four cover all 17 experiments, so every sample also checks every
//! table the suite produces.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cpsim::des::SimDuration;
use cpsim::experiments::{self, ExpOptions, Experiment};
use cpsim::metrics::Table;
use cpsim::workload::{cloud_a, cloud_b, enterprise};
use cpsim::Scenario;
use cpsim_federation::FedScenario;

use crate::calib::Calibrator;
use crate::shapes;

/// A named set of experiments timed together.
pub struct Workload {
    /// Name used on the command line and in every metric.
    pub name: &'static str,
    /// Experiment ids, in run order.
    pub experiments: &'static [&'static str],
    /// Times the experiment list runs in one sample. `background`'s
    /// experiments take about 0.35 s together, too short to time steadily
    /// on their own.
    pub passes: usize,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "characterize",
        experiments: &["t1", "f1", "f2", "f6"],
        passes: 1,
    },
    Workload {
        name: "saturate",
        experiments: &["f3", "t2", "f4", "f5", "f7", "f9"],
        passes: 1,
    },
    Workload {
        name: "federate",
        experiments: &["f10", "f13", "f14"],
        passes: 1,
    },
    Workload {
        name: "background",
        experiments: &["f8", "f11", "f12", "t3"],
        passes: 8,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed the golden digests were recorded at.
pub const GOLDEN_SEED: u64 = 2013;

const GOLDEN: &str = include_str!("golden.txt");

/// One experiment's output digest; `None` if the run panicked.
pub type Digest = (&'static str, Option<u64>);

/// One timed run of a workload.
pub struct Sample {
    /// Wall time of the experiment runs, seconds.
    pub wall_s: f64,
    /// `wall_s` rescaled, stretch by stretch, to the reference host speed.
    pub calibrated_s: f64,
    /// The calibration loop times taken during the sample.
    pub calib_runs: Vec<f64>,
    /// One entry per experiment run, in run order (all passes).
    pub digests: Vec<Digest>,
}

/// Experiment runs are timed in stretches of at least this many seconds,
/// each closed by a calibration run.
const STRETCH_S: f64 = 0.5;

/// FNV-1a-64 over `bytes`, continuing from `hash`. The benchmark owns
/// this hash so that a change to the simulator's own hasher cannot move
/// the golden digests.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digest of an experiment's tables: FNV-1a over each `to_csv()` in
/// order, with a separator byte between tables.
pub fn digest(tables: &[Table]) -> u64 {
    tables.iter().fold(0xcbf2_9ce4_8422_2325, |h, t| {
        fnv1a(fnv1a(h, t.to_csv().as_bytes()), &[0xff])
    })
}

fn experiment(id: &str) -> Experiment {
    experiments::all()
        .into_iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("workload names unknown experiment {id}"))
}

/// Runs `w`'s experiments `passes` times with `opts`, catching panics
/// per experiment run. With `calibrate`, the calibration loop runs on as
/// many threads as the sample uses before the first stretch of work and
/// after every stretch; without it, `calibrated_s` is `wall_s`.
pub fn run_sample(w: &Workload, opts: &ExpOptions, passes: usize, calibrate: bool) -> Sample {
    let runs: Vec<Experiment> = w.experiments.iter().map(|id| experiment(id)).collect();
    let mut cal = calibrate.then(|| Calibrator::new(opts.effective_jobs()));
    let mut digests = Vec::with_capacity(runs.len() * passes);
    let (mut wall_s, mut calibrated_s, mut stretch_s) = (0.0, 0.0, 0.0);
    let mut close = |stretch_s: &mut f64| {
        let f = cal.as_mut().map_or(1.0, Calibrator::factor);
        wall_s += *stretch_s;
        calibrated_s += *stretch_s * f;
        *stretch_s = 0.0;
    };
    for _ in 0..passes {
        for e in &runs {
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| (e.run)(opts)));
            stretch_s += t.elapsed().as_secs_f64();
            digests.push((e.id, out.ok().map(|t| digest(&t))));
            if stretch_s >= STRETCH_S {
                close(&mut stretch_s);
            }
        }
    }
    if stretch_s > 0.0 {
        close(&mut stretch_s);
    }
    Sample {
        wall_s,
        calibrated_s,
        calib_runs: cal.map(|c| c.runs).unwrap_or_default(),
        digests,
    }
}

/// Experiment runs in `sample` that panicked or whose digest differs
/// from `reference` (one digest per experiment id).
pub fn failures(digests: &[Digest], reference: &[(String, u64)]) -> u64 {
    digests
        .iter()
        .filter(|(id, d)| {
            let want = reference.iter().find(|(r, _)| r == id).map(|(_, h)| *h);
            d.is_none() || *d != want
        })
        .count() as u64
}

/// The golden digest of every experiment at `scale` (`full` or `quick`)
/// for [`GOLDEN_SEED`].
pub fn golden(scale: &str) -> Vec<(String, u64)> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (s, id, hex) = (f.next()?, f.next()?, f.next()?);
            let hash = u64::from_str_radix(hex, 16).ok()?;
            (s == scale).then(|| (id.to_string(), hash))
        })
        .collect()
}

/// Builds, with no events run, every starting topology `w`'s experiments
/// use, through the public `Scenario::build` and `FedScenario::build`.
fn build_topologies(w: &Workload, seed: u64) {
    let bare = |t| Scenario::bare(t).seed(seed);
    match w.name {
        "characterize" => {
            for p in [cloud_a(), cloud_b(), enterprise()] {
                black_box(Scenario::from_profile(&p).seed(seed).build());
            }
        }
        "saturate" => {
            black_box(bare(shapes::probe_topology()).build());
            black_box(
                bare(shapes::load_topology())
                    .policy(shapes::load_policy())
                    .build(),
            );
            for config in shapes::f7_configs() {
                black_box(bare(shapes::load_topology()).config(config).build());
            }
        }
        "federate" => {
            for s in [1, 2, 4, 8] {
                black_box(
                    FedScenario::new(shapes::scaleout_topology(s))
                        .seed(seed)
                        .config(shapes::scaleout_config())
                        .policy(shapes::load_policy())
                        .build(),
                );
            }
            black_box(
                bare(shapes::load_topology())
                    .policy(shapes::load_policy())
                    .build(),
            );
            for s in [1, 2, 4] {
                black_box(
                    FedScenario::new(shapes::contended_topology(s, 384.0))
                        .seed(seed)
                        .config(shapes::contended_config())
                        .recovery(shapes::contended_recovery())
                        .build(),
                );
            }
            for skew in [0.0, 0.25, 0.5, 0.75, 1.0] {
                black_box(
                    FedScenario::new(shapes::rebalance_topology(skew))
                        .seed(seed)
                        .build(),
                );
            }
        }
        "background" => {
            for ds in [4, 8, 16, 32] {
                black_box(bare(shapes::reconfig_topology(ds)).build());
            }
            for hosts in [64, 256, 1024, 2048] {
                black_box(bare(shapes::heartbeat_topology(hosts)).build());
            }
            let horizon = SimDuration::from_mins(240);
            for rate in [2.0, 6.0, 18.0] {
                black_box(
                    bare(shapes::load_topology())
                        .policy(shapes::retry_policy())
                        .with_fault_plan(shapes::crash_plan(rate, horizon))
                        .build(),
                );
            }
            black_box(
                bare(shapes::load_topology())
                    .policy(shapes::retry_policy())
                    .with_fault_plan(shapes::mixed_plan(SimDuration::from_mins(180)))
                    .build(),
            );
        }
        other => unreachable!("no topologies for workload {other}"),
    }
}

/// Wall seconds to build `w`'s starting topologies once: builds repeat
/// until at least 50 ms have elapsed, and the total is divided by the
/// number of repetitions.
pub fn measure_setup(w: &Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let mut reps = 0u32;
    while reps == 0 || start.elapsed().as_secs_f64() < 0.05 {
        build_topologies(w, seed);
        reps += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}
