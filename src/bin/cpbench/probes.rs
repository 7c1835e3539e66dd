// cpsim-lint: profile(harness): per-layer probes; times simulator calls with the wall clock
//! The traced phase: one probe per workload, each a simulation of that
//! workload's main shape.
//!
//! A single-plane probe runs every simulation twice, through the traced
//! replica and through the simulator's own `CloudSim`. The two must agree
//! exactly (see [`Fingerprint`]); the traced run gives the per-layer
//! numbers and the pair gives the tracing overhead. The federation probe
//! times `FedSim::run_for` against the closed-loop harness around it, at
//! one shard executor and at one per core.

use std::time::Instant;

use cpsim::cloud::CloudRequest;
use cpsim::des::{SimDuration, SimTime};
use cpsim::mgmt::CloneMode;
use cpsim::workload::{cloud_a, cloud_b, enterprise};
use cpsim_federation::{FedScenario, FedSim, Router, RouterPolicy};

use crate::report::Metric;
use crate::shapes;
use crate::traced::{spans, Driven, Fingerprint, Shape, Span, Spans, Untraced, MGMT_KINDS};

/// How a probe's harness drives one simulation.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// Run the generator's own arrivals for this long.
    Horizon(SimDuration),
    /// Keep `n` single-VM instantiates outstanding: each completion
    /// deletes its vApp and submits a fresh one (f4, f10).
    ClosedLoop {
        mode: CloneMode,
        n: u32,
        span: SimDuration,
    },
    /// Single linked-clone instantiates every `interval` (f5, f9, f12).
    OpenLoop {
        interval: SimDuration,
        span: SimDuration,
    },
    /// One linked-clone instantiate halfway through an idle run (f11).
    OneClone { span: SimDuration },
}

fn instantiate(c: &impl Driven, mode: CloneMode) -> CloudRequest {
    CloudRequest::InstantiateVapp {
        org: c.org(),
        template: c.template(),
        count: 1,
        mode: Some(mode),
        lease: None,
    }
}

fn drive(c: &mut impl Driven, d: Drive) {
    match d {
        Drive::Horizon(span) => c.run_until(SimTime::ZERO + span),
        Drive::ClosedLoop { mode, n, span } => {
            for i in 0..n {
                let req = instantiate(c, mode);
                c.schedule_request(SimTime::from_micros(u64::from(i) + 1), req);
            }
            let end = SimTime::ZERO + span;
            let mut handled = 0;
            while c.now() < end {
                let horizon = c.now() + SimDuration::from_secs(15);
                c.run_until(horizon);
                let now = c.now();
                let done: Vec<_> = c.cloud_reports()[handled..]
                    .iter()
                    .filter(|r| r.kind == "instantiate-vapp")
                    .map(|r| r.vapp)
                    .collect();
                handled = c.cloud_reports().len();
                for vapp in done {
                    if let Some(vapp) = vapp {
                        c.schedule_request(now, CloudRequest::DeleteVapp { vapp });
                    }
                    let req = instantiate(c, mode);
                    c.schedule_request(now, req);
                }
            }
        }
        Drive::OpenLoop { interval, span } => {
            let end = SimTime::ZERO + span;
            let mut t = SimTime::from_secs(1);
            while t < end {
                let req = instantiate(c, CloneMode::Linked);
                c.schedule_request(t, req);
                t += interval;
            }
            c.run_until(end);
        }
        Drive::OneClone { span } => {
            let req = instantiate(c, CloneMode::Linked);
            c.schedule_request(SimTime::from_secs(span.as_micros() / 2_000_000), req);
            c.run_until(SimTime::ZERO + span);
        }
    }
}

/// `full` at full scale, `q` in quick mode.
fn pick<T>(quick: bool, full: T, q: T) -> T {
    if quick {
        q
    } else {
        full
    }
}

/// The single-plane simulations of a probe. `quick` shortens them for
/// the self-check and the unit tests.
fn plan(probe: &str, seed: u64, quick: bool) -> Vec<(Shape, Drive)> {
    match probe {
        "characterize" => [cloud_a(), cloud_b(), enterprise()]
            .iter()
            .map(|p| {
                let hours = SimDuration::from_hours(pick(quick, 24, 4));
                (Shape::profile(p, seed), Drive::Horizon(hours))
            })
            .collect(),
        "saturate" => {
            let span = SimDuration::from_mins(pick(quick, 40, 10));
            let load = Shape {
                policy: shapes::load_policy(),
                ..Shape::bare(shapes::load_topology(), seed)
            };
            vec![
                (
                    load.clone(),
                    Drive::ClosedLoop {
                        mode: CloneMode::Linked,
                        n: pick(quick, 256, 64),
                        span,
                    },
                ),
                (
                    load,
                    Drive::ClosedLoop {
                        mode: CloneMode::Full,
                        n: pick(quick, 16, 4),
                        span,
                    },
                ),
            ]
        }
        "background" => {
            let storm = SimDuration::from_mins(pick(quick, 240, 40));
            vec![
                (
                    Shape::bare(shapes::heartbeat_topology(pick(quick, 2048, 512)), seed),
                    Drive::OneClone {
                        span: SimDuration::from_mins(pick(quick, 30, 10)),
                    },
                ),
                (
                    Shape {
                        policy: shapes::retry_policy(),
                        fault_plan: Some(shapes::crash_plan(18.0, storm)),
                        ..Shape::bare(shapes::load_topology(), seed)
                    },
                    Drive::OpenLoop {
                        interval: SimDuration::from_secs(30),
                        span: storm,
                    },
                ),
            ]
        }
        _ => Vec::new(),
    }
}

/// Layer metrics beyond the common set that a probe exercises on every
/// seed. A time metric is reported only where its layer does work, so
/// no reported time reads zero.
fn extras(probe: &str) -> &'static [&'static str] {
    match probe {
        "characterize" => &[
            "workload",
            "cloud.lease_expiry",
            "mgmt.submit",
            "mgmt.transfer_tick",
        ],
        "saturate" => &["mgmt.transfer_tick"],
        "background" => &["mgmt.retry", "mgmt.fault", "mgmt.recovery"],
        _ => &[],
    }
}

/// What a single-plane probe measured.
#[derive(Debug, Default)]
pub struct PlaneProbe {
    /// Merged spans of the traced runs.
    pub spans: Spans,
    /// Events over all runs.
    pub events: u64,
    /// Wall seconds in `run_until`, traced.
    pub traced_s: f64,
    /// Wall seconds in `run_until`, untraced.
    pub untraced_s: f64,
    /// Plane operations submitted, over all runs.
    pub submitted: u64,
    /// Plane operations completed, over all runs.
    pub completed: u64,
    /// Phase retries, over all runs.
    pub retries: u64,
    /// Task aborts, over all runs.
    pub aborts: u64,
    /// Tasks parked by admission control, over all runs.
    pub parked: u64,
    /// Deepest admission backlog in any run.
    pub admission_peak: usize,
    /// Simulations whose traced and untraced runs disagreed.
    pub mismatches: Vec<(Fingerprint, Fingerprint)>,
    /// Simulations run (each once traced, once untraced).
    pub runs: u64,
}

/// Runs the single-plane probe for workload `probe`.
pub fn run_plane_probe(probe: &str, seed: u64, quick: bool) -> PlaneProbe {
    let mut out = PlaneProbe::default();
    for (shape, d) in plan(probe, seed, quick) {
        let mut traced = shape.traced();
        drive(&mut traced, d);
        let mut untraced = Untraced::new(shape.untraced());
        drive(&mut untraced, d);

        let (a, b) = (traced.fingerprint(), untraced.fingerprint());
        if a != b {
            out.mismatches.push((a, b));
        }
        out.runs += 1;
        out.spans.merge(spans(&traced));
        out.events += a.events;
        out.traced_s += traced.run_s();
        out.untraced_s += untraced.run_s();
        let plane = traced.plane();
        let stats = plane.stats();
        out.submitted += stats.submitted();
        out.completed += stats.completed();
        out.retries += stats.retries();
        out.aborts += stats.aborts();
        out.parked += plane.admission().parked_total();
        out.admission_peak = out.admission_peak.max(plane.admission().peak_pending());
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl PlaneProbe {
    /// The probe's per-layer metrics, named without the probe prefix.
    pub fn metrics(&self, probe: &str) -> Vec<Metric> {
        let s = &self.spans;
        let extra = extras(probe);
        let count = |name: &str, v: u64| Metric::new(name, "count", v as f64);
        let secs = |name: &str, v: f64| Metric::new(name, "s", v);
        let mut m = vec![
            count("des.events", self.events),
            count("des.schedules", s.schedule.calls),
            count("des.peak_pending", s.peak_pending as u64),
            secs("des.self_s", s.des_self_s()),
            Metric::new(
                "des.ns_per_event",
                "ns",
                ratio(s.des_self_s() * 1e9, self.events as f64),
            ),
            secs("core.route_self_s", s.route_self_s()),
            count("core.trace_push", s.trace_push.calls),
            secs("core.trace_push_s", s.trace_push.secs),
        ];
        if extra.contains(&"workload") {
            m.push(count("workload.arrivals", s.generate.calls));
            m.push(secs("workload.generate_s", s.generate.secs));
        }
        let mut span = |name: String, sp: Span| {
            m.push(count(&name, sp.calls));
            m.push(secs(&format!("{name}_s"), sp.secs));
        };
        span("cloud.submit".into(), s.cloud_submit);
        span("cloud.task_report".into(), s.cloud_report);
        if extra.contains(&"cloud.lease_expiry") {
            span("cloud.lease_expiry".into(), s.cloud_lease);
        }
        for (kind, sp) in MGMT_KINDS.iter().zip(s.mgmt) {
            let name = format!("mgmt.{kind}");
            let always = matches!(*kind, "cpu_done" | "db_done" | "agent_done" | "heartbeat");
            if always || extra.contains(&name.as_str()) {
                span(name, sp);
            }
        }
        m.push(count("mgmt.parked", self.parked));
        m.push(count("mgmt.peak_pending", self.admission_peak as u64));
        m.push(Metric::new(
            "mgmt.ok_ratio",
            "ratio",
            ratio(self.completed as f64, self.submitted as f64),
        ));
        if extra.contains(&"mgmt.recovery") {
            m.push(count("mgmt.retries", self.retries));
            m.push(count("mgmt.aborts", self.aborts));
        }
        m.push(Metric::new(
            "trace.overhead",
            "ratio",
            ratio(self.traced_s, self.untraced_s),
        ));
        m
    }
}

/// What the federation probe measured.
#[derive(Debug, Default)]
pub struct FedProbe {
    /// Accepted shared-pool commits.
    pub commits: u64,
    /// Commits rejected on a stale view.
    pub conflicts: u64,
    /// Mirror refreshes.
    pub syncs: u64,
    /// Events across shards and the coordinator.
    pub events: u64,
    /// Seconds in `FedSim::run_for` at one shard executor.
    pub run_s: f64,
    /// Seconds in the closed-loop harness around it.
    pub harness_s: f64,
    /// Seconds in `FedSim::run_for` at one executor per core.
    pub run_par_s: f64,
    /// Runs whose results differed between executor counts.
    pub mismatches: u64,
    /// Runs compared.
    pub runs: u64,
}

/// One federated closed loop, as f10 and f13 drive it. Returns seconds
/// in `run_for` and in the whole loop.
fn fed_closed_loop(sim: &mut FedSim, n: u32, span: SimDuration) -> (f64, f64) {
    let started = Instant::now();
    let shards = sim.shard_count();
    let mut router = Router::new(RouterPolicy::LeastLoaded);
    let submit = |sim: &mut FedSim, at: SimTime, s: usize| {
        let req = CloudRequest::InstantiateVapp {
            org: sim.org(s),
            template: sim.templates(s)[0],
            count: 1,
            mode: Some(CloneMode::Linked),
            lease: None,
        };
        sim.schedule_request(at, s, req);
    };
    for i in 0..n {
        submit(
            sim,
            SimTime::from_micros(u64::from(i) + 1),
            i as usize % shards,
        );
    }
    let end = SimTime::ZERO + span;
    let mut handled = vec![0usize; shards];
    let mut run_s = 0.0;
    while sim.now() < end {
        let t = Instant::now();
        sim.run_for(SimDuration::from_secs(15));
        run_s += t.elapsed().as_secs_f64();
        let now = sim.now();
        for (s, seen) in handled.iter_mut().enumerate() {
            let done: Vec<_> = sim.cloud_reports(s)[*seen..]
                .iter()
                .filter(|r| r.kind == "instantiate-vapp")
                .map(|r| r.vapp)
                .collect();
            *seen = sim.cloud_reports(s).len();
            for vapp in done {
                if let Some(vapp) = vapp {
                    sim.schedule_request(now, s, CloudRequest::DeleteVapp { vapp });
                }
                let dst = router.pick(&sim.shard_loads(), 0);
                submit(sim, now, dst);
            }
        }
    }
    (run_s, started.elapsed().as_secs_f64())
}

/// One federated closed loop at `intra` shard executors: the f10 shape
/// (8 shards of 256 outstanding requests) or, if `contended`, the f13
/// shape (4 shards over a small shared pool, 45 s staleness). Returns
/// the simulation and the seconds in `run_for` and in the whole loop.
fn fed_run(contended: bool, seed: u64, quick: bool, intra: usize) -> (FedSim, f64, f64) {
    let (mut sim, n) = if contended {
        let per_shard = pick(quick, 48, 24);
        let pool_free_gb = f64::from(per_shard) * 4.0 * 2.0;
        let sim = FedScenario::new(shapes::contended_topology(4, pool_free_gb))
            .seed(seed)
            .config(shapes::contended_config())
            .recovery(shapes::contended_recovery())
            .staleness(SimDuration::from_secs(45))
            .build();
        (sim, per_shard * 4)
    } else {
        let shards = pick(quick, 8, 4);
        let sim = FedScenario::new(shapes::scaleout_topology(shards))
            .seed(seed)
            .config(shapes::scaleout_config())
            .policy(shapes::load_policy())
            .build();
        (sim, pick(quick, 256, 128) * shards as u32)
    };
    sim.set_intra_jobs(intra);
    let (run_s, total_s) = fed_closed_loop(&mut sim, n, SimDuration::from_mins(pick(quick, 25, 8)));
    (sim, run_s, total_s)
}

/// Runs the federation probe: both shapes of [`fed_run`], each at one
/// shard executor and at `nproc`.
pub fn run_fed_probe(seed: u64, quick: bool, nproc: usize) -> FedProbe {
    let mut out = FedProbe::default();
    for contended in [false, true] {
        let (seq, run_s, total_s) = fed_run(contended, seed, quick, 1);
        let (par, run_par_s, _) = fed_run(contended, seed, quick, nproc);
        let stats = seq.store_stats();
        out.commits += stats.commits;
        out.conflicts += stats.conflicts;
        out.syncs += stats.syncs;
        out.events += seq.events_processed();
        out.run_s += run_s;
        out.harness_s += total_s - run_s;
        out.run_par_s += run_par_s;
        out.runs += 1;
        if (stats, seq.events_processed()) != (par.store_stats(), par.events_processed()) {
            out.mismatches += 1;
        }
    }
    out
}

impl FedProbe {
    /// The probe's per-layer metrics, named without the probe prefix.
    pub fn metrics(&self) -> Vec<Metric> {
        let count = |name: &str, v: u64| Metric::new(name, "count", v as f64);
        vec![
            count("federation.commits", self.commits),
            count("federation.conflicts", self.conflicts),
            count("federation.syncs", self.syncs),
            count("federation.events", self.events),
            Metric::new(
                "federation.commit_ratio",
                "ratio",
                ratio(self.commits as f64, (self.commits + self.conflicts) as f64),
            ),
            Metric::new("federation.run_s", "s", self.run_s),
            Metric::new("federation.harness_s", "s", self.harness_s),
            Metric::new("federation.run_par_s", "s", self.run_par_s),
            Metric::new(
                "federation.intra_speedup",
                "ratio",
                ratio(self.run_s, self.run_par_s),
            ),
        ]
    }
}
