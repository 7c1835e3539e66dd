//! Beat train ≡ evented heartbeats.
//!
//! A fault-free plane keeps its hosts' heartbeats off the event queue and
//! replays the due ones whenever a call touches its CPU or database
//! (`ControlPlane::init_events`). This oracle runs the same plane twice on
//! the kernel: (a) with the train armed, (b) unarmed, with one
//! `MgmtEvent::Heartbeat` per host scheduled the way `init_events` did
//! before the train existed (the evented path that fault-injected planes
//! keep). Every task report must agree to the bit, utilization reads must
//! agree to the bit at every horizon, and (a) must dispatch exactly (b)'s
//! events minus (b)'s heartbeats.
//!
//! The cases aim at ties, where only the kernel's `(time, seq)` order
//! decides: one CPU core, submits scheduled up front on multiples of the
//! beat interval (where host 0 beats), submits scheduled at each horizon
//! after a `run_until` (the closed-loop pattern), idle rounds that leave
//! beats unreplayed across a horizon, and a host added mid-run.

use cpsim_des::{EventQueue, Model, SimDuration, SimTime, Simulation, Streams};
use cpsim_hostagent::HeartbeatSpec;
use cpsim_inventory::{DatastoreId, DatastoreSpec, HostSpec, VmId, VmSpec};
use cpsim_mgmt::{
    CloneMode, ControlPlane, ControlPlaneConfig, Emit, MgmtEvent, OpKind, TaskReport,
};
use proptest::prelude::*;

/// The plane on the kernel, routing its emissions like the stack does.
struct PlaneModel {
    plane: ControlPlane,
    reports: Vec<TaskReport>,
    /// `Heartbeat` events dispatched.
    beats: u64,
    out: Vec<Emit>,
}

impl Model for PlaneModel {
    type Event = MgmtEvent;

    fn handle(&mut self, now: SimTime, ev: MgmtEvent, queue: &mut EventQueue<MgmtEvent>) {
        if matches!(ev, MgmtEvent::Heartbeat { .. }) {
            self.beats += 1;
        }
        self.plane.handle(now, ev, &mut self.out);
        for e in self.out.drain(..) {
            match e {
                Emit::At(t, ev) => queue.schedule(t, ev),
                Emit::Done(_, r) | Emit::Failed(_, r) => self.reports.push(r),
            }
        }
    }
}

/// One equivalence case.
#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    cores: u32,
    hosts: usize,
    /// Beat interval, seconds.
    interval: u64,
    /// Submits scheduled before the run, in multiples of the interval
    /// plus a µs offset (0 lands on host 0's beat).
    upfront: Vec<(u64, u64)>,
    /// Closed-loop rounds: clones submitted at each horizon (0 = idle).
    rounds: Vec<u32>,
    /// Horizon step, seconds.
    step: u64,
    /// Round at whose horizon a host is added, if any.
    add_host_round: Option<usize>,
}

fn config(case: &Case) -> ControlPlaneConfig {
    ControlPlaneConfig {
        cpu_cores: case.cores,
        db_connections: 1,
        heartbeat: HeartbeatSpec {
            interval: SimDuration::from_secs(case.interval),
            mgmt_cpu: SimDuration::from_millis(150),
            db_time: SimDuration::from_millis(60),
        },
        ..Default::default()
    }
}

struct Built {
    sim: Simulation<PlaneModel>,
    template: VmId,
    datastores: Vec<DatastoreId>,
}

fn build(case: &Case, armed: bool) -> Built {
    let mut plane = ControlPlane::new(config(case), Streams::new(case.seed));
    let datastores: Vec<_> = (0..2)
        .map(|i| plane.add_datastore(DatastoreSpec::new(format!("ds{i}"), 8_192.0, 200.0)))
        .collect();
    let hosts: Vec<_> = (0..case.hosts)
        .map(|i| plane.add_host(HostSpec::new(format!("h{i}"), 48_000, 524_288)))
        .collect();
    for &h in &hosts {
        for &d in &datastores {
            plane.connect(h, d).expect("fresh ids");
        }
    }
    let template = plane
        .install_template("tmpl", VmSpec::new(2, 2_048, 20.0), hosts[0], datastores[0])
        .expect("template fits");
    for &d in &datastores[1..] {
        plane.seed_template_now(template, d).expect("seed fits");
    }
    let hb = plane.config().heartbeat;
    let initial: Vec<(SimTime, MgmtEvent)> = if armed {
        // Arming is idempotent: a second call neither emits nor re-arms.
        assert!(plane.init_events().is_empty());
        assert!(plane.init_events().is_empty());
        Vec::new()
    } else {
        (0..case.hosts)
            .map(|slot| (hb.first_beat(slot), MgmtEvent::Heartbeat { slot }))
            .collect()
    };
    let mut sim = Simulation::new(PlaneModel {
        plane,
        reports: Vec::new(),
        beats: 0,
        out: Vec::new(),
    });
    for (t, ev) in initial {
        sim.schedule(t, ev);
    }
    Built {
        sim,
        template,
        datastores,
    }
}

fn clone_of(template: VmId) -> MgmtEvent {
    MgmtEvent::Submit(
        OpKind::CloneVm {
            source: template,
            mode: CloneMode::Linked,
        }
        .into(),
    )
}

/// What a run observed: reports, utilization bits per horizon, events.
struct Observed {
    reports: Vec<TaskReport>,
    util: Vec<(SimTime, u64, u64)>,
    events: u64,
    beats: u64,
}

fn run(case: &Case, armed: bool) -> Observed {
    let Built {
        mut sim,
        template,
        datastores,
    } = build(case, armed);
    let interval = SimDuration::from_secs(case.interval);
    for &(k, offset) in &case.upfront {
        let at = SimTime::ZERO + SimDuration::from_micros(interval.as_micros() * k + offset);
        sim.schedule(at, clone_of(template));
    }
    let mut util = Vec::new();
    let mut h = SimTime::ZERO;
    for (round, &n) in case.rounds.iter().enumerate() {
        h += SimDuration::from_secs(case.step);
        sim.run_until(h);
        for _ in 0..n {
            sim.schedule(h, clone_of(template));
        }
        if case.add_host_round == Some(round) {
            let op = OpKind::add_host(
                HostSpec::new(format!("added{round}"), 48_000, 524_288),
                datastores.clone(),
            );
            sim.schedule(h, MgmtEvent::Submit(op.into()));
        }
        // Read only every other horizon, so some beats stay unreplayed
        // across a run boundary.
        if round % 2 == 1 {
            let plane = &sim.model().plane;
            util.push((
                h,
                plane.cpu_utilization(h).to_bits(),
                plane.db_utilization(h).to_bits(),
            ));
        }
    }
    let end = h + SimDuration::from_secs(3 * case.interval);
    sim.run_until(end);
    let plane = &sim.model().plane;
    util.push((
        end,
        plane.cpu_utilization(end).to_bits(),
        plane.db_utilization(end).to_bits(),
    ));
    Observed {
        events: sim.events_processed(),
        beats: sim.model().beats,
        reports: sim.into_model().reports,
        util,
    }
}

/// Report timings as bits, so float equality cannot hide a difference.
fn timings(r: &TaskReport) -> [u64; 9] {
    [
        r.submitted_at.as_micros(),
        r.completed_at.as_micros(),
        r.latency.as_micros(),
        r.cpu_secs.to_bits(),
        r.db_secs.to_bits(),
        r.agent_secs.to_bits(),
        r.data_secs.to_bits(),
        r.queue_secs.to_bits(),
        r.admission_secs.to_bits(),
    ]
}

/// Runs both planes, asserts they agree, and returns the train run's
/// reports.
fn check(case: &Case) -> Vec<TaskReport> {
    let (a, b) = (run(case, true), run(case, false));
    assert_eq!(a.beats, 0, "an armed plane emitted heartbeat events");
    assert!(b.beats > 0, "the evented run never beat");
    assert_eq!(a.reports.len(), b.reports.len(), "task counts differ");
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(timings(ra), timings(rb), "{ra:?}\nvs\n{rb:?}");
        assert_eq!(ra, rb);
    }
    assert_eq!(a.util, b.util, "utilization reads differ");
    assert_eq!(
        a.events,
        b.events - b.beats,
        "events beyond the beats differ"
    );
    a.reports
}

/// Whether the mid-run `AddHost` finished, so its host beat in both runs.
fn host_added(reports: &[TaskReport]) -> bool {
    reports
        .iter()
        .any(|r| r.kind == "add-host" && r.is_success())
}

/// The closed loop on one core, with submits up front on host 0's beats,
/// idle rounds and a host added mid-run.
#[test]
fn one_core_closed_loop_matches_evented_beats() {
    let reports = check(&Case {
        seed: 2013,
        cores: 1,
        hosts: 4,
        interval: 20,
        upfront: vec![(0, 0), (1, 0), (2, 0), (2, 1), (3, 5), (5, 0)],
        rounds: vec![2, 0, 0, 1, 3, 0, 0, 0, 2, 1, 0, 0],
        step: 20,
        add_host_round: Some(3),
    });
    assert!(host_added(&reports));
}

/// A horizon step that is not the interval, so horizons land on beats
/// only now and then (the closed loops use 15 s slices against 20 s
/// beats).
#[test]
fn off_interval_horizons_match_evented_beats() {
    let reports = check(&Case {
        seed: 7,
        cores: 1,
        hosts: 3,
        interval: 20,
        upfront: vec![(1, 0), (3, 0), (4, 2)],
        rounds: vec![1, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 3],
        step: 15,
        add_host_round: Some(5),
    });
    assert!(host_added(&reports));
}

fn case_strategy() -> impl Strategy<Value = Case> {
    // Small pools, weighted towards the values that tie: offset 0 lands a
    // submit on host 0's beat, 0 submits make an idle round.
    const INTERVALS: [u64; 3] = [5, 10, 20];
    const STEPS: [u64; 4] = [5, 10, 15, 20];
    const OFFSETS: [u64; 4] = [0, 0, 1, 7];
    const SUBMITS: [u32; 4] = [0, 0, 1, 2];
    (
        (1u64..1_000_000, 1u32..=2, 1usize..=5),
        (0usize..3, 0usize..4),
        proptest::collection::vec((0u64..6, 0usize..4), 0..6),
        proptest::collection::vec(0usize..4, 1..10),
        proptest::option::of(0usize..10),
    )
        .prop_map(
            |((seed, cores, hosts), (interval, step), upfront, rounds, add_host_round)| Case {
                seed,
                cores,
                hosts,
                interval: INTERVALS[interval],
                upfront: upfront.into_iter().map(|(k, o)| (k, OFFSETS[o])).collect(),
                rounds: rounds.into_iter().map(|r| SUBMITS[r]).collect(),
                step: STEPS[step],
                add_host_round,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        .. ProptestConfig::default()
    })]

    /// Arbitrary seeds, core counts, fleets, intervals, up-front offsets,
    /// round patterns and add-host times.
    #[test]
    fn arbitrary_planes_match_evented_beats(case in case_strategy()) {
        check(&case);
    }
}
