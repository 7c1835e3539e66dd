//! Pins the fault-window lifecycle of a fault-injected plane.
//!
//! One scripted plane, with heartbeats on, a small agent-hang probability
//! and a steady trickle of provisioning, receives every opening
//! `FaultKind` (host crash, agent slowdown, degraded DB, datastore
//! outage, heartbeat drops) plus the edge cases of window bookkeeping:
//!
//! - two windows opened on one plan index, which the plan index resolves
//!   to different entities once a host or datastore is added mid-run.
//!   The later window is the shorter, so its close fires first, and it
//!   ends that window's own entity;
//! - the same slowdown factor opened twice and closed out of order among
//!   other factors, so the scale is a product over a reordered stack;
//! - a crash of a host that is already down, and an outage of a datastore
//!   already out, which are refused and bind nothing;
//! - closes for plan indices and factors that were never opened.
//!
//! An FNV-1a digest over every report's `Debug` text, the stats counters,
//! the CPU and DB utilization bits and the kernel event count pins the
//! run to the bit.

use cpsim_des::{EventQueue, SimDuration, SimTime, Streams};
use cpsim_inventory::{DatastoreId, DatastoreSpec, HostId, HostSpec, VmSpec};
use cpsim_mgmt::{
    CloneMode, ControlPlane, ControlPlaneConfig, Emit, FaultKind, MgmtEvent, OpKind,
    RecoveryPolicy, TaskReport,
};

/// A plane behind its own event queue, with every report it produced.
struct Rig {
    plane: ControlPlane,
    queue: EventQueue<MgmtEvent>,
    pending: Vec<Emit>,
    reports: Vec<TaskReport>,
    events: u64,
}

impl Rig {
    fn route(&mut self) {
        for e in self.pending.drain(..) {
            match e {
                Emit::At(t, ev) => self.queue.schedule(t, ev),
                Emit::Done(_, r) | Emit::Failed(_, r) => self.reports.push(r),
            }
        }
    }

    /// Dispatches every event due at or before `end`.
    fn run_until(&mut self, end: SimTime) {
        self.route();
        while let Some((t, ev)) = self.queue.pop_if_before(end) {
            self.events += 1;
            self.plane.handle(t, ev, &mut self.pending);
            self.route();
        }
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn dur(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// The fault script, by firing time. Plan indices resolve modulo the
/// live hosts (4, then 5 once the host added at 95 s registers) and
/// datastores (3, then 4 from 60 s).
fn faults() -> Vec<(u64, FaultKind)> {
    use FaultKind::*;
    let slow = |factor, s| AgentSlowdown {
        factor,
        duration: dur(s),
    };
    let db = |factor, s| DbDegraded {
        factor,
        duration: dur(s),
    };
    vec![
        // Slowdowns: one factor opened twice and closed out of order among
        // others, so each first close reorders a stack of four. Service
        // times round to microseconds, which hides the scale's last bits;
        // the unit tests in `recovery.rs` pin those.
        (10, slow(1.1, 300)),
        (15, AgentSpeedRestore { factor: 9.0 }),
        (20, slow(1.3, 100)),
        (30, slow(1.1, 50)),
        (40, slow(1.8, 200)),
        (5, db(2.5, 100)),
        (12, DbRestore { factor: 9.0 }),
        (15, db(1.3, 50)),
        (25, db(2.5, 30)),
        (35, db(2.9, 400)),
        // Crashes: index 7 is host 3 now and host 2 after the add, so
        // the close at 150 s ends host 2's window and the one at 170 s
        // host 3's. Index 5 lands on host 1 while it is already down.
        (
            20,
            HostCrash {
                host: 7,
                down_for: dur(150),
            },
        ),
        (
            30,
            HostCrash {
                host: 1,
                down_for: dur(120),
            },
        ),
        (
            60,
            HostCrash {
                host: 5,
                down_for: dur(60),
            },
        ),
        (65, HostRecover { host: 5 }),
        (90, HostRecover { host: 99 }),
        (
            120,
            HostCrash {
                host: 7,
                down_for: dur(30),
            },
        ),
        // Heartbeat drops: index 6 is host 2 now and host 1 after the add.
        (
            40,
            HeartbeatDrops {
                host: 6,
                duration: dur(200),
            },
        ),
        (45, HeartbeatRestore { host: 42 }),
        (
            200,
            HeartbeatDrops {
                host: 6,
                duration: dur(100),
            },
        ),
        // Outages: index 4 is ds 1 now and ds 0 once ds 3 is added, so
        // the close at 100 s ends ds 0's outage and the one at 150 s
        // ds 1's. Index 1 is ds 1 while it is already out.
        (
            50,
            DatastoreOutage {
                ds: 4,
                duration: dur(100),
            },
        ),
        (
            55,
            DatastoreOutage {
                ds: 1,
                duration: dur(30),
            },
        ),
        (
            70,
            DatastoreOutage {
                ds: 4,
                duration: dur(30),
            },
        ),
        (75, DatastoreRestore { ds: 8 }),
    ]
}

/// Runs the script and returns its reports, stats counters and kernel
/// event count.
fn run() -> (Vec<TaskReport>, Vec<u64>, u64) {
    let cfg = ControlPlaneConfig::default();
    let streams = Streams::new(2013);
    let mut plane = ControlPlane::new(cfg, streams);
    let ds: Vec<DatastoreId> = (0..3)
        .map(|i| plane.add_datastore(DatastoreSpec::new(format!("ds{i}"), 2048.0, 100.0)))
        .collect();
    let hosts: Vec<HostId> = (0..4)
        .map(|i| plane.add_host(HostSpec::new(format!("h{i}"), 48_000, 262_144)))
        .collect();
    for &h in &hosts {
        for &d in &ds {
            plane.connect(h, d).unwrap();
        }
    }
    let template = plane
        .install_template("tmpl", VmSpec::new(1, 1_024, 4.0), hosts[0], ds[0])
        .unwrap();
    plane.seed_template_now(template, ds[1]).unwrap();
    plane.enable_faults(
        RecoveryPolicy::default(),
        0.02,
        streams.rng(Streams::FAULTS),
    );
    let mut pending = plane.init_events();
    assert_eq!(pending.len(), hosts.len(), "one evented beat per host");
    for (at, kind) in faults() {
        pending.push(Emit::At(secs(at), MgmtEvent::Fault(kind)));
    }
    for i in 0..90u64 {
        let kind = match i % 3 {
            0 => OpKind::CreateVm {
                spec: VmSpec::new(1, 1_024, 4.0),
            },
            1 => OpKind::CloneVm {
                source: template,
                mode: CloneMode::Linked,
            },
            _ => OpKind::CloneVm {
                source: template,
                mode: CloneMode::Full,
            },
        };
        pending.push(Emit::At(secs(1 + 7 * i), MgmtEvent::Submit(kind.into())));
    }
    pending.push(Emit::At(
        secs(95),
        MgmtEvent::Submit(
            OpKind::add_host(HostSpec::new("h4", 48_000, 262_144), ds.clone()).into(),
        ),
    ));
    let mut rig = Rig {
        plane,
        queue: EventQueue::new(),
        pending,
        reports: Vec::new(),
        events: 0,
    };
    rig.run_until(secs(60));
    let late = rig
        .plane
        .add_datastore(DatastoreSpec::new("ds3", 2048.0, 100.0));
    for &h in &hosts {
        rig.plane.connect(h, late).unwrap();
    }
    let end = secs(3_600);
    rig.run_until(end);
    assert_eq!(rig.plane.tasks_in_flight(), 0, "every task finished");
    rig.plane.inventory().check_invariants().unwrap();

    let s = rig.plane.stats();
    let mut counters = vec![
        s.submitted(),
        s.completed(),
        s.failed(),
        s.retries(),
        s.aborts(),
        s.rollbacks(),
        s.agent_timeouts(),
        s.host_crashes(),
        s.hosts_declared_down(),
        s.resyncs(),
        rig.plane.cpu_utilization(end).to_bits(),
        rig.plane.db_utilization(end).to_bits(),
    ];
    for (_, ks) in s.kinds() {
        counters.extend([
            ks.completed,
            ks.failed,
            ks.retries,
            ks.aborted,
            ks.rolled_back,
        ]);
    }
    (rig.reports, counters, rig.events)
}

/// FNV-1a-64 over each item's text, with a separator.
fn digest<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in items {
        for b in s.bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_fault_window_opens_and_closes_as_pinned() {
    let (reports, counters, events) = run();
    assert_eq!(reports.len(), 91);
    // Three crashes take effect; the one on an already-down host does not.
    assert_eq!(counters[7], 3, "host crashes");
    assert!(counters[3] > 0, "faults force retries");
    assert!(counters[8] > 0, "missed beats declare hosts down");
    let mut text: Vec<String> = reports.iter().map(|r| format!("{r:?}")).collect();
    text.push(format!("{counters:?}"));
    text.push(events.to_string());
    assert_eq!(events, 2_032);
    assert_eq!(
        digest(text.iter().map(String::as_str)),
        0x3054_b17d_9869_ba6f
    );
}
