//! Pins every management operation's phase program.
//!
//! One scripted plane runs each `OpKind` to completion, clones in every
//! mode (full, linked on a resident datastore, linked behind a shadow
//! copy, instant), with `db_batching` off and on, plus a fault-injected
//! plane whose hung agent primitives and datastore outage make tasks
//! replay a failed stage. Each operation's exact `(class, label)`
//! breakdown is asserted, and an FNV-1a digest of every report's `Debug`
//! text pins the sampled costs to the bit.

use cpsim_des::{EventQueue, SimDuration, SimTime, Streams};
use cpsim_inventory::{DatastoreId, DatastoreSpec, HostId, HostSpec, VmId, VmSpec};
use cpsim_mgmt::{
    CloneMode, ControlPlane, ControlPlaneConfig, Emit, FaultKind, MgmtEvent, OpKind,
    RecoveryPolicy, TaskReport,
};

/// Drives the plane until its event queue drains, returning the reports
/// in completion order.
fn drive(plane: &mut ControlPlane, emits: Vec<Emit>) -> Vec<TaskReport> {
    let mut queue: EventQueue<MgmtEvent> = EventQueue::new();
    let mut reports = Vec::new();
    let mut pending = emits;
    loop {
        for e in pending.drain(..) {
            match e {
                Emit::At(t, ev) => queue.schedule(t, ev),
                Emit::Done(_, r) | Emit::Failed(_, r) => reports.push(r),
            }
        }
        let Some((t, ev)) = queue.pop() else {
            return reports;
        };
        plane.handle(t, ev, &mut pending);
    }
}

/// A plane, its clock and every report it produced.
struct Script {
    plane: ControlPlane,
    now: SimTime,
    reports: Vec<TaskReport>,
}

impl Script {
    /// Two hosts on three datastores, with a 20 GiB template on `ds0`.
    fn new(cfg: ControlPlaneConfig) -> (Self, Vec<HostId>, Vec<DatastoreId>, VmId) {
        let mut plane = ControlPlane::new(cfg, Streams::new(2013));
        let ds: Vec<DatastoreId> = (0..3)
            .map(|i| plane.add_datastore(DatastoreSpec::new(format!("ds{i}"), 2048.0, 100.0)))
            .collect();
        let hosts: Vec<HostId> = (0..2)
            .map(|i| plane.add_host(HostSpec::new(format!("h{i}"), 48_000, 262_144)))
            .collect();
        for &h in &hosts {
            for &d in &ds[..2] {
                plane.connect(h, d).unwrap();
            }
        }
        let template = plane
            .install_template("tmpl", VmSpec::new(2, 2_048, 20.0), hosts[0], ds[0])
            .unwrap();
        let script = Script {
            plane,
            now: SimTime::ZERO,
            reports: Vec::new(),
        };
        (script, hosts, ds, template)
    }

    /// Runs `kind` alone to completion and returns its report.
    fn run(&mut self, kind: OpKind) -> TaskReport {
        let emits = self.plane.submit_collect(self.now, kind);
        let mut done = drive(&mut self.plane, emits);
        assert_eq!(done.len(), 1);
        let r = done.pop().unwrap();
        self.now = r.completed_at + SimDuration::from_secs(1);
        self.reports.push(r.clone());
        r
    }
}

/// A report's breakdown as `"class label"` rows.
fn phases(r: &TaskReport) -> Vec<String> {
    r.breakdown
        .iter()
        .map(|(class, label, _)| format!("{} {label}", class.name()))
        .collect()
}

/// Asserts `r`'s breakdown, with the `db task-record` row the prelude
/// writes unless DB batching folds it away.
fn expect(r: &TaskReport, batching: bool, rest: &[&str]) {
    let mut want = vec!["cpu api-ingress".to_string()];
    if !batching {
        want.push("db task-record".into());
    }
    want.extend(rest.iter().map(|s| s.to_string()));
    assert_eq!(phases(r), want, "{} breakdown", r.kind);
}

const FINISH_PROVISION: [&str; 3] = [
    "cpu result-processing",
    "db finalize-records",
    "cpu finalize",
];

/// FNV-1a-64 over each report's `Debug` text, with a separator.
fn digest(reports: &[TaskReport]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in reports {
        for b in format!("{r:?}").bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Every operation and clone mode, each run alone to completion.
fn every_program(batching: bool) -> Vec<TaskReport> {
    let cfg = ControlPlaneConfig {
        heartbeat: cpsim_hostagent::HeartbeatSpec::disabled(),
        db_batching: batching,
        ..Default::default()
    };
    let (mut s, hosts, ds, template) = Script::new(cfg);
    let b = batching;

    let r = s.run(OpKind::CreateVm {
        spec: VmSpec::new(1, 1_024, 10.0),
    });
    let created = r.produced_vm.unwrap();
    let mut want = vec!["cpu placement", "db insert-vm"];
    want.extend(["host-agent create-vm-files", "host-agent register-vm"]);
    want.extend(FINISH_PROVISION);
    expect(&r, b, &want);

    // Placement picks the datastore with the most free space. ds1 has no
    // replica, so the first linked clone lands there behind a shadow
    // copy; the second then finds ds0 freer, where the template lives.
    for (label, mode) in [
        ("data-transfer shadow-copy", CloneMode::Linked),
        ("data-transfer clone-metadata", CloneMode::Linked),
        ("data-transfer clone-copy", CloneMode::Full),
    ] {
        let r = s.run(OpKind::CloneVm {
            source: template,
            mode,
        });
        assert!(r.is_success(), "{:?}", r.error);
        let mut want = vec!["cpu placement", "host-agent prepare-clone", "db insert-vm"];
        want.extend([label, "host-agent finalize-clone", "host-agent register-vm"]);
        want.extend(FINISH_PROVISION);
        expect(&r, b, &want);
    }
    let r = s.run(OpKind::CloneVm {
        source: template,
        mode: CloneMode::Instant,
    });
    let fork = r.produced_vm.unwrap();
    let mut want = vec!["cpu placement", "host-agent instant-fork", "db insert-vm"];
    want.push("host-agent register-vm");
    want.extend(FINISH_PROVISION);
    expect(&r, b, &want);

    let vm_op = |agent: &'static str, db: &'static str| vec![agent, db, "cpu finalize"];
    let r = s.run(OpKind::PowerOn { vm: created });
    expect(
        &r,
        b,
        &vm_op("host-agent power-on-vm", "db update-power-state"),
    );
    let r = s.run(OpKind::DestroyVm { vm: created });
    assert_eq!(
        r.error.as_deref(),
        Some(&*format!("vm {created} is powered on"))
    );
    expect(&r, b, &[]);
    let r = s.run(OpKind::PowerOff { vm: created });
    expect(
        &r,
        b,
        &vm_op("host-agent power-off-vm", "db update-power-state"),
    );
    let r = s.run(OpKind::Reconfigure { vm: created });
    expect(
        &r,
        b,
        &vm_op("host-agent reconfigure-vm", "db update-config"),
    );
    let r = s.run(OpKind::RemoveSnapshot { vm: created });
    assert!(!r.is_success());
    expect(&r, b, &["host-agent remove-snapshot"]);
    let r = s.run(OpKind::Snapshot { vm: created });
    expect(
        &r,
        b,
        &vm_op("host-agent create-snapshot", "db update-snapshot"),
    );
    let r = s.run(OpKind::RemoveSnapshot { vm: created });
    assert!(r.is_success(), "{:?}", r.error);
    expect(
        &r,
        b,
        &[
            "host-agent remove-snapshot",
            "data-transfer snapshot-merge",
            "db update-snapshot",
            "cpu finalize",
        ],
    );
    let r = s.run(OpKind::MigrateVm { vm: created });
    assert!(r.is_success(), "{:?}", r.error);
    expect(
        &r,
        b,
        &[
            "cpu placement",
            "host-agent migrate-source",
            "host-agent migrate-dest",
            "db update-placement",
            "cpu finalize",
        ],
    );
    let home = s.plane.inventory().vm(created).unwrap().datastore;
    let r = s.run(OpKind::RelocateVm {
        vm: created,
        dst: home,
    });
    assert!(!r.is_success());
    expect(&r, b, &[]);
    let away = if home == ds[0] { ds[1] } else { ds[0] };
    let r = s.run(OpKind::RelocateVm {
        vm: created,
        dst: away,
    });
    assert!(r.is_success(), "{:?}", r.error);
    expect(
        &r,
        b,
        &[
            "data-transfer relocate-copy",
            "host-agent reconfigure-vm",
            "db update-placement",
            "cpu finalize",
        ],
    );
    let r = s.run(OpKind::SeedTemplate {
        template,
        dst: ds[1],
    });
    assert!(!r.is_success(), "already resident after the shadow copy");
    expect(&r, b, &[]);
    let r = s.run(OpKind::SeedTemplate {
        template,
        dst: ds[2],
    });
    assert!(r.is_success(), "{:?}", r.error);
    expect(
        &r,
        b,
        &[
            "data-transfer seed-copy",
            "db insert-replica",
            "cpu finalize",
        ],
    );
    let r = s.run(OpKind::add_host(
        HostSpec::new("h2", 48_000, 262_144),
        vec![ds[0], ds[2]],
    ));
    assert!(r.is_success(), "{:?}", r.error);
    expect(&r, b, &["cpu host-sync", "db insert-host", "cpu finalize"]);
    let r = s.run(OpKind::RescanDatastores { host: hosts[1] });
    expect(
        &r,
        b,
        &[
            "host-agent mount-datastore",
            "db update-storage",
            "cpu finalize",
        ],
    );
    for vm in [fork, created] {
        let r = s.run(OpKind::DestroyVm { vm });
        assert!(r.is_success(), "{:?}", r.error);
        let mut want = vec!["host-agent unregister-vm", "host-agent delete-vm-files"];
        want.extend(["cpu result-processing", "db delete-records", "cpu finalize"]);
        expect(&r, b, &want);
    }
    s.plane.inventory().check_invariants().unwrap();
    s.reports
}

/// Concurrent provisioning on a plane whose agents hang and whose
/// datastores go down, so failed stages are replayed after a backoff.
fn with_retries() -> Vec<TaskReport> {
    let cfg = ControlPlaneConfig {
        heartbeat: cpsim_hostagent::HeartbeatSpec::disabled(),
        ..Default::default()
    };
    let (mut s, _, _, template) = Script::new(cfg);
    let streams = Streams::new(2013);
    s.plane
        .enable_faults(RecoveryPolicy::default(), 0.3, streams.rng(Streams::FAULTS));
    let mut emits = Vec::new();
    for ds in 0..2 {
        let outage = FaultKind::DatastoreOutage {
            ds,
            duration: SimDuration::from_secs(5),
        };
        s.plane
            .handle(SimTime::ZERO, MgmtEvent::Fault(outage), &mut emits);
    }
    for i in 0..12u32 {
        let kind = match i % 3 {
            0 => OpKind::CreateVm {
                spec: VmSpec::new(1, 1_024, 10.0),
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
        let at = SimTime::ZERO + SimDuration::from_millis(u64::from(i) * 50);
        emits.push(Emit::At(at, MgmtEvent::Submit(kind.into())));
    }
    let reports = drive(&mut s.plane, emits);
    assert_eq!(reports.len(), 12);
    s.plane.inventory().check_invariants().unwrap();
    reports
}

#[test]
fn every_phase_program_is_pinned() {
    let mut all = every_program(false);
    all.extend(every_program(true));
    assert_eq!(all.len(), 42);
    assert_eq!(digest(&all), 0x060b_6d1d_985a_5622);
}

#[test]
fn a_failed_stage_replays_with_fresh_draws() {
    let reports = with_retries();
    let retried: Vec<&TaskReport> = reports.iter().filter(|r| r.retries > 0).collect();
    assert!(!retried.is_empty());
    for r in &reports {
        let rows = phases(r);
        assert_eq!(rows[..2], ["cpu api-ingress", "db task-record"]);
    }
    // A hung primitive is charged at the timeout, then replayed.
    let replayed_agent = reports.iter().any(|r| {
        r.breakdown
            .windows(2)
            .any(|w| w[0].1 == w[1].1 && w[0].2 == 120.0 && w[1].2 != 120.0)
    });
    assert!(replayed_agent);
    // A stage that found its datastore down is replayed uncharged.
    let replayed_action = retried.iter().any(|r| {
        let rows = phases(r);
        r.is_success() && rows.windows(2).all(|w| w[0] != w[1])
    });
    assert!(replayed_action);
    assert!(reports.iter().any(|r| r.aborted && r.rolled_back));
    assert_eq!(digest(&reports), 0xa56c_c151_1c1c_9d9e);
}
