//! Behavioral tests of the control plane: whole operations driven through
//! a miniature event loop to completion.

use cpsim_des::{EventQueue, SimDuration, SimTime, Streams};
use cpsim_inventory::{DatastoreId, DatastoreSpec, HostId, HostSpec, PowerState, VmId, VmSpec};
use cpsim_mgmt::plane::Owner;
use cpsim_mgmt::{
    AdmissionLimits, CloneMode, ControlPlane, ControlPlaneConfig, Emit, MgmtEvent, OpKind,
    TaskReport,
};

/// Drives the plane until the event queue drains or `horizon` passes.
/// Returns completed reports in completion order.
fn drive(plane: &mut ControlPlane, seed_emits: Vec<Emit>, horizon: SimTime) -> Vec<TaskReport> {
    drive_observed(plane, seed_emits, horizon, |_, _| {})
}

/// [`drive`], showing `seen` every event before the plane handles it.
fn drive_observed(
    plane: &mut ControlPlane,
    seed_emits: Vec<Emit>,
    horizon: SimTime,
    mut seen: impl FnMut(SimTime, &MgmtEvent),
) -> Vec<TaskReport> {
    let mut queue: EventQueue<MgmtEvent> = EventQueue::new();
    let mut reports = Vec::new();
    let sink =
        |emits: Vec<Emit>, queue: &mut EventQueue<MgmtEvent>, reports: &mut Vec<TaskReport>| {
            for e in emits {
                match e {
                    Emit::At(t, ev) => queue.schedule(t, ev),
                    Emit::Done(_, r) | Emit::Failed(_, r) => reports.push(r),
                }
            }
        };
    sink(seed_emits, &mut queue, &mut reports);
    let mut guard = 0u64;
    while let Some((t, ev)) = queue.pop() {
        if t > horizon {
            break;
        }
        guard += 1;
        assert!(guard < 5_000_000, "event storm: runaway simulation");
        seen(t, &ev);
        let emits = plane.handle_collect(t, ev);
        sink(emits, &mut queue, &mut reports);
    }
    reports
}

/// A small two-host, two-datastore cloud with one 20 GiB template.
struct Rig {
    plane: ControlPlane,
    hosts: Vec<HostId>,
    datastores: Vec<DatastoreId>,
    template: VmId,
}

fn rig_with(cfg: ControlPlaneConfig) -> Rig {
    let mut plane = ControlPlane::new(cfg, Streams::new(42));
    let ds0 = plane.add_datastore(DatastoreSpec::new("ds0", 2048.0, 100.0));
    let ds1 = plane.add_datastore(DatastoreSpec::new("ds1", 2048.0, 100.0));
    let h0 = plane.add_host(HostSpec::new("h0", 48_000, 262_144));
    let h1 = plane.add_host(HostSpec::new("h1", 48_000, 262_144));
    for &h in &[h0, h1] {
        for &d in &[ds0, ds1] {
            plane.connect(h, d).unwrap();
        }
    }
    let template = plane
        .install_template("tmpl", VmSpec::new(2, 2_048, 20.0), h0, ds0)
        .unwrap();
    Rig {
        plane,
        hosts: vec![h0, h1],
        datastores: vec![ds0, ds1],
        template,
    }
}

fn rig() -> Rig {
    let cfg = ControlPlaneConfig {
        heartbeat: cpsim_hostagent::HeartbeatSpec::disabled(),
        ..Default::default()
    };
    rig_with(cfg)
}

const FAR: SimTime = SimTime::from_hours(24);

#[test]
fn full_clone_is_data_bound_linked_clone_is_control_bound() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Full,
        },
    );
    let full = drive(&mut r.plane, emits, FAR);
    assert_eq!(full.len(), 1);
    let full = &full[0];
    assert!(full.is_success(), "{:?}", full.error);
    // 20 GiB at 100 MiB/s = ~205 s of copy.
    assert!(full.data_secs > 150.0, "data {:.1}s", full.data_secs);
    assert!(full.data_secs > 10.0 * full.control_secs());

    let emits = r.plane.submit_collect(
        SimTime::ZERO + cpsim_des::SimDuration::from_hours(1),
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Linked,
        },
    );
    let linked = drive(&mut r.plane, emits, FAR);
    assert_eq!(linked.len(), 1);
    let linked = &linked[0];
    assert!(linked.is_success(), "{:?}", linked.error);
    assert!(
        linked.data_secs < 5.0,
        "linked clone moved real data: {:.1}s",
        linked.data_secs
    );
    assert!(
        linked.latency.as_secs_f64() < full.latency.as_secs_f64() / 5.0,
        "linked {:.1}s vs full {:.1}s",
        linked.latency.as_secs_f64(),
        full.latency.as_secs_f64()
    );
}

#[test]
fn linked_clone_on_nonresident_datastore_makes_shadow_then_reuses_it() {
    let mut r = rig();
    // Fill ds0 so placement must use ds1, where the template is not
    // resident.
    let ds0 = r.datastores[0];
    if let Some(d) = r.plane.inventory().datastore(ds0) {
        assert!(d.free_gb() > 0.0);
    }
    // Occupy ds0 almost fully so even a 1 GiB linked-clone delta cannot
    // fit there and placement must fall through to ds1.
    for filler_gb in [500.0, 500.0, 500.0, 500.0, 27.6] {
        let h = r.hosts[0];
        r.plane
            .install_template("filler", VmSpec::new(1, 512, filler_gb), h, ds0)
            .unwrap();
    }
    assert!(r.plane.inventory().datastore(ds0).unwrap().free_gb() < 1.0);

    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Linked,
        },
    );
    let first = drive(&mut r.plane, emits, FAR);
    assert!(first[0].is_success(), "{:?}", first[0].error);
    assert!(
        first[0].data_secs > 100.0,
        "first linked clone on ds1 should pay a shadow copy, got {:.1}s",
        first[0].data_secs
    );
    let ds1 = r.datastores[1];
    assert!(r.plane.residency().is_resident(r.template, ds1));

    // Second linked clone on ds1 reuses the shadow: near-zero data.
    let emits = r.plane.submit_collect(
        SimTime::from_hours(1),
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Linked,
        },
    );
    let second = drive(&mut r.plane, emits, FAR);
    assert!(second[0].is_success());
    assert!(
        second[0].data_secs < 5.0,
        "second linked clone should reuse the shadow, got {:.1}s",
        second[0].data_secs
    );
}

#[test]
fn instant_clone_lands_on_parent_host_with_no_data() {
    let mut r = rig();
    let src_host = r.plane.inventory().vm(r.template).unwrap().host;
    let src_ds = r.plane.inventory().vm(r.template).unwrap().datastore;
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Instant,
        },
    );
    let reports = drive(&mut r.plane, emits, FAR);
    let rep = &reports[0];
    assert!(rep.is_success(), "{:?}", rep.error);
    assert_eq!(rep.kind, "clone-instant");
    assert_eq!(rep.data_secs, 0.0, "instant clones move no data");
    let vm = rep.produced_vm.unwrap();
    let v = r.plane.inventory().vm(vm).unwrap();
    assert_eq!(v.host, src_host, "fork lands on the parent's host");
    assert_eq!(v.datastore, src_ds);
    // The fork's disk chains off the parent's disk.
    let top = *v.disks.last().unwrap();
    assert_eq!(r.plane.storage().chain_depth(top).unwrap(), 2);
    // Destroying the fork leaves the parent's disk intact.
    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(1), OpKind::DestroyVm { vm });
    let del = drive(&mut r.plane, emits, FAR);
    assert!(del[0].is_success());
    r.plane
        .storage()
        .check_invariants(r.plane.inventory())
        .unwrap();
    assert!(r.plane.inventory().vm(r.template).is_some());
}

#[test]
fn seed_template_makes_remote_linked_clones_cheap() {
    let mut r = rig();
    let ds1 = r.datastores[1];
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::SeedTemplate {
            template: r.template,
            dst: ds1,
        },
    );
    let seeded = drive(&mut r.plane, emits, FAR);
    assert!(seeded[0].is_success(), "{:?}", seeded[0].error);
    assert!(r.plane.residency().is_resident(r.template, ds1));
    // Seeding again fails cleanly.
    let emits = r.plane.submit_collect(
        SimTime::from_hours(2),
        OpKind::SeedTemplate {
            template: r.template,
            dst: ds1,
        },
    );
    let again = drive(&mut r.plane, emits, FAR);
    assert!(!again[0].is_success());
}

#[test]
fn power_cycle_updates_inventory_and_reservations() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Linked,
        },
    );
    let reports = drive(&mut r.plane, emits, FAR);
    let vm = reports[0].produced_vm.expect("clone produces a vm");

    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(1), OpKind::PowerOn { vm });
    let on = drive(&mut r.plane, emits, FAR);
    assert!(on[0].is_success(), "{:?}", on[0].error);
    assert_eq!(r.plane.inventory().vm(vm).unwrap().power, PowerState::On);
    let host = r.plane.inventory().vm(vm).unwrap().host;
    assert!(r.plane.inventory().host(host).unwrap().mem_used_mb >= 2_048);

    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(2), OpKind::PowerOff { vm });
    let off = drive(&mut r.plane, emits, FAR);
    assert!(off[0].is_success());
    assert_eq!(r.plane.inventory().vm(vm).unwrap().power, PowerState::Off);
    assert_eq!(r.plane.inventory().host(host).unwrap().mem_used_mb, 0);
}

#[test]
fn destroy_powered_on_vm_fails_and_destroy_off_vm_releases_storage() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Linked,
        },
    );
    let vm = drive(&mut r.plane, emits, FAR)[0].produced_vm.unwrap();
    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(1), OpKind::PowerOn { vm });
    drive(&mut r.plane, emits, FAR);

    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(2), OpKind::DestroyVm { vm });
    let fail = drive(&mut r.plane, emits, FAR);
    assert!(!fail[0].is_success());

    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(3), OpKind::PowerOff { vm });
    drive(&mut r.plane, emits, FAR);
    let before = r.plane.inventory().counts().vms;
    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(4), OpKind::DestroyVm { vm });
    let ok = drive(&mut r.plane, emits, FAR);
    assert!(ok[0].is_success(), "{:?}", ok[0].error);
    assert_eq!(r.plane.inventory().counts().vms, before - 1);
    assert!(r.plane.inventory().vm(vm).is_none());
}

#[test]
fn per_host_limit_caps_concurrency_but_everything_completes() {
    let mut cfg = ControlPlaneConfig {
        heartbeat: cpsim_hostagent::HeartbeatSpec::disabled(),
        ..Default::default()
    };
    cfg.limits = AdmissionLimits {
        global: 96,
        per_host: 2,
        per_datastore: 16,
    };
    let mut r = rig_with(cfg);
    // 12 reconfigure ops on VMs all registered to host 0.
    let mut vms = Vec::new();
    for i in 0..12 {
        let vm = {
            let plane = &mut r.plane;
            let inv_host = r.hosts[0];
            let ds = r.datastores[0];
            // install_template is a setup helper; build plain VMs instead
            // through the clone path to keep host assignment predictable.
            let _ = (i, inv_host, ds);
            plane
                .install_template(
                    format!("t{i}").as_str(),
                    VmSpec::new(1, 512, 1.0),
                    inv_host,
                    ds,
                )
                .unwrap()
        };
        vms.push(vm);
    }
    let mut emits = Vec::new();
    for &vm in &vms {
        emits.extend(
            r.plane
                .submit_collect(SimTime::ZERO, OpKind::Reconfigure { vm }),
        );
    }
    let reports = drive(&mut r.plane, emits, FAR);
    assert_eq!(reports.len(), 12);
    assert!(reports.iter().all(|r| r.is_success()));
    // Backpressure must have parked some tasks.
    assert!(r.plane.admission().parked_total() > 0);
    // Later tasks waited on admission.
    let max_adm = reports
        .iter()
        .map(|r| r.admission_secs)
        .fold(0.0f64, f64::max);
    assert!(max_adm > 0.0);
}

#[test]
fn vm_lock_serializes_operations_on_one_vm() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Linked,
        },
    );
    let vm = drive(&mut r.plane, emits, FAR)[0].produced_vm.unwrap();

    let mut emits = Vec::new();
    r.plane
        .submit(SimTime::from_hours(1), OpKind::Snapshot { vm }, &mut emits);
    r.plane.submit(
        SimTime::from_hours(1),
        OpKind::Reconfigure { vm },
        &mut emits,
    );
    let reports = drive(&mut r.plane, emits, FAR);
    assert_eq!(reports.len(), 2);
    assert!(reports.iter().all(|r| r.is_success()));
    // The second op to finish must have waited for the first's VM lock.
    let total_admission: f64 = reports.iter().map(|r| r.admission_secs).sum();
    assert!(
        total_admission > 0.5,
        "expected lock wait, got {total_admission:.3}s"
    );
}

#[test]
fn snapshot_then_remove_consolidates_with_merge_transfer() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Full,
        },
    );
    let vm = drive(&mut r.plane, emits, FAR)[0].produced_vm.unwrap();

    let disks_before = r.plane.inventory().vm(vm).unwrap().disks.clone();
    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(1), OpKind::Snapshot { vm });
    let snap = drive(&mut r.plane, emits, FAR);
    assert!(snap[0].is_success(), "{:?}", snap[0].error);
    let top = *r.plane.inventory().vm(vm).unwrap().disks.last().unwrap();
    assert_ne!(Some(&top), disks_before.last());
    assert_eq!(r.plane.storage().chain_depth(top).unwrap(), 2);

    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(2), OpKind::RemoveSnapshot { vm });
    let rm = drive(&mut r.plane, emits, FAR);
    assert!(rm[0].is_success(), "{:?}", rm[0].error);
    assert!(rm[0].data_secs > 0.0, "merge moves the delta's bytes");
    let top = *r.plane.inventory().vm(vm).unwrap().disks.last().unwrap();
    assert_eq!(r.plane.storage().chain_depth(top).unwrap(), 1);
}

#[test]
fn remove_snapshot_without_snapshot_fails() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Full,
        },
    );
    let vm = drive(&mut r.plane, emits, FAR)[0].produced_vm.unwrap();
    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(1), OpKind::RemoveSnapshot { vm });
    let rm = drive(&mut r.plane, emits, FAR);
    assert!(!rm[0].is_success());
}

#[test]
fn migrate_moves_vm_between_hosts() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Linked,
        },
    );
    let vm = drive(&mut r.plane, emits, FAR)[0].produced_vm.unwrap();
    let src_host = r.plane.inventory().vm(vm).unwrap().host;
    let emits = r
        .plane
        .submit_collect(SimTime::from_hours(1), OpKind::MigrateVm { vm });
    let mig = drive(&mut r.plane, emits, FAR);
    assert!(mig[0].is_success(), "{:?}", mig[0].error);
    let dst_host = r.plane.inventory().vm(vm).unwrap().host;
    assert_ne!(src_host, dst_host);
}

#[test]
fn relocate_moves_storage_with_byte_proportional_cost() {
    let mut r = rig();
    let emits = r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::CloneVm {
            source: r.template,
            mode: CloneMode::Full,
        },
    );
    let vm = drive(&mut r.plane, emits, FAR)[0].produced_vm.unwrap();
    let src_ds = r.plane.inventory().vm(vm).unwrap().datastore;
    let dst_ds = *r.datastores.iter().find(|d| **d != src_ds).unwrap();
    let emits = r.plane.submit_collect(
        SimTime::from_hours(1),
        OpKind::RelocateVm { vm, dst: dst_ds },
    );
    let rel = drive(&mut r.plane, emits, FAR);
    assert!(rel[0].is_success(), "{:?}", rel[0].error);
    assert!(rel[0].data_secs > 100.0, "20 GiB move takes minutes");
    assert_eq!(r.plane.inventory().vm(vm).unwrap().datastore, dst_ds);
    r.plane
        .storage()
        .check_invariants(r.plane.inventory())
        .unwrap();
}

#[test]
fn add_host_grows_inventory_and_schedules_heartbeats() {
    // Heavy beats, so the new host's share is plain to see: 100 ms of CPU
    // per host per second.
    let cfg = ControlPlaneConfig {
        heartbeat: cpsim_hostagent::HeartbeatSpec {
            interval: SimDuration::from_secs(1),
            mgmt_cpu: SimDuration::from_millis(100),
            db_time: SimDuration::ZERO,
        },
        ..Default::default()
    };
    let cores = f64::from(cfg.effective_cores());
    let mut r = {
        let mut plane = ControlPlane::new(cfg, Streams::new(42));
        let ds = plane.add_datastore(DatastoreSpec::new("ds0", 2048.0, 100.0));
        let h = plane.add_host(HostSpec::new("h0", 48_000, 262_144));
        plane.connect(h, ds).unwrap();
        let template = plane
            .install_template("tmpl", VmSpec::new(2, 2_048, 20.0), h, ds)
            .unwrap();
        Rig {
            plane,
            hosts: vec![h],
            datastores: vec![ds],
            template,
        }
    };
    let before = r.plane.inventory().counts().hosts;
    let mut emits = r.plane.init_events();
    emits.extend(r.plane.submit_collect(
        SimTime::ZERO,
        OpKind::add_host(
            HostSpec::new("h-new", 48_000, 262_144),
            r.datastores.clone(),
        ),
    ));
    let reports = drive(&mut r.plane, emits, SimTime::from_hours(1));
    let add = reports
        .iter()
        .find(|r| r.kind == "add-host")
        .expect("add-host completed");
    assert!(add.is_success(), "{:?}", add.error);
    assert_eq!(r.plane.inventory().counts().hosts, before + 1);
    // Host-sync is expensive: tens of seconds of control time.
    assert!(add.cpu_secs > 10.0);
    // Long after the add, both hosts beat: 0.2 core-seconds per second.
    let busy = |t: u64| r.plane.cpu_utilization(SimTime::from_secs(t)) * t as f64 * cores;
    let early = busy(2_000);
    let rate = (busy(3_000) - early) / 1_000.0;
    assert!((rate - 0.2).abs() < 1e-3, "beat load {rate}");
    let _ = r.template;
}

#[test]
fn heartbeats_consume_control_plane_capacity() {
    let mut cfg = ControlPlaneConfig::default();
    cfg.heartbeat.interval = cpsim_des::SimDuration::from_secs(1);
    cfg.heartbeat.mgmt_cpu = cpsim_des::SimDuration::from_millis(50);
    let mut plane = ControlPlane::new(cfg, Streams::new(42));
    let ds = plane.add_datastore(DatastoreSpec::new("ds", 100.0, 100.0));
    for i in 0..8 {
        let h = plane.add_host(HostSpec::new(format!("h{i}"), 10_000, 65_536));
        plane.connect(h, ds).unwrap();
    }
    let emits = plane.init_events();
    let horizon = SimTime::from_secs(60);
    drive(&mut plane, emits, horizon);
    // 8 hosts * 50 ms per second = 0.4 core-seconds/s over 4 cores = 10 %.
    let util = plane.cpu_utilization(horizon);
    assert!(util > 0.05, "heartbeat load invisible: {util:.3}");
}

#[test]
fn heartbeat_work_needs_no_completion_events() {
    let mut plane = ControlPlane::new(ControlPlaneConfig::default(), Streams::new(42));
    let ds = plane.add_datastore(DatastoreSpec::new("ds", 100.0, 100.0));
    for i in 0..8 {
        let h = plane.add_host(HostSpec::new(format!("h{i}"), 10_000, 65_536));
        plane.connect(h, ds).unwrap();
    }
    // A fault-free plane keeps its beats off the queue altogether.
    let emits = plane.init_events();
    assert!(emits.is_empty(), "a fault-free plane emitted beat events");
    let horizon = SimTime::from_secs(600);
    let (mut beats, mut completions) = (0, 0);
    drive_observed(&mut plane, emits, horizon, |_, ev| match ev {
        MgmtEvent::Heartbeat { .. } => beats += 1,
        MgmtEvent::CpuDone(_) | MgmtEvent::DbDone(_) => completions += 1,
        _ => {}
    });
    assert_eq!(beats, 0, "heartbeats were scheduled as events");
    assert_eq!(
        completions, 0,
        "background work scheduled completion events"
    );
    // The work is still charged: 8 hosts x 3 ms CPU per 20 s over 4 cores.
    let cpu = plane.cpu_utilization(horizon);
    assert!((cpu - 8.0 * 0.003 / 20.0 / 4.0).abs() < 1e-5, "cpu {cpu}");
    assert!(plane.db_utilization(horizon) > 0.0);
}

#[test]
fn task_behind_heartbeat_backlog_gets_one_handoff() {
    let cfg = ControlPlaneConfig {
        cpu_cores: 1,
        heartbeat: cpsim_hostagent::HeartbeatSpec {
            interval: SimDuration::from_hours(1),
            mgmt_cpu: SimDuration::from_millis(400),
            db_time: SimDuration::ZERO,
        },
        ..Default::default()
    };
    let mut r = rig_with(cfg);
    // Both hosts beat at once: 0.8 s of CPU backlog on the one core.
    let mut emits = Vec::new();
    for slot in 0..r.hosts.len() {
        emits.extend(
            r.plane
                .handle_collect(SimTime::ZERO, MgmtEvent::Heartbeat { slot }),
        );
    }
    let submit_at = SimTime::from_millis(200);
    emits.push(Emit::At(
        submit_at,
        MgmtEvent::Submit(
            OpKind::CloneVm {
                source: r.template,
                mode: CloneMode::Linked,
            }
            .into(),
        ),
    ));
    let mut handoffs = Vec::new();
    let reports = drive_observed(&mut r.plane, emits, FAR, |t, ev| match ev {
        MgmtEvent::CpuDone(job) | MgmtEvent::DbDone(job) if job.owner == Owner::Background => {
            handoffs.push(t)
        }
        _ => {}
    });
    assert_eq!(handoffs, vec![SimTime::from_millis(800)]);
    assert_eq!(reports.len(), 1);
    assert!(reports[0].is_success(), "{:?}", reports[0].error);
    // The task waited exactly for the backlog left at submission.
    let remaining = SimTime::from_millis(800).since(submit_at);
    assert_eq!(reports[0].queue_secs, remaining.as_secs_f64());
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = |seed: u64| -> Vec<(String, u64)> {
        let cfg = ControlPlaneConfig {
            heartbeat: cpsim_hostagent::HeartbeatSpec::disabled(),
            ..Default::default()
        };
        let mut plane = ControlPlane::new(cfg, Streams::new(seed));
        let ds = plane.add_datastore(DatastoreSpec::new("ds", 2048.0, 100.0));
        let h = plane.add_host(HostSpec::new("h", 48_000, 262_144));
        plane.connect(h, ds).unwrap();
        let t = plane
            .install_template("tmpl", VmSpec::new(1, 1_024, 10.0), h, ds)
            .unwrap();
        let emits = (0..5)
            .map(|i| {
                Emit::At(
                    SimTime::from_secs(i * 10),
                    MgmtEvent::Submit(
                        OpKind::CloneVm {
                            source: t,
                            mode: CloneMode::Linked,
                        }
                        .into(),
                    ),
                )
            })
            .collect();
        drive(&mut plane, emits, FAR)
            .into_iter()
            .map(|r| (r.kind.to_string(), r.latency.as_micros()))
            .collect()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds should differ somewhere");
}

#[test]
fn stats_accumulate_per_kind() {
    let mut r = rig();
    let emits = (0..3)
        .map(|i| {
            Emit::At(
                SimTime::from_secs(i * 100),
                MgmtEvent::Submit(
                    OpKind::CloneVm {
                        source: r.template,
                        mode: CloneMode::Linked,
                    }
                    .into(),
                ),
            )
        })
        .collect();
    let reports = drive(&mut r.plane, emits, FAR);
    let stats = r.plane.stats();
    assert_eq!(stats.submitted(), 3);
    assert_eq!(stats.completed(), 3);
    assert_eq!(stats.kind("clone-linked").unwrap().completed, 3);
    // Latencies live in the reports.
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().all(|r| r.kind == "clone-linked"));
    let mean = reports.iter().map(|r| r.latency.as_secs_f64()).sum::<f64>() / 3.0;
    assert!(mean > 0.0);
    // Phase totals include the placement label.
    assert!(stats
        .phase_totals()
        .any(|(k, c, l, _, _)| k == "clone-linked" && c == "cpu" && l == "placement"));
}
