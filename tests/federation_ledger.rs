//! Shared-pool reservations settle by task and VM.
//!
//! Two commits from one shard onto the same `(host, datastore)` pair may
//! differ in size: a 20 GiB full clone and a 1 GiB linked clone of the
//! same template. If the linked clone finishes first, its VM must keep
//! its own 1 GiB reservation, and destroying it must free 1 GiB, not the
//! 20 GiB the full clone still occupies. Otherwise the placement store
//! under-counts the pool and a second shard's full clone overbooks it.

use cpsim_des::{SimDuration, SimTime};
use cpsim_federation::{FedScenario, FedSim, FedTopology};
use cpsim_mgmt::{CloneMode, OpKind, TaskReport};

const BASE_GB: f64 = 20.0;

/// Two shards with one home host each and no shared hosts. Each home
/// datastore holds the seeded template base with half a GiB to spare,
/// too little for any clone; the shared datastore holds both shards'
/// seeded bases plus 21 GiB: one full clone and one linked clone.
fn build() -> FedSim {
    let mut sim = FedScenario::new(FedTopology {
        shards: 2,
        home_hosts_per_shard: 1,
        home_ds_per_shard: 1,
        home_ds_capacity_gb: BASE_GB + 0.5,
        shared_hosts: 0,
        shared_ds: 1,
        shared_ds_capacity_gb: 2.0 * BASE_GB + 21.0,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("ledger-template".into(), 2, 2_048, BASE_GB)],
        initial_vms_per_shard: Vec::new(),
        initial_vm_disk_gb: 4.0,
    })
    .seed(2013)
    .build();
    sim.keep_task_reports(true);
    sim
}

fn clone(sim: &FedSim, s: usize, mode: CloneMode) -> OpKind {
    OpKind::CloneVm {
        source: sim.templates(s)[0],
        mode,
    }
}

fn report<'a>(sim: &'a FedSim, s: usize, kind: &str) -> Option<&'a TaskReport> {
    sim.task_reports(s).iter().find(|r| r.kind == kind)
}

#[test]
fn a_destroyed_linked_clone_frees_only_its_own_reservation() {
    let mut sim = build();
    sim.schedule_op(SimTime::from_secs(1), 0, clone(&sim, 0, CloneMode::Full));
    sim.schedule_op(SimTime::from_secs(2), 0, clone(&sim, 0, CloneMode::Linked));

    // The linked clone is metadata only; the full clone still copies 20 GiB.
    sim.run_until(SimTime::from_secs(30));
    let linked = report(&sim, 0, "clone-linked").expect("linked clone finished");
    assert!(linked.error.is_none(), "{linked:?}");
    assert!(
        report(&sim, 0, "clone-full").is_none(),
        "full clone still copying"
    );
    let vm = linked.produced_vm.expect("linked clone produced a VM");
    let now = sim.now();
    sim.schedule_op(now, 0, OpKind::DestroyVm { vm });

    sim.run_until(SimTime::from_hours(1));
    let full = report(&sim, 0, "clone-full").expect("full clone finished");
    assert!(full.error.is_none(), "{full:?}");
    let destroy = report(&sim, 0, "destroy-vm").expect("destroy finished");
    assert!(destroy.error.is_none(), "{destroy:?}");
    sim.check_store_invariants().unwrap();
    sim.check_ledger_reservations().unwrap();

    // Shard 0 holds its seeded base and the full clone's 20 GiB: 1 GiB
    // of the pool is left. Once shard 1 has synced, its full clone must
    // not find room there.
    sim.run_for(SimDuration::from_secs(60));
    let now = sim.now();
    sim.schedule_op(now, 1, clone(&sim, 1, CloneMode::Full));
    sim.run_until(SimTime::from_hours(3));
    let overbooked = report(&sim, 1, "clone-full").expect("shard 1 clone finished");
    assert!(
        overbooked.error.is_some(),
        "shard 1 placed a 20 GiB clone on a pool with 1 GiB free: {overbooked:?}"
    );
    sim.check_store_invariants().unwrap();
    sim.check_ledger_reservations().unwrap();
}
