//! Shard-count-1 federation ≡ single-plane model.
//!
//! A federation with one shard installs no placement gate, no fault
//! machinery and no sync ticks, and shard 0 draws its RNG from the same
//! substream family as the single-plane scenario builder. Given the same
//! combined topology and the same request sequence, the two simulations
//! must therefore be *op-for-op* identical: every task report — kinds,
//! timestamps, queueing, per-resource seconds, produced VM ids — agrees,
//! as do the cloud-level reports. Both drivers route through the same
//! management stack, so each also traces and keeps every finished task
//! exactly once.

use cpsim::{CloudSim, Scenario};
use cpsim_cloud::{CloudRequest, ProvisioningPolicy};
use cpsim_des::{SimDuration, SimTime};
use cpsim_federation::{FedScenario, FedSim, FedTopology};
use cpsim_mgmt::{CloneMode, ControlPlane, OpKind, TaskReport};
use cpsim_workload::{Topology, TraceLog};

/// One randomized equivalence case: the combined inventory both models
/// manage, plus the request schedule driven into each.
#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    home_hosts: u32,
    home_ds: u32,
    shared_hosts: u32,
    shared_ds: u32,
    ds_capacity_gb: f64,
    /// `(at_secs, count, linked)` per instantiate request.
    requests: Vec<(u64, u32, bool)>,
}

const TEMPLATE: (&str, u32, u64, f64) = ("eq-template", 2, 2_048, 20.0);

fn build_fed(case: &Case) -> FedSim {
    FedScenario::new(FedTopology {
        shards: 1,
        home_hosts_per_shard: case.home_hosts,
        home_ds_per_shard: case.home_ds,
        home_ds_capacity_gb: case.ds_capacity_gb,
        shared_hosts: case.shared_hosts,
        shared_ds: case.shared_ds,
        shared_ds_capacity_gb: case.ds_capacity_gb,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        ds_bandwidth_mbps: 200.0,
        templates: vec![(TEMPLATE.0.into(), TEMPLATE.1, TEMPLATE.2, TEMPLATE.3)],
        initial_vms_per_shard: Vec::new(),
        initial_vm_disk_gb: 4.0,
    })
    .seed(case.seed)
    .policy(policy())
    .build()
}

fn build_single(case: &Case) -> CloudSim {
    // The single-plane builder materializes all datastores, then all
    // hosts, then connects and seeds — the same order the federation
    // builder replays per shard, so ids line up one-to-one.
    Scenario::bare(Topology {
        hosts: case.home_hosts + case.shared_hosts,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        datastores: case.home_ds + case.shared_ds,
        ds_capacity_gb: case.ds_capacity_gb,
        ds_bandwidth_mbps: 200.0,
        templates: vec![(TEMPLATE.0.into(), TEMPLATE.1, TEMPLATE.2, TEMPLATE.3)],
        seed_templates_everywhere: true,
        initial_vapps: 0,
        initial_vapp_size: 0,
    })
    .seed(case.seed)
    .policy(policy())
    .build()
}

fn policy() -> ProvisioningPolicy {
    ProvisioningPolicy {
        mode: CloneMode::Linked,
        fencing: true,
        power_on: true,
        ..Default::default()
    }
}

/// Every task the plane finished reached the trace and the kept reports
/// exactly once.
fn assert_routing_conserved(plane: &ControlPlane, trace: &TraceLog, kept: &[TaskReport]) {
    let finished = plane.stats().completed() + plane.stats().failed();
    assert_eq!(finished, trace.len() as u64, "finished tasks vs trace");
    assert_eq!(
        finished,
        kept.len() as u64,
        "finished tasks vs kept reports"
    );
}

fn assert_equivalent(case: &Case) {
    let mut fed = build_fed(case);
    let mut single = build_single(case);
    fed.keep_task_reports(true);
    single.keep_task_reports(true);
    let fed_org = fed.org(0);
    let single_org = single.org();
    assert_eq!(fed.templates(0), single.templates());

    // One raw operation alongside the cloud requests, so the `Op` path
    // is compared too (a snapshot is legal on a template).
    let snapshot_at = SimTime::from_secs(10);
    fed.schedule_op(
        snapshot_at,
        0,
        OpKind::Snapshot {
            vm: fed.templates(0)[0],
        },
    );
    single.schedule_op(
        snapshot_at,
        OpKind::Snapshot {
            vm: single.templates()[0],
        },
    );

    for &(at_secs, count, linked) in &case.requests {
        let mode = if linked {
            CloneMode::Linked
        } else {
            CloneMode::Full
        };
        let at = SimTime::from_secs(at_secs);
        fed.schedule_request(
            at,
            0,
            CloudRequest::InstantiateVapp {
                org: fed_org,
                template: fed.templates(0)[0],
                count,
                mode: Some(mode),
                lease: Some(SimDuration::from_mins(10)),
            },
        );
        single.schedule_request(
            at,
            CloudRequest::InstantiateVapp {
                org: single_org,
                template: single.templates()[0],
                count,
                mode: Some(mode),
                lease: Some(SimDuration::from_mins(10)),
            },
        );
    }

    // Long enough for every instantiate and every lease-expiry teardown.
    let horizon = SimTime::from_hours(3);
    fed.run_until(horizon);
    single.run_until(horizon);

    // Op-for-op: the full task trace agrees, record by record.
    assert_eq!(
        fed.trace(0).len(),
        single.trace().len(),
        "trace lengths diverged (seed {})",
        case.seed
    );
    for (f, s) in fed.trace(0).records().iter().zip(single.trace().records()) {
        assert_eq!(f, s, "trace record diverged (seed {})", case.seed);
    }
    // Request-level reports agree too (same kinds, latencies, vApps).
    assert_eq!(fed.cloud_reports(0), single.cloud_reports());
    // So do the full kept task reports, and each model kept every
    // finished task exactly once.
    assert_eq!(fed.task_reports(0), single.task_reports());
    assert_routing_conserved(fed.plane(0), fed.trace(0), fed.task_reports(0));
    assert_routing_conserved(single.plane(), single.trace(), single.task_reports());
    // And the planes did identical amounts of work.
    let (fs, ss) = (fed.plane(0).stats(), single.plane().stats());
    assert_eq!(fs.submitted(), ss.submitted());
    assert_eq!(fs.completed(), ss.completed());
    assert_eq!(fs.failed(), ss.failed());
    assert_eq!(fs.retries(), ss.retries());
    // A one-shard federation never touches the shared ledger.
    let store = fed.store_stats();
    assert_eq!((store.commits, store.conflicts, store.syncs), (0, 0, 0));
}

#[test]
fn one_shard_federation_replays_the_single_plane_model() {
    assert_equivalent(&Case {
        seed: 2013,
        home_hosts: 2,
        home_ds: 2,
        shared_hosts: 2,
        shared_ds: 1,
        ds_capacity_gb: 512.0,
        requests: vec![(1, 4, true), (30, 2, false), (95, 8, true), (600, 3, true)],
    });
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    fn case() -> impl Strategy<Value = Case> {
        (
            (1u64..1_000_000, 1u32..=3, 1u32..=3),
            (1u32..=2, 1u32..=2),
            proptest::collection::vec((1u64..1_800, 1u32..=4, any::<bool>()), 1..10),
        )
            .prop_map(
                |((seed, home_hosts, home_ds), (shared_hosts, shared_ds), requests)| Case {
                    seed,
                    home_hosts,
                    home_ds,
                    shared_hosts,
                    shared_ds,
                    // Roomy enough that full clones of the 20 GiB base
                    // always fit; contention is not the object here.
                    ds_capacity_gb: 2_048.0,
                    requests,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 8, // each case runs two multi-hour simulations
            .. ProptestConfig::default()
        })]

        /// For arbitrary seeds, inventories and request schedules, the
        /// one-shard federation and the single-plane model produce the
        /// same operations with the same timings.
        #[test]
        fn arbitrary_one_shard_federations_replay_the_single_plane(c in case()) {
            assert_equivalent(&c);
        }
    }
}
