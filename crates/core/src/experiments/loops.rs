//! Shared load-driving helpers: closed-loop (fixed outstanding requests)
//! and open-loop (fixed arrival rate) provisioning drivers, plus the
//! parallel sweep entry point the heavy experiments submit points to.

use cpsim_cloud::{CloudRequest, ProvisioningPolicy};
use cpsim_des::{SimDuration, SimTime};
use cpsim_faults::RecoveryPolicy;
use cpsim_federation::{FedScenario, FedSim, FedTopology, Router, RouterPolicy};
use cpsim_mgmt::{CloneMode, ControlPlane, ControlPlaneConfig};
use cpsim_workload::{cloud_a, cloud_b, enterprise, Outcome, Profile, Topology, TraceLog};

use crate::exec::parallel_map;
use crate::experiments::ExpOptions;
use crate::{CloudSim, Scenario};

/// Runs one sweep point per element of `points` on the executor and
/// returns the results in point order.
///
/// This is the one funnel every sweep experiment goes through: points run
/// on up to [`ExpOptions::effective_jobs`] worker threads, results are
/// merged back in deterministic point order, and each point must derive
/// all of its randomness from its own inputs (every load driver in this
/// module builds a fresh [`Scenario`] from an explicit seed, so this
/// holds by construction). Output is byte-identical at any job count.
pub fn sweep<P, R>(opts: &ExpOptions, points: &[P], f: impl Fn(&P) -> R + Sync) -> Vec<R>
where
    P: Sync,
    R: Send,
{
    parallel_map(opts.effective_jobs(), points, f)
}

/// Runs `f` on each calibrated profile and returns the results in table
/// order: cloud-a, cloud-b, enterprise.
///
/// The points go to [`sweep`] in ascending cost (enterprise, cloud-b,
/// cloud-a), the order its heavy-end-first claiming expects, so the
/// heaviest profile starts first instead of last.
pub fn profile_sweep<R: Send>(opts: &ExpOptions, f: impl Fn(&Profile) -> R + Sync) -> Vec<R> {
    let mut results = sweep(opts, &[enterprise(), cloud_b(), cloud_a()], f);
    results.reverse();
    results
}

/// The topology used by the load experiments: mid-sized, fully seeded, so
/// linked clones are pure control-plane work.
pub fn load_topology() -> Topology {
    Topology {
        hosts: 16,
        host_cpu_mhz: 48_000,
        host_mem_mb: 524_288,
        datastores: 8,
        ds_capacity_gb: 16_384.0,
        ds_bandwidth_mbps: 200.0,
        templates: vec![("load-template".into(), 2, 2_048, 20.0)],
        seed_templates_everywhere: true,
        initial_vapps: 0,
        initial_vapp_size: 0,
    }
}

/// Provisioning policy for load experiments: fencing on, power-on off
/// (keeps memory capacity out of the throughput measurement; the paper's
/// metric is deployment rate).
pub fn load_policy() -> ProvisioningPolicy {
    ProvisioningPolicy {
        mode: CloneMode::Linked,
        fencing: true,
        power_on: false,
        ..Default::default()
    }
}

/// End-of-run task conservation on one plane, checked in debug builds:
/// every finished task was traced once, every submitted task has
/// finished or is still in flight, and admission holds exactly the slots
/// and VM locks of the live tasks' scopes. The experiments read their
/// results from the trace, so a lost or doubled record would skew them
/// silently; a leaked slot would throttle the plane.
pub(crate) fn debug_assert_tasks_conserved(plane: &ControlPlane, trace: &TraceLog) {
    let stats = plane.stats();
    debug_assert_eq!(
        trace.len() as u64,
        stats.completed() + stats.failed(),
        "trace records != finished tasks"
    );
    debug_assert_eq!(
        stats.submitted(),
        stats.completed() + stats.failed() + plane.tasks_in_flight() as u64,
        "submitted tasks != finished + in flight"
    );
    debug_assert_eq!(plane.check_admission(), Ok(()));
}

/// Result of a load run.
#[derive(Clone, Copy, Debug)]
pub struct LoadResult {
    /// VMs provisioned per hour during the measurement window.
    pub vms_per_hour: f64,
    /// Management CPU utilization over the run.
    pub cpu_util: f64,
    /// Database utilization over the run.
    pub db_util: f64,
    /// Mean datastore busy fraction over the run.
    pub ds_busy: f64,
    /// Mean host-agent utilization over the run.
    pub agent_util: f64,
    /// Peak admission pending-queue length.
    pub pending_peak: usize,
    /// Mean end-to-end instantiate latency (seconds) in the window.
    pub mean_latency_s: f64,
    /// Failed operations over the run.
    pub failures: u64,
}

/// Runs a closed loop: `n` single-VM instantiate requests always
/// outstanding; each completion triggers a delete of the deployed vApp and
/// a fresh instantiate (steady-state churn).
pub fn closed_loop(
    seed: u64,
    config: ControlPlaneConfig,
    mode: CloneMode,
    n: u32,
    warmup: SimDuration,
    measure: SimDuration,
) -> LoadResult {
    let mut sim = Scenario::bare(load_topology())
        .seed(seed)
        .config(config)
        .policy(load_policy())
        .build();
    let template = sim.templates()[0];
    let org = sim.org();
    let make = |sim: &mut CloudSim, at: SimTime| {
        sim.schedule_request(
            at,
            CloudRequest::InstantiateVapp {
                org,
                template,
                count: 1,
                mode: Some(mode),
                lease: None,
            },
        );
    };
    for i in 0..n {
        make(&mut sim, SimTime::from_micros(u64::from(i) + 1));
    }

    let end = SimTime::ZERO + warmup + measure;
    let slice = SimDuration::from_secs(15);
    let mut handled = 0usize;
    let mut completed_in_window = 0u64;
    let mut latency_sum = 0.0;
    let mut latency_n = 0u64;
    while sim.now() < end {
        sim.run_for(slice);
        let now = sim.now();
        let reports: Vec<(usize, &'static str, f64, bool)> = sim.cloud_reports()[handled..]
            .iter()
            .enumerate()
            .map(|(i, r)| {
                (
                    handled + i,
                    r.kind,
                    r.latency.as_secs_f64(),
                    // Throughput is counted by completion time: under a
                    // deep backlog everything in the window was submitted
                    // long before it.
                    r.completed_at >= SimTime::ZERO + warmup,
                )
            })
            .collect();
        handled += reports.len();
        for (idx, kind, latency, in_window) in reports {
            if kind != "instantiate-vapp" {
                continue;
            }
            if in_window {
                completed_in_window += 1;
                latency_sum += latency;
                latency_n += 1;
            }
            // Tear down what we built and keep the loop closed.
            let vapp = sim.cloud_reports()[idx].vapp;
            if let Some(vapp) = vapp {
                sim.schedule_request(now, CloudRequest::DeleteVapp { vapp });
            }
            make(&mut sim, now);
        }
    }

    debug_assert_tasks_conserved(sim.plane(), sim.trace());
    let now = sim.now();
    let ds_busy = sim
        .datastores()
        .iter()
        .map(|d| sim.plane().datastore_busy(*d, now))
        .sum::<f64>()
        / sim.datastores().len().max(1) as f64;
    LoadResult {
        vms_per_hour: completed_in_window as f64 / measure.as_secs_f64() * 3_600.0,
        cpu_util: sim.plane().cpu_utilization(now),
        db_util: sim.plane().db_utilization(now),
        ds_busy,
        agent_util: sim.plane().mean_agent_utilization(now),
        pending_peak: sim.plane().admission().peak_pending(),
        mean_latency_s: if latency_n == 0 {
            0.0
        } else {
            latency_sum / latency_n as f64
        },
        failures: sim.plane().stats().failed(),
    }
}

/// Result of a federated closed-loop load run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FedLoadResult {
    /// VMs provisioned per hour across all shards in the window.
    pub vms_per_hour: f64,
    /// Mean end-to-end instantiate latency (seconds) in the window.
    pub mean_latency_s: f64,
    /// 99th-percentile provisioning queueing delay (admission + queue
    /// seconds) over tasks completed in the window.
    pub p99_queue_s: f64,
    /// Shared-pool placements committed through the ledger.
    pub commits: u64,
    /// Placement commits rejected at the ledger (stale-view races).
    pub conflicts: u64,
    /// Placement-store refreshes performed by the shards.
    pub syncs: u64,
    /// Tasks aborted after exhausting conflict retries.
    pub aborted: u64,
    /// Failed operations summed over all shards.
    pub failures: u64,
    /// Deepest admission backlog on any single shard.
    pub pending_peak: usize,
}

/// Runs a federated closed loop: `n` single-VM linked instantiates always
/// outstanding across the federation. The initial burst is spread
/// round-robin; every completion triggers a delete on its shard and a
/// fresh instantiate routed to the least-loaded shard.
#[allow(clippy::too_many_arguments)]
pub fn fed_closed_loop(
    seed: u64,
    topology: FedTopology,
    config: ControlPlaneConfig,
    policy: ProvisioningPolicy,
    recovery: RecoveryPolicy,
    staleness: SimDuration,
    n: u32,
    warmup: SimDuration,
    measure: SimDuration,
) -> FedLoadResult {
    let shards = topology.shards;
    let mut sim = FedScenario::new(topology)
        .seed(seed)
        .config(config)
        .policy(policy)
        .recovery(recovery)
        .staleness(staleness)
        .build();
    let mut router = Router::new(RouterPolicy::LeastLoaded);
    let submit = |sim: &mut FedSim, at: SimTime, s: usize| {
        let org = sim.org(s);
        let template = sim.templates(s)[0];
        sim.schedule_request(
            at,
            s,
            CloudRequest::InstantiateVapp {
                org,
                template,
                count: 1,
                mode: Some(CloneMode::Linked),
                lease: None,
            },
        );
    };
    for i in 0..n {
        submit(
            &mut sim,
            SimTime::from_micros(u64::from(i) + 1),
            i as usize % shards,
        );
    }

    let end = SimTime::ZERO + warmup + measure;
    let slice = SimDuration::from_secs(15);
    let mut handled = vec![0usize; shards];
    let mut completed_in_window = 0u64;
    let mut latency_sum = 0.0;
    let mut latency_n = 0u64;
    while sim.now() < end {
        sim.run_for(slice);
        let now = sim.now();
        // `s` also names the shard in `cloud_reports`/`schedule_request`
        // calls below, which borrow `sim` mutably — a plain index loop
        // reads better than threading `handled` through an iterator.
        #[allow(clippy::needless_range_loop)]
        for s in 0..shards {
            let reports: Vec<(usize, &'static str, f64, bool, bool)> = sim.cloud_reports(s)
                [handled[s]..]
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    (
                        handled[s] + i,
                        r.kind,
                        r.latency.as_secs_f64(),
                        r.completed_at >= SimTime::ZERO + warmup,
                        r.ops_issued > 0 && r.ops_failed == 0,
                    )
                })
                .collect();
            handled[s] += reports.len();
            for (idx, kind, latency, in_window, produced) in reports {
                if kind != "instantiate-vapp" {
                    continue;
                }
                // Goodput counts only clean instantiates; a request
                // whose clone aborted or failed placement is not goodput.
                if in_window && produced {
                    completed_in_window += 1;
                    latency_sum += latency;
                    latency_n += 1;
                }
                if let Some(vapp) = sim.cloud_reports(s)[idx].vapp {
                    sim.schedule_request(now, s, CloudRequest::DeleteVapp { vapp });
                }
                // Keep the loop closed: reissue on the least-loaded shard.
                let loads = sim.shard_loads();
                let dst = router.pick(&loads, 0);
                submit(&mut sim, now, dst);
            }
        }
    }

    let mut delays: Vec<f64> = Vec::new();
    let mut aborted = 0u64;
    let mut failures = 0u64;
    let mut pending_peak = 0usize;
    for s in 0..shards {
        debug_assert_tasks_conserved(sim.plane(s), sim.trace(s));
        for r in sim.trace(s).records() {
            if r.outcome == Outcome::Aborted {
                aborted += 1;
            }
            if matches!(&*r.kind, "clone-linked" | "clone-full" | "create-vm")
                && r.completed_at() >= SimTime::ZERO + warmup
            {
                delays.push(r.queue_s + r.admission_s);
            }
        }
        failures += sim.plane(s).stats().failed();
        pending_peak = pending_peak.max(sim.plane(s).admission().peak_pending());
    }
    delays.sort_by(|a, b| a.total_cmp(b));
    let p99 = if delays.is_empty() {
        0.0
    } else {
        delays[((delays.len() - 1) as f64 * 0.99).round() as usize]
    };
    let stats = sim.store_stats();
    debug_assert!(sim.check_store_invariants().is_ok());
    debug_assert_eq!(sim.check_ledger_reservations(), Ok(()));
    FedLoadResult {
        vms_per_hour: completed_in_window as f64 / measure.as_secs_f64() * 3_600.0,
        mean_latency_s: if latency_n == 0 {
            0.0
        } else {
            latency_sum / latency_n as f64
        },
        p99_queue_s: p99,
        commits: stats.commits,
        conflicts: stats.conflicts,
        syncs: stats.syncs,
        aborted,
        failures,
        pending_peak,
    }
}

/// Runs an open loop: single-VM linked instantiates arriving every
/// `interval` for `duration`, then measures utilizations and latency.
pub fn open_loop(
    seed: u64,
    config: ControlPlaneConfig,
    interval: SimDuration,
    duration: SimDuration,
) -> (LoadResult, CloudSim) {
    let sim = Scenario::bare(load_topology())
        .seed(seed)
        .config(config)
        .policy(load_policy())
        .build();
    open_loop_on(sim, CloneMode::Linked, interval, duration)
}

/// Drives an already-built sim with the same open loop. The fault
/// experiments build their own [`Scenario`] (carrying a fault plan and a
/// failure policy) and reuse the loop so faulty and fault-free runs see
/// identical offered load. Per-task results are read from the returned
/// sim's trace.
pub fn open_loop_on(
    mut sim: CloudSim,
    mode: CloneMode,
    interval: SimDuration,
    duration: SimDuration,
) -> (LoadResult, CloudSim) {
    let template = sim.templates()[0];
    let org = sim.org();
    let mut t = SimTime::ZERO + SimDuration::from_secs(1);
    let end = SimTime::ZERO + duration;
    let mut offered = 0u64;
    while t < end {
        sim.schedule_request(
            t,
            CloudRequest::InstantiateVapp {
                org,
                template,
                count: 1,
                mode: Some(mode),
                lease: None,
            },
        );
        offered += 1;
        t += interval;
    }
    sim.run_until(end);
    debug_assert_tasks_conserved(sim.plane(), sim.trace());
    let now = sim.now();
    let completed: Vec<f64> = sim
        .cloud_reports()
        .iter()
        .filter(|r| r.kind == "instantiate-vapp")
        .map(|r| r.latency.as_secs_f64())
        .collect();
    let ds_busy = sim
        .datastores()
        .iter()
        .map(|d| sim.plane().datastore_busy(*d, now))
        .sum::<f64>()
        / sim.datastores().len().max(1) as f64;
    let result = LoadResult {
        vms_per_hour: completed.len() as f64 / duration.as_secs_f64() * 3_600.0,
        cpu_util: sim.plane().cpu_utilization(now),
        db_util: sim.plane().db_utilization(now),
        ds_busy,
        agent_util: sim.plane().mean_agent_utilization(now),
        pending_peak: sim.plane().admission().peak_pending(),
        mean_latency_s: if completed.is_empty() {
            0.0
        } else {
            completed.iter().sum::<f64>() / completed.len() as f64
        },
        failures: sim.plane().stats().failed(),
    };
    debug_assert!(offered > 0, "open loop offered no work");
    (result, sim)
}
