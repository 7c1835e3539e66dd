//! The [`Scenario`] builder: declaratively describe a simulated cloud and
//! build a runnable [`CloudSim`].

use cpsim_cloud::{CloudDirector, ProvisioningPolicy};
use cpsim_des::{SimTime, Streams};
use cpsim_faults::FaultPlan;
use cpsim_inventory::{DatastoreId, DatastoreSpec, HostId, HostSpec, VmId, VmSpec};
use cpsim_mgmt::{ControlPlane, ControlPlaneConfig};
use cpsim_workload::{
    install_templates, Forward, MgmtStack, Profile, RequestGenerator, Topology, WorkloadSpec,
};

use crate::driver::CloudSim;

/// A declarative simulation setup.
///
/// Build one from a calibrated [`Profile`] or assemble topology, workload
/// and control-plane configuration by hand; then [`build`](Scenario::build)
/// a runnable simulation.
#[derive(Clone, Debug)]
pub struct Scenario {
    seed: u64,
    config: ControlPlaneConfig,
    topology: Topology,
    workload: Option<WorkloadSpec>,
    policy: ProvisioningPolicy,
    fault_plan: Option<FaultPlan>,
}

impl Scenario {
    /// Starts from a workload profile (topology + workload together).
    pub fn from_profile(profile: &Profile) -> Self {
        Scenario::bare(profile.topology.clone()).workload(Some(profile.workload.clone()))
    }

    /// Starts from a bare topology with no workload generator (requests
    /// are injected explicitly by the experiment driver).
    pub fn bare(topology: Topology) -> Self {
        Scenario {
            seed: 0,
            config: ControlPlaneConfig::default(),
            topology,
            workload: None,
            policy: ProvisioningPolicy::default(),
            fault_plan: None,
        }
    }

    /// Sets the master seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the control-plane configuration.
    pub fn config(mut self, config: ControlPlaneConfig) -> Self {
        self.config = config;
        self
    }

    /// Mutates the control-plane configuration in place.
    pub fn tune(mut self, f: impl FnOnce(&mut ControlPlaneConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Replaces the provisioning policy.
    pub fn policy(mut self, policy: ProvisioningPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the workload (or removes it with `None`).
    pub fn workload(mut self, workload: Option<WorkloadSpec>) -> Self {
        self.workload = workload;
        self
    }

    /// Installs a fault plan: its events are materialized from a dedicated
    /// RNG stream family at build time and injected during the run, and
    /// the control plane applies the plan's recovery policy. Without a
    /// plan (or with an empty one) runs are bit-identical to builds that
    /// never heard of faults.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The topology this scenario will build.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Builds the runnable simulation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration or workload is invalid, or the topology
    /// cannot be materialized (e.g. templates too large for datastores).
    pub fn build(self) -> CloudSim {
        let streams = Streams::new(self.seed);
        let mut plane = ControlPlane::new(self.config, streams.substreams(1));
        let mut director = CloudDirector::new(self.policy);

        let (hosts, datastores, templates) =
            materialize_topology(&self.topology, &mut plane, &mut director);

        let org = director.create_org("default-org");
        let generator = self.workload.map(|spec| {
            RequestGenerator::new(spec, &streams.substreams(2), org, templates.clone())
        });

        // Fault materialization and the injector's own draws (timeout
        // coin-flips, backoff jitter) live on substream family 3, so they
        // never perturb the plane/workload streams.
        let fault_events = match &self.fault_plan {
            Some(plan) if !plan.is_empty() => {
                let fstreams = streams.substreams(3);
                plane.enable_faults(plan.recovery, plan.agent_timeout_prob, fstreams.rng(0));
                plan.materialize(&fstreams)
            }
            _ => Vec::new(),
        };

        let stack = MgmtStack::new(plane, director, org, hosts, datastores, templates, Forward);
        CloudSim::assemble(stack, generator, fault_events)
    }
}

/// Builds hosts, datastores, templates, seeds, and any initial VM
/// population described by `topology`.
fn materialize_topology(
    topology: &Topology,
    plane: &mut ControlPlane,
    director: &mut CloudDirector,
) -> (Vec<HostId>, Vec<DatastoreId>, Vec<VmId>) {
    assert!(topology.hosts > 0, "topology needs at least one host");
    assert!(
        topology.datastores > 0,
        "topology needs at least one datastore"
    );
    assert!(
        !topology.templates.is_empty(),
        "topology needs at least one template"
    );

    let datastores: Vec<DatastoreId> = (0..topology.datastores)
        .map(|i| {
            plane.add_datastore(DatastoreSpec::new(
                format!("ds-{i:02}"),
                topology.ds_capacity_gb,
                topology.ds_bandwidth_mbps,
            ))
        })
        .collect();
    let hosts: Vec<HostId> = (0..topology.hosts)
        .map(|i| {
            plane.add_host(HostSpec::new(
                format!("host-{i:03}"),
                topology.host_cpu_mhz,
                topology.host_mem_mb,
            ))
        })
        .collect();
    for &h in &hosts {
        for &d in &datastores {
            plane.connect(h, d).expect("fresh ids");
        }
    }

    let templates = install_templates(
        plane,
        director,
        &hosts,
        &datastores,
        &topology.templates,
        topology.seed_templates_everywhere,
    );

    // Pre-provisioned population (enterprise baseline).
    if topology.initial_vapps > 0 {
        let org = director.create_org("baseline-org");
        let mut cursor = 0usize;
        for v in 0..topology.initial_vapps {
            let mut members = Vec::new();
            for m in 0..topology.initial_vapp_size {
                let (_, vcpus, mem_mb, disk_gb) =
                    &topology.templates[cursor % topology.templates.len()];
                let host = hosts[cursor % hosts.len()];
                let ds = datastores[cursor % datastores.len()];
                cursor += 1;
                let vm = plane
                    .install_vm(
                        &format!("baseline-{v:03}-{m:02}"),
                        VmSpec::new(*vcpus, *mem_mb, *disk_gb),
                        host,
                        ds,
                        true,
                    )
                    .expect("baseline population fits the declared topology");
                members.push(vm);
            }
            director.adopt_vapp(org, format!("baseline-{v:03}"), members, SimTime::ZERO);
        }
    }

    (hosts, datastores, templates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_workload::{cloud_a, enterprise};

    #[test]
    fn builds_cloud_a_topology() {
        let sim = Scenario::from_profile(&cloud_a()).seed(1).build();
        let counts = sim.plane().inventory().counts();
        assert_eq!(counts.hosts, 32);
        assert_eq!(counts.datastores, 8);
        assert_eq!(counts.templates, 2);
        // Templates seeded everywhere: replicas = 8 datastores each.
        for &t in sim.templates() {
            assert_eq!(sim.plane().residency().replica_count(t), 8);
        }
    }

    #[test]
    fn builds_enterprise_baseline_population() {
        let sim = Scenario::from_profile(&enterprise()).seed(1).build();
        let counts = sim.plane().inventory().counts();
        assert_eq!(counts.hosts, 64);
        // 24 vapps × 8 members + 2 templates.
        assert_eq!(counts.vms, 24 * 8 + 2);
        assert_eq!(counts.powered_on, 24 * 8);
        assert_eq!(sim.director().vapps().count(), 24);
    }

    #[test]
    fn bare_scenario_has_no_generator() {
        let sim = Scenario::bare(cloud_a().topology).seed(3).build();
        assert!(!sim.has_generator());
    }

    #[test]
    fn tune_overrides_config() {
        let sim = Scenario::from_profile(&cloud_a())
            .tune(|c| c.cpu_cores = 16)
            .build();
        assert_eq!(sim.plane().config().cpu_cores, 16);
    }
}
