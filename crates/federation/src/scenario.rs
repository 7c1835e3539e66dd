//! The [`FedScenario`] builder: declaratively describe a federated cloud
//! — N control-plane shards over partitioned home inventory plus a shared
//! spillover pool — and build a runnable [`FedSim`].

use std::cell::RefCell;
use std::rc::Rc;

use cpsim_cloud::{CloudDirector, ProvisioningPolicy};
use cpsim_des::{SimDuration, Streams};
use cpsim_faults::RecoveryPolicy;
use cpsim_inventory::{DatastoreSpec, HostSpec, VmSpec};
use cpsim_mgmt::{CloneMode, ControlPlane, ControlPlaneConfig};
use cpsim_workload::{install_templates, MgmtStack};

use crate::driver::{FedSim, MigrationOutbox, ShardCore};
use crate::gate::StoreGate;
use crate::store::PlacementStore;

/// A federated topology: per-shard home inventory plus a shared
/// spillover pool registered in every shard.
#[derive(Clone, Debug)]
pub struct FedTopology {
    /// Number of control-plane shards.
    pub shards: usize,
    /// Exclusively-owned hosts per shard.
    pub home_hosts_per_shard: u32,
    /// Exclusively-owned datastores per shard.
    pub home_ds_per_shard: u32,
    /// Capacity of each home datastore, GiB.
    pub home_ds_capacity_gb: f64,
    /// Spillover hosts every shard can place onto.
    pub shared_hosts: u32,
    /// Spillover datastores every shard can place onto.
    pub shared_ds: u32,
    /// Capacity of each shared datastore, GiB.
    pub shared_ds_capacity_gb: f64,
    /// Host CPU capacity, MHz.
    pub host_cpu_mhz: u64,
    /// Host memory, MB.
    pub host_mem_mb: u64,
    /// Datastore copy bandwidth, Mbps.
    pub ds_bandwidth_mbps: f64,
    /// Templates `(name, vcpus, mem_mb, disk_gb)`, installed and seeded
    /// on every datastore of every shard.
    pub templates: Vec<(String, u32, u64, f64)>,
    /// Pre-installed powered-off VMs per shard, on home inventory only
    /// (inventory skew for rebalance experiments). Missing entries mean
    /// zero.
    pub initial_vms_per_shard: Vec<u32>,
    /// Disk size of each pre-installed VM, GiB.
    pub initial_vm_disk_gb: f64,
}

impl FedTopology {
    fn validate(&self) {
        assert!(self.shards > 0, "a federation needs at least one shard");
        assert!(
            self.home_hosts_per_shard > 0 && self.home_ds_per_shard > 0,
            "every shard needs home hosts and datastores"
        );
        assert!(
            !self.templates.is_empty(),
            "the federation needs at least one template"
        );
    }
}

/// A declarative federated-simulation setup.
#[derive(Clone, Debug)]
pub struct FedScenario {
    seed: u64,
    config: ControlPlaneConfig,
    topology: FedTopology,
    policy: ProvisioningPolicy,
    staleness: SimDuration,
    handoff_delay: SimDuration,
    recovery: RecoveryPolicy,
}

impl FedScenario {
    /// Starts from a federated topology with provisioning defaults
    /// matching the load experiments: linked clones, fencing on,
    /// power-on off.
    pub fn new(topology: FedTopology) -> Self {
        FedScenario {
            seed: 0,
            config: ControlPlaneConfig::default(),
            topology,
            policy: ProvisioningPolicy {
                mode: CloneMode::Linked,
                fencing: true,
                power_on: false,
                ..Default::default()
            },
            staleness: SimDuration::from_secs(10),
            handoff_delay: SimDuration::from_millis(500),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Sets the master seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the per-shard control-plane configuration.
    pub fn config(mut self, config: ControlPlaneConfig) -> Self {
        self.config = config;
        self
    }

    /// Mutates the per-shard control-plane configuration in place.
    pub fn tune(mut self, f: impl FnOnce(&mut ControlPlaneConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Replaces the provisioning policy.
    pub fn policy(mut self, policy: ProvisioningPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the staleness window: how often each shard refreshes its
    /// mirrored view of the shared pool (default 10 s).
    pub fn staleness(mut self, window: SimDuration) -> Self {
        self.staleness = window;
        self
    }

    /// Sets the placement-store handoff latency of a cross-shard
    /// migration (default 500 ms).
    pub fn handoff_delay(mut self, delay: SimDuration) -> Self {
        self.handoff_delay = delay;
        self
    }

    /// Replaces the conflict-retry recovery policy (backoff schedule and
    /// retry budget for placement conflicts).
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The topology this scenario will build.
    pub fn topology(&self) -> &FedTopology {
        &self.topology
    }

    /// Builds the runnable federated simulation.
    ///
    /// With `shards == 1` no gate, no fault machinery and no sync ticks
    /// are installed: the single shard is op-for-op identical to the
    /// equivalent single-plane [`Scenario`]-built simulation (the
    /// equivalence the integration tests assert).
    ///
    /// [`Scenario`]: https://docs.rs/cpsim
    ///
    /// # Panics
    ///
    /// Panics if the topology or configuration is invalid (e.g.
    /// templates too large for the declared datastores).
    pub fn build(self) -> FedSim {
        let t = &self.topology;
        t.validate();
        let streams = Streams::new(self.seed);
        let store = Rc::new(RefCell::new(PlacementStore::new(t.shards)));
        let shared_ds_idx: Vec<usize> = (0..t.shared_ds)
            .map(|_| store.borrow_mut().add_shared_ds(t.shared_ds_capacity_gb))
            .collect();
        let shared_host_idx: Vec<usize> = (0..t.shared_hosts)
            .map(|_| store.borrow_mut().add_shared_host(t.host_mem_mb))
            .collect();

        let mut shards = Vec::with_capacity(t.shards);
        for s in 0..t.shards {
            // Shard 0 draws from the same substream family as the
            // single-plane scenario builder, so a one-shard federation
            // replays the single-plane model exactly; further shards get
            // their own families from the user range.
            let plane_streams = if s == 0 {
                streams.substreams(1)
            } else {
                streams.substreams(Streams::USER_BASE + s as u64)
            };
            let mut plane = ControlPlane::new(self.config.clone(), plane_streams);
            let mut director = CloudDirector::new(self.policy);

            // Materialization order mirrors the single-plane builder:
            // all datastores, then all hosts, then full connectivity,
            // then templates seeded everywhere.
            let mut datastores = Vec::new();
            for i in 0..t.home_ds_per_shard {
                datastores.push(plane.add_datastore(DatastoreSpec::new(
                    format!("s{s}-ds-{i:02}"),
                    t.home_ds_capacity_gb,
                    t.ds_bandwidth_mbps,
                )));
            }
            for i in 0..t.shared_ds {
                datastores.push(plane.add_datastore(DatastoreSpec::new(
                    format!("shared-ds-{i:02}"),
                    t.shared_ds_capacity_gb,
                    t.ds_bandwidth_mbps,
                )));
            }
            let mut hosts = Vec::new();
            for i in 0..t.home_hosts_per_shard {
                hosts.push(plane.add_host(HostSpec::new(
                    format!("s{s}-host-{i:03}"),
                    t.host_cpu_mhz,
                    t.host_mem_mb,
                )));
            }
            for i in 0..t.shared_hosts {
                hosts.push(plane.add_host(HostSpec::new(
                    format!("shared-host-{i:03}"),
                    t.host_cpu_mhz,
                    t.host_mem_mb,
                )));
            }
            for &h in &hosts {
                for &d in &datastores {
                    plane.connect(h, d).expect("fresh ids");
                }
            }

            let templates = install_templates(
                &mut plane,
                &mut director,
                &hosts,
                &datastores,
                &t.templates,
                true,
            );
            let org = director.create_org("default-org");

            // Pre-installed population on home inventory only (skew).
            let mut initial_vms = Vec::new();
            let count = t.initial_vms_per_shard.get(s).copied().unwrap_or(0);
            for v in 0..count {
                let host = hosts[v as usize % t.home_hosts_per_shard as usize];
                let ds = datastores[v as usize % t.home_ds_per_shard as usize];
                let vm = plane
                    .install_vm(
                        &format!("s{s}-init-{v:03}"),
                        VmSpec::new(1, 1_024, t.initial_vm_disk_gb),
                        host,
                        ds,
                        false,
                    )
                    .unwrap_or_else(|e| panic!("installing initial VM on shard {s}: {e}"));
                initial_vms.push(vm);
            }

            if t.shards > 1 {
                // Map this shard's shared-pool ids in the store and
                // contribute its seeded bases there, then install the gate
                // and the conflict-retry machinery (timeout probability
                // zero: the fault RNG is drawn only for backoff jitter on
                // actual conflicts).
                let mut st = store.borrow_mut();
                let shared_ds = &datastores[t.home_ds_per_shard as usize..];
                for (&local, &idx) in shared_ds.iter().zip(&shared_ds_idx) {
                    let used = plane
                        .inventory()
                        .datastore(local)
                        .map_or(0.0, |d| d.used_gb);
                    st.share_ds(s, local, idx, used);
                }
                let shared_hosts = &hosts[t.home_hosts_per_shard as usize..];
                for (&local, &idx) in shared_hosts.iter().zip(&shared_host_idx) {
                    st.share_host(s, local, idx);
                }
                plane.set_placement_gate(Box::new(StoreGate::new(s, Rc::clone(&store))));
                plane.enable_faults(self.recovery, 0.0, streams.substreams(3).rng(s as u64));
            }

            shards.push(ShardCore {
                stack: MgmtStack::new(
                    plane,
                    director,
                    org,
                    hosts,
                    datastores,
                    templates,
                    MigrationOutbox::default(),
                ),
                staleness: self.staleness,
                initial_vms,
            });
        }

        // Initial mirror: every shard folds the others' seeded bases
        // into its view before the clock starts (free of charge — this
        // is setup, not simulated work).
        if t.shards > 1 {
            for shard in &mut shards {
                shard.stack.plane.sync_placement_gate_quiet();
            }
        }

        FedSim::assemble(shards, store, self.handoff_delay)
    }
}
