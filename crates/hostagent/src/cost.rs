//! Host-side primitives and their service-time model.

use cpsim_des::{Dist, Sampler, SimRng};
use serde::{Deserialize, Serialize};

/// A host-side primitive operation executed by the agent.
///
/// These are the units the management plane dispatches to hosts; each
/// management operation expands into one or more primitives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Primitive {
    /// Create the VM's home directory and descriptor files.
    CreateVmFiles,
    /// Register a VM with the host.
    RegisterVm,
    /// Unregister a VM from the host.
    UnregisterVm,
    /// Power a VM on (through to the task-visible "powered on" point).
    PowerOnVm,
    /// Power a VM off (guest shutdown handshake included).
    PowerOffVm,
    /// Apply a configuration change (vNIC, memory, fencing).
    ReconfigureVm,
    /// Create a snapshot (quiesce + delta creation).
    CreateSnapshot,
    /// Remove a snapshot — control portion only; the merge data movement
    /// is charged to the datastore separately.
    RemoveSnapshot,
    /// Delete the VM's files.
    DeleteVmFiles,
    /// Rescan/mount a datastore.
    MountDatastore,
    /// Source-side preparation of a clone (open disks, snapshot handles).
    PrepareClone,
    /// Fork a running parent VM in place (instant clone): shares memory
    /// pages and disk chain, so it is the cheapest provisioning primitive.
    InstantFork,
    /// Destination-side finalization of a clone (customization, identity).
    FinalizeClone,
    /// Source-side work of a live migration.
    MigrateSource,
    /// Destination-side work of a live migration.
    MigrateDest,
}

impl Primitive {
    /// All primitives, for building complete cost tables.
    pub const ALL: [Primitive; 15] = [
        Primitive::CreateVmFiles,
        Primitive::RegisterVm,
        Primitive::UnregisterVm,
        Primitive::PowerOnVm,
        Primitive::PowerOffVm,
        Primitive::ReconfigureVm,
        Primitive::CreateSnapshot,
        Primitive::RemoveSnapshot,
        Primitive::DeleteVmFiles,
        Primitive::MountDatastore,
        Primitive::PrepareClone,
        Primitive::InstantFork,
        Primitive::FinalizeClone,
        Primitive::MigrateSource,
        Primitive::MigrateDest,
    ];

    /// A stable lowercase name for tables and traces.
    pub fn name(self) -> &'static str {
        match self {
            Primitive::CreateVmFiles => "create-vm-files",
            Primitive::RegisterVm => "register-vm",
            Primitive::UnregisterVm => "unregister-vm",
            Primitive::PowerOnVm => "power-on-vm",
            Primitive::PowerOffVm => "power-off-vm",
            Primitive::ReconfigureVm => "reconfigure-vm",
            Primitive::CreateSnapshot => "create-snapshot",
            Primitive::RemoveSnapshot => "remove-snapshot",
            Primitive::DeleteVmFiles => "delete-vm-files",
            Primitive::MountDatastore => "mount-datastore",
            Primitive::PrepareClone => "prepare-clone",
            Primitive::InstantFork => "instant-fork",
            Primitive::FinalizeClone => "finalize-clone",
            Primitive::MigrateSource => "migrate-source",
            Primitive::MigrateDest => "migrate-dest",
        }
    }
}

impl std::fmt::Display for Primitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Service-time distributions (seconds) per primitive.
///
/// Defaults are calibrated to the magnitudes reported for the vSphere-era
/// stack in the authors' published work: seconds-scale host operations,
/// log-normally dispersed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostCostModel {
    /// One entry per primitive; see [`HostCostModel::service_dist`].
    pub dists: Vec<(Primitive, Dist)>,
}

impl HostCostModel {
    /// The service-time distribution for `p`.
    ///
    /// # Panics
    ///
    /// Panics if the model has no entry for `p` (a malformed config; the
    /// default model is always complete).
    pub fn service_dist(&self, p: Primitive) -> &Dist {
        self.dists
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, d)| d)
            .expect("the default cost model covers every primitive")
    }

    /// Replaces the distribution for `p`.
    pub fn set(&mut self, p: Primitive, d: Dist) {
        if let Some(slot) = self.dists.iter_mut().find(|(q, _)| *q == p) {
            slot.1 = d;
        } else {
            self.dists.push((p, d));
        }
    }

    /// Mean service time of `p` in seconds.
    pub fn mean_secs(&self, p: Primitive) -> f64 {
        self.service_dist(p).mean().unwrap_or(0.0)
    }
}

/// A [`HostCostModel`] prepared for sampling: one [`Sampler`] per
/// primitive, indexed by its declaration position (see [`Dist::sampler`]).
pub(crate) struct ServiceSamplers {
    by_primitive: Vec<Option<Sampler>>,
}

impl ServiceSamplers {
    pub(crate) fn new(model: &HostCostModel) -> Self {
        ServiceSamplers {
            by_primitive: Primitive::ALL
                .iter()
                .map(|&p| {
                    let found = model.dists.iter().find(|(q, _)| *q == p);
                    found.map(|(_, d)| d.sampler())
                })
                .collect(),
        }
    }

    /// One service time for `p`, bit-identical to sampling
    /// [`HostCostModel::service_dist`].
    ///
    /// # Panics
    ///
    /// Panics if the model has no entry for `p`, as `service_dist` does.
    pub(crate) fn sample(&self, p: Primitive, rng: &mut SimRng) -> f64 {
        self.by_primitive
            .get(p as usize)
            .and_then(Option::as_ref)
            .expect("the default cost model covers every primitive")
            .sample(rng)
    }
}

impl Default for HostCostModel {
    fn default() -> Self {
        let ln = |median: f64, sigma: f64| Dist::log_normal(median, sigma).expect("valid params");
        HostCostModel {
            dists: vec![
                (Primitive::CreateVmFiles, ln(1.2, 0.30)),
                (Primitive::RegisterVm, ln(0.6, 0.30)),
                (Primitive::UnregisterVm, ln(0.4, 0.30)),
                (Primitive::PowerOnVm, ln(2.8, 0.35)),
                (Primitive::PowerOffVm, ln(1.5, 0.35)),
                (Primitive::ReconfigureVm, ln(1.8, 0.40)),
                (Primitive::CreateSnapshot, ln(2.2, 0.40)),
                (Primitive::RemoveSnapshot, ln(1.0, 0.30)),
                (Primitive::DeleteVmFiles, ln(1.2, 0.30)),
                (Primitive::MountDatastore, ln(4.0, 0.30)),
                (Primitive::PrepareClone, ln(0.8, 0.30)),
                (Primitive::InstantFork, ln(0.5, 0.30)),
                (Primitive::FinalizeClone, ln(1.5, 0.35)),
                (Primitive::MigrateSource, ln(3.0, 0.40)),
                (Primitive::MigrateDest, ln(2.0, 0.40)),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_covers_all_primitives() {
        let m = HostCostModel::default();
        for p in Primitive::ALL {
            let _ = m.service_dist(p); // must not panic
            assert!(m.mean_secs(p) > 0.0, "{p} has zero mean");
        }
    }

    #[test]
    fn samplers_are_indexed_by_declaration_order() {
        for (i, p) in Primitive::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i, "{p} out of declaration order");
        }
        let mut m = HostCostModel::default();
        m.set(Primitive::PowerOnVm, Dist::constant(9.0).unwrap());
        let s = ServiceSamplers::new(&m);
        let rng = || cpsim_des::Streams::new(3).rng(0);
        assert_eq!(s.sample(Primitive::PowerOnVm, &mut rng()), 9.0);
        for p in Primitive::ALL {
            let (mut a, mut b) = (rng(), rng());
            let want = m.service_dist(p).sample(&mut a);
            assert_eq!(s.sample(p, &mut b).to_bits(), want.to_bits(), "{p}");
        }
    }

    #[test]
    fn set_overrides_distribution() {
        let mut m = HostCostModel::default();
        m.set(Primitive::PowerOnVm, Dist::constant(9.0).unwrap());
        assert_eq!(m.mean_secs(Primitive::PowerOnVm), 9.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Primitive::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Primitive::ALL.len());
    }

    #[test]
    fn serde_round_trip() {
        let m = HostCostModel::default();
        let json = serde_json::to_string(&m).unwrap();
        let back: HostCostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn power_on_slower_than_register() {
        let m = HostCostModel::default();
        assert!(m.mean_secs(Primitive::PowerOnVm) > m.mean_secs(Primitive::RegisterVm));
    }
}
