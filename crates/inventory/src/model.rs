//! The [`Inventory`]: arenas of entities plus the accounting rules that keep
//! capacity counters consistent.

use crate::arena::Arena;
use crate::entities::{
    Datastore, DatastoreSpec, Host, HostSpec, HostState, PowerState, Vm, VmSpec,
};
use crate::error::InventoryError;
use crate::ids::{DatastoreId, EntityId, HostId, VmId};
use crate::index::{OrdF64, PlacementIndex};

/// Entity counts, used for heartbeat-load and placement-cost models that
/// scale with inventory size.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InventoryCounts {
    /// Live hosts.
    pub hosts: usize,
    /// Live datastores.
    pub datastores: usize,
    /// Live VMs (including templates).
    pub vms: usize,
    /// Powered-on VMs.
    pub powered_on: usize,
    /// Templates.
    pub templates: usize,
}

/// The shared datacenter state: hosts, datastores and VMs with consistent
/// capacity accounting.
#[derive(Clone, Debug, Default)]
pub struct Inventory {
    hosts: Arena<HostId, Host>,
    datastores: Arena<DatastoreId, Datastore>,
    vms: Arena<VmId, Vm>,
    powered_on: usize,
    templates: usize,
    index: PlacementIndex,
}

impl Inventory {
    /// Creates an empty inventory.
    pub fn new() -> Self {
        Inventory::default()
    }

    // ---- hosts ---------------------------------------------------------

    /// Registers a new connected host.
    pub fn add_host(&mut self, spec: HostSpec) -> HostId {
        let id = self.hosts.insert(Host::new(spec));
        let h = self.hosts.get(id).expect("just inserted");
        self.index
            .host_added(id, (OrdF64(h.mem_utilization()), h.vms.len()));
        id
    }

    /// Looks up a host.
    pub fn host(&self, id: HostId) -> Option<&Host> {
        self.hosts.get(id)
    }

    /// Fails with `UnknownHost` unless `id` is live.
    pub fn host_checked(&self, id: HostId) -> Result<&Host, InventoryError> {
        self.hosts.get(id).ok_or(InventoryError::UnknownHost(id))
    }

    /// Sets a host's administrative state.
    pub fn set_host_state(&mut self, id: HostId, state: HostState) -> Result<(), InventoryError> {
        let host = self
            .hosts
            .get_mut(id)
            .ok_or(InventoryError::UnknownHost(id))?;
        host.state = state;
        Ok(())
    }

    /// Removes a host. All its VMs must have been destroyed or migrated.
    ///
    /// # Panics
    ///
    /// Panics if VMs are still registered to the host (callers must drain
    /// first; this indicates an orchestration bug).
    pub fn remove_host(&mut self, id: HostId) -> Result<Host, InventoryError> {
        {
            let host = self.host_checked(id)?;
            assert!(
                host.vms.is_empty(),
                "remove_host: host still has registered VMs"
            );
        }
        let host = self.hosts.remove(id).expect("checked live above");
        for ds in &host.datastores {
            if let Some(d) = self.datastores.get_mut(*ds) {
                d.hosts.retain(|h| *h != id);
            }
        }
        self.index.host_removed(id, &host.datastores);
        Ok(host)
    }

    /// Iterates live hosts in deterministic order.
    pub fn hosts(&self) -> impl Iterator<Item = (HostId, &Host)> {
        self.hosts.iter()
    }

    // ---- datastores ----------------------------------------------------

    /// Registers a new datastore.
    pub fn add_datastore(&mut self, spec: DatastoreSpec) -> DatastoreId {
        let id = self.datastores.insert(Datastore::new(spec));
        let free = self.datastores.get(id).expect("just inserted").free_gb();
        self.index.datastore_added(id, free);
        id
    }

    /// Looks up a datastore.
    pub fn datastore(&self, id: DatastoreId) -> Option<&Datastore> {
        self.datastores.get(id)
    }

    /// Fails with `UnknownDatastore` unless `id` is live.
    pub fn datastore_checked(&self, id: DatastoreId) -> Result<&Datastore, InventoryError> {
        self.datastores
            .get(id)
            .ok_or(InventoryError::UnknownDatastore(id))
    }

    /// Iterates live datastores in deterministic order.
    pub fn datastores(&self) -> impl Iterator<Item = (DatastoreId, &Datastore)> {
        self.datastores.iter()
    }

    /// Connects `host` to `datastore` (idempotent).
    pub fn connect_host_datastore(
        &mut self,
        host: HostId,
        datastore: DatastoreId,
    ) -> Result<(), InventoryError> {
        self.host_checked(host)?;
        self.datastore_checked(datastore)?;
        let h = self
            .hosts
            .get_mut(host)
            .expect("host_checked verified the id above");
        if !h.datastores.contains(&datastore) {
            h.datastores.push(datastore);
        }
        let d = self
            .datastores
            .get_mut(datastore)
            .expect("datastore_checked verified the id above");
        if !d.hosts.contains(&host) {
            d.hosts.push(host);
            self.index.connected(host, datastore);
        }
        Ok(())
    }

    /// Whether `host` can reach `datastore`.
    pub fn is_connected(&self, host: HostId, datastore: DatastoreId) -> bool {
        self.hosts
            .get(host)
            .map(|h| h.datastores.contains(&datastore))
            .unwrap_or(false)
    }

    /// Adjusts a datastore's allocated space by `delta_gb` (may be
    /// negative); clamped at zero. Called by the storage layer.
    pub fn adjust_datastore_usage(
        &mut self,
        id: DatastoreId,
        delta_gb: f64,
    ) -> Result<(), InventoryError> {
        let d = self
            .datastores
            .get_mut(id)
            .ok_or(InventoryError::UnknownDatastore(id))?;
        d.used_gb = (d.used_gb + delta_gb).max(0.0);
        let free = d.free_gb();
        self.index.datastore_free_changed(id, free);
        Ok(())
    }

    // ---- VMs -----------------------------------------------------------

    /// Creates a powered-off VM registered on `host` with its home on
    /// `datastore`.
    ///
    /// # Errors
    ///
    /// Fails if the host or datastore is unknown, the host cannot reach the
    /// datastore, or the host is not connected.
    pub fn create_vm(
        &mut self,
        name: impl Into<String>,
        spec: VmSpec,
        host: HostId,
        datastore: DatastoreId,
    ) -> Result<VmId, InventoryError> {
        let h = self.host_checked(host)?;
        if !h.accepts_placements() {
            return Err(InventoryError::HostNotAvailable(host));
        }
        self.datastore_checked(datastore)?;
        if !self.is_connected(host, datastore) {
            return Err(InventoryError::DatastoreNotConnected { host, datastore });
        }
        let id = self.vms.insert(Vm::new(name, spec, host, datastore));
        self.hosts
            .get_mut(host)
            .expect("host_checked verified the id above")
            .vms
            .push(id);
        self.reindex_host(host);
        Ok(id)
    }

    /// Marks a VM as a template. The VM must be powered off.
    pub fn mark_template(&mut self, id: VmId) -> Result<(), InventoryError> {
        let vm = self.vms.get_mut(id).ok_or(InventoryError::UnknownVm(id))?;
        if vm.power != PowerState::Off {
            return Err(InventoryError::VmPoweredOn(id));
        }
        if !vm.is_template {
            vm.is_template = true;
            self.templates += 1;
        }
        Ok(())
    }

    /// Looks up a VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(id)
    }

    /// Fails with `UnknownVm` unless `id` is live.
    pub fn vm_checked(&self, id: VmId) -> Result<&Vm, InventoryError> {
        self.vms.get(id).ok_or(InventoryError::UnknownVm(id))
    }

    /// Mutable VM lookup (for layers that adjust disks or names).
    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.vms.get_mut(id)
    }

    /// Iterates live VMs in deterministic order.
    pub fn vms(&self) -> impl Iterator<Item = (VmId, &Vm)> {
        self.vms.iter()
    }

    /// Powers a VM on, reserving host CPU/memory.
    ///
    /// # Errors
    ///
    /// Fails if the VM is unknown, a template, already on, or its host
    /// lacks free memory or is unavailable.
    pub fn power_on(&mut self, id: VmId) -> Result<(), InventoryError> {
        let vm = self.vm_checked(id)?;
        if vm.is_template {
            return Err(InventoryError::IsTemplate(id));
        }
        if vm.power == PowerState::On {
            return Err(InventoryError::AlreadyInPowerState(id));
        }
        let host_id = vm.host;
        let (mem, cpu) = (vm.spec.mem_mb, vm.spec.cpu_demand_mhz());
        let host = self
            .hosts
            .get_mut(host_id)
            .ok_or(InventoryError::UnknownHost(host_id))?;
        if host.state != HostState::Connected {
            return Err(InventoryError::HostNotAvailable(host_id));
        }
        if host.mem_free_mb() < mem {
            return Err(InventoryError::InsufficientMemory {
                host: host_id,
                requested_mb: mem,
                available_mb: host.mem_free_mb(),
            });
        }
        host.mem_used_mb += mem;
        host.cpu_used_mhz += cpu;
        self.vms
            .get_mut(id)
            .expect("vm_checked verified the id above")
            .power = PowerState::On;
        self.powered_on += 1;
        self.reindex_host(host_id);
        Ok(())
    }

    /// Powers a VM off, releasing host CPU/memory.
    pub fn power_off(&mut self, id: VmId) -> Result<(), InventoryError> {
        let vm = self.vm_checked(id)?;
        if vm.power != PowerState::On {
            return Err(InventoryError::AlreadyInPowerState(id));
        }
        let host_id = vm.host;
        let (mem, cpu) = (vm.spec.mem_mb, vm.spec.cpu_demand_mhz());
        if let Some(host) = self.hosts.get_mut(host_id) {
            host.mem_used_mb = host.mem_used_mb.saturating_sub(mem);
            host.cpu_used_mhz = host.cpu_used_mhz.saturating_sub(cpu);
            self.reindex_host(host_id);
        }
        self.vms
            .get_mut(id)
            .expect("vm_checked verified the id above")
            .power = PowerState::Off;
        self.powered_on -= 1;
        Ok(())
    }

    /// Destroys a VM. Must be powered off. Returns its record; the caller
    /// (storage layer) releases its disks.
    pub fn destroy_vm(&mut self, id: VmId) -> Result<Vm, InventoryError> {
        let vm = self.vm_checked(id)?;
        if vm.power == PowerState::On {
            return Err(InventoryError::VmPoweredOn(id));
        }
        let vm = self.vms.remove(id).expect("checked live");
        if vm.is_template {
            self.templates -= 1;
        }
        if let Some(host) = self.hosts.get_mut(vm.host) {
            host.vms.retain(|v| *v != id);
            self.reindex_host(vm.host);
        }
        Ok(vm)
    }

    /// Re-registers a powered-off VM on another host (vMotion handles the
    /// powered-on case with identical accounting, since reservations follow
    /// power state).
    pub fn relocate_vm(&mut self, id: VmId, to_host: HostId) -> Result<(), InventoryError> {
        let vm = self.vm_checked(id)?;
        let from = vm.host;
        let powered = vm.power == PowerState::On;
        let (mem, cpu) = (vm.spec.mem_mb, vm.spec.cpu_demand_mhz());
        let dest = self.host_checked(to_host)?;
        if !dest.accepts_placements() {
            return Err(InventoryError::HostNotAvailable(to_host));
        }
        if powered && dest.mem_free_mb() < mem {
            return Err(InventoryError::InsufficientMemory {
                host: to_host,
                requested_mb: mem,
                available_mb: dest.mem_free_mb(),
            });
        }
        if let Some(h) = self.hosts.get_mut(from) {
            h.vms.retain(|v| *v != id);
            if powered {
                h.mem_used_mb = h.mem_used_mb.saturating_sub(mem);
                h.cpu_used_mhz = h.cpu_used_mhz.saturating_sub(cpu);
            }
        }
        let h = self
            .hosts
            .get_mut(to_host)
            .expect("host_checked verified the id above");
        h.vms.push(id);
        if powered {
            h.mem_used_mb += mem;
            h.cpu_used_mhz += cpu;
        }
        self.vms
            .get_mut(id)
            .expect("vm_checked verified the id above")
            .host = to_host;
        self.reindex_host(from);
        self.reindex_host(to_host);
        Ok(())
    }

    // ---- placement candidate queries ------------------------------------

    /// Live datastores in most-free-space-first order (ties: lower id
    /// first), with their free space. Maintained incrementally; O(1) to
    /// reach the best candidate.
    pub fn datastores_by_free(&self) -> impl Iterator<Item = (DatastoreId, f64)> + '_ {
        self.index.datastores_by_free()
    }

    /// Hosts connected to `ds` in least-loaded-first order (memory
    /// utilization, then registered-VM count, then id). Callers apply
    /// their own eligibility filters (state, memory headroom, exclusions).
    pub fn hosts_by_load(&self, ds: DatastoreId) -> impl Iterator<Item = HostId> + '_ {
        self.index.hosts_by_load(ds)
    }

    /// Re-keys `host` in the load index after its utilization or VM count
    /// changed. No-op for dead hosts.
    fn reindex_host(&mut self, host: HostId) {
        if let Some(h) = self.hosts.get(host) {
            self.index.host_load_changed(
                host,
                (OrdF64(h.mem_utilization()), h.vms.len()),
                &h.datastores,
            );
        }
    }

    // ---- aggregate queries ----------------------------------------------

    /// Entity counts for scaling cost models.
    pub fn counts(&self) -> InventoryCounts {
        InventoryCounts {
            hosts: self.hosts.len(),
            datastores: self.datastores.len(),
            vms: self.vms.len(),
            powered_on: self.powered_on,
            templates: self.templates,
        }
    }

    /// Verifies internal accounting invariants; used by tests and debug
    /// assertions. Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let (mut on, mut templ, mut slots) = (0, 0, 0);
        for (id, vm) in self.vms.iter() {
            on += usize::from(vm.power == PowerState::On);
            templ += usize::from(vm.is_template);
            self.hosts
                .get(vm.host)
                .ok_or_else(|| format!("vm {id} registered on missing host {}", vm.host))?;
            slots = id.index() as usize + 1;
        }
        if on != self.powered_on {
            return Err(format!(
                "powered_on counter {} != actual {}",
                self.powered_on, on
            ));
        }
        if templ != self.templates {
            return Err(format!(
                "templates counter {} != actual {}",
                self.templates, templ
            ));
        }
        // Every listing is a distinct live VM placed on the listing host,
        // and the listings number the live VMs: so each VM is listed
        // exactly once, by its own host. One pass, O(VMs).
        let mut listed = vec![false; slots];
        let mut listings = 0;
        for (hid, host) in self.hosts.iter() {
            let mut mem = 0;
            for &id in &host.vms {
                let vm = self
                    .vms
                    .get(id)
                    .filter(|vm| vm.host == hid)
                    .ok_or_else(|| {
                        format!("host {hid} lists vm {id}, which is not placed on it")
                    })?;
                if std::mem::replace(&mut listed[id.index() as usize], true) {
                    return Err(format!("vm {id} is listed twice"));
                }
                if vm.power == PowerState::On {
                    mem += vm.spec.mem_mb;
                }
            }
            listings += host.vms.len();
            if mem != host.mem_used_mb {
                return Err(format!(
                    "host {hid} mem accounting {} != sum of powered-on VMs {mem}",
                    host.mem_used_mb
                ));
            }
        }
        if listings != self.vms.len() {
            return Err(format!(
                "hosts list {listings} vms != {} live vms",
                self.vms.len()
            ));
        }
        self.check_index_invariants()
    }

    /// Verifies that the placement index mirrors the arenas exactly.
    fn check_index_invariants(&self) -> Result<(), String> {
        let (keys, ordered) = self.index.datastore_entries();
        if keys != self.datastores.len() || ordered != self.datastores.len() {
            return Err(format!(
                "datastore index size {keys}/{ordered} != {} live datastores",
                self.datastores.len()
            ));
        }
        for (id, ds) in self.datastores.iter() {
            match self.index.ds_key(id) {
                Some(free) if free == ds.free_gb() => {}
                other => {
                    return Err(format!(
                        "datastore {id} indexed free {other:?} != actual {}",
                        ds.free_gb()
                    ))
                }
            }
        }
        if self.index.host_entries() != self.hosts.len() {
            return Err(format!(
                "host index size {} != {} live hosts",
                self.index.host_entries(),
                self.hosts.len()
            ));
        }
        let connections: usize = self.hosts.iter().map(|(_, h)| h.datastores.len()).sum();
        if self.index.connection_entries() != connections {
            return Err(format!(
                "host-load index has {} entries != {connections} connections",
                self.index.connection_entries()
            ));
        }
        for (id, host) in self.hosts.iter() {
            match self.index.host_key(id) {
                Some((util, vms)) if util == host.mem_utilization() && vms == host.vms.len() => {}
                other => {
                    return Err(format!(
                        "host {id} indexed key {other:?} != actual ({}, {})",
                        host.mem_utilization(),
                        host.vms.len()
                    ))
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dc() -> (Inventory, HostId, DatastoreId) {
        let mut inv = Inventory::new();
        let ds = inv.add_datastore(DatastoreSpec::new("ds0", 1000.0, 200.0));
        let h = inv.add_host(HostSpec::new("h0", 20_000, 65_536));
        inv.connect_host_datastore(h, ds).unwrap();
        (inv, h, ds)
    }

    #[test]
    fn create_power_cycle_destroy() {
        let (mut inv, h, ds) = small_dc();
        let vm = inv
            .create_vm("vm0", VmSpec::new(2, 4096, 40.0), h, ds)
            .unwrap();
        inv.power_on(vm).unwrap();
        assert_eq!(inv.counts().powered_on, 1);
        assert_eq!(inv.host(h).unwrap().mem_used_mb, 4096);
        assert_eq!(inv.host(h).unwrap().cpu_used_mhz, 2000);
        inv.check_invariants().unwrap();

        assert_eq!(inv.destroy_vm(vm), Err(InventoryError::VmPoweredOn(vm)));
        inv.power_off(vm).unwrap();
        assert_eq!(inv.host(h).unwrap().mem_used_mb, 0);
        inv.destroy_vm(vm).unwrap();
        assert_eq!(inv.counts().vms, 0);
        inv.check_invariants().unwrap();
    }

    #[test]
    fn power_on_respects_memory_capacity() {
        let (mut inv, h, ds) = small_dc();
        let big = inv
            .create_vm("big", VmSpec::new(8, 60_000, 10.0), h, ds)
            .unwrap();
        let too_big = inv
            .create_vm("too-big", VmSpec::new(8, 10_000, 10.0), h, ds)
            .unwrap();
        inv.power_on(big).unwrap();
        let err = inv.power_on(too_big).unwrap_err();
        assert!(matches!(err, InventoryError::InsufficientMemory { .. }));
        inv.check_invariants().unwrap();
    }

    #[test]
    fn double_power_transitions_rejected() {
        let (mut inv, h, ds) = small_dc();
        let vm = inv
            .create_vm("vm", VmSpec::new(1, 1024, 10.0), h, ds)
            .unwrap();
        assert_eq!(
            inv.power_off(vm),
            Err(InventoryError::AlreadyInPowerState(vm))
        );
        inv.power_on(vm).unwrap();
        assert_eq!(
            inv.power_on(vm),
            Err(InventoryError::AlreadyInPowerState(vm))
        );
    }

    #[test]
    fn templates_cannot_power_on() {
        let (mut inv, h, ds) = small_dc();
        let t = inv
            .create_vm("tmpl", VmSpec::new(1, 1024, 10.0), h, ds)
            .unwrap();
        inv.mark_template(t).unwrap();
        assert_eq!(inv.power_on(t), Err(InventoryError::IsTemplate(t)));
        assert_eq!(inv.counts().templates, 1);
        // idempotent
        inv.mark_template(t).unwrap();
        assert_eq!(inv.counts().templates, 1);
    }

    #[test]
    fn create_requires_connectivity() {
        let mut inv = Inventory::new();
        let ds = inv.add_datastore(DatastoreSpec::new("ds", 100.0, 50.0));
        let h = inv.add_host(HostSpec::new("h", 1000, 1024));
        let err = inv
            .create_vm("vm", VmSpec::new(1, 256, 1.0), h, ds)
            .unwrap_err();
        assert!(matches!(err, InventoryError::DatastoreNotConnected { .. }));
    }

    #[test]
    fn maintenance_host_rejects_placements() {
        let (mut inv, h, ds) = small_dc();
        inv.set_host_state(h, HostState::Maintenance).unwrap();
        let err = inv
            .create_vm("vm", VmSpec::new(1, 256, 1.0), h, ds)
            .unwrap_err();
        assert_eq!(err, InventoryError::HostNotAvailable(h));
    }

    #[test]
    fn relocate_moves_reservations_with_power_state() {
        let (mut inv, h1, ds) = small_dc();
        let h2 = inv.add_host(HostSpec::new("h1", 20_000, 65_536));
        inv.connect_host_datastore(h2, ds).unwrap();
        let vm = inv
            .create_vm("vm", VmSpec::new(2, 4096, 10.0), h1, ds)
            .unwrap();
        inv.power_on(vm).unwrap();
        inv.relocate_vm(vm, h2).unwrap();
        assert_eq!(inv.host(h1).unwrap().mem_used_mb, 0);
        assert_eq!(inv.host(h2).unwrap().mem_used_mb, 4096);
        assert_eq!(inv.vm(vm).unwrap().host, h2);
        inv.check_invariants().unwrap();
    }

    #[test]
    fn remove_host_cleans_datastore_links() {
        let (mut inv, h, ds) = small_dc();
        inv.remove_host(h).unwrap();
        assert!(inv.datastore(ds).unwrap().hosts.is_empty());
        assert!(inv.host(h).is_none());
    }

    #[test]
    fn datastore_usage_clamps_at_zero() {
        let (mut inv, _h, ds) = small_dc();
        inv.adjust_datastore_usage(ds, 10.0).unwrap();
        inv.adjust_datastore_usage(ds, -50.0).unwrap();
        assert_eq!(inv.datastore(ds).unwrap().used_gb, 0.0);
    }

    #[test]
    fn stale_ids_error_cleanly() {
        let (mut inv, h, ds) = small_dc();
        let vm = inv
            .create_vm("vm", VmSpec::new(1, 256, 1.0), h, ds)
            .unwrap();
        inv.destroy_vm(vm).unwrap();
        assert_eq!(inv.power_on(vm), Err(InventoryError::UnknownVm(vm)));
        assert_eq!(inv.vm_checked(vm), Err(InventoryError::UnknownVm(vm)));
    }

    /// Each seeded corruption must make `check_invariants` fail; the
    /// uncorrupted inventory passes.
    #[test]
    fn invariant_check_catches_each_corruption() {
        let mut inv = Inventory::new();
        let ds = inv.add_datastore(DatastoreSpec::new("ds0", 1000.0, 200.0));
        let unconnected = inv.add_datastore(DatastoreSpec::new("ds1", 1000.0, 200.0));
        let (h0, h1) = (
            inv.add_host(HostSpec::new("h0", 20_000, 65_536)),
            inv.add_host(HostSpec::new("h1", 20_000, 65_536)),
        );
        inv.connect_host_datastore(h0, ds).unwrap();
        inv.connect_host_datastore(h1, ds).unwrap();
        let spec = VmSpec::new(1, 1024, 10.0);
        let a = inv.create_vm("a", spec, h0, ds).unwrap();
        let b = inv.create_vm("b", spec, h0, ds).unwrap();
        let t = inv.create_vm("t", spec, h0, ds).unwrap();
        let c = inv.create_vm("c", spec, h1, ds).unwrap();
        inv.power_on(a).unwrap();
        inv.mark_template(t).unwrap();
        let gone = inv.create_vm("gone", spec, h0, ds).unwrap();
        inv.destroy_vm(gone).unwrap();
        inv.check_invariants().unwrap();

        fn host(inv: &mut Inventory, h: HostId) -> &mut Host {
            inv.hosts.get_mut(h).unwrap()
        }
        let fires = |what: &str, corrupt: &dyn Fn(&mut Inventory)| {
            let mut bad = inv.clone();
            corrupt(&mut bad);
            assert!(bad.check_invariants().is_err(), "{what} went unnoticed");
        };
        // Each of the first three passes every other check: host list
        // lengths, memory and the index stay consistent.
        fires("unlisted vm", &|inv| {
            host(inv, h0).vms.retain(|&v| v != b);
            inv.reindex_host(h0);
        });
        fires("foreign listing", &|inv| {
            host(inv, h0).vms = vec![a, c, t];
            host(inv, h1).vms = vec![b];
        });
        fires("duplicate listing", &|inv| {
            host(inv, h0).vms = vec![a, t, t]
        });
        fires("stale listing", &|inv| host(inv, h0).vms.push(gone));
        fires("missing host", &|inv| {
            inv.vms.get_mut(b).unwrap().host = HostId::from_parts(9, 1);
        });
        fires("memory", &|inv| host(inv, h0).mem_used_mb += 1);
        fires("powered_on counter", &|inv| inv.powered_on += 1);
        fires("templates counter", &|inv| inv.templates -= 1);
        fires("datastore index key", &|inv| {
            inv.datastores.get_mut(ds).unwrap().used_gb += 1.0;
        });
        fires("host index key", &|inv| {
            inv.index.host_load_changed(h1, (OrdF64(0.5), 0), &[]);
        });
        fires("connection index", &|inv| {
            inv.index.connected(h1, unconnected);
        });
    }
}
