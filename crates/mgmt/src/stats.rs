//! Control-plane statistics: per-operation outcome counters and
//! phase-level cost accounting. Per-task values (latency, the
//! control/data split, queue and admission waits) live in each
//! [`TaskReport`] and the trace record made from it.

use crate::task::{PhaseClass, TaskReport};

/// Outcome counters for one operation kind.
#[derive(Clone, Debug, Default)]
pub struct KindStats {
    /// Completed tasks.
    pub completed: u64,
    /// Failed tasks.
    pub failed: u64,
    /// Phase retries across all tasks of this kind.
    pub retries: u64,
    /// Tasks that exhausted their retry budget.
    pub aborted: u64,
    /// Tasks whose partial state was rolled back on failure.
    pub rolled_back: u64,
}

/// One `(class, label)` phase total of one kind.
#[derive(Clone, Debug)]
struct PhaseSlot {
    class: PhaseClass,
    label: &'static str,
    secs: f64,
    count: u64,
}

/// One kind's stats and phase totals.
#[derive(Clone, Debug)]
struct KindEntry {
    kind: &'static str,
    stats: KindStats,
    /// One slot per distinct `(class, label)`, in first-seen order. A
    /// kind has a dozen-odd phases, so a linear scan beats hashing the
    /// label. Labels are string literals: the scan matches them by
    /// address first and by text only on a miss, because equal literals
    /// are not guaranteed to share an address (one per codegen unit).
    phases: Vec<PhaseSlot>,
}

impl KindEntry {
    /// Adds `secs` over `count` rows to the `(class, label)` slot,
    /// opening it at zero if new. Each slot sums in call order.
    fn add_phase(&mut self, class: PhaseClass, label: &'static str, secs: f64, count: u64) {
        let phases = &mut self.phases;
        let found = phases
            .iter()
            .position(|p| p.class == class && std::ptr::eq(p.label, label))
            .or_else(|| {
                phases
                    .iter()
                    .position(|p| p.class == class && p.label == label)
            });
        let i = found.unwrap_or_else(|| {
            phases.push(PhaseSlot {
                class,
                label,
                secs: 0.0,
                count: 0,
            });
            phases.len() - 1
        });
        let slot = &mut phases[i];
        slot.secs += secs;
        slot.count += count;
    }
}

/// Aggregated control-plane statistics.
#[derive(Clone, Debug, Default)]
pub struct MgmtStats {
    submitted: u64,
    /// Per-kind stats and phase totals, kept sorted by kind name: the
    /// dozen-odd kinds make a binary-searched vector cheaper than a tree
    /// on the per-task record path, and iteration order stays
    /// deterministic for free. The phase totals are the data behind the
    /// per-phase cost-breakdown table; [`phase_totals`](Self::phase_totals)
    /// sorts them on access.
    by_kind: Vec<KindEntry>,
    // Fault-injection counters (all zero in fault-free runs).
    retries: u64,
    aborts: u64,
    rollbacks: u64,
    agent_timeouts: u64,
    host_crashes: u64,
    hosts_declared_down: u64,
    resyncs: u64,
    // Federation counters (all zero without an external placement gate).
    placement_commits: u64,
    placement_conflicts: u64,
    placement_syncs: u64,
}

impl MgmtStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        MgmtStats::default()
    }

    /// Notes a submission.
    pub fn on_submitted(&mut self) {
        self.submitted += 1;
    }

    /// The entry for `kind`, inserted at its sorted position if new.
    fn kind_entry(&mut self, kind: &'static str) -> &mut KindEntry {
        let by_kind = &mut self.by_kind;
        let i = match by_kind.binary_search_by_key(&kind, |e| e.kind) {
            Ok(i) => i,
            Err(i) => {
                let entry = KindEntry {
                    kind,
                    stats: KindStats::default(),
                    phases: Vec::new(),
                };
                by_kind.insert(i, entry);
                i
            }
        };
        &mut by_kind[i]
    }

    /// Records a finished task's report.
    pub fn on_finished(&mut self, report: &TaskReport) {
        let entry = self.kind_entry(report.kind);
        let ks = &mut entry.stats;
        if report.is_success() {
            ks.completed += 1;
        } else {
            ks.failed += 1;
        }
        ks.retries += u64::from(report.retries);
        ks.aborted += u64::from(report.aborted);
        ks.rolled_back += u64::from(report.rolled_back);
        for &(class, label, secs) in &report.breakdown {
            entry.add_phase(class, label, secs, 1);
        }
    }

    /// Notes one phase retry.
    pub fn on_retry(&mut self) {
        self.retries += 1;
    }

    /// Notes one task abort (retry budget exhausted).
    pub fn on_abort(&mut self) {
        self.aborts += 1;
    }

    /// Notes one partial-state rollback.
    pub fn on_rollback(&mut self) {
        self.rollbacks += 1;
    }

    /// Notes one injected host-agent hang that ran into the phase timeout.
    pub fn on_agent_timeout(&mut self) {
        self.agent_timeouts += 1;
    }

    /// Notes one host crash taking effect.
    pub fn on_host_crash(&mut self) {
        self.host_crashes += 1;
    }

    /// Notes a host declared down after consecutive heartbeat misses.
    pub fn on_host_declared_down(&mut self) {
        self.hosts_declared_down += 1;
    }

    /// Notes one inventory resync (host declared down or reconnected).
    pub fn on_resync(&mut self) {
        self.resyncs += 1;
    }

    /// Notes one placement accepted by the external placement gate.
    pub fn on_placement_commit(&mut self) {
        self.placement_commits += 1;
    }

    /// Notes one placement rejected by the external placement gate
    /// (stale-view conflict).
    pub fn on_placement_conflict(&mut self) {
        self.placement_conflicts += 1;
    }

    /// Notes one refresh of the mirrored placement view.
    pub fn on_placement_sync(&mut self) {
        self.placement_syncs += 1;
    }

    /// Total phase retries.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total task aborts (retry budget exhausted).
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Total partial-state rollbacks.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Total injected agent hangs that hit the phase timeout.
    pub fn agent_timeouts(&self) -> u64 {
        self.agent_timeouts
    }

    /// Total host crashes that took effect.
    pub fn host_crashes(&self) -> u64 {
        self.host_crashes
    }

    /// Total times a host was declared down via heartbeat misses.
    pub fn hosts_declared_down(&self) -> u64 {
        self.hosts_declared_down
    }

    /// Total inventory resyncs triggered by fault detection/recovery.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Total placements accepted by the external placement gate.
    pub fn placement_commits(&self) -> u64 {
        self.placement_commits
    }

    /// Total placements rejected by the external placement gate.
    pub fn placement_conflicts(&self) -> u64 {
        self.placement_conflicts
    }

    /// Total refreshes of the mirrored placement view.
    pub fn placement_syncs(&self) -> u64 {
        self.placement_syncs
    }

    /// Total submissions.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total completions across kinds.
    pub fn completed(&self) -> u64 {
        self.by_kind.iter().map(|e| e.stats.completed).sum()
    }

    /// Total failures across kinds.
    pub fn failed(&self) -> u64 {
        self.by_kind.iter().map(|e| e.stats.failed).sum()
    }

    /// Stats for one kind, if any tasks of it finished.
    pub fn kind(&self, kind: &str) -> Option<&KindStats> {
        self.by_kind
            .binary_search_by_key(&kind, |e| e.kind)
            .ok()
            .map(|i| &self.by_kind[i].stats)
    }

    /// Iterates kinds in deterministic order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, &KindStats)> + '_ {
        self.by_kind.iter().map(|e| (e.kind, &e.stats))
    }

    /// Iterates `(kind, class, label) -> (total_secs, count)` phase totals
    /// in deterministic order (sorted by key, exactly as the previous
    /// ordered-map representation iterated).
    pub fn phase_totals(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, &'static str, f64, u64)> + '_ {
        let mut rows: Vec<_> = self
            .by_kind
            .iter()
            .flat_map(|e| {
                let phases = e.phases.iter();
                phases.map(move |p| (e.kind, p.class.name(), p.label, p.secs, p.count))
            })
            .collect();
        rows.sort_unstable_by_key(|&(k, c, l, _, _)| (k, c, l));
        rows.into_iter()
    }

    /// Merges another stats object (for multi-run aggregation).
    pub fn merge(&mut self, other: &MgmtStats) {
        self.submitted += other.submitted;
        for theirs in &other.by_kind {
            let entry = self.kind_entry(theirs.kind);
            for p in &theirs.phases {
                entry.add_phase(p.class, p.label, p.secs, p.count);
            }
            let (mine, ks) = (&mut entry.stats, &theirs.stats);
            mine.completed += ks.completed;
            mine.failed += ks.failed;
            mine.retries += ks.retries;
            mine.aborted += ks.aborted;
            mine.rolled_back += ks.rolled_back;
        }
        self.retries += other.retries;
        self.aborts += other.aborts;
        self.rollbacks += other.rollbacks;
        self.agent_timeouts += other.agent_timeouts;
        self.host_crashes += other.host_crashes;
        self.hosts_declared_down += other.hosts_declared_down;
        self.resyncs += other.resyncs;
        self.placement_commits += other.placement_commits;
        self.placement_conflicts += other.placement_conflicts;
        self.placement_syncs += other.placement_syncs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpsim_des::{SimDuration, SimTime};

    fn report(kind: &'static str, latency: f64, data: f64) -> TaskReport {
        TaskReport {
            kind,
            tag: 0,
            submitted_at: SimTime::ZERO,
            completed_at: SimTime::ZERO + SimDuration::from_secs_f64(latency),
            latency: SimDuration::from_secs_f64(latency),
            cpu_secs: 0.1,
            db_secs: 0.2,
            agent_secs: 1.0,
            data_secs: data,
            queue_secs: 0.0,
            admission_secs: 0.0,
            produced_vm: None,
            target_vm: None,
            placement: None,
            error: None,
            retries: 0,
            aborted: false,
            rolled_back: false,
            breakdown: vec![(PhaseClass::Cpu, "api-ingress", 0.1)],
        }
    }

    #[test]
    fn records_by_kind() {
        let mut s = MgmtStats::new();
        s.on_submitted();
        s.on_submitted();
        s.on_finished(&report("clone-full", 120.0, 100.0));
        s.on_finished(&report("clone-linked", 8.0, 0.0));
        assert_eq!(s.submitted(), 2);
        assert_eq!(s.completed(), 2);
        assert_eq!(s.failed(), 0);
        let full = s.kind("clone-full").unwrap();
        assert_eq!(full.completed, 1);
        assert!(s.kind("power-on").is_none());
    }

    #[test]
    fn failures_counted_separately() {
        let mut s = MgmtStats::new();
        let mut r = report("power-on", 2.0, 0.0);
        r.error = Some("insufficient memory".into());
        s.on_finished(&r);
        assert_eq!(s.failed(), 1);
        assert_eq!(s.completed(), 0);
    }

    #[test]
    fn phase_totals_accumulate() {
        let mut s = MgmtStats::new();
        s.on_finished(&report("clone-full", 120.0, 100.0));
        s.on_finished(&report("clone-full", 130.0, 110.0));
        let rows: Vec<_> = s.phase_totals().collect();
        assert_eq!(rows.len(), 1);
        let (kind, class, label, secs, count) = rows[0];
        assert_eq!((kind, class, label), ("clone-full", "cpu", "api-ingress"));
        assert!((secs - 0.2).abs() < 1e-12);
        assert_eq!(count, 2);
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = MgmtStats::new();
        a.on_submitted();
        a.on_finished(&report("clone-full", 100.0, 90.0));
        let mut b = MgmtStats::new();
        b.on_submitted();
        b.on_finished(&report("clone-full", 200.0, 180.0));
        a.merge(&b);
        assert_eq!(a.submitted(), 2);
        assert_eq!(a.kind("clone-full").unwrap().completed, 2);
        let (_, _, _, secs, n) = a.phase_totals().next().unwrap();
        assert!((secs - 0.2).abs() < 1e-12);
        assert_eq!(n, 2);
    }
}
