//! Heartbeat / property-update traffic from hosts to the management
//! server.
//!
//! Every connected host periodically pushes state updates that the
//! management server must process (CPU time) and persist (database time).
//! This background load scales with inventory size and competes with
//! foreground operations for the same control-plane resources — one of the
//! design pressures the paper highlights for large clouds.

use cpsim_des::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Heartbeat cadence and per-beat control-plane costs.
///
/// The control plane charges each beat to its CPU and DB as background
/// work. With fault injection each beat is a kernel event, because it
/// also drives heartbeat-miss detection. Without it the plane keeps the
/// beats off the event queue and replays them in kernel order (see
/// `ControlPlane::init_events` in `cpsim-mgmt`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatSpec {
    /// Interval between beats from one host.
    pub interval: SimDuration,
    /// Management-server CPU consumed per beat.
    pub mgmt_cpu: SimDuration,
    /// Database service time consumed per beat.
    pub db_time: SimDuration,
}

impl HeartbeatSpec {
    /// Spec with no cost and an effectively-infinite interval (heartbeats
    /// disabled).
    pub fn disabled() -> Self {
        HeartbeatSpec {
            interval: SimDuration::MAX,
            mgmt_cpu: SimDuration::ZERO,
            db_time: SimDuration::ZERO,
        }
    }

    /// Whether beats are effectively disabled.
    pub fn is_disabled(&self) -> bool {
        self.interval == SimDuration::MAX
    }

    /// First beat for host number `index`: staggered across the interval
    /// so a large fleet does not beat in lockstep.
    pub fn first_beat(&self, index: usize) -> SimTime {
        if self.is_disabled() {
            return SimTime::MAX;
        }
        let interval = self.interval.as_micros().max(1);
        let offset = (index as u64).wrapping_mul(interval / 16 + 1) % interval;
        SimTime::ZERO + SimDuration::from_micros(offset)
    }

    /// Aggregate control-plane demand (CPU + DB busy-seconds per second)
    /// imposed by `hosts` hosts.
    pub fn load_per_sec(&self, hosts: usize) -> f64 {
        if self.is_disabled() {
            return 0.0;
        }
        let per_beat = self.mgmt_cpu.as_secs_f64() + self.db_time.as_secs_f64();
        hosts as f64 * per_beat / self.interval.as_secs_f64()
    }
}

impl Default for HeartbeatSpec {
    /// 20 s cadence, 3 ms CPU + 2 ms DB per beat: the magnitudes reported
    /// for per-host synchronization traffic in the authors' prior work.
    fn default() -> Self {
        HeartbeatSpec {
            interval: SimDuration::from_secs(20),
            mgmt_cpu: SimDuration::from_millis(3),
            db_time: SimDuration::from_millis(2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_load_scales_linearly() {
        let hb = HeartbeatSpec::default();
        let one = hb.load_per_sec(1);
        let thousand = hb.load_per_sec(1000);
        assert!((thousand - 1000.0 * one).abs() < 1e-12);
        // 5 ms per 20 s per host = 0.25 ms/s
        assert!((one - 0.00025).abs() < 1e-9);
    }

    #[test]
    fn disabled_spec_is_inert() {
        let hb = HeartbeatSpec::disabled();
        assert!(hb.is_disabled());
        assert_eq!(hb.load_per_sec(100), 0.0);
        assert_eq!(hb.first_beat(3), SimTime::MAX);
    }

    #[test]
    fn first_beats_are_staggered_within_interval() {
        let hb = HeartbeatSpec::default();
        let beats: Vec<SimTime> = (0..64).map(|i| hb.first_beat(i)).collect();
        for &b in &beats {
            assert!(b < SimTime::ZERO + hb.interval);
        }
        // Not all identical.
        assert!(beats.iter().any(|b| *b != beats[0]));
    }

    #[test]
    fn serde_round_trip() {
        let hb = HeartbeatSpec::default();
        let json = serde_json::to_string(&hb).unwrap();
        let back: HeartbeatSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(hb, back);
    }
}
