//! Per-operation trace records: the simulator's equivalent of the
//! management-server logs the paper's characterization was built from.

use std::borrow::Cow;
use std::io::{BufRead, Write};

use cpsim_des::SimTime;
use cpsim_inventory::VmId;
use cpsim_mgmt::TaskReport;
use serde::{Deserialize, Serialize};

/// How an operation ended.
///
/// Old traces predate this field; `#[serde(default)]` makes them replay
/// as [`Outcome::Success`], matching what they could record at the time.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// Completed cleanly.
    #[default]
    Success,
    /// Ended with an error.
    Failed {
        /// The terminal error message.
        reason: String,
    },
    /// Exhausted its retry budget and was abandoned by the plane.
    Aborted,
}

impl Outcome {
    /// Builds the outcome a task report describes.
    pub fn from_task(report: &TaskReport) -> Self {
        if report.aborted {
            Outcome::Aborted
        } else if let Some(reason) = &report.error {
            Outcome::Failed {
                reason: reason.clone(),
            }
        } else {
            Outcome::Success
        }
    }

    /// Whether this is [`Outcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, Outcome::Success)
    }
}

/// One completed management operation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Submission time, microseconds of simulated time.
    pub submitted_us: u64,
    /// Completion time, microseconds of simulated time.
    pub completed_us: u64,
    /// Operation kind name. Borrowed from the plane's static kind table
    /// when built from a task report (no per-record allocation); owned
    /// when deserialized from disk. Serializes as a plain string either
    /// way.
    pub kind: Cow<'static, str>,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
    /// Management CPU seconds.
    pub cpu_s: f64,
    /// Database seconds.
    pub db_s: f64,
    /// Host-agent seconds.
    pub agent_s: f64,
    /// Data-transfer wall seconds.
    pub data_s: f64,
    /// Resource-queue wait seconds.
    pub queue_s: f64,
    /// Admission wait seconds.
    pub admission_s: f64,
    /// Whether the operation succeeded.
    pub success: bool,
    /// How the operation ended (absent in old traces ⇒ `Success`).
    #[serde(default)]
    pub outcome: Outcome,
    /// VM produced (provisioning).
    pub produced_vm: Option<VmId>,
    /// VM targeted.
    pub target_vm: Option<VmId>,
}

impl TraceRecord {
    /// Builds a record from a task report.
    pub fn from_task(report: &TaskReport) -> Self {
        TraceRecord {
            submitted_us: report.submitted_at.as_micros(),
            completed_us: report.completed_at.as_micros(),
            kind: Cow::Borrowed(report.kind),
            latency_s: report.latency.as_secs_f64(),
            cpu_s: report.cpu_secs,
            db_s: report.db_secs,
            agent_s: report.agent_secs,
            data_s: report.data_secs,
            queue_s: report.queue_secs,
            admission_s: report.admission_secs,
            success: report.is_success(),
            outcome: Outcome::from_task(report),
            produced_vm: report.produced_vm,
            target_vm: report.target_vm,
        }
    }

    /// Submission instant as [`SimTime`].
    pub fn submitted_at(&self) -> SimTime {
        SimTime::from_micros(self.submitted_us)
    }

    /// Completion instant as [`SimTime`].
    pub fn completed_at(&self) -> SimTime {
        SimTime::from_micros(self.completed_us)
    }

    /// Control-plane seconds (CPU + DB + agent).
    pub fn control_s(&self) -> f64 {
        self.cpu_s + self.db_s + self.agent_s
    }
}

/// An in-memory operation trace with JSONL persistence.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    records: Vec<TraceRecord>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// Appends a record built from a task report.
    pub fn push_task(&mut self, report: &TaskReport) {
        self.push(TraceRecord::from_task(report));
    }

    /// The records, in insertion (completion) order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Writes the log as JSON Lines.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O errors.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for r in &self.records {
            serde_json::to_writer(&mut w, r)?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Reads a log from JSON Lines (blank lines ignored).
    ///
    /// # Errors
    ///
    /// Propagates parse and I/O errors.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<Self> {
        let mut log = TraceLog::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let record: TraceRecord = serde_json::from_str(&line)?;
            log.push(record);
        }
        Ok(log)
    }
}

impl Extend<TraceRecord> for TraceLog {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

impl FromIterator<TraceRecord> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        TraceLog {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: &str, submitted_s: u64) -> TraceRecord {
        TraceRecord {
            submitted_us: submitted_s * 1_000_000,
            completed_us: submitted_s * 1_000_000 + 5_000_000,
            kind: kind.to_string().into(),
            latency_s: 5.0,
            cpu_s: 0.1,
            db_s: 0.2,
            agent_s: 2.0,
            data_s: 0.0,
            queue_s: 0.0,
            admission_s: 0.0,
            success: true,
            outcome: Outcome::Success,
            produced_vm: None,
            target_vm: None,
        }
    }

    #[test]
    fn jsonl_round_trip() {
        let mut log = TraceLog::new();
        log.push(record("clone-linked", 0));
        log.push(record("power-on", 10));
        let mut failed = record("clone-full", 20);
        failed.success = false;
        failed.outcome = Outcome::Failed {
            reason: "datastore 3 unavailable".into(),
        };
        log.push(failed);
        let mut aborted = record("relocate-vm", 30);
        aborted.success = false;
        aborted.outcome = Outcome::Aborted;
        log.push(aborted);
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        assert_eq!(buf.iter().filter(|b| **b == b'\n').count(), 4);
        let back = TraceLog::read_jsonl(&buf[..]).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn old_jsonl_without_outcome_still_replays() {
        // A line as written before the outcome field existed.
        let line = serde_json::to_string(&record("clone-linked", 0))
            .unwrap()
            .replace("\"outcome\":\"Success\",", "");
        assert!(!line.contains("outcome"));
        let log = TraceLog::read_jsonl(line.as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.records()[0].outcome, Outcome::Success);
    }

    #[test]
    fn read_skips_blank_lines() {
        let text = format!(
            "{}\n\n{}\n",
            serde_json::to_string(&record("a", 0)).unwrap(),
            serde_json::to_string(&record("b", 1)).unwrap()
        );
        let log = TraceLog::read_jsonl(text.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn control_split_helper() {
        let r = record("x", 0);
        assert!((r.control_s() - 2.3).abs() < 1e-12);
        assert_eq!(r.submitted_at(), SimTime::ZERO);
    }

    #[test]
    fn collect_and_extend() {
        let log: TraceLog = (0..3).map(|i| record("k", i)).collect();
        assert_eq!(log.len(), 3);
        let mut log2 = TraceLog::new();
        log2.extend(log.records().to_vec());
        assert_eq!(log2.len(), 3);
    }
}
