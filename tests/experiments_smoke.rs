//! Smoke and work gate: every registered experiment runs at
//! `ExpOptions::quick()`, emits well-formed, non-empty tables, and makes the
//! DES kernel process exactly the number of events [`EVENTS`] records for
//! it. (Shape assertions per experiment live next to each experiment's
//! implementation.)
//!
//! Event counts are deterministic for a seed at every `--jobs` setting,
//! so the gate is exact: any change in the work the kernel does fails it,
//! with no noise and no tolerance. It says nothing about how long that
//! work takes; wall time is measured by cpbench (`BENCHMARK.json`).
//!
//! `cpsim_des::global_events_processed()` is one process-wide counter, and
//! libtest runs the tests of a file as threads of one process. Every test
//! here therefore simulates only inside [`run_one`], which holds the
//! [`OBSERVED`] lock across its run so each delta counts exactly one
//! experiment. A test that simulated outside that lock would pollute the
//! others' counts; put such tests in another file (another process).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use cpsim::experiments::{all, ExpOptions};

/// Kernel events each experiment processes at `ExpOptions::quick()`, in
/// `all()` order. A change that deliberately alters the work a model does
/// moves these: the failing test prints the replacement table to paste.
const EVENTS: [(&str, u64); 17] = [
    ("t1", 20547),
    ("f1", 20547),
    ("f2", 37086),
    ("f3", 675),
    ("f4", 71589),
    ("f5", 117852),
    ("f6", 37086),
    ("f7", 3517),
    ("f8", 2614),
    ("f9", 172773),
    ("t2", 675),
    ("f10", 284439),
    ("f11", 45),
    ("f12", 7229),
    ("t3", 4112),
    ("f13", 138743),
    ("f14", 1296),
];

/// Event counts measured so far in this process, by experiment id. Its lock
/// also serializes the runs (see the module docs).
static OBSERVED: Mutex<BTreeMap<&str, u64>> = Mutex::new(BTreeMap::new());

fn run_one(id: &'static str) {
    let exp = all()
        .into_iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("experiment {id} not registered"));
    let (tables, observed) = {
        let mut observed = OBSERVED.lock().unwrap_or_else(PoisonError::into_inner);
        let before = cpsim_des::global_events_processed();
        let tables = (exp.run)(&ExpOptions::quick());
        observed.insert(id, cpsim_des::global_events_processed() - before);
        (tables, observed.clone())
    };
    let events = observed[id];

    assert!(!tables.is_empty(), "{id} produced no tables");
    for t in &tables {
        assert!(!t.is_empty(), "{id}: table '{}' has no rows", t.title());
        for row in t.rows() {
            assert_eq!(
                row.len(),
                t.columns().len(),
                "{id}: ragged row in '{}'",
                t.title()
            );
        }
        // CSV renders without panicking and contains the header.
        let csv = t.to_csv();
        assert!(csv.lines().count() >= 2);
        // Markdown renders.
        assert!(t.to_string().contains(t.title()));
    }

    let expected = EVENTS
        .iter()
        .find(|(e, _)| *e == id)
        .map(|&(_, n)| n)
        .unwrap_or_else(|| panic!("{id} has no row in EVENTS"));
    if events != expected {
        // Every changed experiment's test fails. Each prints the table with
        // the counts measured so far; the last one to fail prints it whole.
        let table: String = EVENTS
            .iter()
            .map(|&(e, old)| {
                let n = observed.get(e).copied().unwrap_or(old);
                format!("    (\"{e}\", {n}),\n")
            })
            .collect();
        panic!("{id}: {events} kernel events, EVENTS records {expected}; replacement:\n{table}");
    }
}

/// One test per experiment, so a failure names it; `TESTED` lists the ids
/// they run, in order.
macro_rules! smoke_tests {
    ($($name:ident => $id:literal,)*) => {
        $(
            #[test]
            fn $name() {
                run_one($id);
            }
        )*
        const TESTED: &[&str] = &[$($id),*];
    };
}

smoke_tests! {
    t1_runs => "t1",
    f1_runs => "f1",
    f2_runs => "f2",
    f3_runs => "f3",
    f4_runs => "f4",
    f5_runs => "f5",
    f6_runs => "f6",
    f7_runs => "f7",
    f8_runs => "f8",
    f9_runs => "f9",
    t2_runs => "t2",
    f10_runs => "f10",
    f11_runs => "f11",
    f12_runs => "f12",
    t3_runs => "t3",
    f13_runs => "f13",
    f14_runs => "f14",
}

/// A new experiment must add a row to [`EVENTS`] and a smoke test.
#[test]
fn every_experiment_has_an_event_row_and_a_test() {
    let registered: Vec<&str> = all().iter().map(|e| e.id).collect();
    let rows: Vec<&str> = EVENTS.iter().map(|&(id, _)| id).collect();
    assert_eq!(
        rows, registered,
        "EVENTS ids must equal all() ids, in order"
    );
    assert_eq!(TESTED, registered, "smoke_tests! must run every experiment");
}
