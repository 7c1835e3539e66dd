//! Determinism of the sweep executor: for every experiment, `--jobs N`
//! (sweep points on threads) must produce byte-identical tables to
//! `--jobs 1`. Each sweep point derives all randomness from its own seed
//! and inputs, and the sweep executor merges results in point order, so
//! thread scheduling can only change wall-clock — never output.

use cpsim::experiments::{all, ExpOptions};

/// Renders every table of one experiment to one string (markdown + CSV,
/// both of which `repro` emits).
fn render(id: &str, opts: &ExpOptions) -> String {
    let exp = all()
        .into_iter()
        .find(|e| e.id == id)
        .unwrap_or_else(|| panic!("experiment {id} not registered"));
    (exp.run)(opts)
        .iter()
        .map(|t| format!("{t}\n{}", t.to_csv()))
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_identical(id: &str, seed: u64) {
    let base = ExpOptions {
        seed,
        ..ExpOptions::quick()
    };
    let sequential = render(id, &base.with_jobs(1));
    for jobs in [2, 4] {
        let parallel = render(id, &base.with_jobs(jobs));
        assert_eq!(
            sequential, parallel,
            "{id} output diverged between --jobs 1 and --jobs {jobs} (seed {seed})"
        );
    }
}

/// The full catalog is byte-identical at every job count. One test per
/// experiment so a failure names the culprit.
macro_rules! identical {
    ($($name:ident => $id:literal),+ $(,)?) => {
        $(#[test]
        fn $name() {
            assert_identical($id, 2013);
        })+
    };
}

identical!(
    t1_jobs_identical => "t1",
    f1_jobs_identical => "f1",
    f2_jobs_identical => "f2",
    f3_jobs_identical => "f3",
    f4_jobs_identical => "f4",
    f5_jobs_identical => "f5",
    f6_jobs_identical => "f6",
    f7_jobs_identical => "f7",
    f8_jobs_identical => "f8",
    f9_jobs_identical => "f9",
    t2_jobs_identical => "t2",
    f10_jobs_identical => "f10",
    f11_jobs_identical => "f11",
    f12_jobs_identical => "f12",
    t3_jobs_identical => "t3",
    f13_jobs_identical => "f13",
    f14_jobs_identical => "f14",
);

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 4, // each case renders three experiments three times
            .. ProptestConfig::default()
        })]

        /// Seeds other than the default are just as deterministic: the
        /// heavy sweep experiments agree across job counts for arbitrary
        /// seeds.
        #[test]
        fn sweeps_identical_across_seeds(seed in 1u64..1_000_000) {
            for id in ["f5", "f9", "f12"] {
                assert_identical(id, seed);
            }
        }
    }
}
