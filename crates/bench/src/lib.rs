// cpsim-lint: profile(harness): the bench harness times experiments with the wall clock and keeps scratch maps; nothing here feeds simulated time or CSV ordering
//! Harness support for the `repro` binary: argument parsing and table
//! output (stdout markdown + optional CSV directory).

use std::io::Write as _;
use std::path::PathBuf;

use cpsim::experiments::{all, ExpOptions, Experiment};
use cpsim_metrics::Table;

/// Parsed command line of the `repro` binary.
#[derive(Debug, Default)]
pub struct Cli {
    /// Experiment ids to run; empty = all.
    pub ids: Vec<String>,
    /// Quick mode.
    pub quick: bool,
    /// Master seed.
    pub seed: Option<u64>,
    /// Worker threads per sweep (`None` = one per core; `1` = sequential).
    pub jobs: Option<usize>,
    /// Directory to write CSV copies into.
    pub csv_dir: Option<PathBuf>,
    /// Print help and exit.
    pub help: bool,
    /// `list` subcommand: print the experiment catalog and exit.
    pub list: bool,
}

impl Cli {
    /// Parses arguments (everything after argv\[0\]).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "list" => cli.list = true,
                "--quick" | "-q" => cli.quick = true,
                "--help" | "-h" => cli.help = true,
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    cli.seed = Some(v.parse().map_err(|_| format!("bad seed: {v}"))?);
                }
                "--jobs" | "-j" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    let n: usize = v.parse().map_err(|_| format!("bad job count: {v}"))?;
                    if n == 0 {
                        return Err("--jobs must be >= 1 (omit the flag for one per core)".into());
                    }
                    cli.jobs = Some(n);
                }
                "--csv" => {
                    let v = it.next().ok_or("--csv needs a directory")?;
                    cli.csv_dir = Some(PathBuf::from(v));
                }
                s if s.starts_with('-') => return Err(format!("unknown flag: {s}")),
                id => cli.ids.push(id.to_string()),
            }
        }
        Ok(cli)
    }

    /// The experiment options implied by the flags.
    pub fn options(&self) -> ExpOptions {
        let mut opts = if self.quick {
            ExpOptions::quick()
        } else {
            ExpOptions::default()
        };
        if let Some(seed) = self.seed {
            opts.seed = seed;
        }
        if let Some(jobs) = self.jobs {
            opts.jobs = jobs;
        }
        opts
    }

    /// Resolves the experiments to run.
    ///
    /// # Errors
    ///
    /// Returns a message naming any unknown id.
    pub fn select(&self) -> Result<Vec<Experiment>, String> {
        let registry = all();
        if self.ids.is_empty() {
            return Ok(registry);
        }
        let mut picked = Vec::new();
        for id in &self.ids {
            let found = all()
                .into_iter()
                .find(|e| e.id == id.trim_start_matches("repro-"))
                .ok_or_else(|| {
                    let known: Vec<&str> = registry.iter().map(|e| e.id).collect();
                    format!("unknown experiment '{id}'; known: {}", known.join(", "))
                })?;
            picked.push(found);
        }
        Ok(picked)
    }
}

/// Usage text.
pub fn usage() -> String {
    format!(
        "repro — regenerate the paper's tables and figures\n\n\
         USAGE: repro [IDS...] [--quick] [--seed N] [--jobs N] [--csv DIR]\n\
         \x20      repro list\n\n\
         --jobs N     worker threads per sweep (default: one per core;\n\
         \x20            1 = sequential; tables are identical either way)\n\n\
         Experiments (default: all):\n{}\n",
        listing()
    )
}

/// One line per experiment: id, title and sweep width, in paper order.
pub fn listing() -> String {
    all()
        .iter()
        .map(|e| {
            let marker = if e.federated { "  [federated]" } else { "" };
            format!(
                "  {:4} {}  [{} quick / {} full sweep points]{}",
                e.id, e.title, e.sweep_quick, e.sweep_full, marker
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Resets the process's peak resident set, so that the next
/// [`peak_rss_mib`] read covers only what ran since. Linux only: writes
/// `5` to `/proc/self/clear_refs`. Returns whether the reset took.
fn reset_peak_rss() -> bool {
    cfg!(target_os = "linux") && std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set since the last reset, MiB: `VmHWM` from
/// `/proc/self/status`. `None` where that file does not exist.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs the selected experiments, printing tables and per-experiment
/// timings and peak memory, optionally saving CSVs.
///
/// # Errors
///
/// Propagates CSV I/O failures.
pub fn run(cli: &Cli, out: &mut dyn std::io::Write) -> Result<(), String> {
    let opts = cli.options();
    let jobs = opts.effective_jobs();
    if let Some(dir) = &cli.csv_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    for exp in cli.select()? {
        writeln!(out, "==> [{}] {}", exp.id, exp.title).map_err(|e| e.to_string())?;
        let peak_reset = reset_peak_rss();
        let events_before = cpsim_des::global_events_processed();
        let started = std::time::Instant::now();
        let tables: Vec<Table> = (exp.run)(&opts);
        let wall = started.elapsed();
        let events = cpsim_des::global_events_processed() - events_before;
        let peak = match peak_rss_mib() {
            Some(mib) if peak_reset => format!("{mib:.1} MiB peak, "),
            _ => String::new(),
        };
        for (i, table) in tables.iter().enumerate() {
            writeln!(out, "\n{table}").map_err(|e| e.to_string())?;
            if let Some(dir) = &cli.csv_dir {
                let path = dir.join(format!("{}_{}.csv", exp.id, i));
                let mut f = std::fs::File::create(&path)
                    .map_err(|e| format!("creating {}: {e}", path.display()))?;
                f.write_all(table.to_csv().as_bytes())
                    .map_err(|e| e.to_string())?;
            }
        }
        let secs = wall.as_secs_f64();
        let events_per_sec = if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        };
        writeln!(
            out,
            "    ({secs:.1}s wall, {peak}{events} events, {events_per_sec:.0} events/s, jobs={jobs})"
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let cli = Cli::parse(["t1", "--quick", "--seed", "9", "--csv", "/tmp/x"].map(String::from))
            .unwrap();
        assert_eq!(cli.ids, vec!["t1"]);
        assert!(cli.quick);
        assert_eq!(cli.seed, Some(9));
        assert_eq!(cli.csv_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert_eq!(cli.options().seed, 9);
        assert!(cli.options().quick);
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(Cli::parse(["--bogus".to_string()]).is_err());
        assert!(Cli::parse(["--seed".to_string()]).is_err());
        assert!(Cli::parse(["--seed".to_string(), "x".to_string()]).is_err());
        // Removed timing-file and gate flags are rejected, never ignored.
        for flag in ["--bench", "--no-bench", "--compare", "--baseline"] {
            let err = Cli::parse([flag, "x"].map(String::from)).unwrap_err();
            assert_eq!(err, format!("unknown flag: {flag}"));
        }
    }

    #[test]
    fn jobs_flag_parses_and_rejects_zero() {
        let cli = Cli::parse(["--jobs", "4"].map(String::from)).unwrap();
        assert_eq!(cli.jobs, Some(4));
        assert_eq!(cli.options().jobs, 4);
        assert_eq!(cli.options().effective_jobs(), 4);
        // Default: auto (one worker per core).
        let cli = Cli::parse(std::iter::empty::<String>()).unwrap();
        assert_eq!(cli.jobs, None);
        assert_eq!(cli.options().jobs, 0);
        assert!(cli.options().effective_jobs() >= 1);
        // 0 and garbage are rejected.
        assert!(Cli::parse(["--jobs", "0"].map(String::from)).is_err());
        assert!(Cli::parse(["--jobs", "many"].map(String::from)).is_err());
        assert!(Cli::parse(["--jobs".to_string()]).is_err());
    }

    #[test]
    fn run_prints_timing_line_and_writes_no_file() {
        let entries = || {
            let mut names: Vec<_> = std::fs::read_dir(".")
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = entries();
        let cli = Cli {
            ids: vec!["t2".to_string()],
            quick: true,
            jobs: Some(1),
            ..Cli::default()
        };
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("s wall, "), "timing line printed: {text}");
        assert!(text.contains(" events/s, jobs=1)"), "{text}");
        if cfg!(target_os = "linux") && reset_peak_rss() {
            assert!(text.contains(" MiB peak, "), "peak memory printed: {text}");
        }
        assert_eq!(entries(), before, "run without --csv wrote into the cwd");
    }

    #[test]
    fn select_all_by_default() {
        let cli = Cli::parse(std::iter::empty::<String>()).unwrap();
        assert_eq!(cli.select().unwrap().len(), 17);
    }

    #[test]
    fn list_subcommand_parses_and_lists_everything() {
        let cli = Cli::parse(["list".to_string()]).unwrap();
        assert!(cli.list);
        let l = listing();
        for e in cpsim::experiments::all() {
            assert!(l.contains(e.id) && l.contains(e.title));
            assert!(
                l.contains(&format!(
                    "[{} quick / {} full sweep points]",
                    e.sweep_quick, e.sweep_full
                )),
                "{} sweep sizes missing from listing",
                e.id
            );
        }
    }

    #[test]
    fn federated_experiments_are_marked_in_the_listing() {
        let l = listing();
        for e in cpsim::experiments::all() {
            let line = l
                .lines()
                .find(|line| line.contains(e.id) && line.contains(e.title))
                .unwrap_or_else(|| panic!("{} missing from listing", e.id));
            assert_eq!(
                line.contains("[federated]"),
                e.federated,
                "{} federated marker mismatch",
                e.id
            );
        }
        assert!(listing().contains("[federated]"));
    }

    #[test]
    fn unknown_subcommand_fails_selection() {
        let cli = Cli::parse(["frobnicate".to_string()]).unwrap();
        assert!(!cli.list);
        assert!(cli.select().is_err());
    }

    #[test]
    fn select_by_id_and_prefix_form() {
        let cli = Cli::parse(["repro-f4".to_string()]).unwrap();
        let picked = cli.select().unwrap();
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].id, "f4");
        let cli = Cli::parse(["nope".to_string()]).unwrap();
        assert!(cli.select().is_err());
    }

    #[test]
    fn usage_mentions_every_id() {
        let u = usage();
        for e in cpsim::experiments::all() {
            assert!(u.contains(e.id));
        }
    }
}
