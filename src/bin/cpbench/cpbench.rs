// cpsim-lint: profile(harness): benchmark binary; drives the experiment suite and times it with the wall clock
//! `cpbench`: the calibrated benchmark of the cpsim experiment suite.
//!
//! It times four workloads of the public experiment runners end to end
//! with tracing off, checks every table they produce, and separately
//! attributes time to the simulator's layers with traced probes. See
//! `README.md` next to this file for the workloads, metrics and
//! calibration.

mod calib;
mod probes;
mod report;
mod shapes;
mod traced;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use calib::Calibrator;
use cpsim::experiments::{self, ExpOptions};
use report::{median, Metric, Series};
use workloads::{Digest, Workload, GOLDEN_SEED, WORKLOADS};

const USAGE: &str = "\
usage: cpbench [--seed N] [--rounds N] [--out FILE]
       cpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       cpbench --check
       cpbench compare BASE.json NEW.json
       cpbench --print-golden

With no mode, runs every workload round-robin for --rounds rounds
(default 4), then the traced probes; prints one line per metric
(workload metric median q1 q3 n unit) and writes the raw samples to
--out (default cpbench.json). --workload runs one workload for about
--seconds seconds (default 25) and prints its end-to-end metrics, or
with --trace 1 its per-layer metrics, as a JSON object on the last
line. --check is the quick self-check. compare diffs two --out files
against the bounds in BENCHMARK.json. Exits non-zero on any failure.";

/// End-to-end metric names, in report order.
const END_TO_END: [(&str, &str); 4] = [
    ("time_s", "s"),
    ("time_par_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Probes whose metrics the traced phase reports, by workload name.
const PLANE_PROBES: [&str; 3] = ["characterize", "saturate", "background"];

enum Mode {
    Full {
        rounds: usize,
        out: String,
    },
    One {
        workload: &'static Workload,
        seconds: f64,
    },
    Traced(&'static Workload),
    WarmUpChild(&'static Workload),
    SetupChild(&'static Workload),
    Check,
    Compare(String, String),
    PrintGolden,
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })
}

fn parse(args: Vec<String>) -> Result<(Mode, u64), String> {
    let mut seed = GOLDEN_SEED;
    let (mut rounds, mut out) = (4usize, "cpbench.json".to_string());
    let (mut one, mut seconds, mut trace) = (None, 25.0, false);
    let mut mode = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an unsigned integer")?
            }
            "--rounds" => {
                rounds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--rounds needs a positive integer")?
            }
            "--out" => out = it.next().ok_or("--out needs a file")?,
            "--workload" => one = Some(workload(&it.next().ok_or("--workload needs a name")?)?),
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|x: &f64| x.is_finite() && *x >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?
            }
            "--trace" => {
                trace = match it.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--child" => {
                let kind = it.next();
                let w = workload(&it.next().ok_or("--child needs a kind and a workload")?)?;
                mode = Some(match kind.as_deref() {
                    Some("warm-up") => Mode::WarmUpChild(w),
                    Some("setup") => Mode::SetupChild(w),
                    _ => return Err("--child needs warm-up or setup".into()),
                });
            }
            "--check" => mode = Some(Mode::Check),
            "--print-golden" => mode = Some(Mode::PrintGolden),
            "compare" => {
                let base = it.next().ok_or("compare needs BASE.json NEW.json")?;
                let new = it.next().ok_or("compare needs BASE.json NEW.json")?;
                mode = Some(Mode::Compare(base, new));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = mode.unwrap_or(match one {
        Some(workload) if trace => Mode::Traced(workload),
        Some(workload) => Mode::One { workload, seconds },
        None => Mode::Full { rounds, out },
    });
    Ok((mode, seed))
}

fn main() -> ExitCode {
    let (mode, seed) = match parse(std::env::args().skip(1).collect()) {
        Ok(p) => p,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("cpbench: {e}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Full { rounds, out } => full(seed, rounds, &out),
        Mode::One { workload, seconds } => one(workload, seed, seconds),
        Mode::Traced(workload) => traced_one(workload, seed),
        Mode::WarmUpChild(w) => warm_up_child(w),
        Mode::SetupChild(w) => setup_child(w, seed),
        Mode::Check => check(),
        Mode::Compare(base, new) => compare(&base, &new),
        Mode::PrintGolden => {
            print_golden();
            Ok(true)
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cpbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn nproc() -> usize {
    cpsim::exec::available_jobs()
}

fn options(seed: u64, quick: bool, jobs: usize) -> ExpOptions {
    ExpOptions {
        seed,
        quick,
        jobs,
        intra_jobs: 1,
    }
}

/// Failure counts over experiment runs and probe simulations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn digests(&mut self, digests: &[Digest], reference: &[(String, u64)]) {
        self.attempted += digests.len() as u64;
        self.failed += workloads::failures(digests, reference);
    }

    /// Experiments in `reference` whose digest is not the golden one.
    fn golden(&mut self, reference: &[(String, u64)], scale: &str) {
        let golden = workloads::golden(scale);
        for (id, hash) in reference {
            let want = golden.iter().find(|(g, _)| g == id).map(|(_, h)| *h);
            if want != Some(*hash) {
                eprintln!(
                    "cpbench: {scale} {id} digest {hash:016x} is not the golden {want:016x?}"
                );
                self.failed += 1;
            }
        }
    }
}

/// The first digest of each experiment that ran without panicking.
fn reference_of(digests: &[Digest]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (id, d) in digests {
        if let Some(h) = d {
            if !out.iter().any(|(r, _)| r == id) {
                out.push((id.to_string(), *h));
            }
        }
    }
    out
}

/// The untimed warm-up pass: one pass of `w` at `jobs = 1` and the
/// golden seed, checked against the golden digests. It must be the first
/// work its process does, so that the process's `VmHWM` after it is the
/// pass's own peak memory. Peak memory is taken at a fixed seed because
/// it moves with the seed by up to 2× (how much freed memory the
/// allocator keeps between experiments depends on their trace sizes).
fn warm_up(w: &Workload, tally: &mut Tally) -> Result<f64, String> {
    let s = workloads::run_sample(w, &options(GOLDEN_SEED, false, 1), 1, false);
    let reference = reference_of(&s.digests);
    tally.digests(&s.digests, &reference);
    tally.golden(&reference, "full");
    Ok(vmhwm_kb()? as f64 / 1024.0)
}

/// Runs this executable with `args` in a child process, waits for it,
/// and returns its standard output.
fn spawn_child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting `cpbench {}`: {e}", args.join(" ")))?;
    if !out.status.success() {
        return Err(format!(
            "`cpbench {}` failed: {}",
            args.join(" "),
            out.status
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The numbers a child printed.
fn numbers(text: &str) -> Vec<f64> {
    text.split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect()
}

/// [`warm_up`] in a child process, for runs that time several workloads
/// in one process.
fn warm_up_in_child(w: &Workload, tally: &mut Tally) -> Result<f64, String> {
    match numbers(&spawn_child(&["--child", "warm-up", w.name])?).as_slice() {
        &[attempted, failed, peak_rss_mb] => {
            tally.attempted += attempted as u64;
            tally.failed += failed as u64;
            Ok(peak_rss_mb)
        }
        _ => Err(format!("the warm-up of {} printed no result", w.name)),
    }
}

fn warm_up_child(w: &Workload) -> Result<bool, String> {
    let mut tally = Tally::default();
    let peak_rss_mb = warm_up(w, &mut tally)?;
    println!("{} {} {peak_rss_mb}", tally.attempted, tally.failed);
    Ok(true)
}

/// Set-up measurements per child process.
const SETUPS_PER_CHILD: usize = 5;

/// Set-up child processes per round. Set-up time repeats within 2% in one
/// process but differs by up to 40% between processes (memory layout),
/// so every round pools fresh processes.
const SETUP_CHILDREN: usize = 2;

fn setup_child(w: &Workload, seed: u64) -> Result<bool, String> {
    let mut cal = Calibrator::new(1);
    let raw: Vec<f64> = (0..SETUPS_PER_CHILD)
        .map(|_| workloads::measure_setup(w, seed))
        .collect();
    let f = cal.factor();
    for x in raw {
        println!("{}", x * f);
    }
    Ok(true)
}

/// Peak resident set of this process, KiB (Linux `VmHWM`).
fn vmhwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// Calibrated samples of one workload, and the digests every sample must
/// reproduce (taken from its first sample).
#[derive(Default)]
struct Samples {
    time: Vec<f64>,
    time_par: Vec<f64>,
    setup: Vec<f64>,
    wall_raw: Vec<f64>,
    calib: Vec<f64>,
    reference: Option<Vec<(String, u64)>>,
}

impl Samples {
    /// Records a sample at `jobs = 1` and one at `jobs = nproc`, checking
    /// both against the reference digests.
    fn push(&mut self, seq: &workloads::Sample, par: &workloads::Sample, tally: &mut Tally) {
        let reference = self
            .reference
            .get_or_insert_with(|| reference_of(&seq.digests));
        tally.digests(&seq.digests, reference);
        tally.digests(&par.digests, reference);
        self.time.push(seq.calibrated_s);
        self.time_par.push(par.calibrated_s);
        self.wall_raw.push(seq.wall_s);
        self.calib.extend(&seq.calib_runs);
    }
}

/// One round of `w`: set-up in fresh processes, then a sample at
/// `jobs = 1` and one at `jobs = nproc`.
fn round(w: &Workload, seed: u64, s: &mut Samples, tally: &mut Tally) -> Result<(), String> {
    let seed_arg = seed.to_string();
    for _ in 0..SETUP_CHILDREN {
        let out = spawn_child(&["--child", "setup", w.name, "--seed", &seed_arg])?;
        s.setup.extend(numbers(&out));
    }
    let seq = workloads::run_sample(w, &options(seed, false, 1), w.passes, true);
    let par = workloads::run_sample(w, &options(seed, false, nproc()), w.passes, true);
    s.push(&seq, &par, tally);
    Ok(())
}

fn end_to_end(s: &Samples, peak_rss_mb: f64) -> Vec<(Metric, Vec<f64>)> {
    let samples = [
        s.time.clone(),
        s.time_par.clone(),
        s.setup.clone(),
        vec![peak_rss_mb],
    ];
    END_TO_END
        .iter()
        .zip(samples)
        .map(|(&(name, unit), v)| (Metric::new(name, unit, median(&v)), v))
        .collect()
}

/// `time_s / time_par_s` and the run's raw timings.
fn exec_metrics(time_s: f64, time_par_s: f64, wall_raw_s: f64, calib_s: f64) -> Vec<Metric> {
    let speedup = time_s / time_par_s;
    vec![
        Metric::new("exec.speedup", "ratio", speedup),
        Metric::new("exec.efficiency", "ratio", speedup / nproc() as f64),
        Metric::new("harness.wall_raw_s", "s", wall_raw_s),
        Metric::new("harness.calib_s", "s", calib_s),
    ]
}

/// Every probe's per-layer metrics, named `<probe>.<metric>`.
fn probe_metrics(seed: u64, quick: bool, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    for p in PLANE_PROBES {
        eprintln!("cpbench: probe {p}");
        let r = probes::run_plane_probe(p, seed, quick);
        for (a, b) in &r.mismatches {
            eprintln!("cpbench: {p} traced run {a:?} differs from untraced {b:?}");
        }
        tally.attempted += r.runs;
        tally.failed += r.mismatches.len() as u64;
        out.extend(r.metrics(p).into_iter().map(|m| prefixed(p, m)));
    }
    eprintln!("cpbench: probe federate");
    let f = probes::run_fed_probe(seed, quick, nproc());
    if f.mismatches > 0 {
        eprintln!("cpbench: federate results differ between shard executor counts");
    }
    tally.attempted += f.runs;
    tally.failed += f.mismatches;
    out.extend(f.metrics().into_iter().map(|m| prefixed("federate", m)));
    out
}

fn prefixed(probe: &str, m: Metric) -> Metric {
    Metric {
        name: format!("{probe}.{}", m.name),
        ..m
    }
}

/// The per-layer metric names a traced run reports, in order.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = exec_metrics(1.0, 1.0, 1.0, 1.0)
        .into_iter()
        .map(|m| m.name)
        .collect();
    for p in PLANE_PROBES {
        let probe = probes::PlaneProbe::default();
        names.extend(probe.metrics(p).into_iter().map(|m| prefixed(p, m).name));
    }
    let fed = probes::FedProbe::default();
    names.extend(
        fed.metrics()
            .into_iter()
            .map(|m| prefixed("federate", m).name),
    );
    names
}

/// Checks the names in `BENCHMARK.json` against the ones printed.
fn names_match() -> Result<(), String> {
    let declared = report::declared()?;
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if declared.workloads != ours {
        let theirs = &declared.workloads;
        return Err(format!("BENCHMARK.json workloads {theirs:?} != {ours:?}"));
    }
    let e2e: Vec<&str> = declared.bounds.iter().map(|b| b.name.as_str()).collect();
    let ours: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    if e2e != ours {
        return Err(format!("BENCHMARK.json end_to_end {e2e:?} != {ours:?}"));
    }
    if declared.per_layer != per_layer_names() {
        return Err("BENCHMARK.json per_layer names differ from the traced run's".into());
    }
    Ok(())
}

fn print_result(tally: &Tally, metrics: &[Metric]) -> bool {
    let correct = tally.failed == 0;
    println!(
        "{}",
        report::result_json(correct, tally.attempted.max(1), tally.failed, metrics)
    );
    correct
}

/// One workload, tracing off, for about `seconds` of measured rounds.
fn one(w: &Workload, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut tally = Tally::default();
    let peak_rss_mb = warm_up(w, &mut tally)?;
    let mut s = Samples::default();
    let start = Instant::now();
    loop {
        let t = Instant::now();
        round(w, seed, &mut s, &mut tally)?;
        // Stop before a round that would run past the time budget.
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    let rows = end_to_end(&s, peak_rss_mb);
    let series: Vec<Series> = rows
        .iter()
        .map(|(m, v)| Series {
            workload: w.name.into(),
            metric: m.name.clone(),
            unit: m.unit.into(),
            samples: v.clone(),
        })
        .collect();
    print!("{}", report::render_lines(&series));
    let metrics: Vec<Metric> = rows.into_iter().map(|(m, _)| m).collect();
    Ok(print_result(&tally, &metrics))
}

/// The traced run: one sample of `w` at each job count for the
/// executor metrics, then every probe.
fn traced_one(w: &Workload, seed: u64) -> Result<bool, String> {
    let mut tally = Tally::default();
    let seq = workloads::run_sample(w, &options(seed, false, 1), w.passes, true);
    let par = workloads::run_sample(w, &options(seed, false, nproc()), w.passes, true);
    let mut s = Samples::default();
    s.push(&seq, &par, &mut tally);
    if seed == GOLDEN_SEED {
        tally.golden(s.reference.as_deref().unwrap_or_default(), "full");
    }
    let mut metrics = exec_metrics(
        seq.calibrated_s,
        par.calibrated_s,
        seq.wall_s,
        median(&s.calib),
    );
    metrics.extend(probe_metrics(seed, false, &mut tally));
    Ok(print_result(&tally, &metrics))
}

/// Every workload round-robin, then the traced probes.
fn full(seed: u64, rounds: usize, out: &str) -> Result<bool, String> {
    let mut tally = Tally::default();
    let mut peak_rss_mb = Vec::new();
    for w in &WORKLOADS {
        eprintln!("cpbench: warm-up {}", w.name);
        peak_rss_mb.push(warm_up_in_child(w, &mut tally)?);
    }
    let mut samples: Vec<Samples> = WORKLOADS.iter().map(|_| Samples::default()).collect();
    for r in 0..rounds {
        for (w, s) in WORKLOADS.iter().zip(&mut samples) {
            eprintln!("cpbench: round {}/{rounds} {}", r + 1, w.name);
            round(w, seed, s, &mut tally)?;
        }
    }
    let mut series = Vec::new();
    let mut push = |workload: &str, m: &Metric, samples: Vec<f64>| {
        series.push(Series {
            workload: workload.into(),
            metric: m.name.clone(),
            unit: m.unit.into(),
            samples,
        });
    };
    for ((w, s), &rss) in WORKLOADS.iter().zip(&samples).zip(&peak_rss_mb) {
        for (m, v) in end_to_end(s, rss) {
            push(w.name, &m, v);
        }
    }
    for (w, s) in WORKLOADS.iter().zip(&samples) {
        let exec = exec_metrics(median(&s.time), median(&s.time_par), 0.0, 0.0);
        for m in &exec[..2] {
            push(w.name, m, vec![m.value]);
        }
        push(w.name, &exec[2], s.wall_raw.clone());
        push(w.name, &exec[3], s.calib.clone());
    }
    for m in probe_metrics(seed, false, &mut tally) {
        let (probe, name) = m.name.split_once('.').expect("probe metrics are prefixed");
        push(probe, &Metric::new(name, m.unit, m.value), vec![m.value]);
    }
    print!("{}", report::render_lines(&series));
    println!("failures: {} of {} runs", tally.failed, tally.attempted);
    std::fs::write(out, report::samples_json(seed, nproc(), &series))
        .map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("cpbench: raw samples written to {out}");
    Ok(tally.failed == 0)
}

/// The quick self-check: digests at both job counts against the golden
/// quick digests, traced/untraced agreement on quick probes, and the
/// names in `BENCHMARK.json`.
fn check() -> Result<bool, String> {
    let started = Instant::now();
    let mut tally = Tally::default();
    for w in &WORKLOADS {
        let seq = workloads::run_sample(w, &options(GOLDEN_SEED, true, 1), 1, false);
        let par = workloads::run_sample(w, &options(GOLDEN_SEED, true, nproc()), 1, false);
        let reference = reference_of(&seq.digests);
        tally.digests(&seq.digests, &reference);
        tally.digests(&par.digests, &reference);
        tally.golden(&reference, "quick");
    }
    probe_metrics(GOLDEN_SEED, true, &mut tally);
    let names = names_match();
    if let Err(e) = &names {
        eprintln!("cpbench: {e}");
    }
    let ok = tally.failed == 0 && names.is_ok();
    println!(
        "check {}: {} of {} runs failed, names {}, {:.1} s",
        if ok { "passed" } else { "FAILED" },
        tally.failed,
        tally.attempted,
        if names.is_ok() { "match" } else { "differ" },
        started.elapsed().as_secs_f64()
    );
    Ok(ok)
}

fn compare(base: &str, new: &str) -> Result<bool, String> {
    let read = |p: &str| -> Result<Vec<Series>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        report::parse_samples(&text).map_err(|e| format!("{p}: {e}"))
    };
    let bounds = report::declared()?.bounds;
    let (table, regressed) = report::compare(&read(base)?, &read(new)?, &bounds);
    print!("{table}");
    Ok(!regressed)
}

/// Prints a fresh `golden.txt` body: every experiment's digest at seed
/// 2013, full and quick scale.
fn print_golden() {
    println!("# FNV-1a-64 of each experiment's tables at seed {GOLDEN_SEED}: scale id digest");
    for (scale, quick) in [("full", false), ("quick", true)] {
        for e in experiments::all() {
            let tables = (e.run)(&options(GOLDEN_SEED, quick, nproc()));
            println!("{scale} {} {:016x}", e.id, workloads::digest(&tables));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_golden(w: &Workload) {
        let s = workloads::run_sample(w, &options(GOLDEN_SEED, true, 1), 1, false);
        let mut tally = Tally::default();
        let reference = reference_of(&s.digests);
        tally.digests(&s.digests, &reference);
        tally.golden(&reference, "quick");
        assert_eq!(
            reference.len(),
            w.experiments.len(),
            "an experiment panicked"
        );
        assert_eq!(tally.failed, 0, "{} digests differ from golden.txt", w.name);
    }

    #[test]
    fn characterize_quick_digests_are_golden() {
        quick_golden(&WORKLOADS[0]);
    }

    #[test]
    fn saturate_quick_digests_are_golden() {
        quick_golden(&WORKLOADS[1]);
    }

    #[test]
    fn federate_quick_digests_are_golden() {
        quick_golden(&WORKLOADS[2]);
    }

    #[test]
    fn background_quick_digests_are_golden() {
        quick_golden(&WORKLOADS[3]);
    }

    #[test]
    fn workloads_cover_every_experiment_once() {
        let mut ids: Vec<&str> = WORKLOADS
            .iter()
            .flat_map(|w| w.experiments)
            .copied()
            .collect();
        ids.sort_unstable();
        let mut all: Vec<&str> = experiments::all().iter().map(|e| e.id).collect();
        all.sort_unstable();
        assert_eq!(ids, all);
    }

    fn replica_matches(probe: &str) {
        let r = probes::run_plane_probe(probe, 7, true);
        assert!(r.runs > 0);
        assert!(r.mismatches.is_empty(), "{probe}: {:?}", r.mismatches);
        let metrics = r.metrics(probe);
        for m in &metrics {
            assert!(m.value.is_finite(), "{probe} {}", m.name);
            if m.unit == "s" {
                assert!(m.value > 0.0, "{probe} {} reads zero", m.name);
            }
        }
    }

    #[test]
    fn traced_characterize_probe_matches_cloudsim() {
        replica_matches("characterize");
    }

    #[test]
    fn traced_saturate_probe_matches_cloudsim() {
        replica_matches("saturate");
    }

    #[test]
    fn benchmark_json_names_match_the_printed_names() {
        names_match().unwrap();
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let (m, q1, q3) = report::quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((m, q1, q3), (5.5, 2.75, 8.25));
        assert_eq!(report::quartiles(&[2.0]), (2.0, 2.0, 2.0));
    }

    #[test]
    fn compare_verdicts() {
        let bound = report::Bound {
            name: "time_s".into(),
            lower_is_better: true,
            bound: 0.1,
        };
        let base = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(report::verdict(&base, &[1.05], &bound), "ok");
        assert_eq!(report::verdict(&base, &[1.2], &bound), "regressed");
        assert_eq!(
            report::verdict(&[1.0, 2.0, 3.0], &[1.0], &bound),
            "unresolved"
        );
    }
}
