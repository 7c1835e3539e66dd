//! CLI for the cpsim determinism lint.
//!
//! ```text
//! cargo run -p cpsim-lint -- --check                 # workspace scan
//! cargo run -p cpsim-lint -- --check --format json   # machine-readable
//! cargo run -p cpsim-lint -- --list-rules
//! cargo run -p cpsim-lint -- --rules no-wall-clock,no-ambient-rng --check
//! cargo run -p cpsim-lint -- --profile sim path/to/a.rs path/to/b.rs
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cpsim_lint::{
    build_graph, find_workspace_root, graph_rules::GraphConfig, load_workspace, resolve,
    run_workspace_with, scan_files, Profile, Report, RuleId, ALL_RULES,
};

struct Args {
    help: bool,
    format_json: bool,
    root: Option<PathBuf>,
    rules: Vec<RuleId>,
    list_rules: bool,
    graph_dump: bool,
    r7_index: bool,
    profile: Profile,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        help: false,
        format_json: false,
        root: None,
        rules: ALL_RULES.to_vec(),
        list_rules: false,
        graph_dump: false,
        r7_index: false,
        profile: Profile::Sim,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            // `--check` is the default (and only) mode; accepted for the
            // documented invocation.
            "--check" => {}
            "--format" => {
                let v = it.next().ok_or("--format needs a value: text|json")?;
                match v.as_str() {
                    "json" => args.format_json = true,
                    "text" => args.format_json = false,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                }
            }
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?));
            }
            "--rules" => {
                let v = it.next().ok_or("--rules needs a comma-separated list")?;
                let mut rules = Vec::new();
                for name in v.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    rules.push(
                        RuleId::from_name(name)
                            .ok_or_else(|| format!("unknown rule `{name}` (see --list-rules)"))?,
                    );
                }
                // The directive meta-rule always runs: suppressions must
                // stay well-formed even in a narrowed scan.
                if !rules.contains(&RuleId::LintDirective) {
                    rules.push(RuleId::LintDirective);
                }
                args.rules = rules;
            }
            "--list-rules" => args.list_rules = true,
            "--graph-dump" => args.graph_dump = true,
            "--r7-index" => args.r7_index = true,
            "--profile" => {
                let v = it.next().ok_or("--profile needs sim|harness")?;
                args.profile = Profile::from_name(&v)
                    .ok_or_else(|| format!("unknown profile `{v}` (sim|harness)"))?;
            }
            "--help" | "-h" => {
                args.help = true;
                return Ok(args);
            }
            p if !p.starts_with('-') => args.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpsim-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.help {
        println!(
            "cpsim-lint: determinism-invariant static analysis for cpsim\n\n\
             USAGE: cpsim-lint [--check] [--format text|json] [--root DIR]\n\
                    [--rules r1,r2,... | --rules no-wall-clock,...]\n\
                    [--list-rules] [--graph-dump] [--r7-index]\n\
                    [--profile sim|harness] [FILES...]\n\n\
             With FILES, scans those files as one unit under --profile (a\n\
             symbol graph is built over the set, so R7 and R8 see cross-file\n\
             call chains; profile directives in the files are honored);\n\
             otherwise scans the whole workspace found at --root (default:\n\
             walk up from cwd).\n\n\
             --graph-dump prints the parsed symbol graph and the R7 hot\n\
             closure instead of scanning; --r7-index additionally flags\n\
             slice indexing in the closure (strict audit mode)."
        );
        return ExitCode::SUCCESS;
    }
    if args.list_rules {
        for r in ALL_RULES {
            println!("{:3} {:24} {}", r.short_id(), r.name(), r.description());
        }
        return ExitCode::SUCCESS;
    }
    let cfg = GraphConfig {
        index_checks: args.r7_index,
    };

    if args.graph_dump {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = match args.root.or_else(|| find_workspace_root(&cwd)) {
            Some(r) => r,
            None => {
                eprintln!("cpsim-lint: no workspace root found (pass --root)");
                return ExitCode::from(2);
            }
        };
        let loaded = match load_workspace(&root) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cpsim-lint: load failed: {e}");
                return ExitCode::from(2);
            }
        };
        let (g, sim_idx) = build_graph(&loaded);
        let refs: Vec<&cpsim_lint::SourceFile> = sim_idx.iter().map(|&i| &loaded[i].src).collect();
        print!("{}", resolve::render_graph_dump(&g, &refs));
        return ExitCode::SUCCESS;
    }

    let report = if args.paths.is_empty() {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = match args.root.or_else(|| find_workspace_root(&cwd)) {
            Some(r) => r,
            None => {
                eprintln!("cpsim-lint: no workspace root found (pass --root)");
                return ExitCode::from(2);
            }
        };
        match run_workspace_with(&root, &args.rules, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cpsim-lint: scan failed: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match scan_files(&args.paths, args.profile, &args.rules, &cfg) {
            Ok(files) => Report {
                root: PathBuf::from("."),
                files,
            },
            Err(e) => {
                eprintln!("cpsim-lint: {e}");
                return ExitCode::from(2);
            }
        }
    };

    if args.format_json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
