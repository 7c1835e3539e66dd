// cpsim-lint: profile(harness): CLI entry point; prints tables and wall-clock timings by design
//! `repro`: regenerates every table and figure of the reproduced paper.
//!
//! ```text
//! repro                 # all experiments at publication scale
//! repro f4 f5 --quick   # selected experiments, test scale
//! repro --csv out/      # also write CSV files for plotting
//! repro list            # print the experiment catalog
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cpsim_bench::Cli::parse(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cpsim_bench::usage());
            return ExitCode::FAILURE;
        }
    };
    if cli.help {
        println!("{}", cpsim_bench::usage());
        return ExitCode::SUCCESS;
    }
    if cli.list {
        println!("{}", cpsim_bench::listing());
        return ExitCode::SUCCESS;
    }
    let mut stdout = std::io::stdout().lock();
    match cpsim_bench::run(&cli, &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
