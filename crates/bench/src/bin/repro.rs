//! `repro <experiment>`: regenerates one table or figure of the paper's
//! evaluation on the paper machine and prints it.
//!
//! ```text
//! repro fig7      # one experiment of the catalog
//! repro all       # the paper's evaluation, in catalog order
//! ```
//!
//! The names are [`distvliw_bench::EXPERIMENTS`]: Tables 3–5, Figures 6,
//! 7 and 9, the NOBAL study, the loop case studies, the hybrid solution,
//! the cluster-imbalance breakdown, the sensitivity sweep and the
//! ablation studies (which `all` leaves out). An unknown name, or a
//! failing experiment, exits nonzero.

use std::process::ExitCode;

use distvliw_bench::{paper_machine, report, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = match args.as_slice() {
        [name] if name == "all" => EXPERIMENTS
            .iter()
            .copied()
            .filter(|&n| n != "ablations")
            .collect(),
        [name] if EXPERIMENTS.contains(&name.as_str()) => vec![name.as_str()],
        _ => {
            if let [name] = args.as_slice() {
                eprintln!("repro: unknown experiment `{name}`");
            }
            eprintln!(
                "usage: repro <experiment>\nexperiments: {} all",
                EXPERIMENTS.join(" ")
            );
            return ExitCode::FAILURE;
        }
    };
    let machine = paper_machine();
    let mut failed = false;
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            println!();
        }
        // Each report opens with its own title line.
        match report(name, &machine) {
            Ok(text) => print!("{text}"),
            Err(err) => {
                eprintln!("{err}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
