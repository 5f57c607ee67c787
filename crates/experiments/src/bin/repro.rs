//! `repro`: regenerates the paper's tables and figures from the figure
//! registry ([`nocout_experiments::figures::FIGURES`]). `repro NAME` runs
//! one figure, `repro all` every figure in registry order over one worker
//! pool (and one `--cache`, so a point two figures share is simulated
//! once). Each figure prints its table and notes and writes `out/NAME.csv`.

use nocout_experiments::cli::Cli;
use nocout_experiments::figures::{find, FIGURES};

fn main() {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    let mut about = String::from(
        "Regenerates the paper's tables and figures: `repro NAME` runs one \
figure, `repro all` runs every figure in the order below over one worker \
pool. Each prints its table and writes out/NAME.csv.\n\nfigures:",
    );
    for f in &FIGURES {
        about.push_str(&format!("\n  {:<12} {}", f.name, f.about));
    }
    let mut cli = Cli::parse("repro", &about, &format!("{}|all", names.join("|")));
    let figures: Vec<_> = match cli.next_flag().as_deref() {
        Some("all") => FIGURES.iter().collect(),
        Some(name) => match find(name) {
            Some(figure) => vec![figure],
            None if name.starts_with('-') => cli.unknown(name),
            None => cli.fail(&format!("unknown figure `{name}`")),
        },
        None => cli.fail("missing figure name"),
    };
    let (runner, scale) = (cli.runner(), cli.scale());
    cli.finish();
    for figure in figures {
        figure.report(&runner, scale);
    }
}
