//! Prints the paper's evaluation artifacts in paper format (see
//! EXPERIMENTS.md for the recorded output and the paper-vs-measured
//! comparison): every one of them in paper order, or only those named.
//!
//! ```console
//! $ cargo run --release -p bench --bin reproduce
//! $ MC_TRIALS=5 cargo run --release -p bench --bin reproduce -- fig4 table1
//! ```
use bench::figures::{Kind, ARTIFACTS};

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = wanted
        .iter()
        .find(|w| ARTIFACTS.iter().all(|a| a.name != *w))
    {
        let valid: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
        eprintln!("unknown artifact {unknown}; valid: {}", valid.join(" "));
        std::process::exit(2);
    }
    let scale = bench::Scale::from_env();
    eprintln!("reproducing at {scale:?}");
    for a in ARTIFACTS {
        if !wanted.is_empty() && !wanted.iter().any(|w| w == a.name) {
            continue;
        }
        match a.kind {
            Kind::Figure => bench::print_figure(a.title, &(a.configs)(), &scale),
            Kind::Table => bench::print_table(a.title, &(a.configs)(), &scale),
        }
        if a.name == "fig11" {
            let threads = scale.threads.iter().copied().max().unwrap_or(4);
            bench::print_abort_rates(&scale, threads);
        }
    }
}
