//! Prints the rows of `bench::figures::ARTIFACTS`: the paper's evaluation
//! artifacts in paper format (see EXPERIMENTS.md for the recorded output
//! and the paper-vs-measured comparison), the deterministic Tables 1–4
//! (`tablecheck`) and the five ablations — every row in table order, or
//! only those named.
//!
//! ```console
//! $ cargo run --release -p bench --bin reproduce
//! $ MC_TRIALS=5 cargo run --release -p bench --bin reproduce -- fig4 table1
//! $ cargo run --release -p bench --bin reproduce -- tablecheck | cmp - scripts/tablecheck.golden
//! ```
use bench::figures::ARTIFACTS;

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
    for a in ARTIFACTS
        .iter()
        .filter(|a| wanted.is_empty() || wanted.iter().any(|w| w == a.name))
    {
        (a.print)(&scale);
    }
}
