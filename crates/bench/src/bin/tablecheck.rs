//! Deterministic serialization-cause check for Tables 1–4.
//!
//! The table runners execute 4 workers, so their counts wobble slightly
//! run-to-run with scheduling. This binary runs every table's branch
//! roster single-worker with the maintenance thread disabled, where the
//! operation stream — and therefore every serialization decision — is a
//! pure function of the workload seed. Its output must be bit-identical
//! across runs *and across runtime-internal refactors* (log arenas,
//! write-map layout): serialization causes are a property of the code
//! paths taken, never of the logging machinery.
//!
//! Usage: `cargo run --release -p bench --bin tablecheck`

use std::sync::Arc;

use bench::{figures, BenchConfig, Scale};
use mcache::{McCache, McConfig};
use workload::Op;

fn run_deterministic(cfg: &BenchConfig, scale: &Scale) -> (u64, u64, u64, u64) {
    let mc = McConfig {
        maintenance: false,
        ..cfg.mc_config(scale, 1)
    };
    let handle = McCache::start(mc);
    let cache = handle.cache().clone();
    let wl = Arc::new(scale.workload(1));
    for i in (0..wl.key_count()).step_by(2) {
        cache.set(0, wl.key(i), &wl.value(i), 0, 0);
    }
    let before = cache.tm_stats();
    for op in wl.stream(0) {
        match op {
            Op::Get(k) => {
                cache.get(0, wl.key(k));
            }
            Op::Set(k) => {
                cache.set(0, wl.key(k), &wl.value(k), 0, 0);
            }
            Op::Delete(k) => {
                cache.delete(0, wl.key(k));
            }
            Op::Incr(k, d) => {
                cache.arith(0, wl.key(k), d, true);
            }
        }
    }
    let tm = cache.tm_stats().since(&before);
    (
        tm.transactions(),
        tm.in_flight_switch,
        tm.start_serial,
        tm.abort_serial,
    )
}

fn main() {
    let scale = Scale::from_env();
    for (title, configs) in [
        ("Table 1", figures::table1()),
        ("Table 2", figures::table2()),
        ("Table 3", figures::table3()),
        ("Table 4", figures::table4()),
    ] {
        println!("# {title} (single worker, deterministic)");
        println!(
            "{:<16} {:>12} {:>18} {:>14} {:>14}",
            "branch", "txns", "in-flight-switch", "start-serial", "abort-serial"
        );
        for cfg in &configs {
            let (txns, ifs, ss, as_) = run_deterministic(cfg, &scale);
            println!("{:<16} {txns:>12} {ifs:>18} {ss:>14} {as_:>14}", cfg.label);
        }
        println!();
    }
}
