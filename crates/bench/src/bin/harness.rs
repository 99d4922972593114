//! Experiment harness: regenerates every table/figure in EXPERIMENTS.md.
//!
//! Usage:
//! ```text
//! harness -- all            # every experiment, quick sizes
//! harness -- e1 [--full]    # one experiment; --full = publication sizes
//! ```

use ntx_bench::model_exps::{
    a1_broken_variant, a2_footnote8, e1_theorem34_random, e2_exhaustive, e8_degeneracy,
    e9_orphan_activity,
};
use ntx_bench::runtime_exps::{
    a3_fault_hook_overhead, e3_read_fraction_sweep, e4_skew_sweep, e5_partial_abort,
    e7_deadlock_sweep,
};
use ntx_bench::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    let run_all = which.contains(&"all");
    let mut ran = 0;

    let mut run = |ids: &[&str], f: &dyn Fn() -> Table| {
        if run_all || ids.iter().any(|id| which.contains(id)) {
            let t = f();
            println!("{}", t.to_markdown());
            ran += 1;
        }
    };

    // Sizes: quick keeps `all` under ~a minute; --full for the record runs.
    let (e1n, e2s, e8n, a1n, a2n) = if full {
        (500, 200_000, 25, 300, 100)
    } else {
        (60, 20_000, 8, 80, 20)
    };
    let (rt_txs, e5_jobs) = if full { (20_000, 2_000) } else { (2_000, 300) };

    run(&["e1"], &|| e1_theorem34_random(e1n));
    run(&["e2"], &|| e2_exhaustive(e2s, 64));
    run(&["e3"], &|| e3_read_fraction_sweep(rt_txs));
    run(&["e4"], &|| e4_skew_sweep(rt_txs));
    run(&["e5"], &|| e5_partial_abort(e5_jobs));
    run(&["e7"], &|| e7_deadlock_sweep(rt_txs / 2));
    run(&["e8"], &|| e8_degeneracy(e8n));
    run(&["e9"], &|| e9_orphan_activity(e8n * 4));
    run(&["a1"], &|| a1_broken_variant(a1n));
    run(&["a2"], &|| a2_footnote8(a2n));
    run(&["a3"], &|| a3_fault_hook_overhead(rt_txs));

    if ran == 0 {
        eprintln!(
            "unknown experiment {which:?}; available: all e1 e2 e3 e4 e5 e7 e8 e9 a1 a2 a3 (E6 = `cargo bench -p ntx-bench`)"
        );
        std::process::exit(2);
    }
}
