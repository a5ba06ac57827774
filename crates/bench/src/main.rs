//! The reproduction harness: regenerates every table, figure and worked
//! example of *Topology Dependent Bounds For FAQs* (PODS 2019).
//!
//! ```text
//! cargo run --release -p faqs-bench --bin harness            # everything
//! cargo run --release -p faqs-bench --bin harness -- table1  # one artifact
//! ```
//!
//! Subcommands are the names in [`EXPERIMENTS`] plus `all` (default);
//! an unknown one prints the list and exits 2.

use faqs_bench::experiments as exp;

/// A subcommand and its run at scale `n`.
type Experiment = (&'static str, fn(usize));

/// Every experiment, in `all` order.
const EXPERIMENTS: &[Experiment] = &[
    ("table1", exp::e1_table1),
    ("figures", |_| exp::e2_figures()),
    ("examples2", |_| exp::e3_examples(&[64, 128, 256])),
    ("lowerbounds", |_| exp::e4_lowerbounds(64, 4)),
    ("mcm", exp::e5_mcm),
    ("entropy", |_| exp::e6_entropy()),
    ("shannon", |_| exp::e7_shannon()),
    ("gap", |n| exp::e8_gap_sweep(n.min(128))),
    ("mpc", exp::e9_mpc),
    ("setint", |n| exp::e10_set_intersection(4 * n)),
    ("faq", |n| exp::e11_faq_general(n.min(64))),
    ("hashsplit", |n| exp::e12_hash_split(n.min(128))),
    ("distributed", |n| exp::e15_distributed(n.min(128))),
    ("plan-explain", |n| exp::e16_plan_explain(n.min(64))),
    ("ablation", |_| exp::ablation_width()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or("all");
    // Experiment scale: --quick shrinks N (and E5's longest chain) for
    // CI-speed runs; crates/bench/quick.txt pins its transcript.
    let quick = args.iter().any(|a| a == "--quick");
    let n = if quick { 64 } else { 256 };

    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment `{which}`; choose one of: {} all",
            names.join(" ")
        );
        std::process::exit(2);
    }
    for (_, run) in selected {
        run(n);
    }
}
