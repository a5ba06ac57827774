//! Experiment implementations behind the `harness` binary: one
//! function per table, figure or worked example of the paper (E1–E12),
//! plus the distributed-runtime (E15) and planner (E16) tables and the
//! width ablation. Wall-clock measurement lives in `benchmark/`.

#![forbid(unsafe_code)]

pub mod experiments;

/// Prints a Markdown table row.
pub fn row<S: AsRef<str>>(cells: &[S]) {
    let joined: Vec<&str> = cells.iter().map(AsRef::as_ref).collect();
    println!("| {} |", joined.join(" | "));
}

/// Prints a Markdown table header with separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Section banner.
pub fn banner(title: &str) {
    println!();
    println!("== {title} ==");
    println!();
}
