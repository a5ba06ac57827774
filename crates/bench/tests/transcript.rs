//! The model transcript, pinned: `harness all --quick` must print
//! `quick.txt` line for line. The harness prints model quantities only
//! (rounds, bits, widths, bounds, predicted plan costs; no timings), so
//! its output is deterministic, and every experiment's own assertions
//! run on the way.
//!
//! A change that moves a model quantity regenerates the file and the
//! diff is its evidence:
//!
//! ```text
//! cargo run --release -p faqs-bench --bin harness -- all --quick > crates/bench/quick.txt
//! ```

use std::process::Command;

/// Differing rows printed before the test gives up listing them.
const SHOWN: usize = 8;

#[test]
fn quick_transcript_matches_the_checked_in_one() {
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["all", "--quick"])
        .output()
        .expect("the harness binary runs");
    assert!(
        out.status.success(),
        "harness failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("the transcript is UTF-8");
    let got: Vec<&str> = got.lines().collect();
    let want: Vec<&str> = include_str!("../quick.txt").lines().collect();
    if got == want {
        return;
    }
    let mut report = format!(
        "the quick transcript moved ({} lines, quick.txt has {}):\n",
        got.len(),
        want.len()
    );
    let differing = (0..got.len().max(want.len()))
        .filter(|&i| got.get(i) != want.get(i))
        .take(SHOWN);
    for i in differing {
        let line = |rows: &[&str]| rows.get(i).copied().unwrap_or("<none>").to_string();
        report += &format!(
            "line {}:\n  quick.txt: {}\n  harness:   {}\n",
            i + 1,
            line(&want),
            line(&got)
        );
    }
    panic!("{report}");
}
