//! The repository benchmark. `run` measures one workload (or, with
//! `--workload all`, each in its own child process) and `compare` holds
//! two results against the bounds in `BENCHMARK.json`. See `README.md`.

mod calib;
mod gen;
mod json;
mod measure;
mod probes;
mod report;
mod trace;
mod workloads;

use calib::{Calibration, REFERENCE_US};
use json::Json;
use measure::{cpu_seconds, median, peak_rss_mb, percentile, tail_supported, Reading};
use report::{Readings, RunOutcome, Spec};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Block, WORKLOADS};

/// The measured phase is cut into blocks of this length.
const BLOCK_SECONDS: f64 = 0.1;
/// Every end-to-end value is taken over this share of the run's blocks,
/// the ones with the highest throughput. The machine is a shared VM:
/// neighbours on the host take the processor away for milliseconds at a
/// time (steal time in `/proc/stat`) and, for seconds to minutes, slow
/// everything that touches memory by a third or more. Both only ever
/// slow a block down, so the fastest blocks are the ones that measure
/// the program; a fixed share of short blocks finds them even when most
/// of the run is disturbed, and does not hinge on any single block. A
/// spell that outlasts the run is left to the machine index (`calib`).
const FAST_SHARE: f64 = 0.1;
/// Latencies kept per block for the pooled percentiles; more are
/// thinned evenly, so memory does not grow with the operation count.
const LATENCIES_KEPT: usize = 256;
/// Set-up is repeated, and the median of the fastest third of the
/// repeats reported: one set-up is tens of milliseconds, too short to be
/// steady on its own.
const SETUP_REPEATS: usize = 15;
/// Spans written out in full per traced run.
const TRACE_ROWS_WRITTEN: usize = 50_000;
/// Timed calls behind each per-layer median.
const PROBE_CALLS: usize = 200;
/// `--smoke` divides the measured time and the probe calls by this.
const SMOKE_DIVISOR: usize = 50;

const USAGE: &str = "usage: run.sh [--workload <name|all>] [--seed <n>] [--seconds <s>] \
                     [--trace [0|1]] [--smoke]\n       compare.sh <A.json> [<B.json>]";

struct RunArgs {
    root: PathBuf,
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        root: PathBuf::from("."),
        workload: "all".into(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--root" => out.root = PathBuf::from(value("a directory")?),
            "--workload" => out.workload = value("a name")?.clone(),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {s}: must be in (0, 60]"));
                }
                out.seconds = Some(s);
            }
            "--smoke" => out.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (have {WORKLOADS:?})",
            out.workload
        ));
    }
    Ok(out)
}

fn out_dir(root: &Path) -> PathBuf {
    root.join("benchmark").join("out")
}

fn write_json(path: &Path, j: &Json) -> Result<(), String> {
    let dir = path.parent().expect("files live in a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(path, j.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_file(root: &Path, workload: &str, traced: bool) -> PathBuf {
    out_dir(root).join(format!("run-{workload}-trace{}.json", u8::from(traced)))
}

/// One block of the measured phase, reduced to its numbers (and a
/// bounded sample of its latencies) as soon as it ends.
struct Measured {
    /// Which block of the run this is.
    at: usize,
    traced: bool,
    wall: Duration,
    attempted: u64,
    completed: u64,
    failed: u64,
    ops_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    cpu_s: f64,
    cpu_ms_per_op: f64,
    latencies_ms: Vec<f64>,
}

impl Measured {
    fn of(
        at: usize,
        traced: bool,
        block: Block,
        wall: Duration,
        cpu_s: f64,
        wrong: u64,
    ) -> Measured {
        let (attempted, failed) = (block.attempted(), block.failed + wrong);
        let mut sorted = block.latencies_ms;
        // Thinned in arrival order, so it cannot favour fast or slow.
        let stride = sorted.len().div_ceil(LATENCIES_KEPT).max(1);
        let latencies_ms = sorted.iter().copied().step_by(stride).collect();
        sorted.sort_by(f64::total_cmp);
        let pct = |p| {
            if sorted.is_empty() {
                f64::NAN
            } else {
                percentile(&sorted, p)
            }
        };
        Measured {
            at,
            traced,
            wall,
            attempted,
            completed: sorted.len() as u64,
            failed,
            ops_per_s: sorted.len() as f64 / wall.as_secs_f64(),
            p50_ms: pct(50.0),
            p95_ms: pct(95.0),
            cpu_s,
            cpu_ms_per_op: cpu_s * 1e3 / attempted as f64,
            latencies_ms,
        }
    }
}

/// How many of `n` repeats or blocks count as their fastest `share`.
fn fast_count(n: usize, share: f64) -> usize {
    ((n as f64 * share).ceil() as usize).clamp(1, n.max(1))
}

/// The [`FAST_SHARE`] of `blocks` with the highest throughput.
fn fastest(blocks: &[Measured]) -> Vec<&Measured> {
    let mut by_rate: Vec<&Measured> = blocks.iter().collect();
    by_rate.sort_by(|a, b| b.ops_per_s.total_cmp(&a.ops_per_s));
    by_rate.truncate(fast_count(blocks.len(), FAST_SHARE));
    by_rate
}

/// A reading whose value comes from the fastest blocks and whose range
/// and quartiles are over all `blocks`, so the spread shows the
/// disturbance.
fn block_reading(
    blocks: &[Measured],
    fast: &[&Measured],
    value: f64,
    of: fn(&Measured) -> f64,
) -> Reading {
    let all: Vec<f64> = blocks.iter().map(of).collect();
    let samples = fast.iter().map(|b| b.completed).sum();
    Reading {
        value,
        ..Reading::over(&all, samples)
    }
}

/// The machine index next to the blocks numbered `at`: the median of the
/// calibration times before and after each, over the reference time.
/// `calibration_us[i]` was taken before block `i`; the last one after the
/// last block.
fn machine_index(calibration_us: &[f64], at: impl Iterator<Item = usize>) -> f64 {
    let beside: Vec<f64> = at
        .flat_map(|i| [calibration_us[i], calibration_us[i + 1]])
        .collect();
    median(&beside) / REFERENCE_US
}

/// Percentile `p` of the pooled latencies of `blocks`.
fn pooled_percentile<'a>(blocks: impl IntoIterator<Item = &'a Measured>, p: f64) -> f64 {
    let mut pooled: Vec<f64> = blocks
        .into_iter()
        .flat_map(|b| b.latencies_ms.iter().copied())
        .collect();
    pooled.sort_by(f64::total_cmp);
    percentile(&pooled, p)
}

/// Measures one workload in this process.
fn run_one(spec: &Spec, args: &RunArgs) -> Result<RunOutcome, String> {
    let divisor = if args.smoke { SMOKE_DIVISOR } else { 1 };
    let seconds = args.seconds.unwrap_or(spec.run_seconds / divisor as f64);

    // Between blocks, outside any timing: the calibration routine before
    // every block and after the last, and every so many blocks a timed
    // set-up, so that the set-ups see as much of the run's weather as the
    // blocks do. The first set-up's instance is the one measured; the
    // others are dropped at once. A traced run reports no set-up time and
    // sets up once.
    let mut n_blocks = ((seconds / BLOCK_SECONDS).round() as usize).max(2);
    n_blocks += usize::from(args.trace) * (n_blocks % 2);
    let block_len = Duration::from_secs_f64(seconds / n_blocks as f64);
    let setups = if args.trace {
        1
    } else {
        SETUP_REPEATS.div_ceil(divisor)
    };
    let setup_every = n_blocks.div_ceil(setups);

    let mut calibration = Calibration::new();
    let mut calibration_us = Vec::with_capacity(n_blocks + 1);
    let mut setup_s: Vec<(usize, f64)> = Vec::new();
    let mut workload = None;
    // A traced run alternates untraced and traced blocks and takes the
    // median ratio over adjacent pairs, so that both sides of each ratio
    // see the same machine and drift cancels.
    let mut tracer = Tracer::new(false);
    let mut blocks = Vec::new();
    for i in 0..n_blocks {
        calibration_us.push(calibration.run());
        if i % setup_every == 0 {
            let t = Instant::now();
            let fresh = workloads::set_up(&args.workload, args.seed);
            setup_s.push((i, t.elapsed().as_secs_f64()));
            workload.get_or_insert(fresh);
        }
        let workload = workload.as_mut().expect("block 0 sets up");
        let traced = args.trace && i % 2 == 1;
        tracer.set_enabled(traced);
        let mut block = Block::default();
        let (cpu0, t0) = (cpu_seconds(), Instant::now());
        workload.run_until(t0 + block_len, &mut tracer, &mut block);
        let (wall, cpu_s) = (t0.elapsed(), cpu_seconds() - cpu0);
        let wrong = workload.settle();
        blocks.push(Measured::of(i, traced, block, wall, cpu_s, wrong));
    }
    calibration_us.push(calibration.run());
    drop(workload);

    let attempted: u64 = blocks.iter().map(|b| b.attempted).sum();
    let failed: u64 = blocks.iter().map(|b| b.failed).sum();
    if blocks.iter().any(|b| b.completed == 0) {
        return Err(format!("{}: a block completed no operation", args.workload));
    }

    // Adjacent (untraced, traced) pairs, before the two kinds part ways.
    let ratios: Vec<f64> = blocks
        .chunks_exact(2)
        .map(|pair| pair[1].ops_per_s / pair[0].ops_per_s)
        .collect();
    let (traced, blocks): (Vec<Measured>, Vec<Measured>) =
        blocks.into_iter().partition(|b| b.traced);
    let fast = fastest(&blocks);
    let mut readings = Readings::new();
    let machine;
    if args.trace {
        machine = median(&calibration_us) / REFERENCE_US;
        let traced_ops: u64 = traced.iter().map(|b| b.completed).sum();
        let traced_ns: u128 = traced.iter().map(|b| b.wall.as_nanos()).sum();
        let spans = tracer.spans();
        let mut single = |name, value| readings.insert(name, Reading::single(value, traced_ops));
        single("trace.overhead_share", 1.0 - median(&ratios));
        single(
            "trace.driver_self_share",
            1.0 - trace::layer_time_ns(spans) as f64 / traced_ns as f64,
        );
        single("trace.spans_per_op", spans.len() as f64 / traced_ops as f64);
        let path = out_dir(&args.root).join(format!("trace-{}.json", args.workload));
        write_json(&path, &trace::to_json(spans, TRACE_ROWS_WRITTEN))?;
        let in_reference_units: Vec<f64> =
            calibration_us.iter().map(|us| us / REFERENCE_US).collect();
        readings.insert(
            "trace.machine_index",
            Reading::over(&in_reference_units, in_reference_units.len() as u64),
        );

        // Tail latency is what disturbance does to an operation, so it
        // is taken over every untraced block, not the fastest ones, as
        // measured, and reported without a bound: between identical runs
        // on the shared machine it moves by more than any bound the
        // contract admits (see README).
        let pooled: usize = blocks.iter().map(|b| b.latencies_ms.len()).sum();
        if !tail_supported(pooled, 95.0) {
            println!("note: fewer than 10 of the {pooled} pooled latencies lie beyond p95");
        }
        let block_p95s: Vec<f64> = blocks.iter().map(|b| b.p95_ms).collect();
        readings.insert(
            "e2e.latency_p95_ms",
            Reading {
                value: pooled_percentile(&blocks, 95.0),
                ..Reading::over(&block_p95s, blocks.iter().map(|b| b.completed).sum())
            },
        );
        readings.extend(probes::run(args.seed, PROBE_CALLS / divisor));
    } else {
        // Timed values are divided by the machine index next to the
        // blocks (or set-ups) they come from; rates are multiplied.
        machine = machine_index(&calibration_us, fast.iter().map(|b| b.at));
        let sum = |of: fn(&Measured) -> f64| fast.iter().map(|b| of(b)).sum::<f64>();
        // Set-up repeats are held to the same rule as blocks, with a
        // larger share because there are fewer of them.
        setup_s.sort_by(|a, b| a.1.total_cmp(&b.1));
        let fast_setups = &setup_s[..fast_count(setup_s.len(), 1.0 / 3.0)];
        let times = |of: &[(usize, f64)]| of.iter().map(|s| s.1).collect::<Vec<_>>();
        let setup_machine = machine_index(&calibration_us, fast_setups.iter().map(|s| s.0));
        readings.insert(
            "setup_s",
            Reading {
                value: median(&times(fast_setups)),
                ..Reading::over(&times(&setup_s), fast_setups.len() as u64)
            }
            .scaled(1.0 / setup_machine),
        );
        readings.insert(
            "ops_per_s",
            block_reading(
                &blocks,
                &fast,
                sum(|b| b.completed as f64) / sum(|b| b.wall.as_secs_f64()),
                |b| b.ops_per_s,
            )
            .scaled(machine),
        );
        readings.insert(
            "latency_p50_ms",
            block_reading(
                &blocks,
                &fast,
                pooled_percentile(fast.iter().copied(), 50.0),
                |b| b.p50_ms,
            )
            .scaled(1.0 / machine),
        );
        readings.insert(
            "cpu_ms_per_op",
            block_reading(
                &blocks,
                &fast,
                sum(|b| b.cpu_s) * 1e3 / sum(|b| b.attempted as f64),
                |b| b.cpu_ms_per_op,
            )
            .scaled(1.0 / machine),
        );
        readings.insert("peak_rss_mb", Reading::single(peak_rss_mb(), 1));
    }

    Ok(RunOutcome {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds,
        traced: args.trace,
        blocks: n_blocks as u64,
        machine_index: machine,
        attempted,
        failed,
        readings,
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload untraced, then traced, each in a child process
/// of its own (peak RSS is per process), and writes `result.json`.
fn run_all(spec: &Spec, args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut clean = true;
    for workload in &spec.workloads {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child.arg("run").arg("--root").arg(&args.root);
            child.args(["--workload", workload, "--trace", trace]);
            child.args(["--seed", &args.seed.to_string()]);
            if let Some(s) = args.seconds {
                child.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            clean &= status.success();
        }
        let file = |traced| read_json(&run_file(&args.root, workload, traced));
        runs.push((file(false)?, file(true)?));
    }
    let root = args.root.to_string_lossy();
    // The checked-out commit; marked when the tree differs from it, as it
    // does while the change under measurement is still uncommitted.
    let mut commit = command_output("git", &["-C", &root, "rev-parse", "HEAD"]);
    if !matches!(
        command_output("git", &["-C", &root, "status", "--porcelain"]).as_str(),
        "" | "unknown"
    ) {
        commit.push_str("+uncommitted");
    }
    let meta = Json::obj([
        ("commit", Json::str(commit)),
        ("seed", args.seed.into()),
        (
            "run_seconds",
            Json::Num(args.seconds.unwrap_or(spec.run_seconds)),
        ),
        ("smoke", Json::Bool(args.smoke)),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
    ]);
    let result = report::assemble(meta, &runs);
    report::check_result(spec, &result)?;
    let path = out_dir(&args.root).join("result.json");
    write_json(&path, &result)?;
    println!("wrote {}", path.display());
    Ok(clean)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let spec = Spec::load(&args.root)?;
    if args.workload == "all" {
        return run_all(&spec, &args);
    }
    let outcome = run_one(&spec, &args)?;
    let line = outcome.contract_line(&spec)?;
    write_json(
        &run_file(&args.root, &args.workload, args.trace),
        &outcome.detail(&spec)?,
    )?;
    outcome.print(&spec);
    println!("{line}");
    Ok(outcome.failed == 0)
}

/// `compare A B` holds B against A; `compare A` prints A as a table.
fn compare(args: &[String]) -> Result<bool, String> {
    let (root, files) = match args {
        [flag, root, files @ ..] if flag == "--root" && matches!(files.len(), 1 | 2) => {
            (root, files)
        }
        _ => return Err(USAGE.to_string()),
    };
    let spec = Spec::load(Path::new(root))?;
    let a = read_json(Path::new(&files[0]))?;
    match files.get(1) {
        Some(b) => report::compare(&spec, &a, &read_json(Path::new(b))?),
        None => {
            print!("{}", report::markdown_table(&spec, &a)?);
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    // Every escape hatch of the library is an environment variable read
    // once per process; the benchmark measures the defaults. No thread
    // exists yet, so removing variables is sound.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("FAQS_") {
            std::env::remove_var(name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("faqs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        parse_run_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse(&[
            "--root",
            "/x",
            "--workload",
            "exec_scan_suite",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("exec_scan_suite", 7, Some(12.0), true)
        );
        assert!(!parse(&["--trace", "0"]).unwrap().trace);
        assert!(parse(&["--trace"]).unwrap().trace);
        let a = parse(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke && a.workload == "all" && a.seed == 1);
    }

    fn block(ops: usize, wall_ms: u64) -> Measured {
        let block = Block {
            latencies_ms: vec![wall_ms as f64 / ops as f64; ops],
            failed: 0,
        };
        Measured::of(0, false, block, Duration::from_millis(wall_ms), 0.05, 0)
    }

    #[test]
    fn fastest_blocks_are_a_fixed_share_by_throughput() {
        assert_eq!(fast_count(250, 0.1), 25);
        assert_eq!(fast_count(15, 1.0 / 3.0), 5);
        assert_eq!(fast_count(5, 0.1), 1);
        assert_eq!(fast_count(1, 0.1), 1);
        // 20 blocks of 100 ms completing 10, 20, …, 200 operations.
        let blocks: Vec<Measured> = (1..=20).map(|i| block(i * 10, 100)).collect();
        let fast = fastest(&blocks);
        let rates: Vec<f64> = fast.iter().map(|b| b.ops_per_s.round()).collect();
        assert_eq!(rates, [2000.0, 1900.0]);
        // Their pooled median latency is the faster blocks', not the run's.
        let p50 = pooled_percentile(fast.iter().copied(), 50.0);
        assert!((p50 - 100.0 / 200.0).abs() < 1e-12, "{p50}");
        let r = block_reading(&blocks, &fast, 1950.0, |b| b.ops_per_s);
        assert_eq!((r.value, r.samples), (1950.0, 390));
        assert!(r.min < r.q1 && r.q1 < r.q3 && r.q3 < r.max);
    }

    #[test]
    fn machine_index_is_the_median_calibration_beside_the_chosen_blocks() {
        // Calibrations before blocks 0..4 and after block 3.
        let us = [1.0, 2.0, 4.0, 8.0, 16.0].map(|x| x * REFERENCE_US);
        assert_eq!(machine_index(&us, [1].into_iter()), 3.0);
        assert_eq!(machine_index(&us, [0, 3].into_iter()), 5.0);
        assert_eq!(machine_index(&us, 0..4), 4.0);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "1000"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
