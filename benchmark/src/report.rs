//! `BENCHMARK.json` as the single table of names, units and bounds; the
//! contract line, the per-run file, `result.json`, and `compare`.

use crate::json::Json;
use crate::measure::Reading;
use std::collections::BTreeMap;
use std::path::Path;

#[cfg(test)]
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "ops_per_s",
    "latency_p50_ms",
    "cpu_ms_per_op",
    "peak_rss_mb",
];

/// Per-layer counts that are the paper's own cost, or the planner's
/// search size: a difference between two results is a change of
/// protocol or plan space, never a speed-up.
pub const EXACT_COUNTS: [&str; 6] = [
    "protocols.model_rounds_per_run",
    "protocols.model_bits_per_run",
    "protocols.transmissions_per_run",
    "network.frames_per_run",
    "network.wire_bytes_per_run",
    "plan.candidates",
];

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median a later change may lose; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let j = Json::parse(text)?;
        let list = |key: &str| {
            j.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no `{key}` list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        lower_is_better: text_of(m, "better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: j
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

pub type Readings = BTreeMap<&'static str, Reading>;

/// The metrics object of one run, in the spec's order. Fails unless the
/// run produced exactly the metrics the spec names.
fn metrics_json(spec: &[MetricSpec], readings: &Readings, detailed: bool) -> Result<Json, String> {
    if let Some(extra) = readings
        .keys()
        .find(|k| !spec.iter().any(|m| m.name == **k))
    {
        return Err(format!("metric `{extra}` is not named in BENCHMARK.json"));
    }
    let fields = spec.iter().map(|m| {
        let r = readings
            .get(m.name.as_str())
            .ok_or(format!("metric `{}` was not produced", m.name))?;
        let mut f = vec![("value", Json::Num(r.value)), ("unit", Json::str(&m.unit))];
        if detailed {
            f.push(("min", Json::Num(r.min)));
            f.push(("q1", Json::Num(r.q1)));
            f.push(("q3", Json::Num(r.q3)));
            f.push(("max", Json::Num(r.max)));
            f.push(("samples", r.samples.into()));
        }
        Ok((m.name.clone(), Json::obj(f)))
    });
    Ok(Json::Obj(fields.collect::<Result<_, String>>()?))
}

/// What one run of one workload produced.
pub struct RunOutcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub blocks: u64,
    /// The calibration routine's time over its reference time beside
    /// the blocks the values came from; timed end-to-end values are
    /// already divided by it.
    pub machine_index: f64,
    pub attempted: u64,
    pub failed: u64,
    pub readings: Readings,
}

impl RunOutcome {
    fn spec_metrics<'a>(&self, spec: &'a Spec) -> &'a [MetricSpec] {
        if self.traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        }
    }

    /// The last line of standard output.
    pub fn contract_line(&self, spec: &Spec) -> Result<Json, String> {
        Ok(Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "metrics",
                metrics_json(self.spec_metrics(spec), &self.readings, false)?,
            ),
        ]))
    }

    /// The per-run file: the same metrics with spread and sample counts.
    pub fn detail(&self, spec: &Spec) -> Result<Json, String> {
        Ok(Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", self.seed.into()),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("blocks", self.blocks.into()),
            ("machine_index", Json::Num(self.machine_index)),
            ("ops_attempted", self.attempted.into()),
            ("ops_failed", self.failed.into()),
            (
                "metrics",
                metrics_json(self.spec_metrics(spec), &self.readings, true)?,
            ),
        ]))
    }

    /// Every metric by name and unit, for people.
    pub fn print(&self, spec: &Spec) {
        println!(
            "{} seed {} {}: {} operations attempted, {} failed, {} blocks of {:.3} s, \
             machine index {:.3}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.blocks,
            self.seconds / self.blocks as f64,
            self.machine_index,
        );
        for m in self.spec_metrics(spec) {
            if let Some(r) = self.readings.get(m.name.as_str()) {
                println!(
                    "  {:<38} {:>14.4} {:<6} (quartiles {:.4}–{:.4}, range {:.4}–{:.4}, {} samples)",
                    m.name, r.value, m.unit, r.q1, r.q3, r.min, r.max, r.samples
                );
            }
        }
    }
}

/// `result.json`: per workload, the untraced run's end-to-end metrics
/// and the traced run's per-layer metrics.
pub fn assemble(meta: Json, runs: &[(Json, Json)]) -> Json {
    let workloads = runs.iter().map(|(untraced, traced)| {
        let field = |j: &Json, k: &str| j.get(k).cloned().unwrap_or(Json::Null);
        let sum = |k: &str| {
            let n = |j: &Json| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            Json::Num(n(untraced) + n(traced))
        };
        (
            untraced
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            Json::obj([
                ("blocks", field(untraced, "blocks")),
                ("ops_attempted", sum("ops_attempted")),
                ("ops_failed", sum("ops_failed")),
                ("end_to_end", field(untraced, "metrics")),
                ("per_layer", field(traced, "metrics")),
            ]),
        )
    });
    Json::obj([("meta", meta), ("workloads", Json::obj(workloads))])
}

/// Checks that `result` names exactly the spec's workloads and metrics.
pub fn check_result(spec: &Spec, result: &Json) -> Result<(), String> {
    let names = |j: Option<&Json>| -> Vec<String> {
        j.and_then(Json::as_obj)
            .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    };
    let same = |what: &str, got: Vec<String>, want: Vec<&String>| {
        if got.iter().collect::<Vec<_>>() == want {
            Ok(())
        } else {
            Err(format!(
                "{what}: result has {got:?}, BENCHMARK.json names {want:?}"
            ))
        }
    };
    let workloads = result.get("workloads");
    same(
        "workloads",
        names(workloads),
        spec.workloads.iter().collect(),
    )?;
    for w in &spec.workloads {
        let of = |kind: &str| names(workloads.and_then(|ws| ws.at(&[w.as_str(), kind])));
        for (kind, metrics) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            let want = metrics.iter().map(|m| &m.name).collect();
            same(&format!("{w} {kind}"), of(kind), want)?;
        }
    }
    Ok(())
}

/// A result's end-to-end metrics as a Markdown table, one row per
/// workload, each cell `value (quartiles over all blocks)`; the README's
/// sizing table is this function's output for `baseline.json`.
pub fn markdown_table(spec: &Spec, result: &Json) -> Result<String, String> {
    let mut out = String::from("| workload | operations |");
    for m in &spec.end_to_end {
        out.push_str(&format!(" `{}` [{}] |", m.name, m.unit));
    }
    out.push_str(&format!(
        "\n|---|---:|{}\n",
        "---:|".repeat(spec.end_to_end.len())
    ));
    for w in &spec.workloads {
        let at = |path: &[&str]| {
            let full = [&["workloads", w.as_str()], path].concat();
            result
                .at(&full)
                .and_then(Json::as_f64)
                .ok_or(format!("{w}: no {}", path.join(".")))
        };
        out.push_str(&format!("| `{w}` | {} |", at(&["ops_attempted"])?));
        for m in &spec.end_to_end {
            let n = |k| at(&["end_to_end", m.name.as_str(), k]);
            let (value, q1, q3) = (n("value")?, n("q1")?, n("q3")?);
            out.push_str(&if q1 == q3 {
                format!(" {value:.4} |")
            } else {
                format!(" {value:.4} ({q1:.4}–{q3:.4}) |")
            });
        }
        out.push('\n');
    }
    Ok(out)
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
fn worsening(m: &MetricSpec, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if m.lower_is_better {
        change
    } else {
        -change
    }
}

/// The block spread of a result's metric — the distance between the
/// quartiles over all its blocks — as a share of its value.
fn spread(metric: &Json) -> f64 {
    let n = |k: &str| metric.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    (n("q3") - n("q1")) / n("value").abs()
}

/// Prints the comparison table; `Ok(false)` when any row is out of its
/// bound or any exact count differs.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Result<bool, String> {
    let mut clean = true;
    println!(
        "{:<24} {:<15} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let metric = |j: &'_ Json| {
                j.at(&["workloads", w.as_str(), "end_to_end", m.name.as_str()])
                    .cloned()
                    .ok_or(format!("{w} {}: missing from a result", m.name))
            };
            let (ma, mb) = (metric(a)?, metric(b)?);
            let value = |j: &Json| j.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let bound = m.bound.ok_or(format!("{}: no bound", m.name))?;
            let worse = worsening(m, value(&ma), value(&mb));
            // NaN (a missing value) must not pass as within bound.
            let verdict = if worse.is_nan() || worse > bound {
                clean = false;
                "OUT OF BOUND"
            } else if spread(&ma).max(spread(&mb)) > bound {
                "unresolved (block spread exceeds the bound)"
            } else {
                "ok"
            };
            println!(
                "{:<24} {:<15} {:>13.4} {:>13.4} {:>+7.1}% {:>5.0}%  {verdict}",
                w,
                m.name,
                value(&ma),
                value(&mb),
                100.0 * worse,
                100.0 * bound
            );
        }
        for name in EXACT_COUNTS {
            let count = |j: &Json| {
                j.at(&["workloads", w.as_str(), "per_layer", name, "value"])
                    .and_then(Json::as_f64)
            };
            if count(a) != count(b) {
                clean = false;
                println!(
                    "{w:<24} {name}: {:?} vs {:?}  EXACT COUNT DIFFERS",
                    count(a),
                    count(b)
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes::PER_LAYER;
    use crate::workloads::WORKLOADS;

    fn repo_spec() -> Spec {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        Spec::load(&root).expect("BENCHMARK.json at the repository root")
    }

    fn full_readings(names: &[&'static str]) -> Readings {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (*n, Reading::over(&[i as f64 + 1.0, i as f64 + 2.0], 7)))
            .collect()
    }

    fn outcome(workload: &str, traced: bool, readings: Readings) -> RunOutcome {
        RunOutcome {
            workload: workload.to_string(),
            seed: 1,
            seconds: 5.0,
            traced,
            blocks: 5,
            machine_index: 1.0,
            attempted: 1200,
            failed: 0,
            readings,
        }
    }

    #[test]
    fn code_and_benchmark_json_name_the_same_things() {
        let spec = repo_spec();
        assert_eq!(spec.workloads, WORKLOADS);
        let names = |ms: &[MetricSpec]| ms.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&spec.end_to_end), END_TO_END);
        assert_eq!(names(&spec.per_layer), PER_LAYER);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(EXACT_COUNTS.iter().all(|n| PER_LAYER.contains(n)));
    }

    #[test]
    fn result_carries_every_named_metric_and_workload_and_nothing_else() {
        let spec = repo_spec();
        let runs: Vec<(Json, Json)> = WORKLOADS
            .iter()
            .map(|w| {
                let u = outcome(w, false, full_readings(&END_TO_END));
                let t = outcome(w, true, full_readings(&PER_LAYER));
                (u.detail(&spec).unwrap(), t.detail(&spec).unwrap())
            })
            .collect();
        let result = assemble(Json::obj([("seed", 1u64.into())]), &runs);
        check_result(&spec, &result).unwrap();
        assert_eq!(
            result.at(&["workloads", "exec_scan_suite", "ops_attempted"]),
            Some(&Json::Num(2400.0))
        );

        let partial = assemble(Json::Null, &runs[..3]);
        assert!(
            check_result(&spec, &partial).is_err(),
            "a workload is missing"
        );
        let mut extra = full_readings(&END_TO_END);
        extra.insert("made_up", Reading::single(1.0, 1));
        assert!(outcome("x", false, extra).contract_line(&spec).is_err());
        let mut short = full_readings(&END_TO_END);
        short.remove("setup_s");
        assert!(outcome("x", false, short).contract_line(&spec).is_err());
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let spec = repo_spec();
        let line = outcome("exec_scan_suite", false, full_readings(&END_TO_END))
            .contract_line(&spec)
            .unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.at(&["metrics", "ops_per_s"]).unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(m.as_obj().unwrap().len(), 2, "value and unit only");
        assert!(!line.to_string().contains('\n'));
    }

    fn result_with(ops_per_s: [f64; 3], rounds: f64) -> Json {
        let spec = repo_spec();
        let runs: Vec<(Json, Json)> = WORKLOADS
            .iter()
            .map(|w| {
                let mut e = full_readings(&END_TO_END);
                for r in e.values_mut() {
                    *r = Reading::single(10.0, 5);
                }
                let [value, q1, q3] = ops_per_s;
                e.insert(
                    "ops_per_s",
                    Reading {
                        value,
                        min: q1,
                        q1,
                        q3,
                        max: q3,
                        samples: 5,
                    },
                );
                let mut p = full_readings(&PER_LAYER);
                p.insert("protocols.model_rounds_per_run", Reading::single(rounds, 1));
                let (u, t) = (outcome(w, false, e), outcome(w, true, p));
                (u.detail(&spec).unwrap(), t.detail(&spec).unwrap())
            })
            .collect();
        assemble(Json::Null, &runs)
    }

    #[test]
    fn compare_applies_bounds_direction_and_exact_counts() {
        let spec = repo_spec();
        let base = result_with([100.0, 99.0, 101.0], 2009.0);
        assert_eq!(compare(&spec, &base, &base), Ok(true));
        // Throughput is higher-is-better: a gain passes, a 30 % loss fails.
        let faster = result_with([140.0, 139.0, 141.0], 2009.0);
        assert_eq!(compare(&spec, &base, &faster), Ok(true));
        assert_eq!(compare(&spec, &faster, &base), Ok(false));
        // A wide block spread is unresolved, not a failure.
        let noisy = result_with([100.0, 60.0, 140.0], 2009.0);
        assert_eq!(compare(&spec, &base, &noisy), Ok(true));
        // A changed model count fails whatever the timings say.
        let other_protocol = result_with([100.0, 99.0, 101.0], 2010.0);
        assert_eq!(compare(&spec, &base, &other_protocol), Ok(false));
        assert!(compare(&spec, &base, &Json::Null).is_err());
    }

    #[test]
    fn markdown_table_has_a_row_per_workload_and_a_column_per_metric() {
        let spec = repo_spec();
        let table = markdown_table(&spec, &result_with([100.0, 99.0, 101.0], 1.0)).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 2 + WORKLOADS.len());
        assert!(lines
            .iter()
            .all(|l| l.matches('|').count() == 3 + END_TO_END.len()));
        assert!(
            lines[2].contains("100.0000 (99.0000–101.0000)"),
            "{}",
            lines[2]
        );
        assert!(markdown_table(&spec, &Json::Null).is_err());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let m = |lower| MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better: lower,
            bound: Some(0.1),
        };
        assert!((worsening(&m(true), 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&m(false), 10.0, 12.0) + 0.2).abs() < 1e-12);
    }
}
