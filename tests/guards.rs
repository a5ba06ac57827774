//! The structural guards: what earlier simplifications deleted must not
//! come back beside the one copy that stays. Each row of [`GUARDS`] is
//! one guard; `cargo test -q --test guards -- --nocapture` also prints
//! the non-test line totals a simplifying change reports.
//!
//! The scan covers every `*.rs` file under `src/` and `crates/*/src`. A
//! file's test part starts at its first line whose trimmed text starts
//! with `#[cfg(test)]`, and a file that a `#[cfg(test)] mod name;`
//! declares is all test. A line whose first non-blank characters are
//! `//` is a comment; every other line is code in full (a trailing
//! comment is not stripped). A pattern is `|`-separated literals in
//! which `\b` is a word boundary over `[A-Za-z0-9_]` and `\s*` any run
//! of blanks.

use std::path::Path;

/// One guard.
struct Guard {
    name: &'static str,
    rules: &'static [Rule],
    limit: Limit,
    reason: &'static str,
    /// The ROADMAP item or aim the guard keeps closed.
    origin: &'static str,
}

/// A forbidden pattern and where it is forbidden.
struct Rule {
    pattern: &'static str,
    /// Path prefixes the rule reads.
    scope: &'static [&'static str],
    /// Path prefixes inside `scope` it tolerates (see [`Limit`]).
    allowed: &'static [&'static str],
    /// Literals deleted from a line before it is matched.
    exempt: &'static [&'static str],
    /// One offending line.
    sample: &'static str,
}

/// How many matches a guard tolerates.
#[derive(Clone, Copy)]
enum Limit {
    /// None in scope outside `allowed`; allowed files match freely.
    Banned,
    /// As `Banned`, and each allowed file holds `lo..=hi` matches.
    Sites(usize, usize),
    /// At most this many matching lines in scope: lower it with the count.
    Ratchet(usize),
}

const fn rule(
    pattern: &'static str,
    scope: &'static [&'static str],
    allowed: &'static [&'static str],
    sample: &'static str,
) -> Rule {
    Rule {
        pattern,
        scope,
        allowed,
        exempt: &[],
        sample,
    }
}

const ALL: &[&str] = &["src/", "crates/"];
const ENGINE: &[&str] = &[
    "crates/core/src/",
    "crates/exec/src/",
    "crates/protocols/src/",
];
const PASS: &[&str] = &["crates/core/src/pass.rs"];
/// The file that defines `RunReport`.
const REPORT: &str = "crates/protocols/src/outcome.rs";

#[rustfmt::skip]
static GUARDS: &[Guard] = &[
    Guard {
        name: "one bag-join site",
        rules: &[rule(r"\bgeneric_join(|\bgeneric_join_aggregated(", ENGINE, PASS,
            "let (out, rows) = generic_join_aggregated(&inputs, order, nest);")],
        limit: Limit::Sites(1, usize::MAX),
        reason: "the Theorem G.3 pass in faqs-core is the only place that joins a bag",
        origin: "item 2",
    },
    Guard {
        name: "no bag listing",
        rules: &[rule(r"\bgeneric_join(", PASS, &[], "let bag = generic_join(&factors, order);")],
        limit: Limit::Banned,
        reason: "the pass aggregates as it joins (generic_join_aggregated); no site lists a bag",
        origin: "item 13(b)",
    },
    Guard {
        name: "a delta is a pass",
        rules: &[rule("aggregate_out_many(", &["crates/exec/src/incremental.rs"], &[],
            "let message = bag.aggregate_out_many(nest);")],
        limit: Limit::Banned,
        reason: "the incremental session evaluates only through Pass::run, with the mutated factor swapped",
        origin: "item 13(d)",
    },
    Guard {
        name: "one push-down and root epilogue",
        rules: &[rule(r"\bpush_down_message\b|\bfinish_root\b|\blocal_bag\b", ALL, &[],
            "fn push_down_message(bag: Relation<S>) -> Relation<S> {")],
        limit: Limit::Banned,
        reason: "the pass's push-down, root epilogue and bag have no second caller to serve",
        origin: "item 13(d)",
    },
    Guard {
        name: "one bag lowering",
        rules: &[rule(r"\buse_wcoj\b|\bBagOp\b|\bJoinStep\b", ALL, &[], "pub enum BagOp {")],
        limit: Limit::Banned,
        reason: "every bag of two or more factors is one generic join; the cascade and its knob are gone",
        origin: "item 3(j)",
    },
    Guard {
        name: "one-scan push-down",
        rules: &[rule(r".aggregate_out\b|::aggregate_out\b", ENGINE,
            &["crates/core/src/brute.rs", "crates/protocols/src/degenerate.rs"],
            "let m = bag.aggregate_out(v, op);")],
        limit: Limit::Banned,
        reason: "a nest is pushed down by one aggregate_out_many; only the two oracles loop per variable",
        origin: "item 6",
    },
    Guard {
        name: "one aggregate capability",
        rules: &[rule(r"_lattice\b|\bAggFn\b|\bLatticeOps\b", ALL, &[],
            "pub fn solve_faq_lattice(q: &FaqQuery<S>) {")],
        limit: Limit::Banned,
        reason: "which aggregates a query may use is the carrier's declaration (Semiring::admits)",
        origin: "item 3(e)",
    },
    Guard {
        name: "one schedule",
        rules: &[rule("thread::scope|thread::spawn|join_indexed_par",
            &["crates/relation/src/", "crates/core/src/", "crates/exec/src/", "crates/protocols/src/"],
            &[], "std::thread::scope(|s| s.spawn(|| run(left)));")],
        limit: Limit::Banned,
        reason: "the pass is never thread-scheduled; parallelism is independent requests in faqs-serve",
        origin: "item 3(b)",
    },
    Guard {
        name: "no lattice: parameter",
        rules: &[rule(r"\blattice:", ALL, &["crates/plan/src/planner.rs"],
            "pub fn plan(q: &FaqQuery<S>, lattice: bool) {")],
        limit: Limit::Sites(0, 3),
        reason: "only the three hidden planner shims that benchmark/ compiles against take one",
        origin: "item 3(e)",
    },
    Guard {
        name: "no join index",
        rules: &[rule(r"\bJoinIndex\b|\bbuild_index\b|\blookup_many\b|\bjoin_indexed\b", ALL, &[],
            "let index = JoinIndex::build(&factor, &key);")],
        limit: Limit::Banned,
        reason: "a key's rows are one run of the sorted arena: every relational job is one sorted scan",
        origin: "item 13(d)",
    },
    Guard {
        name: "one packing per member set",
        rules: &[rule(r"\bbest_delta(", ALL, &[], "let packing = best_delta(g, &members, work);")],
        limit: Limit::Banned,
        reason: "a member set is packed once (DeltaPackings) and asked per work; no one-shot repacking door",
        origin: "item 7(c)",
    },
    Guard {
        name: "one link reservation",
        rules: &[
            rule(r".reserve(|\bfn reserve(", &["crates/network/src/"], &[],
                "let (round, _) = sched.reserve(cap, start, bits);"),
            rule(".transmit(", &["crates/protocols/src/"], &[],
                "let done = run.transmit(p, node, sz, up[c] + 1)?;"),
        ],
        limit: Limit::Banned,
        reason: "every send is a chunk train through NetRun::send_train (reserve_train); per-message first-fit is the tests' reference",
        origin: "aim 2",
    },
    Guard {
        name: "chunk trains as runs",
        rules: &[Rule {
            exempt: &["-> &[u64]"],
            ..rule(r"&mut [u64]|&[u64]|Vec<u64> = (|\btimes\b|; chunks]|div_ceil(chunk) as usize",
                &["crates/network/src/", "crates/protocols/src/star.rs"], &[],
                "fn reserve_train(&mut self, cap: u64, chunk: u64, bits: u64, times: &mut [u64]) -> u64 {")
        }],
        limit: Limit::Banned,
        reason: "a train keeps its chunks' rounds as runs (ChunkTrain); one round per chunk lives only in the tests' reference",
        origin: "item 23",
    },
    Guard {
        name: "live links only",
        rules: &[rule(".distances(|.diameter(",
            &["crates/network/src/cuts.rs", "crates/network/src/flow.rs", "crates/protocols/src/bounds.rs", REPORT],
            &[], "let dist = g.distances(sink);")],
        limit: Limit::Banned,
        reason: "MinCut, τ_MCF and the live oracle's envelope count live links only (live_distances, live_diameter), as the Steiner packings do: a down link is an absent one",
        origin: "item 29",
    },
    Guard {
        name: "trie-level intersection",
        rules: &[rule(r"\bfn gallop\b|\branges\s*:", &["crates/relation/src/genjoin.rs"], &[],
            "fn gallop(run: &[u32], key: u32) -> usize {")],
        limit: Limit::Banned,
        reason: "the generic join intersects trie levels; the strided cursor and its range table are gone",
        origin: "item 6",
    },
    Guard {
        name: "validate reads the profile",
        rules: &[Rule {
            exempt: &["factors.iter()", "free_vars.iter()"],
            ..rule(".tuples()|.tuple_at(|.iter()", &["crates/relation/src/query.rs"], &[],
                "for t in factor.tuples() {")
        }],
        limit: Limit::Banned,
        reason: "FaqQuery::validate reads each factor's profile (Relation::max_value), not its rows",
        origin: "item 7(c)",
    },
    Guard {
        name: "one profile scan",
        rules: &[rule("Profile::scan(", ALL, &["crates/relation/src/arena.rs"],
            "let profile = Profile::scan(&rows);")],
        limit: Limit::Sites(1, 1),
        reason: "the arena memo's initialiser is the one scan; stats() and max_value() read what it learned",
        origin: "item 6(i)",
    },
    Guard {
        name: "unwrap/expect ratchet",
        rules: &[rule(".unwrap()|.expect(", ALL, &[], "let x = parse(s).unwrap();")],
        limit: Limit::Ratchet(61),
        reason: "return a typed error or state the invariant; the count only falls",
        origin: "item 5(f)",
    },
    Guard {
        name: "no environment",
        rules: &[rule(r"env::var\b|env::vars\b|env::var_os\b|env::vars_os\b|FAQS_", ALL, &[],
            r#"let knob = std::env::var("FAQS_THREADS");"#)],
        limit: Limit::Banned,
        reason: "a configuration is a value a caller builds, not a process-wide switch",
        origin: "item 3(d)",
    },
    Guard {
        name: "one fold order",
        rules: &[rule(r"\bEnvelope\b|\brecord_replans\b|\bnote_replan\b|\bfn forced\b", ALL, &[],
            "fn forced() {}")],
        limit: Limit::Banned,
        reason: "a node folds its messages in plan order; no envelope re-orders it mid-flight",
        origin: "item 5(d)",
    },
    Guard {
        name: "one planning mode",
        rules: &[rule(
            r"\buse_stats\b|\bstats_aware\b|\bPlannerConfig::structural\b|\bPlannerConfig::stats\b|\bfn with_planner\b|\bfn new_with\b",
            ALL, &[], "let cfg = PlannerConfig::structural();")],
        limit: Limit::Banned,
        reason: "every door plans one way; the structural plan lives on as candidate 0 and structural_plan",
        origin: "aim 2",
    },
    Guard {
        name: "one delivery path",
        rules: &[
            rule(r"\bcarries_payload\b|\bTransportKind::Channel\b", ALL, &[],
                "if transport.carries_payload() {"),
            rule(r"\bmpsc\b", &["crates/network/src/", "crates/protocols/src/"], &[],
                "use std::sync::mpsc;"),
        ],
        limit: Limit::Banned,
        reason: "every transport delivers the frame's bytes, decoded under the live oracle",
        origin: "aim 2",
    },
    Guard {
        name: "one plan value",
        rules: &[
            rule(r"\bChosenPlan\b|\bjoin_order_covers_lambda\b|\bQueryPlan::lower\b", ALL, &[],
                "pub struct ChosenPlan {"),
            rule(r"\bpre_agg_candidates(", ALL, &["crates/plan/src/"],
                "let nests = pre_agg_candidates(&plan, e);"),
        ],
        limit: Limit::Banned,
        reason: "the planner emits the QueryPlan every site runs, shard nests included",
        origin: "aim 2",
    },
    Guard {
        name: "no admission control",
        rules: &[
            rule(r"\bPricedOn\b|\bTooExpensive\b|\bQuoteMemo\b|\bcost_quote_with_stats\b|\bsamples_for\b",
                ALL, &[], "Err(ServeError::TooExpensive { cost })"),
            rule(r"\bMaintainedQueryStats\b", &["crates/serve/src/"], &[],
                "stats: MaintainedQueryStats,"),
        ],
        limit: Limit::Banned,
        reason: "every submit queues: no quote, memo, pricing basis or server-kept statistics",
        origin: "item 7(a)",
    },
    Guard {
        name: "one conformance evaluation",
        rules: &[rule(".conformance(|.wire_conformance(", ALL,
            &["crates/protocols/src/distributed.rs"], "let report = run.conformance(out.stats);")],
        limit: Limit::Banned,
        reason: "a run returns the report it checked (DistributedOutcome::report); nothing re-evaluates it",
        origin: "item 24",
    },
    Guard {
        name: "one run report",
        rules: &[
            rule(r"\brun_bcq_protocol_with_cut\b|from_stats(", ALL, &[],
                "let outcome = ProtocolOutcome::from_stats(answer, run.stats(), predicted);"),
            rule(r"\bfn bits_across\b", ALL, &[REPORT],
                "pub fn bits_across(&self, side: &[bool]) -> u64 {"),
            rule(".bits_across(", ALL, &[REPORT, "crates/bench/src/experiments.rs"],
                "Ok((outcome, run.bits_across(side)))"),
        ],
        limit: Limit::Banned,
        reason: "every protocol returns one RunReport from one constructor; a cut is read from it, and only E4 prints one",
        origin: "item 19(e)",
    },
    Guard {
        name: "one structural analysis per plan",
        rules: &[rule(r"\bDecomposition::of(|\binternal_node_width(|\bQueryStructure::of(",
            &["crates/plan/src/", "crates/protocols/src/"],
            &["crates/plan/src/planner.rs", "crates/plan/src/plan.rs", "crates/protocols/src/bounds.rs"],
            "let report = internal_node_width(&q.hypergraph);")],
        limit: Limit::Sites(1, 1),
        reason: "a plan runs GYO once (the planner's analyse) and carries the bound's width terms; only QueryPlan::for_ghd and the fresh BoundReport::evaluate derive them again",
        origin: "aim 2",
    },
    Guard {
        name: "no per-candidate rebuild",
        rules: &[
            rule(r"BTreeSet<Player>|BTreeMap<Var, f64>|\bghd_fingerprint\b",
                &["crates/plan/src/"], &[],
                "let mut candidates: BTreeSet<Player> = BTreeSet::from([output]);"),
            rule(r"\bfn children(&self, n: NodeId) -> Vec<", &["crates/hypergraph/src/"], &[],
                "pub fn children(&self, n: NodeId) -> Vec<NodeId> {"),
        ],
        limit: Limit::Banned,
        reason: "a planning search computes what no candidate changes once (PlanShape), builds candidates into one spare plan and one fingerprint buffer, and scores them without per-node heap sets or maps",
        origin: "item 7(c)",
    },
    Guard {
        name: "calibration observes",
        rules: &[rule(
            r"\bcorrection_fresh\b|\bcalibration_replans\b|\bwith_calibration\b|\bplan_query_calibrated\b|\bCalibrationRegistry::off\b",
            ALL, &[], "let plan = plan_query_calibrated(q, placement, stats, 1.0);")],
        limit: Limit::Banned,
        reason: "the planner scores raw estimates; the registry records and never steers",
        origin: "item 20",
    },
];

/// Source files as `(path from the repository root, text)`.
type Tree = Vec<(String, String)>;

fn word(line: &[u8], i: usize) -> bool {
    line.get(i)
        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
}

/// Where one `|`-free alternative ends if it matches `line` from `i`.
fn match_at(alt: &[u8], line: &[u8], mut i: usize) -> Option<usize> {
    let mut p = 0;
    while p < alt.len() {
        if alt[p..].starts_with(br"\b") {
            if (i > 0 && word(line, i - 1)) == word(line, i) {
                return None;
            }
            p += 2;
        } else if alt[p..].starts_with(br"\s*") {
            while line.get(i).is_some_and(u8::is_ascii_whitespace) {
                i += 1;
            }
            p += 3;
        } else if line.get(i) == Some(&alt[p]) {
            (i, p) = (i + 1, p + 1);
        } else {
            return None;
        }
    }
    Some(i)
}

/// The leftmost non-overlapping matches of `pattern` in `line`.
fn matches(pattern: &str, line: &str) -> Vec<(usize, usize)> {
    let line = line.as_bytes();
    let (mut found, mut i) = (Vec::new(), 0);
    while i <= line.len() {
        let end = pattern
            .split('|')
            .find_map(|alt| match_at(alt.as_bytes(), line, i));
        match end {
            Some(end) => {
                found.push((i, end));
                i = end.max(i + 1);
            }
            None => i += 1,
        }
    }
    found
}

/// `line`'s matches of `rule`, after its exempt literals are deleted.
fn hits(rule: &Rule, line: &str) -> usize {
    if rule.exempt.is_empty() {
        return matches(rule.pattern, line).len();
    }
    let (mut kept, mut at) = (String::new(), 0);
    for (start, end) in matches(&rule.exempt.join("|"), line) {
        kept.push_str(&line[at..start]);
        at = end;
    }
    kept.push_str(&line[at..]);
    matches(rule.pattern, &kept).len()
}

/// The module file a `mod name;` in `file` declares.
fn module_path(file: &str, name: &str) -> String {
    let (dir, stem) = file.rsplit_once('/').unwrap_or(("", file));
    match stem {
        "lib.rs" | "main.rs" | "mod.rs" => format!("{dir}/{name}.rs"),
        _ => format!("{dir}/{}/{name}.rs", stem.trim_end_matches(".rs")),
    }
}

/// Each scanned file's non-test lines (comments included). A file that
/// a `#[cfg(test)] mod name;` declares is left out.
fn nontest(tree: &Tree) -> Vec<(&str, Vec<&str>)> {
    let mut test_modules = Vec::new();
    for (path, text) in tree {
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(rest) = line.strip_prefix("#[cfg(test)]") else {
                continue;
            };
            let decl = match rest.trim() {
                "" => lines.get(i + 1).copied().unwrap_or(""),
                rest => rest,
            };
            let decl = decl.strip_prefix("pub ").unwrap_or(decl);
            if let Some(name) = decl.strip_prefix("mod ").and_then(|d| d.strip_suffix(';')) {
                test_modules.push(module_path(path, name.trim()));
            }
        }
    }
    tree.iter()
        .filter(|(path, _)| !test_modules.contains(path))
        .map(|(path, text)| {
            let lines = text.lines();
            let code = lines.take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"));
            (path.as_str(), code.collect())
        })
        .collect()
}

/// A non-test code line: its file, its number and its text.
type Line<'t> = (&'t str, usize, &'t str);

fn code(tree: &Tree) -> Vec<Line<'_>> {
    let files = nontest(tree).into_iter();
    let numbered = files.flat_map(|(path, lines)| {
        let lines = lines.into_iter().enumerate();
        lines.map(move |(i, line)| (path, i + 1, line))
    });
    numbered
        .filter(|(_, _, line)| !line.trim_start().starts_with("//"))
        .collect()
}

/// Every breach of `guard` on the lines `code`, one message each.
fn check(guard: &Guard, code: &[Line]) -> Vec<String> {
    let name = format!("guard `{}` ({})", guard.name, guard.origin);
    let reason = guard.reason;
    let mut breaches = Vec::new();
    for rule in guard.rules {
        let mut lines_hit = 0;
        let mut per_allowed = vec![0; rule.allowed.len()];
        for &(path, number, line) in code {
            if !rule.scope.iter().any(|s| path.starts_with(s)) {
                continue;
            }
            let n = hits(rule, line);
            if n == 0 {
                continue;
            }
            match rule.allowed.iter().position(|a| path.starts_with(a)) {
                Some(a) => per_allowed[a] += n,
                None if matches!(guard.limit, Limit::Ratchet(_)) => lines_hit += 1,
                None => breaches.push(format!(
                    "{name}: {path}:{number}: {}\n  {reason}",
                    line.trim()
                )),
            }
        }
        match guard.limit {
            Limit::Ratchet(max) if lines_hit > max => breaches.push(format!(
                "{name}: {lines_hit} lines, ratchet is {max}\n  {reason}"
            )),
            Limit::Sites(lo, hi) => {
                for (a, n) in rule.allowed.iter().zip(per_allowed) {
                    if !(lo..=hi).contains(&n) {
                        breaches.push(format!(
                            "{name}: {a} holds {n} matches, expected {lo}..={hi}\n  {reason}"
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    breaches
}

fn read_tree() -> Tree {
    fn walk(root: &Path, dir: &Path, tree: &mut Tree) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, tree);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let text = std::fs::read_to_string(&path).expect("readable source");
                tree.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = Tree::new();
    walk(root, &root.join("src"), &mut tree);
    for krate in std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        walk(root, &krate.path().join("src"), &mut tree);
    }
    tree.sort();
    tree
}

#[test]
fn guards_hold() {
    let tree = read_tree();
    let (files, code) = (nontest(&tree), code(&tree));
    let lines_under = |prefix: &str| -> usize {
        let under = files.iter().filter(|(p, _)| p.starts_with(prefix));
        under.map(|(_, lines)| lines.len()).sum()
    };
    let mut total = 0;
    for krate in ["core", "exec", "protocols"] {
        let n = lines_under(&format!("crates/{krate}/src/"));
        println!("{krate:<10} {n:>5}");
        total += n;
    }
    println!("{:<10} {total:>5} non-test src lines", "total");
    let workspace = lines_under("src/") + lines_under("crates/");
    println!(
        "{:<10} {workspace:>5} non-test src lines (src/ + crates/*/src)",
        "workspace"
    );
    let ratchet = GUARDS.iter().find(|g| matches!(g.limit, Limit::Ratchet(_)));
    let ratchet = &ratchet.expect("a ratchet row").rules[0];
    let unwraps = code.iter().filter(|(_, _, l)| hits(ratchet, l) > 0).count();
    let what = "non-test, non-comment src lines with an unwrap/expect";
    println!("{:<10} {unwraps:>5} {what}", "workspace");

    let breaches: Vec<String> = GUARDS.iter().flat_map(|g| check(g, &code)).collect();
    assert!(breaches.is_empty(), "{}", breaches.join("\n"));
}

/// A file under `prefix`: `lib.rs` in a directory, or the file it names.
fn in_dir(prefix: &str) -> String {
    match prefix.ends_with('/') {
        true => format!("{prefix}lib.rs"),
        false => prefix.to_string(),
    }
}

/// Every rule's sample, placed as a code line in scope, breaches its
/// guard; as a comment, in a test module, in a file a `#[cfg(test)] mod`
/// declares, or in an allowed file, it does not.
#[test]
fn every_row_catches_its_sample() {
    let repeat = |line: &str, n: usize| format!("{line}\n").repeat(n);
    for guard in GUARDS {
        let (lo, hi) = match guard.limit {
            Limit::Sites(lo, hi) => (lo, hi),
            _ => (0, usize::MAX),
        };
        let n = match guard.limit {
            Limit::Ratchet(max) => max + 1,
            _ => 1,
        };
        for rule in guard.rules {
            let base: Tree = rule
                .allowed
                .iter()
                .map(|a| (in_dir(a), repeat(rule.sample, lo)))
                .collect();
            let with = |path: &str, text: String| -> Tree {
                let mut files = base.clone();
                files.retain(|(p, _)| p != path);
                files.push((path.to_string(), text));
                files
            };
            let breached = |t: &Tree| !check(guard, &code(t)).is_empty();
            let victim = in_dir(rule.scope[0]);
            let sample = rule.sample;
            let caught = check(guard, &code(&with(&victim, repeat(sample, n))));
            assert!(
                caught.iter().any(|b| b.contains(guard.name)),
                "{}: {sample}",
                guard.name
            );
            let comment = repeat(&format!("    // {sample}"), n);
            assert!(
                !breached(&with(&victim, comment)),
                "{}: comment",
                guard.name
            );
            let test_mod = format!("#[cfg(test)]\nmod tests {{\n{}}}\n", repeat(sample, n));
            assert!(
                !breached(&with(&victim, test_mod)),
                "{}: test module",
                guard.name
            );
            for exempt in rule.exempt {
                assert!(!breached(&with(&victim, format!("{exempt}\n"))), "{exempt}");
            }
            if let Some(dir) = rule.scope[0].strip_suffix('/') {
                let module = format!("{dir}/law_tests.rs");
                let mut declared = with(&victim, "#[cfg(test)]\nmod law_tests;\n".into());
                declared.push((module.clone(), repeat(sample, n)));
                assert!(!breached(&declared), "{}: declared test module", guard.name);
                let mut plain = with(&victim, "mod law_tests;\n".into());
                plain.push((module, repeat(sample, n)));
                assert!(breached(&plain), "{}: plain module", guard.name);
            }
            for allowed in rule.allowed {
                let ok = with(&in_dir(allowed), repeat(sample, lo.max(1)));
                assert!(!breached(&ok), "{}: in {allowed}", guard.name);
                if hi < usize::MAX {
                    let over = with(&in_dir(allowed), repeat(sample, hi + 1));
                    assert!(breached(&over), "{}: {} in {allowed}", guard.name, hi + 1);
                }
            }
        }
    }
}
