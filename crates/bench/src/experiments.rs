//! The reproduction experiments: E1–E12 each print the rows of one
//! paper artifact, E15/E16 confront the distributed runtime and the
//! planner with the same bounds. Model quantities only (rounds, bits,
//! widths, bounds) — wall-clock numbers come from `benchmark/`.

use crate::{banner, header, row};
use faqs_core::{solve_bcq, solve_faq};
use faqs_hypergraph::{
    clique_query, exact_internal_node_width, example_h0, example_h1, example_h2,
    internal_node_width, random_degenerate_query, random_uniform_hypergraph, star_query,
    tree_query, EdgeId, Ghd, Hypergraph,
};
use faqs_lowerbounds::{
    bcq_lower_bound, embed_core, embed_forest, embed_hypergraph, faq_lower_bound, forest_capacity,
    hard_assignment, hypergraph_capacity, mcm_lower_bound, Tribes,
};
use faqs_mcm::{
    entropy::{leaky_matrix_min_entropy, prefix_source, transcript_experiment},
    merge_protocol, random_assignment_protocol, sequential_protocol,
    shannon::shannon_counterexample,
    trivial_protocol, McmProblem,
};
use faqs_network::{min_cut, steiner_packing, Player, Topology};
use faqs_protocols::{
    model_capacity_bits, run_bcq_protocol, run_faq_protocol, run_hash_split_protocol,
    run_set_intersection, run_trivial, DistributedFaqRun, InputPlacement, ProtocolError,
    ProtocolOutcome,
};
use faqs_relation::{
    random_boolean_instance, random_instance, BcqBuilder, FaqQuery, RandomInstanceConfig,
};
use faqs_semiring::{Count, Prob, Semiring};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn players_of(g: &Topology) -> Vec<u32> {
    (0..g.num_players() as u32).collect()
}

/// The measured rounds of a paper protocol's run.
fn rounds<T>(out: Result<ProtocolOutcome<T>, ProtocolError>) -> u64 {
    out.expect("run").report.stats.rounds
}

fn ratio(a: u64, b: u64) -> String {
    if b == 0 {
        "—".into()
    } else {
        format!("{:.2}", a as f64 / b as f64)
    }
}

/// **E1 — Table 1.** One measured row per bound row of the paper's
/// summary table: measured rounds of our protocol, the paper's upper
/// bound, the certified lower bound, and the gap.
pub fn e1_table1(n: usize) {
    banner("E1 · Table 1 — per-row reproduction");
    header(&[
        "row",
        "query",
        "topology",
        "d",
        "r",
        "measured",
        "upper",
        "lower(cert)",
        "UB/LB",
    ]);

    let run_row = |label: &str, name: &str, h: &Hypergraph, g: &Topology, counting: bool| {
        let cfg = RandomInstanceConfig {
            tuples_per_factor: n,
            domain: (4 * n) as u32,
            seed: 0xE1,
        };
        let ids = players_of(g);
        let (measured, upper) = if counting {
            let q: FaqQuery<Count> =
                random_instance(h, &cfg, vec![], |r| Count(r.random_range(1..4)));
            let a = InputPlacement::round_robin(&q, &ids);
            let report = run_faq_protocol(&q, g, &a, 1).expect("run").report;
            (report.stats.rounds, report.upper_rounds)
        } else {
            let q = random_boolean_instance(h, &cfg, true);
            let a = InputPlacement::round_robin(&q, &ids);
            let report = run_bcq_protocol(&q, g, &a, 1).expect("run").report;
            (report.stats.rounds, report.upper_rounds)
        };
        let k: Vec<Player> = ids.iter().map(|&i| Player(i)).collect();
        let lb = if counting {
            faq_lower_bound(h, g, &k, n as u64)
        } else {
            bcq_lower_bound(h, g, &k, n as u64)
        };
        row(&[
            label.to_string(),
            name.to_string(),
            g.name().to_string(),
            h.degeneracy().to_string(),
            h.arity().to_string(),
            measured.to_string(),
            upper.to_string(),
            lb.rounds.to_string(),
            ratio(upper, lb.rounds),
        ]);
    };

    // Row 1: FAQ, line, O(1) d and r.
    run_row(
        "FAQ/L",
        "tree(2,2)",
        &tree_query(2, 2),
        &Topology::line(6),
        true,
    );
    // Row 2: FAQ, arbitrary G.
    run_row(
        "FAQ/A",
        "tree(2,2)",
        &tree_query(2, 2),
        &Topology::random_connected(6, 0.5, 3),
        true,
    );
    // Row 3: BCQ, arbitrary G, (d, 2).
    for d in [1usize, 2, 3] {
        let h = random_degenerate_query(8, d, 17 + d as u64);
        run_row(
            &format!("BCQ/A d={d}"),
            &format!("degenerate(8,{d})"),
            &h,
            &Topology::clique(6),
            false,
        );
    }
    // Row 4: FAQ, arbitrary G, (d, r = 3).
    let h3 = random_uniform_hypergraph(8, 3, 1, 23);
    run_row(
        "FAQ/A r=3",
        "uniform(8,3,1)",
        &h3,
        &Topology::grid(2, 3),
        true,
    );

    // Row 5: MCM on the line.
    let (mn, mk) = (n.min(64), 8);
    let p = McmProblem::random(mn, mk, 1, 0xE1);
    let seq = sequential_protocol(&p);
    let lb = mcm_lower_bound(mk as u64, mn as u64, 1);
    row(&[
        "MCM/L".into(),
        format!("chain k={mk} N={mn}"),
        format!("line{}", mk + 2),
        "1".into(),
        "2".into(),
        seq.rounds.to_string(),
        seq.predicted_rounds.to_string(),
        lb.to_string(),
        ratio(seq.predicted_rounds, lb),
    ]);
}

/// **E2 — Figures 1 & 2.** The example queries, their widths, the GHDs
/// `T1`/`T2`, and the Steiner decomposition `W1`/`W2` of the clique.
pub fn e2_figures() {
    banner("E2 · Figures 1 & 2 — examples, widths, packings");
    let h1 = example_h1();
    let h2 = example_h2();
    println!("H1 = {}", h1.to_datalog());
    println!("H2 = {}", h2.to_datalog());

    header(&["object", "value", "paper"]);
    let w1 = internal_node_width(&h1);
    let w2 = internal_node_width(&h2);
    row(&["y(H1)".to_string(), w1.y.to_string(), "1".into()]);
    row(&[
        "y(H2)".to_string(),
        w2.y.to_string(),
        "1 (T1 of Fig 2)".into(),
    ]);
    row(&[
        "exact y(H1)".to_string(),
        exact_internal_node_width(&h1, 8).unwrap().to_string(),
        "1".into(),
    ]);
    row(&[
        "exact y(H2)".to_string(),
        exact_internal_node_width(&h2, 8).unwrap().to_string(),
        "1".into(),
    ]);
    // T2 of Figure 2: an *alternative* valid GYO-GHD with two internal
    // nodes — root (A,B,C), child (A,B,E), grandchild (B,D), plus leaf
    // (C,F) — demonstrating that the minimum over GYO-GHDs matters.
    let t2 = {
        use faqs_hypergraph::{GhdNode, NodeId, Var};
        let node = |chi: &[u32], lambda: &[u32], parent: Option<u32>| GhdNode {
            chi: chi.iter().map(|v| Var(*v)).collect(),
            lambda: lambda.iter().map(|e| EdgeId(*e)).collect(),
            parent: parent.map(NodeId),
        };
        Ghd::from_nodes(
            vec![
                node(&[0, 1, 2], &[0], None),    // (A,B,C) = R
                node(&[0, 1, 4], &[3], Some(0)), // (A,B,E) = U
                node(&[1, 3], &[1], Some(1)),    // (B,D) = S under U
                node(&[2, 5], &[2], Some(0)),    // (C,F) = T
            ],
            NodeId(0),
        )
    };
    assert!(t2.validate(&h2).is_ok(), "T2 is a valid GHD of H2");
    row(&[
        "T2 internal nodes (Fig 2 alternative)".to_string(),
        t2.internal_count().to_string(),
        "2 (T2 of Fig 2)".into(),
    ]);

    let g2 = Topology::clique(4);
    let k: Vec<Player> = (0..4u32).map(Player).collect();
    let packing = steiner_packing(&g2, &k, 3);
    row(&[
        "ST(G2, K, 3)".to_string(),
        packing.len().to_string(),
        "2 (W1, W2)".into(),
    ]);
    row(&[
        "MinCut(G2, K)".to_string(),
        min_cut(&g2, &k).map_or_else(|| "-".into(), |c| c.to_string()),
        "3".into(),
    ]);
    for (i, t) in packing.iter().enumerate() {
        println!(
            "  W{} uses links {:?}",
            i + 1,
            t.links().iter().map(|l| g2.link(*l)).collect::<Vec<_>>()
        );
    }
}

/// **E3 — Examples 2.1–2.3.** Round counts of the worked examples:
/// `N + O(1)` for the self-loop chain and the star on the line,
/// `≈ N/2` on the clique, `≈ 3N` for the trivial protocol.
pub fn e3_examples(ns: &[u32]) {
    banner("E3 · Examples 2.1–2.3 — worked round counts");
    header(&[
        "N",
        "H0 on line (≈N)",
        "H1 on line (≈N)",
        "H1 on clique (≈N/2)",
        "trivial H1/line (≈3N)",
    ]);
    for &n in ns {
        // Example 2.1.
        let h0 = example_h0();
        let mut b = BcqBuilder::new(&h0, 2 * n as usize);
        for e in 0..4 {
            b.relation_from_values(e, (0..n).map(move |x| (x * (e as u32 + 1)) % (2 * n)));
        }
        let q0 = b.finish();
        let g1 = Topology::line(4);
        let a0 = InputPlacement::round_robin(&q0, &[0, 1, 2, 3]).with_output(Player(3));
        let r_h0 = rounds(run_bcq_protocol(&q0, &g1, &a0, 1));

        // Examples 2.2 / 2.3.
        let h1 = example_h1();
        let mut b1 = BcqBuilder::new(&h1, n as usize);
        for e in 0..4 {
            b1.relation_from_pairs(e, (0..n).map(|x| (x, 0)));
        }
        let q1 = b1.finish();
        let a1 = InputPlacement::round_robin(&q1, &[0, 1, 2, 3]).with_output(Player(1));
        let r_line = rounds(run_bcq_protocol(&q1, &g1, &a1, 1));
        let g2 = Topology::clique(4);
        let r_clique = rounds(run_bcq_protocol(&q1, &g2, &a1, 1));
        let g1_scaled = g1.clone().with_uniform_capacity(model_capacity_bits(&q1));
        let r_trivial = rounds(run_trivial(&q1, &g1_scaled, &a1));

        row(&[
            n.to_string(),
            r_h0.to_string(),
            r_line.to_string(),
            r_clique.to_string(),
            r_trivial.to_string(),
        ]);
    }
}

/// **E4 — Example 2.4 & the reductions.** Verifies `BCQ ⇔ TRIBES` on
/// random instances for every embedding, then shows hard-assignment
/// round counts against the certified lower bound.
pub fn e4_lowerbounds(n_universe: u32, trials: u64) {
    banner("E4 · TRIBES ⇒ BCQ reductions (Lemma 4.3, Thm 4.4, Thm F.8)");
    header(&["embedding", "H", "pairs m", "equivalence checks", "status"]);
    let check = |label: &str,
                 name: &str,
                 embed: &dyn Fn(&Tribes) -> Option<faqs_lowerbounds::Embedding>,
                 m: usize| {
        let mut ok = 0;
        for seed in 0..trials {
            for planted in [true, false] {
                let t = Tribes::random(m, n_universe, 0.3, planted, seed);
                let e = embed(&t).expect("embedding");
                if solve_bcq(&e.query) == t.eval() {
                    ok += 1;
                }
            }
        }
        row(&[
            label.to_string(),
            name.to_string(),
            m.to_string(),
            format!("{ok}/{}", 2 * trials),
            if ok == 2 * trials as usize {
                "✓".into()
            } else {
                "✗ MISMATCH".to_string()
            },
        ]);
        assert_eq!(ok, 2 * trials as usize, "{label}: BCQ ⇔ TRIBES mismatch");
    };

    let star = example_h1();
    check(
        "forest (4.3)",
        "example_h1",
        &|t| embed_forest(&star, t),
        forest_capacity(&star),
    );
    let tree = tree_query(2, 3);
    check(
        "forest (4.3)",
        "tree(2,3)",
        &|t| embed_forest(&tree, t),
        forest_capacity(&tree),
    );
    let cyc = faqs_hypergraph::cycle_query(5);
    check("core/cycles (4.4)", "cycle(5)", &|t| embed_core(&cyc, t), 1);
    let grid = faqs_hypergraph::grid_query(3, 3);
    check("core/IS (4.4)", "grid(3,3)", &|t| embed_core(&grid, t), 2);
    let h2 = example_h2();
    check(
        "hypergraph (F.8)",
        "example_h2",
        &|t| embed_hypergraph(&h2, t),
        hypergraph_capacity(&h2),
    );

    println!();
    header(&[
        "H",
        "G",
        "hard-assignment rounds",
        "certified LB",
        "measured/LB",
        "cut bits (≥ m·N·log N)",
    ]);
    for (name, h, g) in [
        ("example_h1", example_h1(), Topology::line(4)),
        ("tree(2,2)", tree_query(2, 2), Topology::line(6)),
        ("tree(2,2)", tree_query(2, 2), Topology::barbell(3, 1)),
    ] {
        let cap = forest_capacity(&h);
        // Dense sets: the Ω(m·N) hardness is against the universe size,
        // so the instances must actually fill the universe.
        let t = Tribes::random(cap, n_universe, 0.95, true, 0xE4);
        let e = embed_forest(&h, &t).expect("forest");
        let k: Vec<Player> = players_of(&g).iter().map(|&i| Player(i)).collect();
        let a = hard_assignment(&e, &g, &k);
        let (_, side) = faqs_network::min_cut_partition(&g, &k).expect("K spans g");
        let out = run_bcq_protocol(&e.query, &g, &a, 1).unwrap();
        assert_eq!(out.answer, t.eval());
        let report = &out.report;
        let cut_bits = report.bits_across(&g, &side);
        let lb = bcq_lower_bound(&e.query.hypergraph, &g, &k, e.query.n_max() as u64);
        row(&[
            name.to_string(),
            g.name().to_string(),
            report.stats.rounds.to_string(),
            lb.rounds.to_string(),
            ratio(report.stats.rounds, lb.rounds),
            cut_bits.map_or_else(|| "n/a".into(), |bits| bits.to_string()),
        ]);
    }
}

/// **E5 — Section 6 & Appendix I.1.** The MCM protocol sweep and the
/// sequential/merge crossover, over chains of at most `max_k` matrices.
pub fn e5_mcm(max_k: usize) {
    banner("E5 · Matrix chain — protocol sweep (Prop 6.1, App I.1)");
    header(&[
        "N",
        "k",
        "sequential",
        "merge",
        "trivial",
        "shuffled(s&f)",
        "Ω(kN)",
    ]);
    for (n, k) in [
        (64usize, 4usize),
        (64, 8),
        (64, 16),
        (32, 32),
        (16, 64),
        (16, 128),
        (8, 256),
    ]
    .into_iter()
    .filter(|&(_, k)| k <= max_k)
    {
        let p = McmProblem::random(n, k, 1, 0xE5);
        let expected = p.expected();
        let seq = sequential_protocol(&p);
        let mrg = merge_protocol(&p);
        let tri = trivial_protocol(&p);
        let shf = random_assignment_protocol(&p, 1, false);
        assert!(seq.y == expected && mrg.y == expected && tri.y == expected && shf.y == expected);
        row(&[
            n.to_string(),
            k.to_string(),
            seq.rounds.to_string(),
            mrg.rounds.to_string(),
            tri.rounds.to_string(),
            shf.rounds.to_string(),
            mcm_lower_bound(k as u64, n as u64, 1).to_string(),
        ]);
    }
    println!();
    println!("shape: sequential ≈ (k+1)·N tracks Ω(kN) for k ≤ N; merge crosses over once");
    println!("k ≫ N·log k; trivial ≈ k·N²; the shuffled store-and-forward walk pays Θ(k²N/3).");
}

/// **E6 — Lemma 6.2 / Theorem 6.3.** Exact min-entropy of `y_k` given
/// truncated transcripts, and the leaky-matrix `H∞(Ax | leak)` bound.
pub fn e6_entropy() {
    banner("E6 · Min-entropy experiments (Lemma 6.2, Thm 6.3)");
    header(&[
        "N",
        "k",
        "γ",
        "Σ tᵢ bits",
        "H∞(y_k | transcripts)",
        "paper bound",
    ]);
    for (n, k, gamma) in [
        (12usize, 2usize, 0.05f64),
        (12, 3, 0.05),
        (12, 3, 0.1),
        (14, 3, 0.05),
        (12, 3, 0.2),
    ] {
        let e = transcript_experiment(n, k, gamma, 0xE6);
        row(&[
            n.to_string(),
            k.to_string(),
            format!("{gamma}"),
            e.truncation_bits.iter().sum::<usize>().to_string(),
            format!("{:.2}", e.worst_case_entropy),
            format!("{:.2}", e.paper_bound),
        ]);
    }

    println!();
    // Theorem 6.3 is an entropy *amplifier*: a weak source x (entropy m
    // ≪ N) multiplied by a mostly-unknown uniform matrix yields Ax of
    // near-full entropy. We sweep the source entropy at a fixed leak of
    // ℓ = 2 rows (γ = ℓ/N) and drop the x = 0 atom (the theorem's
    // smoothing budget absorbs it).
    header(&["N", "H∞(x)", "ℓ leaked rows", "H∞(Ax|leak)", "(1−√2γ)·N"]);
    let n = 14usize;
    let leaked = 2usize;
    let gamma = leaked as f64 / n as f64;
    for m in [3usize, 6, 9, 12] {
        let source: Vec<_> = prefix_source(n, m)
            .into_iter()
            .filter(|v| v.to_u64() != 0)
            .collect();
        let rep = leaky_matrix_min_entropy(n, &source, leaked, gamma, 4, 0xE6);
        row(&[
            n.to_string(),
            format!("{:.2}", rep.source_entropy),
            leaked.to_string(),
            format!("{:.2}", rep.output_entropy),
            format!("{:.2}", rep.paper_bound),
        ]);
    }
}

/// **E7 — Appendix I.3.** The Shannon-entropy counterexample: the
/// residual entropy drops a constant factor below `H_Sh(x)`.
pub fn e7_shannon() {
    banner("E7 · Shannon counterexample (App I.3)");
    header(&[
        "N",
        "α",
        "H_Sh(x)",
        "2α(1−α)N",
        "residual",
        "α·N",
        "induction fails?",
    ]);
    for (n, alpha) in [(8usize, 0.25f64), (12, 0.25), (14, 0.25), (12, 0.125)] {
        let c = shannon_counterexample(n, alpha, 4, 0xE7);
        row(&[
            n.to_string(),
            format!("{alpha}"),
            format!("{:.2}", c.input_entropy),
            format!("{:.2}", c.input_entropy_formula),
            format!("{:.2}", c.residual_entropy),
            format!("{:.2}", c.residual_formula),
            if c.induction_fails() {
                "yes ✓".into()
            } else {
                "NO ✗".to_string()
            },
        ]);
        assert!(c.induction_fails(), "N = {n}, α = {alpha}: induction holds");
    }
}

/// **E8 — Theorem 4.1 tightness.** The UB/LB gap as the degeneracy `d`
/// grows (the paper's Õ(d) gap column).
pub fn e8_gap_sweep(n: usize) {
    banner("E8 · Theorem 4.1 gap sweep over degeneracy d");
    header(&["d", "G", "measured", "upper", "lower(cert)", "UB/LB"]);
    for d in 1..=4usize {
        let h = random_degenerate_query(9, d, 0xE8 + d as u64);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: n,
            domain: (4 * n) as u32,
            seed: d as u64,
        };
        let q = random_boolean_instance(&h, &cfg, true);
        for g in [Topology::line(5), Topology::clique(5)] {
            let ids = players_of(&g);
            let a = InputPlacement::round_robin(&q, &ids);
            let report = run_bcq_protocol(&q, &g, &a, 1).expect("run").report;
            let lb = bcq_lower_bound(&h, &g, &a.players(), n as u64);
            row(&[
                d.to_string(),
                g.name().to_string(),
                report.stats.rounds.to_string(),
                report.upper_rounds.to_string(),
                lb.rounds.to_string(),
                ratio(report.upper_rounds, lb.rounds),
            ]);
        }
    }
}

/// **E9 — Appendix A.1.4.** Our star protocol in the MPC(0) topology:
/// with edge capacity `L' = N/p` the round count is `O(1)`-ish in `p`
/// (the packing of `p` diameter-2 hub trees).
pub fn e9_mpc(n: usize) {
    banner("E9 · MPC(0) topology (App A.1.4)");
    header(&["p", "edge capacity L'", "rounds", "ST(G',K,2)"]);
    let k_sources = 6usize;
    let h = star_query(k_sources);
    for p in [2usize, 4, 8] {
        let g = Topology::mpc(k_sources, p);
        let cap = ((n / p).max(1) as u64)
            * model_capacity_bits(&random_boolean_instance(
                &h,
                &RandomInstanceConfig {
                    tuples_per_factor: 1,
                    domain: (4 * n) as u32,
                    seed: 0,
                },
                true,
            ));
        let g = g.with_uniform_capacity(cap);
        let cfg = RandomInstanceConfig {
            tuples_per_factor: n,
            domain: (4 * n) as u32,
            seed: 0xE9,
        };
        let q = random_boolean_instance(&h, &cfg, true);
        let ids: Vec<u32> = (0..k_sources as u32).collect();
        let a = InputPlacement::round_robin(&q, &ids);
        let measured = rounds(run_bcq_protocol(&q, &g, &a, 0));
        let kp: Vec<Player> = ids.iter().map(|&i| Player(i)).collect();
        let st = steiner_packing(&g, &kp, 2).len();
        row(&[
            p.to_string(),
            cap.to_string(),
            measured.to_string(),
            st.to_string(),
        ]);
    }
    println!(
        "(rounds stay O(1) as p grows: capacity L' = N/p falls exactly as the packing of p \
         hub trees grows — Appendix A.1.4's one-round-per-phase claim)"
    );
}

/// **E10 — Theorem 3.11.** Set intersection across topologies: measured
/// vs `min_Δ (N/ST + Δ)`.
pub fn e10_set_intersection(n: usize) {
    banner("E10 · Set intersection (Thm 3.11)");
    header(&["G", "N", "measured", "predicted", "measured/predicted"]);
    let mut rng = StdRng::seed_from_u64(0xE10);
    for g in [
        Topology::line(6).with_uniform_capacity(2),
        Topology::ring(6).with_uniform_capacity(2),
        Topology::grid(2, 3).with_uniform_capacity(2),
        Topology::clique(6).with_uniform_capacity(2),
        Topology::barbell(3, 1).with_uniform_capacity(2),
    ] {
        let inputs: Vec<(Player, Vec<bool>)> = (0..6u32)
            .map(|p| (Player(p), (0..n).map(|_| rng.random_bool(0.9)).collect()))
            .collect();
        let report = run_set_intersection(&g, &inputs, Player(0))
            .expect("run")
            .report;
        row(&[
            g.name().to_string(),
            n.to_string(),
            report.stats.rounds.to_string(),
            report.upper_rounds.to_string(),
            ratio(report.stats.rounds, report.upper_rounds),
        ]);
    }
}

/// **E11 — Theorems 5.1/5.2.** General FAQ over different semirings and
/// an arity-3 hypergraph: the distributed answer equals the engine's and
/// the rounds respect the bounds.
pub fn e11_faq_general(n: usize) {
    banner("E11 · General FAQ (Thm 5.1/5.2)");
    header(&["semiring", "H", "G", "rounds", "upper", "agrees"]);
    let h2 = example_h2();
    let cfg = RandomInstanceConfig {
        tuples_per_factor: n,
        domain: 16,
        seed: 0xE11,
    };
    for g in [Topology::line(4), Topology::clique(4)] {
        let ids = players_of(&g);
        // Counting semiring.
        let qc: FaqQuery<Count> =
            random_instance(&h2, &cfg, vec![], |r| Count(r.random_range(1..4)));
        let a = InputPlacement::round_robin(&qc, &ids);
        let out = run_faq_protocol(&qc, &g, &a, 1).expect("run");
        let agree = out.answer.total() == solve_faq(&qc).unwrap().total();
        row(&[
            Count::NAME.to_string(),
            "H2".into(),
            g.name().to_string(),
            out.report.stats.rounds.to_string(),
            out.report.upper_rounds.to_string(),
            agree.to_string(),
        ]);
        assert!(agree, "Count on {}: protocol ≠ engine", g.name());
        // Probability semiring, factor marginal (F = e0).
        let free = h2.edge(EdgeId(0)).to_vec();
        let qp: FaqQuery<Prob> =
            random_instance(&h2, &cfg, free, |r| Prob(r.random_range(0.1..1.0)));
        let a = InputPlacement::round_robin(&qp, &ids);
        let out = run_faq_protocol(&qp, &g, &a, 1).expect("run");
        let agree = out.answer.approx_eq(&solve_faq(&qp).unwrap());
        row(&[
            Prob::NAME.to_string(),
            "H2 (F=e0)".into(),
            g.name().to_string(),
            out.report.stats.rounds.to_string(),
            out.report.upper_rounds.to_string(),
            agree.to_string(),
        ]);
        assert!(agree, "Prob on {}: protocol ≠ engine", g.name());
    }
}

/// **E12 — Appendix G.6.** The hash-split star protocol vs. the
/// whole-relation assignment.
pub fn e12_hash_split(n: usize) {
    banner("E12 · Hash-split relations (Thm G.8)");
    header(&[
        "|K|",
        "G",
        "rounds (split)",
        "rounds (whole)",
        "answers agree",
    ]);
    let h = star_query(4);
    let cfg = RandomInstanceConfig {
        tuples_per_factor: n,
        domain: (4 * n) as u32,
        seed: 0xE12,
    };
    let q = random_boolean_instance(&h, &cfg, true);
    for k in [2usize, 4] {
        let g = Topology::clique(k.max(4));
        let players: Vec<Player> = (0..k as u32).map(Player).collect();
        let split = run_hash_split_protocol(&q, &g, &players, Player(0)).expect("run");
        let ids: Vec<u32> = (0..4u32.min(g.num_players() as u32)).collect();
        let a = InputPlacement::round_robin(&q, &ids);
        let whole = run_bcq_protocol(&q, &g, &a, 1).expect("run");
        row(&[
            k.to_string(),
            g.name().to_string(),
            split.report.stats.rounds.to_string(),
            whole.report.stats.rounds.to_string(),
            (split.answer == whole.answer).to_string(),
        ]);
        assert_eq!(split.answer, whole.answer, "|K| = {k}: split ≠ whole");
    }
}

/// **E15 — distributed runtime.** The topology-general
/// `DistributedFaqRun` across topology families and placements, every
/// row confronted with the `BoundReport` bit envelope of the run's own
/// `RunReport`: the paper's inequalities as a live table.
pub fn e15_distributed(n: usize) {
    banner("E15 · Topology-general distributed runtime vs bounds");
    header(&["G", "placement", "rounds", "bits", "upper", "conforms"]);
    // The shared hard star instance (same fixture as the conformance
    // suite): every message is irreducible, so the measurement
    // genuinely confronts the bounds.
    let q = faqs_relation::irreducible_star_instance(4, n as u32);
    let expected = solve_bcq(&q);
    for g in [
        Topology::line(4),
        Topology::star(5),
        Topology::grid(3, 3),
        Topology::random_connected(8, 0.3, 0xE15),
    ] {
        let players: Vec<Player> = g.players().collect();
        let whole = InputPlacement::round_robin(&q, &players_of(&g));
        let split = InputPlacement::hash_split(q.k(), &players, *players.last().unwrap());
        for (label, placement) in [("whole", whole), ("hash-split", split)] {
            let run = DistributedFaqRun::new(&q, &g, placement, 1).expect("run");
            let out = run.execute().expect("execute");
            assert_eq!(!out.result.total().is_zero(), expected, "answer agrees");
            let rep = &out.report;
            row(&[
                g.name().to_string(),
                label.to_string(),
                rep.stats.rounds.to_string(),
                rep.stats.total_bits.to_string(),
                rep.upper_bits.to_string(),
                rep.conforms().to_string(),
            ]);
            let floor = rep.bound.as_ref().map_or(0, |b| b.lower_rounds);
            let inside = rep.conforms() && rep.stats.total_bits >= floor;
            assert!(inside, "{} / {label}: outside the bounds", g.name());
        }
    }
}

/// **E16 — plan-explain.** The cost-based planner's candidate tables:
/// for the shared `irreducible_star_instance` (uniform — every reroot
/// ties and the structural default must win) and the shared
/// `skewed_star_instance` (one `n²`-row leaf — the stats-aware planner
/// must re-root away from it), print every scored GHD candidate with
/// its predicted kernel work, predicted shipped bits (for the placed
/// skewed run), and the chosen plan.
pub fn e16_plan_explain(n: usize) {
    use faqs_plan::{plan_query_with, PlacementContext};

    banner("E16 · Cost-based planner — candidate tables (plan-explain)");

    let print_plan = |label: &str, plan: &faqs_plan::QueryPlan| {
        println!(
            "{label}: {} candidate(s), kept default = {}",
            plan.candidates.len(),
            plan.chose_default()
        );
        header(&[
            "candidate (GHD root)",
            "y",
            "predicted cpu",
            "predicted bits",
            "chosen",
        ]);
        for c in &plan.candidates {
            row(&[
                c.label.clone(),
                c.y.to_string(),
                c.cost.cpu.to_string(),
                c.cost.net_bits.to_string(),
                if c.chosen {
                    "◀ chosen".into()
                } else {
                    String::new()
                },
            ]);
        }
        println!();
    };

    // Uniform hard instance: every candidate ties, the default wins —
    // the determinism the pinned distributed schedules rely on.
    let uniform = faqs_relation::irreducible_star_instance(4, n as u32);
    let plan = plan_query_with(&uniform, None, None).expect("plan");
    assert!(plan.chose_default(), "uniform star must keep the default");
    print_plan("irreducible_star (uniform)", &plan);

    // Skewed instance, local cost: the planner must re-root away from
    // the n²-row leaf.
    let skewed = faqs_relation::skewed_star_instance(4, (n as u32).clamp(8, 32));
    let plan = plan_query_with(&skewed, None, None).expect("plan");
    assert!(
        !plan.chose_default(),
        "skew must beat the structural default"
    );
    print_plan("skewed_star (local cost)", &plan);

    // Skewed instance, placement-aware: candidates ranked on predicted
    // shipped bits across a line, huge factor held far from the output.
    let g = Topology::line(4);
    let placement = InputPlacement::round_robin(&skewed, &[0, 1, 2]).with_output(Player(3));
    let ctx = PlacementContext::of(&g, placement);
    let plan = plan_query_with(&skewed, Some(&ctx), None).expect("plan");
    print_plan("skewed_star (placement-aware, line4, output P3)", &plan);
}

/// Ablation: MD-hoisting and re-rooting vs. the naive construction.
pub fn ablation_width() {
    banner("Ablation · internal-node-width minimisation");
    header(&[
        "H",
        "canonical y",
        "hoisted+rerooted y",
        "exact for canonical root (≤8 nodes)",
    ]);
    for (name, h) in [
        ("H1", example_h1()),
        ("H2", example_h2()),
        ("H3", faqs_hypergraph::example_h3()),
        ("path6", faqs_hypergraph::path_query(6)),
        ("tree(2,3)", tree_query(2, 3)),
        ("clique4", clique_query(4)),
    ] {
        let naive = Ghd::gyo_ghd(&h).internal_count();
        let rep = internal_node_width(&h);
        let exact = exact_internal_node_width(&h, 8)
            .map(|y| y.to_string())
            .unwrap_or_else(|| "—".into());
        row(&[
            name.to_string(),
            naive.to_string(),
            rep.y.to_string(),
            exact,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Smoke-test every experiment at tiny sizes: they must run without
    // panicking (their assertions double as correctness checks).
    #[test]
    fn experiments_run() {
        e1_table1(16);
        e2_figures();
        e3_examples(&[16]);
        e4_lowerbounds(10, 2);
        e5_mcm(usize::MAX);
        e7_shannon();
        e8_gap_sweep(16);
        e9_mpc(32);
        e10_set_intersection(64);
        e11_faq_general(8);
        e12_hash_split(16);
        e15_distributed(16);
        e16_plan_explain(16);
        ablation_width();
    }

    #[test]
    fn entropy_experiment_runs() {
        e6_entropy();
    }
}
