//! Everything generated from `--seed`: instances, the Zipf request
//! stream and the write deltas. The program under test receives only
//! these inputs; the seed itself never reaches it.

use faqs::hypergraph::{cycle_query, path_query, star_query, Hypergraph, Var};
use faqs::relation::{random_instance, FaqQuery, RandomInstanceConfig, Relation, RelationDelta};
use faqs::semiring::{Count, MinPlus, Semiring};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// An independent sub-seed per purpose (SplitMix64 finaliser), so that
/// e.g. the two serve templates never share a data stream.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf(s) over `0..domain` by quantised cumulative weights and binary
/// search; rank 1 is value 0. (The vendored `rand` has no Zipf.)
pub struct Zipf {
    cumulative: Vec<u64>,
}

impl Zipf {
    pub fn new(domain: u32, s: f64) -> Zipf {
        let mut total = 0u64;
        let cumulative = (1..=domain as u64)
            .map(|rank| {
                total += (1e9 / (rank as f64).powf(s)) as u64 + 1;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let total = *self.cumulative.last().expect("non-empty domain");
        let x = rng.random_range(0..total);
        self.cumulative.partition_point(|&c| c <= x) as u32
    }
}

/// Which `(centre, leaf)` tuples of a binary factor are present: one bit
/// per cell of the `domain × domain` grid. The delta generator draws
/// present and absent tuples from it, so every delta adds exactly as
/// many rows as it removes and the factors keep their size for the
/// whole run — otherwise operation cost would drift between blocks.
pub struct LiveSet {
    bits: Vec<u64>,
    domain: u32,
}

impl LiveSet {
    pub fn of(rel: &Relation<Count>, domain: u32) -> LiveSet {
        assert_eq!(rel.schema().len(), 2, "binary factors only");
        let mut set = LiveSet {
            bits: vec![0; (domain as usize * domain as usize).div_ceil(64)],
            domain,
        };
        for t in rel.tuples() {
            set.put(t[0], t[1], true);
        }
        set
    }

    fn cell(&self, a: u32, x: u32) -> usize {
        a as usize * self.domain as usize + x as usize
    }

    pub fn has(&self, a: u32, x: u32) -> bool {
        let c = self.cell(a, x);
        self.bits[c / 64] >> (c % 64) & 1 == 1
    }

    fn put(&mut self, a: u32, x: u32, live: bool) {
        let c = self.cell(a, x);
        if live {
            self.bits[c / 64] |= 1 << (c % 64);
        } else {
            self.bits[c / 64] &= !(1 << (c % 64));
        }
    }

    #[cfg(test)]
    pub fn rows(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// A tuple whose presence is `live`, in row `centre` when given, by
    /// rejection (factors are 30 % full, so a few draws suffice).
    fn pick(&self, rng: &mut StdRng, centre: Option<u32>, live: bool) -> (u32, u32) {
        for _ in 0..100_000 {
            let a = centre.unwrap_or_else(|| rng.random_range(0..self.domain));
            let x = rng.random_range(0..self.domain);
            if self.has(a, x) == live {
                return (a, x);
            }
        }
        panic!("no tuple with presence {live} in row {centre:?}");
    }
}

/// One write of the serve workloads: 4 deletes, 4 overwrites, 4 inserts
/// that accumulate onto present tuples and 4 inserts of absent tuples —
/// 8 inserts, 4 deletes, 4 sets, row count unchanged. With `centre` all
/// sixteen tuples carry that binding. `live` follows the ops in order
/// (same-tuple ops compose in recording order).
pub fn write_delta(
    rng: &mut StdRng,
    live: &mut LiveSet,
    schema: &[Var],
    centre: Option<u32>,
) -> RelationDelta<Count> {
    let mut delta = RelationDelta::new(schema.iter().copied());
    let value = |rng: &mut StdRng| Count(rng.random_range(1..=4u64));
    for _ in 0..4 {
        let (a, x) = live.pick(rng, centre, true);
        live.put(a, x, false);
        delta.delete(vec![a, x]);
    }
    for _ in 0..4 {
        let (a, x) = live.pick(rng, centre, true);
        delta.set(vec![a, x], value(rng));
    }
    for _ in 0..4 {
        let (a, x) = live.pick(rng, centre, true);
        delta.insert(vec![a, x], value(rng));
    }
    for _ in 0..4 {
        let (a, x) = live.pick(rng, centre, false);
        live.put(a, x, true);
        delta.insert(vec![a, x], value(rng));
    }
    delta
}

pub const SERVE_DOMAIN: u32 = 256;
pub const SERVE_TUPLES: usize = 20_000;

/// The two registered serve shapes: `star_query(3)` `Count` templates
/// with the centre free, same structure, different data.
pub fn serve_templates(seed: u64) -> [FaqQuery<Count>; 2] {
    [0, 1].map(|i| {
        random_instance(
            &star_query(3),
            &RandomInstanceConfig {
                tuples_per_factor: SERVE_TUPLES,
                domain: SERVE_DOMAIN,
                seed: sub_seed(seed, 10 + i),
            },
            vec![Var(0)],
            |_| Count(1),
        )
    })
}

/// The four instances of `exec_scan_suite`. Sizes were tuned once so the
/// four solves take a similar share of a ~9 ms pass: two cyclic cores on
/// generic-join bags, two acyclic scans on the binary kernel.
pub struct Suite {
    /// Triangle, 4-cycle, 4-edge path, in pass order.
    pub counting: [FaqQuery<Count>; 3],
    pub star_minplus: FaqQuery<MinPlus>,
}

fn count_instance(h: &Hypergraph, tuples: usize, domain: u32, seed: u64) -> FaqQuery<Count> {
    let cfg = RandomInstanceConfig {
        tuples_per_factor: tuples,
        domain,
        seed,
    };
    random_instance(h, &cfg, vec![], |_| Count(1))
}

/// `q` with every variable's values sent through a permutation of the
/// domain drawn from `seed`: another presentation of the same instance —
/// same degrees, same statistics, same answer.
fn relabelled<S: Semiring>(q: FaqQuery<S>, seed: u64) -> FaqQuery<S> {
    let permutations: Vec<Vec<u32>> = q
        .hypergraph
        .vars()
        .map(|v| {
            let mut p: Vec<u32> = (0..q.domain).collect();
            p.shuffle(&mut StdRng::seed_from_u64(sub_seed(
                seed,
                100 + v.index() as u64,
            )));
            p
        })
        .collect();
    let factors = q
        .factors
        .iter()
        .map(|f| {
            let schema = f.schema().to_vec();
            let pairs: Vec<(Vec<u32>, S)> = f
                .iter()
                .map(|(t, value)| {
                    let relabelled = schema
                        .iter()
                        .zip(t)
                        .map(|(v, x)| permutations[v.index()][*x as usize]);
                    (relabelled.collect(), value.clone())
                })
                .collect();
            Relation::from_pairs(schema, pairs)
        })
        .collect();
    FaqQuery { factors, ..q }
}

/// The suite for `seed`. The solver's cost on a random instance turns
/// on which plan its statistics select: between seeds of one size the
/// triangle alone took 1.4 to 3.0 ms. So the instances are drawn once,
/// from fixed seeds, and `seed` only relabels their values; every seed
/// then measures the same work.
pub fn suite(seed: u64) -> Suite {
    let counting = [
        // Domain ≈ N^(2/3) keeps the triangle's output near-linear in N,
        // so the join is measured, not output materialisation.
        count_instance(&cycle_query(3), 3000, 209, 20),
        count_instance(&cycle_query(4), 700, 79, 21),
        count_instance(&path_query(4), 4000, 1024, 22),
    ];
    let star_minplus = random_instance(
        &star_query(4),
        &RandomInstanceConfig {
            tuples_per_factor: 6000,
            domain: 1024,
            seed: 23,
        },
        vec![],
        // Whole-number weights: tropical sums stay exact in f64, so
        // answers compare with `==` whatever order folds run in.
        |r| MinPlus(f64::from(r.random_range(0..100u32))),
    );
    Suite {
        counting: counting.map(|q| relabelled(q, seed)),
        star_minplus: relabelled(star_minplus, seed),
    }
}

/// The `star_query(4)` `Count` instance every distributed run ships.
pub fn dist_instance(seed: u64) -> FaqQuery<Count> {
    count_instance(&star_query(4), 2048, 256, sub_seed(seed, 30))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_stream(seed: u64) -> Vec<u32> {
        let z = Zipf::new(256, 1.1);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..500).map(|_| z.sample(&mut rng)).collect()
    }

    #[test]
    fn zipf_repeats_for_a_seed_and_differs_across_seeds() {
        assert_eq!(zipf_stream(7), zipf_stream(7));
        assert_ne!(zipf_stream(7), zipf_stream(8));
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let s = zipf_stream(1);
        assert!(s.iter().all(|&b| b < 256));
        let head = s.iter().filter(|&&b| b < 8).count();
        assert!(head > s.len() / 3, "eight hottest of 256 carry {head}/500");
    }

    fn delta_stream(seed: u64) -> Vec<Vec<(Vec<u32>, String)>> {
        let [q, _] = serve_templates(3);
        let mut live = LiveSet::of(&q.factors[0], SERVE_DOMAIN);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..4)
            .map(|_| {
                write_delta(&mut rng, &mut live, q.factors[0].schema(), None)
                    .ops()
                    .map(|(t, op)| (t.to_vec(), format!("{op:?}")))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn deltas_repeat_for_a_seed_and_differ_across_seeds() {
        assert_eq!(delta_stream(5), delta_stream(5));
        assert_ne!(delta_stream(5), delta_stream(6));
    }

    #[test]
    fn deltas_keep_the_row_count_and_the_live_set_in_step() {
        let [q, _] = serve_templates(1);
        let mut factor = q.factors[1].clone();
        let mut live = LiveSet::of(&factor, SERVE_DOMAIN);
        let rows = factor.len();
        assert_eq!(live.rows(), rows);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..50 {
            // Odd rounds pin one hot binding, like the write workload.
            let centre = (i % 2 == 1).then_some(0);
            let delta = write_delta(&mut rng, &mut live, factor.schema(), centre);
            assert_eq!(delta.len(), 16);
            if let Some(c) = centre {
                assert!(delta.ops().all(|(t, _)| t[0] == c));
            }
            factor.apply_delta(&delta);
            assert_eq!(factor.len(), rows, "round {i}");
        }
        assert_eq!(live.rows(), rows);
        assert!(factor.tuples().all(|t| live.has(t[0], t[1])));
    }

    #[test]
    fn instances_repeat_for_a_seed_and_differ_across_seeds() {
        let (a, b, c) = (dist_instance(1), dist_instance(1), dist_instance(2));
        assert_eq!(a.factors, b.factors);
        assert_ne!(a.factors, c.factors);
        let [s0, s1] = serve_templates(1);
        assert_ne!(s0.factors, s1.factors, "the two shapes hold different data");
    }

    #[test]
    fn suite_seeds_relabel_one_instance() {
        let (a, b, c) = (suite(1), suite(1), suite(2));
        for i in 0..3 {
            let (qa, qb, qc) = (&a.counting[i], &b.counting[i], &c.counting[i]);
            assert_eq!(qa.factors, qb.factors);
            assert_ne!(qa.factors, qc.factors, "seeds present it differently");
            qc.validate().unwrap();
            let rows =
                |q: &FaqQuery<Count>| q.factors.iter().map(Relation::len).collect::<Vec<_>>();
            assert_eq!(rows(qa), rows(qc), "relabelling is a bijection");
            let answer = |q| faqs::engine::solve_faq(q).unwrap();
            assert_eq!(answer(qa), answer(qc), "same instance, same count");
        }
        let answer = |q| faqs::engine::solve_faq(q).unwrap();
        assert_eq!(answer(&a.star_minplus), answer(&c.star_minplus));
    }
}
