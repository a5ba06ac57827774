//! What a placed plan allocates. A counting global allocator tallies
//! each thread's heap allocations, and the placed planner is held to a
//! third of what it made before the per-search work was hoisted out of
//! its candidate loop: on the hash-split star of four factors (four
//! candidates) over line4 / star5 / grid3×3, and on a star of eight
//! factors (eight candidates), whose difference prices one added
//! candidate. Since a rooting of the join forest is a root vector over
//! one decomposition, star4 and star8 are also held to the counts they
//! made then. With the leaf variable `Var(k)` free, one rooting covers
//! it and the search scores one candidate, so it must allocate less
//! than the four- or eight-candidate search on the same site.
//!
//! The test is its own binary, so no other test's allocations reach the
//! tally, and it counts only the planning thread's.

use faqs_hypergraph::{star_query, Var};
use faqs_network::{Player, Topology};
use faqs_plan::{plan_query_with, PlacementContext};
use faqs_protocols::model_capacity_bits;
use faqs_relation::{random_instance, FaqQuery, RandomInstanceConfig};
use faqs_semiring::Count;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting every allocation and reallocation of
/// the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn tally() {
    // A thread being torn down has no tally left; its allocations are
    // no planner's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the tally is a
// thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The benchmark's distributed instance at `k` factors: a star of 2 048
/// rows per factor over a domain of 256, with the variables `free`.
fn star(k: usize, free: Vec<Var>) -> FaqQuery<Count> {
    let cfg = RandomInstanceConfig {
        tuples_per_factor: 2048,
        domain: 256,
        seed: 7,
    };
    random_instance(&star_query(k), &cfg, free, |_| Count(1))
}

/// The allocations of one placed plan of `q`, every factor hash-split
/// over all of `g`'s players and the answer at player 0, on `g` scaled
/// as a run scales it. The placement context is built outside the
/// count, and one plan runs first so that each factor's statistics memo
/// is warm.
fn planning_allocations(q: &FaqQuery<Count>, g: &Topology) -> (u64, usize) {
    let scaled = g.clone().with_uniform_capacity(model_capacity_bits(q));
    let players: Vec<Player> = g.players().collect();
    let ctx = PlacementContext::new(q, &scaled, vec![players; q.k()], Player(0));
    let candidates = plan_query_with(q, Some(&ctx), None)
        .unwrap()
        .candidates
        .len();
    let n = allocations(|| drop(plan_query_with(q, Some(&ctx), None).unwrap()));
    (n, candidates)
}

fn sites() -> [Topology; 3] {
    [Topology::line(4), Topology::star(5), Topology::grid(3, 3)]
}

/// The allocations the planner made on each site before the per-search
/// work left its candidate loop: star4, then star8.
const BEFORE: [(u64, u64); 3] = [(662, 2188), (678, 2252), (694, 2316)];

/// The allocations of star4 and star8 on every site once each rooting
/// was a root vector over one decomposition (201 and 426 before).
const ROOT_VECTORS: (u64, u64) = (186, 391);

#[test]
fn a_placed_plan_allocates_a_third_of_what_it_did() {
    let (four, eight) = (star(4, vec![]), star(8, vec![]));
    for (g, (was4, was8)) in sites().iter().zip(BEFORE) {
        let (now4, c4) = planning_allocations(&four, g);
        let (now8, c8) = planning_allocations(&eight, g);
        assert_eq!((c4, c8), (4, 8), "{}: the candidates scored", g.name());
        println!(
            "{}: star4 {was4} -> {now4}, star8 {was8} -> {now8}",
            g.name()
        );
        assert!(3 * now4 <= was4, "{}: star4 made {now4}", g.name());
        assert!(3 * now8 <= was8, "{}: star8 made {now8}", g.name());
        assert!(now4 <= ROOT_VECTORS.0, "{}: star4 made {now4}", g.name());
        assert!(now8 <= ROOT_VECTORS.1, "{}: star8 made {now8}", g.name());
        // Four candidates more: each costs a third of what it did.
        let (added, was_added) = (now8 - now4, was8 - was4);
        assert!(
            3 * added <= was_added,
            "{}: four added candidates made {added}, against {was_added}",
            g.name()
        );
    }
}

/// The allocations a placed plan of star4 and star8 with the leaf
/// variable free made on each site while every rooting was its own
/// `Decomposition`.
const FREE_BEFORE: [(u64, u64); 3] = [(230, 544); 3];

#[test]
fn a_free_leaf_costs_less_than_every_rooting() {
    let (four, eight) = (star(4, vec![Var(4)]), star(8, vec![Var(8)]));
    let (all4, all8) = (star(4, vec![]), star(8, vec![]));
    for (g, (was4, was8)) in sites().iter().zip(FREE_BEFORE) {
        let (now4, c4) = planning_allocations(&four, g);
        let (now8, c8) = planning_allocations(&eight, g);
        assert_eq!((c4, c8), (1, 1), "{}: the candidates scored", g.name());
        println!(
            "{}: star4 free leaf {was4} -> {now4}, star8 free leaf {was8} -> {now8}",
            g.name()
        );
        let (every4, every8) = (
            planning_allocations(&all4, g).0,
            planning_allocations(&all8, g).0,
        );
        assert!(
            now4 < every4,
            "{}: star4 free leaf made {now4}, star4 {every4}",
            g.name()
        );
        assert!(
            now8 < every8,
            "{}: star8 free leaf made {now8}, star8 {every8}",
            g.name()
        );
    }
}
