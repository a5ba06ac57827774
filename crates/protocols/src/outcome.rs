//! Protocol run results: every protocol, the paper's and the runtime,
//! returns its answer with one [`RunReport`], built by one constructor
//! and checked live.

use crate::bounds::{model_capacity_bits, BoundReport};
use faqs_network::{InputPlacement, NetRun, Player, RunStats, Topology, WireStats};
use faqs_relation::{CodecError, FaqQuery};
use faqs_semiring::Semiring;

/// Failure modes of a protocol run.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// The topology is disconnected or a player cannot be reached.
    Unreachable(String),
    /// The query/assignment pair is malformed.
    Invalid(String),
    /// The local (free) computation failed — e.g. free variables outside
    /// the core (the engine's restriction applies to the distributed
    /// protocols identically).
    Engine(String),
    /// A delivered shard or message frame did not decode: the medium
    /// corrupted or cut the bytes in flight.
    Frame(CodecError),
    /// A run moved more Model 2.1 bits than the upper envelope of its
    /// theorem's bound for its query, topology and player set allows —
    /// the live conformance oracle's verdict (`RunReport::check`; a
    /// protocol bug, not a measurement to report).
    BoundViolated {
        /// The run's measured `RunStats::total_bits`.
        measured_bits: u64,
        /// `RunReport::upper_bits` for the run.
        upper_bits: u64,
    },
    /// The wire twin: the encoded frames outgrew the same envelope
    /// translated into wire units (`RunReport::upper_wire_bits`).
    WireBoundViolated {
        /// The run's measured `WireStats::wire_bits`.
        measured_bits: u64,
        /// `RunReport::upper_wire_bits` for the run.
        upper_bits: u64,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Unreachable(s) => write!(f, "unreachable: {s}"),
            ProtocolError::Invalid(s) => write!(f, "invalid: {s}"),
            ProtocolError::Engine(s) => write!(f, "local computation: {s}"),
            ProtocolError::Frame(e) => write!(f, "frame: {e}"),
            ProtocolError::BoundViolated {
                measured_bits,
                upper_bits,
            } => write!(
                f,
                "bound violated: measured {measured_bits} model bits > upper envelope {upper_bits}"
            ),
            ProtocolError::WireBoundViolated {
                measured_bits,
                upper_bits,
            } => write!(
                f,
                "wire bound violated: measured {measured_bits} wire bits > upper envelope {upper_bits}"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// [`ProtocolError::Invalid`] naming the first of `players` that `g`
/// does not have: every protocol door refuses such a player before it
/// indexes anything by it.
pub(crate) fn check_players(
    g: &Topology,
    players: impl IntoIterator<Item = Player>,
) -> Result<(), ProtocolError> {
    match players.into_iter().find(|p| p.index() >= g.num_players()) {
        Some(p) => Err(ProtocolError::Invalid(format!("{p} not in topology"))),
        None => Ok(()),
    }
}

/// Refuses an invalid query, or a placement of another relation count,
/// with a factor nobody holds, or naming a player `g` does not have:
/// every placement door runs this before it indexes anything.
pub(crate) fn check_placement<S: Semiring>(
    q: &FaqQuery<S>,
    g: &Topology,
    placement: &InputPlacement,
) -> Result<(), ProtocolError> {
    q.validate()
        .map_err(|e| ProtocolError::Invalid(e.to_string()))?;
    let shards = placement.shard_lists();
    if shards.len() != q.k() {
        let lists = format!("{} shard lists for {} relations", shards.len(), q.k());
        return Err(ProtocolError::Invalid(lists));
    }
    if let Some(e) = shards.iter().position(Vec::is_empty) {
        let holder = format!("factor {e} has no shard holder");
        return Err(ProtocolError::Invalid(holder));
    }
    check_players(g, placement.players())
}

/// [`check_placement`], then the refusal of a factor split across
/// players: Model 2.1's protocols are given each function whole.
pub(crate) fn check_whole_placement<S: Semiring>(
    q: &FaqQuery<S>,
    g: &Topology,
    placement: &InputPlacement,
) -> Result<(), ProtocolError> {
    check_placement(q, g, placement)?;
    match placement.shard_lists().iter().position(|s| s.len() > 1) {
        Some(e) => Err(ProtocolError::Invalid(format!(
            "factor {e} is split across players; Model 2.1 assigns each function whole"
        ))),
        None => Ok(()),
    }
}

/// The result of one run of the paper's protocols: the answer and the
/// report the run was checked against.
#[derive(Clone, Debug)]
pub struct ProtocolOutcome<T> {
    /// The computed answer, available at the designated output player.
    pub answer: T,
    /// The run's measurement against its own theorem's bound, as the
    /// live oracle checked it.
    pub report: RunReport,
}

impl<T> ProtocolOutcome<T> {
    /// `answer`, computed by a paper protocol that scheduled its traffic
    /// on `run`, with the report of that run — or the report's verdict
    /// ([`RunReport::check`]) when the run escaped its envelope.
    pub(crate) fn checked<S: Semiring>(
        answer: T,
        run: &NetRun<'_>,
        inputs: Inputs,
        upper_rounds: u64,
        bound: Option<BoundReport>,
    ) -> Result<Self, ProtocolError> {
        let measured = (run.stats(), WireStats::default(), run.link_bits().to_vec());
        let report = RunReport::new::<S>(run.topology(), inputs, upper_rounds, bound, measured);
        report.check()?;
        Ok(ProtocolOutcome { answer, report })
    }
}

/// Documented slack constant of the executable bound inequalities: the
/// paper's bounds are `Õ(·)` / `Ω̃(·)` with unspecified constants; the
/// conformance envelope grants the upper bound this multiplicative
/// factor (plus a latency additive) before declaring a violation.
pub const CONFORMANCE_SLACK: u64 = 4;

/// What a run's envelopes read of its instance: `relations` input
/// relations over `vars` variables with values in `[domain]`, among
/// `players` players (`|K|`, the output included), and the bits of the
/// unit its round bound counts one per link and round (`tuple_bits`).
pub(crate) struct Inputs {
    pub(crate) relations: usize,
    pub(crate) vars: usize,
    pub(crate) domain: u32,
    pub(crate) players: usize,
    pub(crate) tuple_bits: u64,
}

impl Inputs {
    /// `q`'s relations among `players` players, its round bound counted
    /// in Model 2.1 rounds of one tuple per link ([`model_capacity_bits`]).
    pub(crate) fn of<S: Semiring>(q: &FaqQuery<S>, players: usize) -> Self {
        Inputs {
            relations: q.k(),
            vars: q.hypergraph.num_vars(),
            domain: q.domain,
            players,
            tuple_bits: model_capacity_bits(q),
        }
    }
}

/// One run's verdict, built once by the run that measured it — a paper
/// protocol (`run_*`) or [`crate::DistributedFaqRun::execute_on`]: its
/// measured [`RunStats`], [`WireStats`] and per-link bits confronted
/// with its own theorem's round bound `upper_rounds`, translated into
/// two envelopes.
///
/// * `upper_bits` — `upper_rounds` times the network's per-round
///   throughput (every live link, both directions, at least one tuple of
///   the bound's unit each: a round of the bound is a Model 2.1 round,
///   even where a link is thinner), with the [`CONFORMANCE_SLACK`]
///   constants: a protocol meeting its round bound can never move more.
/// * `upper_wire_bits = blowup · upper_bits + header_bits_per_frame ·
///   frames`, where `blowup` is the worst per-tuple ratio of codec frame
///   bits (`32r + 8W` per row) to Model 2.1 bits
///   (`r·⌈log₂D⌉ + value_bits`) over the arities the query can ship, and
///   the header covers each frame's fixed-plus-schema prefix — exact
///   closed forms from [`faqs_relation::frame_bytes`], the function the
///   codec sizes its frames with. The paper's protocols ship no frames.
///
/// A co-located player set (`|K| < 2`) gets zero envelopes: the run must
/// be communication-free. The nominal lower bound
/// [`BoundReport::lower_rounds`] holds only for adversarially spread
/// placements on hard instances, so no verdict reads it.
///
/// # Example
///
/// ```
/// use faqs_hypergraph::star_query;
/// use faqs_network::{Player, Topology};
/// use faqs_protocols::{DistributedFaqRun, InputPlacement, RunReport};
/// use faqs_relation::{random_boolean_instance, RandomInstanceConfig};
///
/// let q = random_boolean_instance(&star_query(3), &RandomInstanceConfig::default(), true);
/// let g = Topology::line(4);
/// let players: Vec<Player> = (0..4).map(Player).collect();
/// let run = DistributedFaqRun::new(
///     &q,
///     &g,
///     InputPlacement::hash_split(q.k(), &players, Player(3)),
///     1,
/// )
/// .unwrap();
/// let out = run.execute().unwrap();
///
/// let report: &RunReport = &out.report;
/// assert!(report.conforms(), "measured bits inside the paper's envelope");
/// assert!(report.stats.total_bits <= report.upper_bits);
/// assert!(report.wire.wire_bits() <= report.upper_wire_bits);
/// // The two sides of the line's middle link saw every bit it carried.
/// let side = [true, true, false, false];
/// let middle = report.link_bits[1];
/// assert_eq!(report.bits_across(run.topology(), &side), Some(middle));
/// ```
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The run's own theorem's closed-form round bound.
    pub upper_rounds: u64,
    /// Theorem 4.1's bound quantities, where they price the run (the
    /// d-degenerate protocol and the runtime); `None` for a protocol
    /// with its own theorem.
    pub bound: Option<BoundReport>,
    /// The measured model cost.
    pub stats: RunStats,
    /// The measured wire traffic.
    pub wire: WireStats,
    /// Model bits carried by each link (both directions), indexed by
    /// `LinkId`.
    pub link_bits: Vec<u64>,
    /// Upper bit envelope.
    pub upper_bits: u64,
    /// The wire-unit upper envelope.
    pub upper_wire_bits: u64,
}

impl RunReport {
    /// The one constructor: a run on `g` over `inputs` in the semiring
    /// `S`, bounded by `upper_rounds`, that `measured` its model cost,
    /// wire traffic and per-link bits.
    pub(crate) fn new<S: Semiring>(
        g: &Topology,
        inputs: Inputs,
        upper_rounds: u64,
        bound: Option<BoundReport>,
        (stats, wire, link_bits): (RunStats, WireStats, Vec<u64>),
    ) -> Self {
        let upper_bits = if inputs.players < 2 {
            0
        } else {
            let live = g.links().map(|l| g.capacity(l)).filter(|&cap| cap > 0);
            let per_round: u64 = live.map(|cap| 2 * cap.max(inputs.tuple_bits)).sum();
            let additive =
                per_round.saturating_mul(g.live_diameter() as u64 + inputs.relations as u64 + 1);
            CONFORMANCE_SLACK
                .saturating_mul(upper_rounds)
                .saturating_mul(per_round)
                .saturating_add(additive)
        };
        let log_d = (32 - inputs.domain.saturating_sub(1).leading_zeros()).max(1) as u64;
        let vb = S::value_bits();
        let wire_value_bits = 8 * S::WIRE_VALUE_BYTES as u64;
        let max_arity = inputs.vars.max(1);
        let blowup = (1..=max_arity as u64)
            .map(|r| (32 * r + wire_value_bits).div_ceil(r * log_d + vb))
            .fold(1, u64::max);
        let header_bits_per_frame = faqs_relation::frame_bits(max_arity, 0, S::WIRE_VALUE_BYTES);
        RunReport {
            upper_rounds,
            bound,
            stats,
            wire,
            link_bits,
            upper_bits,
            upper_wire_bits: blowup
                .saturating_mul(upper_bits)
                .saturating_add(header_bits_per_frame.saturating_mul(wire.frames)),
        }
    }

    /// Both live-oracle verdicts: [`ProtocolError::BoundViolated`] when
    /// the measured model bits escape `upper_bits` (for a co-located
    /// player set: when the run communicated at all), then
    /// [`ProtocolError::WireBoundViolated`] when the wire bits escape
    /// `upper_wire_bits`.
    pub fn check(&self) -> Result<(), ProtocolError> {
        if self.stats.total_bits > self.upper_bits {
            return Err(ProtocolError::BoundViolated {
                measured_bits: self.stats.total_bits,
                upper_bits: self.upper_bits,
            });
        }
        let measured_bits = self.wire.wire_bits();
        if measured_bits > self.upper_wire_bits {
            return Err(ProtocolError::WireBoundViolated {
                measured_bits,
                upper_bits: self.upper_wire_bits,
            });
        }
        Ok(())
    }

    /// Whether [`RunReport::check`] passes.
    pub fn conforms(&self) -> bool {
        self.check().is_ok()
    }

    /// Bits that crossed the vertex cut `side` of `g`, the topology the
    /// run was measured on — its links; their capacities are not read
    /// (`side[v]` ⇔ player `v` on Alice's side): the
    /// traffic Model 2.2's two-party simulation charges a protocol, which
    /// Theorem 2.3 bounds below by `Ω(m·N)` on a TRIBES-hard instance.
    /// `None` when `side` does not name every player of `g` or the
    /// tallies are not `g`'s.
    pub fn bits_across(&self, g: &Topology, side: &[bool]) -> Option<u64> {
        if side.len() != g.num_players() || self.link_bits.len() != g.num_links() {
            return None;
        }
        let crosses = |l: &faqs_network::LinkId| {
            let (a, b) = g.link(*l);
            side[a.index()] != side[b.index()]
        };
        Some(
            g.links()
                .filter(crosses)
                .map(|l| self.link_bits[l.index()])
                .sum(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::Boolean;

    /// Three unary relations among four players of the 4-line.
    fn report(players: usize, total_bits: u64) -> RunReport {
        let g = Topology::line(4).with_uniform_capacity(8);
        let inputs = Inputs {
            relations: 3,
            vars: 1,
            domain: 64,
            players,
            tuple_bits: 7,
        };
        let stats = RunStats {
            rounds: 1,
            total_bits,
            transmissions: 1,
        };
        let measured = (stats, WireStats::default(), vec![total_bits, 0, 0]);
        RunReport::new::<Boolean>(&g, inputs, 5, None, measured)
    }

    #[test]
    fn one_bit_over_the_envelope_is_a_violation() {
        let upper_bits = report(4, 0).upper_bits;
        assert!(upper_bits > 0);
        assert!(report(4, upper_bits).conforms());
        assert_eq!(
            report(4, upper_bits + 1).check(),
            Err(ProtocolError::BoundViolated {
                measured_bits: upper_bits + 1,
                upper_bits,
            })
        );
    }

    #[test]
    fn a_colocated_run_may_move_no_bit() {
        assert!(report(1, 0).conforms());
        assert_eq!(
            report(1, 1).check(),
            Err(ProtocolError::BoundViolated {
                measured_bits: 1,
                upper_bits: 0,
            })
        );
    }

    #[test]
    fn the_cut_reads_the_link_tallies() {
        let g = Topology::line(4);
        let r = report(4, 40);
        assert_eq!(r.bits_across(&g, &[true, false, false, false]), Some(40));
        assert_eq!(r.bits_across(&g, &[true, true, false, false]), Some(0));
        // A side of the wrong length names no cut.
        assert_eq!(r.bits_across(&g, &[true, false]), None);
        assert_eq!(r.bits_across(&g, &[true; 5]), None);
        // Tallies of another topology name no cut either.
        assert_eq!(
            r.bits_across(&Topology::ring(4), &[true, false, false, false]),
            None
        );
    }
}
