//! Protocol run results.

use faqs_network::RunStats;
use faqs_relation::CodecError;

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
    /// A distributed run moved more Model 2.1 bits than the paper's
    /// upper envelope for its query, topology and player set allows —
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

/// The result of executing a protocol on the round scheduler.
#[derive(Clone, Debug)]
pub struct ProtocolOutcome<T> {
    /// The computed answer, available at the designated output player.
    pub answer: T,
    /// Measured rounds — the protocol's round complexity on this input.
    pub rounds: u64,
    /// Total bits moved across all links.
    pub total_bits: u64,
    /// Number of scheduled transmissions.
    pub transmissions: u64,
    /// The closed-form upper-bound prediction for this run (the paper's
    /// formula evaluated on this topology/instance), for harness tables.
    pub predicted_rounds: u64,
}

impl<T> ProtocolOutcome<T> {
    pub(crate) fn from_stats(answer: T, stats: RunStats, predicted_rounds: u64) -> Self {
        ProtocolOutcome {
            answer,
            rounds: stats.rounds,
            total_bits: stats.total_bits,
            transmissions: stats.transmissions,
            predicted_rounds,
        }
    }

    /// Maps the answer, keeping the measurements.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> ProtocolOutcome<U> {
        ProtocolOutcome {
            answer: f(self.answer),
            rounds: self.rounds,
            total_bits: self.total_bits,
            transmissions: self.transmissions,
            predicted_rounds: self.predicted_rounds,
        }
    }
}
