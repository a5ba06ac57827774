//! The zero-copy columnar shard codec: [`Relation`]s as length-checked
//! wire frames.
//!
//! A frame is the relation's *storage layout* made portable — one
//! little-endian header followed by the row-major `u32` arena and the
//! fixed-width annotation column, bulk-copied section by section with no
//! per-tuple serialization:
//!
//! ```text
//! offset            size   field
//! 0                 4      magic  "FQS1"
//! 4                 2      codec version (1)
//! 6                 2      arity r
//! 8                 4      row count n
//! 12                4      value width W = S::WIRE_VALUE_BYTES
//! 16                4·r    schema variable ids
//! 16 + 4r           4·r·n  arena: row-major u32 tuples, LE
//! 16 + 4r + 4rn     W·n    annotations, W bytes each (absent if W = 0)
//! ```
//!
//! Encode walks the arena once (`u32 → 4 LE bytes`, a chunk loop the
//! compiler lowers to wide copies); decode validates the header against
//! the byte count, rebuilds the columns the same way and hands them to
//! [`Relation::from_columns`] — whose `is_sorted_strict` fast path
//! recognises the canonical order every encoded relation ships in, so a
//! round trip never re-sorts. Zero-width carriers (Boolean, GF(2)) ship
//! presence only and decode every row to `one()`, exactly the listing
//! representation.
//!
//! [`frame_bytes`] / [`frame_bits`] are the *exact* closed-form frame
//! size. `faqs-plan` prices wire legs through the same function, so a
//! predicted wire cost and the bytes a transport actually moves can
//! never drift apart.

use crate::relation::Relation;
use faqs_hypergraph::Var;
use faqs_semiring::Semiring;
use std::fmt;

/// Frame magic: `b"FQS1"` little-endian.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"FQS1");

/// Codec version stamped into (and required of) every frame.
pub const FRAME_VERSION: u16 = 1;

/// Fixed header bytes before the per-schema section.
pub const FRAME_FIXED_BYTES: usize = 16;

/// Exact encoded size in bytes of a frame holding `rows` tuples of
/// `arity` columns with `value_bytes`-wide annotations.
pub fn frame_bytes(arity: usize, rows: u64, value_bytes: usize) -> u64 {
    FRAME_FIXED_BYTES as u64
        + 4 * arity as u64
        + rows.saturating_mul(4 * arity as u64 + value_bytes as u64)
}

/// [`frame_bytes`] in bits — the unit [`faqs_network::RunStats`] and the
/// conformance envelopes account in.
///
/// [`faqs_network::RunStats`]: https://docs.rs/faqs-network
pub fn frame_bits(arity: usize, rows: u64, value_bytes: usize) -> u64 {
    frame_bytes(arity, rows, value_bytes).saturating_mul(8)
}

/// Why a byte slice failed to decode as a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than the fixed header.
    Truncated {
        /// Bytes the decoder needed next.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The magic bytes are not `FQS1`.
    BadMagic(u32),
    /// A codec version this build does not speak.
    BadVersion(u16),
    /// The frame's annotation width disagrees with the decoding
    /// semiring's [`Semiring::WIRE_VALUE_BYTES`].
    ValueWidthMismatch {
        /// Width stamped in the frame.
        frame: u32,
        /// Width the decoding semiring requires.
        decoder: u32,
    },
    /// The schema section repeats a variable.
    DuplicateVar(u32),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            CodecError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            CodecError::ValueWidthMismatch { frame, decoder } => write!(
                f,
                "annotation width mismatch: frame says {frame} bytes, decoder needs {decoder}"
            ),
            CodecError::DuplicateVar(v) => write!(f, "schema repeats variable x{v}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The `N` bytes at `at`, or `Truncated` when the frame ends first.
fn field<const N: usize>(bytes: &[u8], at: usize) -> Result<[u8; N], CodecError> {
    let (expected, got) = (at + N, bytes.len());
    let field = bytes.get(at..).and_then(<[u8]>::first_chunk).copied();
    field.ok_or(CodecError::Truncated { expected, got })
}

impl<S: Semiring> Relation<S> {
    /// Exact size in bits of this relation's encoded frame — the number
    /// a real transport charges for shipping it, as opposed to the
    /// Model 2.1 price of [`Relation::bits`].
    pub fn wire_bits(&self) -> u64 {
        frame_bits(self.schema().len(), self.len() as u64, S::WIRE_VALUE_BYTES)
    }

    /// Encodes the relation as one wire frame (see the module docs for
    /// the layout). The arena and annotation column are copied section
    /// by section — no per-tuple work — and the output length is exactly
    /// [`frame_bytes`] of this relation's shape.
    pub fn encode_frame(&self) -> Vec<u8> {
        let arity = self.schema().len();
        let rows = self.len();
        let total = frame_bytes(arity, rows as u64, S::WIRE_VALUE_BYTES);
        let mut out: Vec<u8> = Vec::with_capacity(total as usize);
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        out.extend_from_slice(&(arity as u16).to_le_bytes());
        out.extend_from_slice(&(rows as u32).to_le_bytes());
        out.extend_from_slice(&(S::WIRE_VALUE_BYTES as u32).to_le_bytes());
        for v in self.schema() {
            out.extend_from_slice(&v.0.to_le_bytes());
        }
        // The arena aliases straight onto the wire: one pass of 4-byte
        // stores the compiler widens, not a tuple/field walk.
        for &w in self.raw_data() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        if S::WIRE_VALUE_BYTES > 0 {
            for v in self.raw_values() {
                v.write_wire(&mut out);
            }
        }
        debug_assert_eq!(out.len() as u64, total);
        out
    }

    /// Decodes one frame back into a relation. Exact inverse of
    /// [`Relation::encode_frame`]: the rebuilt columns re-enter through
    /// [`Relation::from_columns`], whose presorted fast path accepts the
    /// canonical order every encoder ships, so the round trip is
    /// `O(bytes)` with no re-sort. Any size/shape inconsistency is a
    /// [`CodecError`], never a panic.
    pub fn decode_frame(bytes: &[u8]) -> Result<Relation<S>, CodecError> {
        if bytes.len() < FRAME_FIXED_BYTES {
            return Err(CodecError::Truncated {
                expected: FRAME_FIXED_BYTES,
                got: bytes.len(),
            });
        }
        let magic = u32::from_le_bytes(field(bytes, 0)?);
        if magic != FRAME_MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(field(bytes, 4)?);
        if version != FRAME_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let arity = u16::from_le_bytes(field(bytes, 6)?) as usize;
        let rows = u32::from_le_bytes(field(bytes, 8)?) as u64;
        let width = u32::from_le_bytes(field(bytes, 12)?);
        if width != S::WIRE_VALUE_BYTES as u32 {
            return Err(CodecError::ValueWidthMismatch {
                frame: width,
                decoder: S::WIRE_VALUE_BYTES as u32,
            });
        }
        let total = frame_bytes(arity, rows, S::WIRE_VALUE_BYTES);
        if bytes.len() as u64 != total {
            return Err(CodecError::Truncated {
                expected: total as usize,
                got: bytes.len(),
            });
        }
        let mut schema = Vec::with_capacity(arity);
        for i in 0..arity {
            let id = u32::from_le_bytes(field(bytes, FRAME_FIXED_BYTES + 4 * i)?);
            let var = Var(id);
            if schema.contains(&var) {
                return Err(CodecError::DuplicateVar(id));
            }
            schema.push(var);
        }
        let arena_at = FRAME_FIXED_BYTES + 4 * arity;
        let arena_len = (4 * arity as u64 * rows) as usize;
        let data: Vec<u32> = bytes[arena_at..arena_at + arena_len]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let values: Vec<S> = if S::WIRE_VALUE_BYTES == 0 {
            vec![S::one(); rows as usize]
        } else {
            bytes[arena_at + arena_len..]
                .chunks_exact(S::WIRE_VALUE_BYTES)
                .map(S::read_wire)
                .collect()
        };
        Ok(Relation::from_columns(schema, data, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faqs_semiring::{Boolean, Count};

    fn sample() -> Relation<Count> {
        Relation::from_pairs(
            vec![Var(3), Var(1)],
            [
                (vec![0, 2], Count(5)),
                (vec![1, 0], Count(2)),
                (vec![1, 7], Count(9)),
            ],
        )
    }

    #[test]
    fn round_trip_is_identity_and_exactly_sized() {
        let r = sample();
        let frame = r.encode_frame();
        assert_eq!(frame.len() as u64 * 8, r.wire_bits());
        assert_eq!(Relation::<Count>::decode_frame(&frame).unwrap(), r);
    }

    #[test]
    fn zero_width_carriers_ship_presence_only() {
        let r: Relation<Boolean> = Relation::from_pairs(
            vec![Var(0), Var(1)],
            [(vec![0, 1], Boolean(true)), (vec![2, 3], Boolean(true))],
        );
        let frame = r.encode_frame();
        assert_eq!(
            frame.len() as u64,
            frame_bytes(2, 2, 0),
            "no annotation section"
        );
        assert_eq!(Relation::<Boolean>::decode_frame(&frame).unwrap(), r);
    }

    #[test]
    fn truncation_and_corruption_are_errors_not_panics() {
        let frame = sample().encode_frame();
        for cut in [0, 5, FRAME_FIXED_BYTES, frame.len() - 1] {
            assert!(matches!(
                Relation::<Count>::decode_frame(&frame[..cut]),
                Err(CodecError::Truncated { .. })
            ));
        }
        let mut bad = frame.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Relation::<Count>::decode_frame(&bad),
            Err(CodecError::BadMagic(_))
        ));
        let mut bad = frame.clone();
        bad[4] = 9;
        assert!(matches!(
            Relation::<Count>::decode_frame(&bad),
            Err(CodecError::BadVersion(9))
        ));
        // A Boolean decoder refuses a Count frame: widths disagree.
        assert!(matches!(
            Relation::<Boolean>::decode_frame(&frame),
            Err(CodecError::ValueWidthMismatch {
                frame: 8,
                decoder: 0
            })
        ));
    }
}
