//! Log frames and their checksummed wire form.
//!
//! A frame is one slot of the replication log: either a batch of typed
//! operations spanning leader generations `start_gen..end_gen`
//! (together with the classified delta stream the leader journaled for
//! them — the follower's cross-check oracle), or a full-snapshot
//! checkpoint for bootstrap and gap/truncation recovery.
//!
//! The wire form is one plain-text header line followed by the
//! payload's JSON exactly as rendered:
//!
//! ```text
//! <checksum> <version> <seq> <start_gen> <end_gen> <ops|checkpoint>
//! <payload JSON>
//! ```
//!
//! The checksum is 16 lowercase hex digits of FNV-1a over every byte
//! after it, so transport damage anywhere in the header or the payload
//! (the fault injector truncates and mangles frames on purpose)
//! surfaces as a typed [`ReplicaError::Corrupt`] — never as a
//! half-applied frame. A receiver opens a wire header-first (`open`):
//! the checksum and version are checked and the header parsed, while
//! the payload stays text until the receiver parses it. [`decode`] is
//! `open` plus that parse.

use crate::ops::ReplOp;
use crate::{ReplicaError, Result};
use hive_core::db::DbDelta;
use hive_core::persist::ReplicaCheckpoint;
use hive_json::FromJson;
use std::str::FromStr;

/// Current frame format version; a mismatch refuses the frame. A
/// version-1 wire (the frame JSON escaped into a `{"crc","body"}`
/// envelope) fails the checksum and is refused as corrupt.
pub const FRAME_VERSION: u32 = 2;

/// Hex digits of the checksum that opens every wire.
const CHECKSUM_DIGITS: usize = 16;

/// A batch of replicated operations plus the classified delta stream
/// the leader journaled while applying them (one delta per generation
/// bump, `start_gen` exclusive through `end_gen` inclusive). After
/// replay, a follower's own journal suffix must equal this stream
/// bit-for-bit.
#[derive(Clone, Debug)]
pub struct OpsBatch {
    /// The operations, in application order.
    pub ops: Vec<ReplOp>,
    /// The leader's classified delta stream for these operations.
    pub deltas: Vec<DbDelta>,
}

hive_json::impl_json_struct!(OpsBatch { ops, deltas });

/// What a frame carries.
#[derive(Clone, Debug)]
pub enum FramePayload {
    /// A sealed batch of operations.
    Ops(OpsBatch),
    /// A full-snapshot checkpoint (bootstrap / re-sync point).
    Checkpoint(ReplicaCheckpoint),
}

/// One slot of the replication log.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Frame format version.
    pub version: u32,
    /// Monotone log sequence number (contiguous, starting at 0).
    pub seq: u64,
    /// Leader generation before this frame's effects.
    pub start_gen: u64,
    /// Leader generation after this frame's effects. For checkpoint
    /// frames `start_gen == end_gen == ` the captured generation.
    pub end_gen: u64,
    /// The ops batch or checkpoint.
    pub payload: FramePayload,
}

impl Frame {
    /// True for checkpoint frames.
    pub fn is_checkpoint(&self) -> bool {
        matches!(self.payload, FramePayload::Checkpoint(_))
    }
}

/// A payload's kind, as the wire header names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PayloadKind {
    /// An [`OpsBatch`].
    Ops,
    /// A [`ReplicaCheckpoint`].
    Checkpoint,
}

impl PayloadKind {
    fn label(self) -> &'static str {
        match self {
            PayloadKind::Ops => "ops",
            PayloadKind::Checkpoint => "checkpoint",
        }
    }
}

impl FromStr for PayloadKind {
    type Err = ();

    fn from_str(label: &str) -> std::result::Result<Self, ()> {
        match label {
            "ops" => Ok(PayloadKind::Ops),
            "checkpoint" => Ok(PayloadKind::Checkpoint),
            _ => Err(()),
        }
    }
}

/// A wire whose checksum and version checked out and whose header is
/// parsed. The payload is still text.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Opened<'a> {
    /// Log sequence number.
    pub(crate) seq: u64,
    /// Leader generation before the frame's effects.
    pub(crate) start_gen: u64,
    /// Leader generation after the frame's effects.
    pub(crate) end_gen: u64,
    /// What the payload is.
    pub(crate) kind: PayloadKind,
    payload: &'a str,
}

impl Opened<'_> {
    /// Parses the payload as `T`, which the caller picks from `kind`
    /// ([`OpsBatch`] or [`ReplicaCheckpoint`]). A payload that does not
    /// parse as `T` is [`ReplicaError::Corrupt`].
    pub(crate) fn parse<T: FromJson>(&self) -> Result<T> {
        hive_json::from_str(self.payload)
            .map_err(|e| ReplicaError::Corrupt(format!("{} payload: {}", self.kind.label(), e.0)))
    }

    /// Parses the payload as the kind the header names.
    fn payload(&self) -> Result<FramePayload> {
        match self.kind {
            PayloadKind::Ops => self.parse().map(FramePayload::Ops),
            PayloadKind::Checkpoint => self.parse().map(FramePayload::Checkpoint),
        }
    }
}

/// 64-bit FNV-1a over the bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The checksum of `body` as written on the wire.
fn checksum(body: &str) -> String {
    format!("{:0width$x}", fnv1a(body.as_bytes()), width = CHECKSUM_DIGITS)
}

/// Serializes a frame into its wire form: the header line, then the
/// payload JSON as rendered. Counts the wire's length under
/// `replica.frame.bytes.ops` or `replica.frame.bytes.checkpoint`.
pub fn encode(frame: &Frame) -> String {
    let (kind, payload, counter) = match &frame.payload {
        FramePayload::Ops(batch) => {
            (PayloadKind::Ops, hive_json::to_string(batch), "replica.frame.bytes.ops")
        }
        FramePayload::Checkpoint(cp) => {
            (PayloadKind::Checkpoint, hive_json::to_string(cp), "replica.frame.bytes.checkpoint")
        }
    };
    // The checksum opens the wire but covers everything after it, so
    // its digits are written over a placeholder last.
    let mut wire = format!(
        "{:0width$} {} {} {} {} {}\n",
        0,
        frame.version,
        frame.seq,
        frame.start_gen,
        frame.end_gen,
        kind.label(),
        width = CHECKSUM_DIGITS,
    );
    wire.push_str(&payload);
    let crc = checksum(&wire[CHECKSUM_DIGITS..]);
    wire.replace_range(..CHECKSUM_DIGITS, &crc);
    hive_obs::count(counter, wire.len() as u64);
    wire
}

/// Opens a wire header-first: checks the checksum over every byte
/// after it, then the version, and parses the rest of the header. The
/// payload is left as text. Any damage — a short wire, a checksum
/// mismatch, a malformed header, or a version this build does not
/// speak — is a typed [`ReplicaError::Corrupt`].
pub(crate) fn open(wire: &str) -> Result<Opened<'_>> {
    let corrupt = |what: &str| ReplicaError::Corrupt(format!("frame header: {what}"));
    let (Some(crc), Some(rest)) = (wire.get(..CHECKSUM_DIGITS), wire.get(CHECKSUM_DIGITS..)) else {
        return Err(corrupt("wire too short"));
    };
    let want = checksum(rest);
    if crc != want {
        return Err(ReplicaError::Corrupt(format!("checksum mismatch: {crc} != {want}")));
    }
    let Some((header, payload)) = rest.split_once('\n') else {
        return Err(corrupt("no end of line"));
    };
    let mut fields = header.strip_prefix(' ').ok_or_else(|| corrupt("no separator"))?.split(' ');
    let version: u32 = field(&mut fields, "version")?;
    if version != FRAME_VERSION {
        return Err(ReplicaError::Corrupt(format!(
            "frame version {version} (this build speaks {FRAME_VERSION})"
        )));
    }
    let seq = field(&mut fields, "seq")?;
    let start_gen = field(&mut fields, "start_gen")?;
    let end_gen = field(&mut fields, "end_gen")?;
    let kind = field(&mut fields, "kind")?;
    if fields.next().is_some() {
        return Err(corrupt("trailing field"));
    }
    Ok(Opened { seq, start_gen, end_gen, kind, payload })
}

/// Parses the next header field as `T`.
fn field<'a, T: FromStr>(fields: &mut impl Iterator<Item = &'a str>, name: &str) -> Result<T> {
    fields
        .next()
        .and_then(|text| text.parse().ok())
        .ok_or_else(|| ReplicaError::Corrupt(format!("frame header: bad or missing {name}")))
}

/// Opens a wire and parses its payload. Any damage to the header or the
/// payload, or a payload that does not parse, is a typed
/// [`ReplicaError::Corrupt`].
pub fn decode(wire: &str) -> Result<Frame> {
    let opened = open(wire)?;
    Ok(Frame {
        version: FRAME_VERSION,
        seq: opened.seq,
        start_gen: opened.start_gen,
        end_gen: opened.end_gen,
        payload: opened.payload()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::FollowOp;
    use hive_core::ids::UserId;

    fn ops_frame() -> Frame {
        Frame {
            version: FRAME_VERSION,
            seq: 7,
            start_gen: 40,
            end_gen: 42,
            payload: FramePayload::Ops(OpsBatch {
                ops: vec![
                    ReplOp::AdvanceClock(3),
                    ReplOp::Follow(FollowOp { follower: UserId(1), followee: UserId(4) }),
                ],
                deltas: vec![
                    DbDelta::Neutral,
                    DbDelta::Follow { follower: UserId(1), followee: UserId(4) },
                ],
            }),
        }
    }

    #[test]
    fn roundtrip_preserves_frame() {
        let frame = ops_frame();
        let wire = encode(&frame);
        let back = decode(&wire).expect("clean wire decodes");
        assert_eq!(back.seq, frame.seq);
        assert_eq!(back.start_gen, frame.start_gen);
        assert_eq!(back.end_gen, frame.end_gen);
        let FramePayload::Ops(batch) = &back.payload else {
            panic!("payload kind changed in flight");
        };
        assert_eq!(batch.ops.len(), 2);
        assert_eq!(
            batch.deltas,
            vec![DbDelta::Neutral, DbDelta::Follow { follower: UserId(1), followee: UserId(4) }]
        );
    }

    #[test]
    fn truncation_and_damage_surface_as_corrupt() {
        let wire = encode(&ops_frame());
        for cut in [0, 1, wire.len() / 2, wire.len() - 1] {
            let truncated = &wire[..cut];
            assert!(
                matches!(decode(truncated), Err(ReplicaError::Corrupt(_))),
                "cut at {cut} must be corrupt"
            );
        }
        // Damage that keeps the header and the payload well-formed
        // still trips the checksum: one header digit (the seq)...
        let damaged = wire.replacen(" 7 40 42 ops\n", " 8 40 42 ops\n", 1);
        assert_ne!(damaged, wire, "replacement must hit");
        assert!(matches!(decode(&damaged), Err(ReplicaError::Corrupt(_))));
        // ...and, separately, one payload byte.
        let damaged = wire.replacen("\"AdvanceClock\":3", "\"AdvanceClock\":4", 1);
        assert_ne!(damaged, wire, "replacement must hit");
        assert!(matches!(decode(&damaged), Err(ReplicaError::Corrupt(_))));
    }

    #[test]
    fn encode_counts_wire_bytes_by_kind() {
        hive_obs::with_level(hive_obs::Level::Counts, || {
            hive_obs::reset();
            let wire = encode(&ops_frame());
            let snap = hive_obs::snapshot();
            assert_eq!(snap.counter("replica.frame.bytes.ops"), wire.len() as u64);
            assert_eq!(snap.counter("replica.frame.bytes.checkpoint"), 0);
            hive_obs::reset();
        });
    }

    #[test]
    fn version_skew_is_refused() {
        let mut frame = ops_frame();
        frame.version = FRAME_VERSION + 1;
        let wire = encode(&frame);
        assert!(matches!(decode(&wire), Err(ReplicaError::Corrupt(_))));
    }
}
