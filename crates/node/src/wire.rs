//! The wire protocol: a compact, versioned, hand-rolled binary framing for
//! the estimation protocols' messages and the cluster's control channel.
//!
//! Every frame — UDP datagram or TCP control message — is
//!
//! ```text
//! [u32 len][u8 version][u8 kind][kind-specific body]      (little-endian)
//! ```
//!
//! where `len` counts everything after the length prefix. Data frames
//! (protocol messages between nodes) put `[u32 src][u32 dst]` first in the
//! body — raw [`NodeId`] bits, generation included, so a frame addressed to
//! a re-let slot is detected by the receiver's alive check exactly like a
//! churn-lost delivery in the DES. Control frames (coordinator ↔ node
//! process) follow with their own fields.
//!
//! Decoding is strict: a frame that is truncated, oversized, from an
//! unknown version, of an unknown kind, or carrying trailing bytes is a
//! [`WireError`], never a panic and never a partial value — hostile input
//! costs the attacker one malformed-frame counter tick and nothing else.
//! The module denies `clippy::cast_possible_truncation`, so a hostile field
//! can only error, never wrap through an `as` narrowing; the encoders
//! narrow through `wire_u32`, the one reasoned `#[expect]`.
//! There is no serde and no derive magic, by design: the format is small
//! enough to read in one sitting, like the JSONL trace codec in
//! `p2p-workload`.

#![deny(clippy::cast_possible_truncation)]

use p2p_estimation::net_protocol::{AggMsg, HsMsg, ScMsg};
use p2p_overlay::churn::ChurnOp;
use p2p_overlay::NodeId;
use p2p_sim::MessageKind;
use p2p_workload::WorkloadOp;
use std::fmt;
use std::io::{self, Read, Write};

/// The one wire version this build speaks.
pub const WIRE_VERSION: u8 = 2;

/// Hard ceiling on a frame's post-prefix length. Far above anything the
/// protocols emit (the largest data frame is 30 bytes); its job is to bound
/// allocation when a length prefix arrives hostile.
pub const MAX_FRAME: usize = 64 * 1024;

/// Why a frame failed to decode. Every variant is a clean rejection of the
/// whole frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced or required length.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// The announced length.
        len: usize,
    },
    /// Unknown wire version byte.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The frame decoded but bytes were left over — a framing bug or a
    /// tampered payload, either way rejected.
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
    /// An in-frame count field announces more elements than the remaining
    /// bytes could hold.
    BadCount {
        /// The announced element count.
        count: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {MAX_FRAME} cap"
                )
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unknown wire version {v} (this build speaks {WIRE_VERSION})"
                )
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete frame")
            }
            WireError::BadCount { count } => {
                write!(
                    f,
                    "count field announces {count} elements beyond the frame's bytes"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Cursor over a frame body; every getter checks bounds.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated {
                needed: self.pos + n,
                got: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `take(N)` as a fixed array, with the length proven by construction
    /// rather than a fallible `try_into`.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an element count and checks it against the bytes actually
    /// left, so a hostile count cannot drive a huge allocation.
    fn count(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if count * elem_size > self.buf.len() - self.pos {
            return Err(WireError::BadCount { count });
        }
        Ok(count)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Trailing {
                extra: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

// Data-frame kinds (protocol messages, one per enum variant).
const SC_WALK: u8 = 0x01;
const SC_REPLY: u8 = 0x02;
const HS_FORWARD: u8 = 0x03;
const HS_REPLY: u8 = 0x04;
const AGG_PUSH: u8 = 0x05;
const AGG_PULL: u8 = 0x06;

// Control-frame kinds (coordinator ↔ node process).
const CTRL_HELLO: u8 = 0x10;
const CTRL_PEERS: u8 = 0x11;
const CTRL_START: u8 = 0x12;
const CTRL_STEP: u8 = 0x13;
const CTRL_ESTIMATE_QUERY: u8 = 0x14;
const CTRL_ESTIMATES: u8 = 0x15;
const CTRL_REPORT: u8 = 0x16;
const CTRL_SHUTDOWN: u8 = 0x17;
const CTRL_BYE: u8 = 0x18;
const CTRL_METRICS: u8 = 0x19;

/// A protocol message that can cross the wire. Implemented for the three
/// estimation protocols' message enums; the node runtime is generic over
/// it.
pub trait WirePayload: Sized {
    /// This message's frame kind byte.
    fn kind(&self) -> u8;

    /// The traffic category the message is charged as (mirrors what the
    /// protocol charges in the DES).
    fn charge(&self) -> MessageKind;

    /// Appends the kind-specific body fields.
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Decodes the body fields of a frame of `kind`.
    fn decode_body(kind: u8, r: &mut Reader<'_>) -> Result<Self, WireError>;
}

impl WirePayload for ScMsg {
    fn kind(&self) -> u8 {
        match self {
            ScMsg::Walk { .. } => SC_WALK,
            ScMsg::Reply { .. } => SC_REPLY,
        }
    }

    fn charge(&self) -> MessageKind {
        match self {
            ScMsg::Walk { .. } => MessageKind::WalkStep,
            ScMsg::Reply { .. } => MessageKind::SampleReply,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            ScMsg::Walk { run, home, t } => {
                out.extend_from_slice(&run.to_le_bytes());
                out.extend_from_slice(&home.0.to_le_bytes());
                out.extend_from_slice(&t.to_bits().to_le_bytes());
            }
            ScMsg::Reply { run, sample } => {
                out.extend_from_slice(&run.to_le_bytes());
                out.extend_from_slice(&sample.0.to_le_bytes());
            }
        }
    }

    fn decode_body(kind: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match kind {
            SC_WALK => Ok(ScMsg::Walk {
                run: r.u64()?,
                home: NodeId(r.u32()?),
                t: r.f64()?,
            }),
            SC_REPLY => Ok(ScMsg::Reply {
                run: r.u64()?,
                sample: NodeId(r.u32()?),
            }),
            other => Err(WireError::BadKind(other)),
        }
    }
}

impl WirePayload for HsMsg {
    fn kind(&self) -> u8 {
        match self {
            HsMsg::Forward { .. } => HS_FORWARD,
            HsMsg::Reply { .. } => HS_REPLY,
        }
    }

    fn charge(&self) -> MessageKind {
        match self {
            HsMsg::Forward { .. } => MessageKind::GossipForward,
            HsMsg::Reply { .. } => MessageKind::PollReply,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            HsMsg::Forward { run, home, hops } => {
                out.extend_from_slice(&run.to_le_bytes());
                out.extend_from_slice(&home.0.to_le_bytes());
                out.extend_from_slice(&hops.to_le_bytes());
            }
            HsMsg::Reply { run, weight } => {
                out.extend_from_slice(&run.to_le_bytes());
                out.extend_from_slice(&weight.to_bits().to_le_bytes());
            }
        }
    }

    fn decode_body(kind: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match kind {
            HS_FORWARD => Ok(HsMsg::Forward {
                run: r.u64()?,
                home: NodeId(r.u32()?),
                hops: r.u32()?,
            }),
            HS_REPLY => Ok(HsMsg::Reply {
                run: r.u64()?,
                weight: r.f64()?,
            }),
            other => Err(WireError::BadKind(other)),
        }
    }
}

impl WirePayload for AggMsg {
    fn kind(&self) -> u8 {
        match self {
            AggMsg::Push { .. } => AGG_PUSH,
            AggMsg::Pull { .. } => AGG_PULL,
        }
    }

    fn charge(&self) -> MessageKind {
        match self {
            AggMsg::Push { .. } => MessageKind::AggregationPush,
            AggMsg::Pull { .. } => MessageKind::AggregationPull,
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            AggMsg::Push { epoch, value } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&value.to_bits().to_le_bytes());
            }
            AggMsg::Pull { epoch, delta } => {
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&delta.to_bits().to_le_bytes());
            }
        }
    }

    fn decode_body(kind: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
        match kind {
            AGG_PUSH => Ok(AggMsg::Push {
                epoch: r.u32()?,
                value: r.f64()?,
            }),
            AGG_PULL => Ok(AggMsg::Pull {
                epoch: r.u32()?,
                delta: r.f64()?,
            }),
            other => Err(WireError::BadKind(other)),
        }
    }
}

/// Encodes a complete data frame (length prefix included) into `out`,
/// which is cleared first. One call = one UDP datagram.
pub fn encode_data<M: WirePayload>(src: NodeId, dst: NodeId, msg: &M, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0, 0, 0, 0]); // length, patched below
    out.push(WIRE_VERSION);
    out.push(msg.kind());
    out.extend_from_slice(&src.0.to_le_bytes());
    out.extend_from_slice(&dst.0.to_le_bytes());
    msg.encode_body(out);
    let len = wire_u32(out.len() - 4);
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// A length, list count or churn size in its `u32` wire form.
#[expect(
    clippy::cast_possible_truncation,
    reason = "encoder side: our own lengths and node counts, far below u32::MAX"
)]
fn wire_u32(n: usize) -> u32 {
    n as u32
}

/// Decodes a complete data frame. `buf` must be exactly one frame — a UDP
/// datagram's payload.
pub fn decode_data<M: WirePayload>(buf: &[u8]) -> Result<(NodeId, NodeId, M), WireError> {
    let body = check_frame(buf)?;
    let mut r = Reader::new(body);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    let src = NodeId(r.u32()?);
    let dst = NodeId(r.u32()?);
    let msg = M::decode_body(kind, &mut r)?;
    r.finish()?;
    Ok((src, dst, msg))
}

/// Validates the length prefix and returns the frame body.
fn check_frame(buf: &[u8]) -> Result<&[u8], WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            got: buf.len(),
        });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len });
    }
    match (buf.len() - 4).cmp(&len) {
        std::cmp::Ordering::Less => Err(WireError::Truncated {
            needed: 4 + len,
            got: buf.len(),
        }),
        std::cmp::Ordering::Greater => Err(WireError::Trailing {
            extra: buf.len() - 4 - len,
        }),
        std::cmp::Ordering::Equal => Ok(&buf[4..]),
    }
}

/// Appends a churn op in wire form: a tag byte (1 join, 2 leave,
/// 3 catastrophe, 4 named departures) and its fields. Count-based ops apply
/// with draws from the replicas' shared application stream, so broadcasting
/// the *op* (not the victim list) still yields identical replicas on every
/// process.
fn encode_op(op: &WorkloadOp, out: &mut Vec<u8>) {
    match op {
        WorkloadOp::Churn(ChurnOp::Join { count, max_degree }) => {
            out.push(1);
            out.extend_from_slice(&wire_u32(*count).to_le_bytes());
            out.extend_from_slice(&wire_u32(*max_degree).to_le_bytes());
        }
        WorkloadOp::Churn(ChurnOp::Leave { count }) => {
            out.push(2);
            out.extend_from_slice(&wire_u32(*count).to_le_bytes());
        }
        WorkloadOp::Churn(ChurnOp::Catastrophe { fraction }) => {
            out.push(3);
            out.extend_from_slice(&fraction.to_bits().to_le_bytes());
        }
        WorkloadOp::LeaveNodes(ids) => {
            out.push(4);
            out.extend_from_slice(&wire_u32(ids.len()).to_le_bytes());
            for id in ids {
                out.extend_from_slice(&id.0.to_le_bytes());
            }
        }
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<WorkloadOp, WireError> {
    match r.u8()? {
        1 => Ok(WorkloadOp::Churn(ChurnOp::Join {
            count: r.u32()? as usize,
            max_degree: r.u32()? as usize,
        })),
        2 => Ok(WorkloadOp::Churn(ChurnOp::Leave {
            count: r.u32()? as usize,
        })),
        3 => Ok(WorkloadOp::Churn(ChurnOp::Catastrophe {
            fraction: r.f64()?,
        })),
        4 => {
            let n = r.count(4)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(NodeId(r.u32()?));
            }
            Ok(WorkloadOp::LeaveNodes(ids))
        }
        other => Err(WireError::BadKind(other)),
    }
}

/// A control-channel message (coordinator ↔ node process, over TCP).
#[derive(Clone, Debug, PartialEq)]
pub enum CtrlMsg {
    /// Node process `proc` is up, listening for data on `udp_port`.
    Hello {
        /// Shard index.
        proc: u32,
        /// Its bound UDP port (loopback).
        udp_port: u16,
    },
    /// The full cluster's data ports, indexed by shard; sent once every
    /// shard said hello.
    Peers {
        /// `ports[p]` is shard `p`'s UDP port.
        ports: Vec<u16>,
    },
    /// All shards are wired: define wall-clock time zero and begin.
    Start,
    /// Step `step` begins, sent for every step `1..=steps` on the
    /// coordinator's clock: every replica applies `ops` (the step's churn,
    /// possibly none) in order off the shared application stream, then the
    /// shard runs the step.
    Step {
        /// The step number.
        step: u64,
        /// The step's churn ops, in application order.
        ops: Vec<WorkloadOp>,
    },
    /// Asks a shard for every hosted node's current estimate.
    EstimateQuery,
    /// Answer to [`CtrlMsg::EstimateQuery`]: `(node, estimate)` pairs for
    /// hosted alive nodes that currently hold one.
    Estimates {
        /// The per-node estimates.
        entries: Vec<(NodeId, f64)>,
    },
    /// A reporting period closed at this shard's estimator.
    Report {
        /// Wall milliseconds since [`CtrlMsg::Start`].
        wall_ms: u64,
        /// The reported estimate (NaN encodes a failed period).
        estimate: f64,
    },
    /// Stop: drain, report, exit.
    Shutdown,
    /// A shard's parting stats, then its control stream closes.
    Bye {
        /// Frames sent on the data socket.
        sent: u64,
        /// Frames received (well-formed) on the data socket.
        received: u64,
        /// Frames that failed to decode (hostile or corrupt input).
        malformed: u64,
    },
    /// One interval telemetry snapshot from a shard, as the byte-exact
    /// JSONL line of `p2p_telemetry::Snapshot::to_jsonl`. Carrying the
    /// textual codec (rather than a second binary one) keeps one strict
    /// parser in play end to end; the coordinator rejects frames whose
    /// body fails that parser exactly like any other malformed input.
    Metrics {
        /// UTF-8 bytes of one snapshot JSONL line (no trailing newline).
        json: Vec<u8>,
    },
}

impl CtrlMsg {
    fn kind(&self) -> u8 {
        match self {
            CtrlMsg::Hello { .. } => CTRL_HELLO,
            CtrlMsg::Peers { .. } => CTRL_PEERS,
            CtrlMsg::Start => CTRL_START,
            CtrlMsg::Step { .. } => CTRL_STEP,
            CtrlMsg::EstimateQuery => CTRL_ESTIMATE_QUERY,
            CtrlMsg::Estimates { .. } => CTRL_ESTIMATES,
            CtrlMsg::Report { .. } => CTRL_REPORT,
            CtrlMsg::Shutdown => CTRL_SHUTDOWN,
            CtrlMsg::Bye { .. } => CTRL_BYE,
            CtrlMsg::Metrics { .. } => CTRL_METRICS,
        }
    }
}

/// Encodes a complete control frame (length prefix included) into `out`,
/// which is cleared first.
pub fn encode_ctrl(msg: &CtrlMsg, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0, 0, 0, 0]);
    out.push(WIRE_VERSION);
    out.push(msg.kind());
    match msg {
        CtrlMsg::Hello { proc, udp_port } => {
            out.extend_from_slice(&proc.to_le_bytes());
            out.extend_from_slice(&udp_port.to_le_bytes());
        }
        CtrlMsg::Peers { ports } => {
            out.extend_from_slice(&wire_u32(ports.len()).to_le_bytes());
            for p in ports {
                out.extend_from_slice(&p.to_le_bytes());
            }
        }
        CtrlMsg::Start | CtrlMsg::EstimateQuery | CtrlMsg::Shutdown => {}
        CtrlMsg::Step { step, ops } => {
            out.extend_from_slice(&step.to_le_bytes());
            out.extend_from_slice(&wire_u32(ops.len()).to_le_bytes());
            for op in ops {
                encode_op(op, out);
            }
        }
        CtrlMsg::Estimates { entries } => {
            out.extend_from_slice(&wire_u32(entries.len()).to_le_bytes());
            for (node, est) in entries {
                out.extend_from_slice(&node.0.to_le_bytes());
                out.extend_from_slice(&est.to_bits().to_le_bytes());
            }
        }
        CtrlMsg::Report { wall_ms, estimate } => {
            out.extend_from_slice(&wall_ms.to_le_bytes());
            out.extend_from_slice(&estimate.to_bits().to_le_bytes());
        }
        CtrlMsg::Bye {
            sent,
            received,
            malformed,
        } => {
            out.extend_from_slice(&sent.to_le_bytes());
            out.extend_from_slice(&received.to_le_bytes());
            out.extend_from_slice(&malformed.to_le_bytes());
        }
        CtrlMsg::Metrics { json } => {
            out.extend_from_slice(&wire_u32(json.len()).to_le_bytes());
            out.extend_from_slice(json);
        }
    }
    let len = wire_u32(out.len() - 4);
    out[..4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes a complete control frame (length prefix included).
pub fn decode_ctrl(buf: &[u8]) -> Result<CtrlMsg, WireError> {
    let body = check_frame(buf)?;
    let mut r = Reader::new(body);
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    let msg = match kind {
        CTRL_HELLO => CtrlMsg::Hello {
            proc: r.u32()?,
            udp_port: r.u16()?,
        },
        CTRL_PEERS => {
            let n = r.count(2)?;
            let mut ports = Vec::with_capacity(n);
            for _ in 0..n {
                ports.push(r.u16()?);
            }
            CtrlMsg::Peers { ports }
        }
        CTRL_START => CtrlMsg::Start,
        CTRL_STEP => {
            let step = r.u64()?;
            let n = r.count(1)?; // ops are ≥ 1 byte each
            let mut ops = Vec::with_capacity(n.min(r.remaining()));
            for _ in 0..n {
                ops.push(decode_op(&mut r)?);
            }
            CtrlMsg::Step { step, ops }
        }
        CTRL_ESTIMATE_QUERY => CtrlMsg::EstimateQuery,
        CTRL_ESTIMATES => {
            let n = r.count(12)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                entries.push((NodeId(r.u32()?), r.f64()?));
            }
            CtrlMsg::Estimates { entries }
        }
        CTRL_REPORT => CtrlMsg::Report {
            wall_ms: r.u64()?,
            estimate: r.f64()?,
        },
        CTRL_SHUTDOWN => CtrlMsg::Shutdown,
        CTRL_BYE => CtrlMsg::Bye {
            sent: r.u64()?,
            received: r.u64()?,
            malformed: r.u64()?,
        },
        CTRL_METRICS => {
            let n = r.count(1)?;
            CtrlMsg::Metrics {
                json: r.take(n)?.to_vec(),
            }
        }
        other => return Err(WireError::BadKind(other)),
    };
    r.finish()?;
    Ok(msg)
}

/// Writes one control frame to a stream (a TCP control channel).
pub fn write_ctrl<W: Write>(w: &mut W, msg: &CtrlMsg) -> io::Result<()> {
    let mut buf = Vec::with_capacity(64);
    encode_ctrl(msg, &mut buf);
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one control frame from a stream. `Ok(None)` is a clean EOF at a
/// frame boundary; a malformed frame is an `InvalidData` error.
pub fn read_ctrl<R: Read>(r: &mut R) -> io::Result<Option<CtrlMsg>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized { len }.into());
    }
    let mut frame = vec![0u8; 4 + len];
    frame[..4].copy_from_slice(&len_buf);
    r.read_exact(&mut frame[4..])?;
    Ok(Some(decode_ctrl(&frame)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_data<M: WirePayload + PartialEq + std::fmt::Debug>(src: u32, dst: u32, msg: M) {
        let mut buf = Vec::new();
        encode_data(NodeId(src), NodeId(dst), &msg, &mut buf);
        let (s, d, decoded) = decode_data::<M>(&buf).expect("well-formed frame decodes");
        assert_eq!(s, NodeId(src));
        assert_eq!(d, NodeId(dst));
        assert_eq!(decoded, msg);
    }

    #[test]
    fn data_frames_round_trip() {
        roundtrip_data(
            3,
            7,
            ScMsg::Walk {
                run: 42,
                home: NodeId(3),
                t: 12.5,
            },
        );
        roundtrip_data(
            7,
            3,
            ScMsg::Reply {
                run: u64::MAX,
                sample: NodeId(u32::MAX),
            },
        );
        roundtrip_data(
            0,
            1,
            HsMsg::Forward {
                run: 1,
                home: NodeId(0),
                hops: 9,
            },
        );
        roundtrip_data(
            1,
            0,
            HsMsg::Reply {
                run: 1,
                weight: 0.0078125,
            },
        );
        roundtrip_data(
            5,
            6,
            AggMsg::Push {
                epoch: 3,
                value: 0.125,
            },
        );
        roundtrip_data(
            6,
            5,
            AggMsg::Pull {
                epoch: 3,
                delta: -0.0625,
            },
        );
    }

    #[test]
    fn ctrl_frames_round_trip() {
        let msgs = vec![
            CtrlMsg::Hello {
                proc: 2,
                udp_port: 40123,
            },
            CtrlMsg::Peers {
                ports: vec![40000, 40001, 40002],
            },
            CtrlMsg::Start,
            CtrlMsg::Step {
                step: 17,
                ops: vec![
                    WorkloadOp::Churn(ChurnOp::Join {
                        count: 5,
                        max_degree: 10,
                    }),
                    WorkloadOp::Churn(ChurnOp::Leave { count: 3 }),
                    WorkloadOp::Churn(ChurnOp::Catastrophe { fraction: 0.25 }),
                    WorkloadOp::LeaveNodes(vec![NodeId(1), NodeId(99)]),
                ],
            },
            CtrlMsg::Step {
                step: 18,
                ops: Vec::new(),
            },
            CtrlMsg::EstimateQuery,
            CtrlMsg::Estimates {
                entries: vec![(NodeId(4), 512.0), (NodeId(9), 480.5)],
            },
            CtrlMsg::Report {
                wall_ms: 1234,
                estimate: 1000.25,
            },
            CtrlMsg::Shutdown,
            CtrlMsg::Bye {
                sent: 10,
                received: 9,
                malformed: 1,
            },
            CtrlMsg::Metrics {
                json: br#"{"event":"metrics","series":"shard0","tick":5,"counters":{},"gauges":{},"hists":{}}"#.to_vec(),
            },
            CtrlMsg::Metrics { json: Vec::new() },
        ];
        let mut buf = Vec::new();
        for msg in msgs {
            encode_ctrl(&msg, &mut buf);
            assert_eq!(decode_ctrl(&buf).expect("round trip"), msg);
        }
    }

    #[test]
    fn ctrl_frames_round_trip_through_streams() {
        let msgs = [
            CtrlMsg::Start,
            CtrlMsg::Report {
                wall_ms: 9,
                estimate: 7.5,
            },
            CtrlMsg::Shutdown,
        ];
        let mut stream = Vec::new();
        for msg in &msgs {
            write_ctrl(&mut stream, msg).unwrap();
        }
        let mut r = &stream[..];
        for msg in &msgs {
            assert_eq!(read_ctrl(&mut r).unwrap().as_ref(), Some(msg));
        }
        assert_eq!(read_ctrl(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let mut buf = Vec::new();
        encode_data(
            NodeId(1),
            NodeId(2),
            &ScMsg::Walk {
                run: 7,
                home: NodeId(1),
                t: 3.0,
            },
            &mut buf,
        );
        // Every proper prefix must fail with Truncated, never panic.
        for cut in 0..buf.len() {
            match decode_data::<ScMsg>(&buf[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("prefix of {cut} bytes decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.push(WIRE_VERSION);
        assert_eq!(
            decode_data::<ScMsg>(&buf),
            Err(WireError::Oversized {
                len: u32::MAX as usize
            })
        );
        // And through the stream reader: the length is rejected before any
        // buffer of that size is allocated.
        let err = read_ctrl(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_and_kind_are_rejected() {
        let mut buf = Vec::new();
        encode_data(
            NodeId(1),
            NodeId(2),
            &AggMsg::Push {
                epoch: 1,
                value: 0.5,
            },
            &mut buf,
        );
        let mut wrong_version = buf.clone();
        wrong_version[4] = 0x7f;
        assert_eq!(
            decode_data::<AggMsg>(&wrong_version),
            Err(WireError::BadVersion(0x7f))
        );
        let mut wrong_kind = buf.clone();
        wrong_kind[5] = 0xee;
        assert_eq!(
            decode_data::<AggMsg>(&wrong_kind),
            Err(WireError::BadKind(0xee))
        );
        // A valid kind of the *wrong protocol* is also a decode error: an
        // aggregation shard must not accept a walk token.
        let mut cross_protocol = Vec::new();
        encode_data(
            NodeId(1),
            NodeId(2),
            &ScMsg::Walk {
                run: 1,
                home: NodeId(1),
                t: 1.0,
            },
            &mut cross_protocol,
        );
        assert_eq!(
            decode_data::<AggMsg>(&cross_protocol),
            Err(WireError::BadKind(SC_WALK))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        encode_data(
            NodeId(1),
            NodeId(2),
            &AggMsg::Pull {
                epoch: 2,
                delta: 0.25,
            },
            &mut buf,
        );
        // Padding *outside* the announced length.
        let mut padded = buf.clone();
        padded.push(0);
        assert_eq!(
            decode_data::<AggMsg>(&padded),
            Err(WireError::Trailing { extra: 1 })
        );
        // Padding *inside* the announced length: body decodes short.
        let mut inflated = buf.clone();
        inflated.push(0);
        let len = u32::try_from(inflated.len() - 4).unwrap();
        inflated[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_data::<AggMsg>(&inflated),
            Err(WireError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn hostile_count_fields_are_rejected() {
        // An Estimates frame announcing 2^31 entries in a 16-byte body.
        let mut buf = Vec::new();
        encode_ctrl(
            &CtrlMsg::Estimates {
                entries: vec![(NodeId(1), 2.0)],
            },
            &mut buf,
        );
        buf[6..10].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        assert_eq!(
            decode_ctrl(&buf),
            Err(WireError::BadCount { count: 0x8000_0000 })
        );
        // A Metrics frame whose byte count outruns its body is rejected the
        // same way — the count check runs before any allocation.
        let mut buf = Vec::new();
        encode_ctrl(
            &CtrlMsg::Metrics {
                json: b"{}".to_vec(),
            },
            &mut buf,
        );
        buf[6..10].copy_from_slice(&0x4000_0000u32.to_le_bytes());
        assert_eq!(
            decode_ctrl(&buf),
            Err(WireError::BadCount { count: 0x4000_0000 })
        );
    }
}
