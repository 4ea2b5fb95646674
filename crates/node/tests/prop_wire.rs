//! Property tests for the wire codec: `decode ∘ encode == id` over
//! generated messages of every protocol, and no generated frame corruption
//! ever escalates a strict decode error into a panic or a bogus success.
//!
//! The hand-picked hostile-input cases (bad version, bad kind, poisoned
//! count fields) live next to the codec in `src/wire.rs`; these properties
//! sweep the same ground with generated payloads and generated mutations.

use p2p_estimation::net_protocol::{AggMsg, HsMsg, ScMsg};
use p2p_node::wire::{
    decode_ctrl, decode_data, encode_ctrl, encode_data, read_ctrl, write_ctrl, CtrlMsg, WireError,
};
use p2p_overlay::churn::ChurnOp;
use p2p_overlay::NodeId;
use p2p_workload::WorkloadOp;
use proptest::prelude::*;

fn node_id() -> impl Strategy<Value = NodeId> {
    any::<u32>().prop_map(NodeId)
}

fn sc_msg() -> impl Strategy<Value = ScMsg> {
    prop_oneof![
        (any::<u64>(), node_id(), -10.0f64..1000.0).prop_map(|(run, home, t)| ScMsg::Walk {
            run,
            home,
            t
        }),
        (any::<u64>(), node_id()).prop_map(|(run, sample)| ScMsg::Reply { run, sample }),
    ]
}

fn hs_msg() -> impl Strategy<Value = HsMsg> {
    prop_oneof![
        (any::<u64>(), node_id(), any::<u32>()).prop_map(|(run, home, hops)| HsMsg::Forward {
            run,
            home,
            hops
        }),
        (any::<u64>(), 0.0f64..1.0e12).prop_map(|(run, weight)| HsMsg::Reply { run, weight }),
    ]
}

fn agg_msg() -> impl Strategy<Value = AggMsg> {
    prop_oneof![
        (any::<u32>(), 0.0f64..2.0).prop_map(|(epoch, value)| AggMsg::Push { epoch, value }),
        (any::<u32>(), -2.0f64..2.0).prop_map(|(epoch, delta)| AggMsg::Pull { epoch, delta }),
    ]
}

fn workload_op() -> impl Strategy<Value = WorkloadOp> {
    prop_oneof![
        (1usize..1000, 1usize..64)
            .prop_map(|(count, max_degree)| WorkloadOp::Churn(ChurnOp::Join { count, max_degree })),
        (1usize..1000).prop_map(|count| WorkloadOp::Churn(ChurnOp::Leave { count })),
        (0.0f64..1.0).prop_map(|fraction| WorkloadOp::Churn(ChurnOp::Catastrophe { fraction })),
        prop::collection::vec(node_id(), 0..8).prop_map(WorkloadOp::LeaveNodes),
    ]
}

fn ctrl_msg() -> impl Strategy<Value = CtrlMsg> {
    prop_oneof![
        (any::<u32>(), any::<u16>()).prop_map(|(proc, udp_port)| CtrlMsg::Hello { proc, udp_port }),
        prop::collection::vec(any::<u16>(), 0..16).prop_map(|ports| CtrlMsg::Peers { ports }),
        any::<bool>().prop_map(|_| CtrlMsg::Start),
        (any::<u64>(), prop::collection::vec(workload_op(), 0..5))
            .prop_map(|(step, ops)| CtrlMsg::Step { step, ops }),
        any::<bool>().prop_map(|_| CtrlMsg::EstimateQuery),
        prop::collection::vec((node_id(), 0.0f64..1.0e9), 0..12)
            .prop_map(|entries| CtrlMsg::Estimates { entries }),
        (any::<u64>(), 0.0f64..1.0e9)
            .prop_map(|(wall_ms, estimate)| CtrlMsg::Report { wall_ms, estimate }),
        any::<bool>().prop_map(|_| CtrlMsg::Shutdown),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(sent, received, malformed)| {
            CtrlMsg::Bye {
                sent,
                received,
                malformed,
            }
        }),
    ]
}

/// Every count field the codec has, as `(frame, byte offset of the u32
/// count, bytes per element)`; offsets include the length prefix and the
/// version and kind bytes. Data frames carry no count; these are the
/// control kinds' plus the one inside a (final) `LeaveNodes` op.
fn counted_frame() -> impl Strategy<Value = (CtrlMsg, usize, u64)> {
    let peers = prop::collection::vec(any::<u16>(), 0..16)
        .prop_map(|ports| (CtrlMsg::Peers { ports }, 6_usize, 2_u64));
    let churn = (any::<u64>(), prop::collection::vec(workload_op(), 0..5))
        .prop_map(|(step, ops)| (CtrlMsg::Step { step, ops }, 14_usize, 1_u64));
    let leave_nodes =
        (any::<u64>(), prop::collection::vec(node_id(), 0..8)).prop_map(|(step, ids)| {
            let ops = vec![WorkloadOp::LeaveNodes(ids)];
            (CtrlMsg::Step { step, ops }, 19_usize, 4_u64)
        });
    let estimates = prop::collection::vec((node_id(), 0.0f64..1.0e9), 0..12)
        .prop_map(|entries| (CtrlMsg::Estimates { entries }, 6_usize, 12_u64));
    let metrics = prop::collection::vec(any::<u8>(), 0..32)
        .prop_map(|json| (CtrlMsg::Metrics { json }, 6_usize, 1_u64));
    prop_oneof![peers, churn, leave_nodes, estimates, metrics]
}

/// An arbitrary `u32`, with small values (the ones that can fit) mixed in.
fn count_value() -> impl Strategy<Value = u32> {
    prop_oneof![any::<u32>(), 0u32..64]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn count_fields_never_outrun_the_body(
        (msg, at, elem) in counted_frame(),
        count in count_value(),
    ) {
        // Whatever a hostile peer writes over a count field, the strict
        // decoder either fills exactly `count` elements that fit in the
        // bytes after the field, or rejects the count before allocating.
        let mut buf = Vec::new();
        encode_ctrl(&msg, &mut buf);
        buf[at..at + 4].copy_from_slice(&count.to_le_bytes());
        let fits = u64::from(count) * elem <= (buf.len() - at - 4) as u64;
        match decode_ctrl(&buf) {
            Ok(decoded) => {
                // Re-encoding writes the decoded element count back into
                // the field, so equal bytes mean exactly `count` elements.
                let mut again = Vec::new();
                encode_ctrl(&decoded, &mut again);
                prop_assert_eq!(&again, &buf);
                prop_assert!(fits);
            }
            Err(WireError::BadCount { count: rejected }) => {
                prop_assert_eq!(rejected, count as usize);
                prop_assert!(!fits);
            }
            Err(_) => prop_assert!(fits, "an oversized count must fail as BadCount"),
        }
    }

    #[test]
    fn sc_data_round_trips(src in node_id(), dst in node_id(), msg in sc_msg()) {
        let mut buf = Vec::new();
        encode_data(src, dst, &msg, &mut buf);
        let (s, d, m) = decode_data::<ScMsg>(&buf).expect("own encoding decodes");
        prop_assert_eq!(s, src);
        prop_assert_eq!(d, dst);
        prop_assert_eq!(m, msg);
    }

    #[test]
    fn hs_data_round_trips(src in node_id(), dst in node_id(), msg in hs_msg()) {
        let mut buf = Vec::new();
        encode_data(src, dst, &msg, &mut buf);
        let (s, d, m) = decode_data::<HsMsg>(&buf).expect("own encoding decodes");
        prop_assert_eq!(s, src);
        prop_assert_eq!(d, dst);
        prop_assert_eq!(m, msg);
    }

    #[test]
    fn agg_data_round_trips(src in node_id(), dst in node_id(), msg in agg_msg()) {
        let mut buf = Vec::new();
        encode_data(src, dst, &msg, &mut buf);
        let (s, d, m) = decode_data::<AggMsg>(&buf).expect("own encoding decodes");
        prop_assert_eq!(s, src);
        prop_assert_eq!(d, dst);
        prop_assert_eq!(m, msg);
    }

    #[test]
    fn ctrl_round_trips(msg in ctrl_msg()) {
        let mut buf = Vec::new();
        encode_ctrl(&msg, &mut buf);
        let decoded = decode_ctrl(&buf).expect("own encoding decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn ctrl_stream_round_trips(msgs in prop::collection::vec(ctrl_msg(), 0..6)) {
        // Frames written back to back through the stream API come out in
        // order, and the stream ends with a clean EOF, never an error.
        let mut stream = Vec::new();
        for msg in &msgs {
            write_ctrl(&mut stream, msg).expect("vec write succeeds");
        }
        let mut cursor = std::io::Cursor::new(stream);
        for msg in &msgs {
            let got = read_ctrl(&mut cursor).expect("no io error").expect("frame present");
            prop_assert_eq!(&got, msg);
        }
        prop_assert!(read_ctrl(&mut cursor).expect("no io error").is_none());
    }

    #[test]
    fn truncated_data_frames_error_cleanly(msg in agg_msg(), cut in any::<u64>()) {
        // Any strict prefix of a valid frame must decode to Err, not panic
        // and not a bogus Ok.
        let mut buf = Vec::new();
        encode_data(NodeId(7), NodeId(9), &msg, &mut buf);
        let cut = (cut as usize) % buf.len(); // strictly shorter than full
        prop_assert!(decode_data::<AggMsg>(&buf[..cut]).is_err());
    }

    #[test]
    fn flipped_bytes_never_panic(msg in ctrl_msg(), pos in any::<u64>(), val in any::<u8>()) {
        // Arbitrary single-byte corruption: decode may succeed (payload
        // bytes are free) or fail, but must never panic or over-read.
        let mut buf = Vec::new();
        encode_ctrl(&msg, &mut buf);
        let pos = (pos as usize) % buf.len();
        buf[pos] = val;
        let _ = decode_ctrl(&buf);
    }

    #[test]
    fn trailing_garbage_is_rejected(msg in sc_msg(), extra in 1usize..16) {
        let mut buf = Vec::new();
        encode_data(NodeId(1), NodeId(2), &msg, &mut buf);
        buf.extend(std::iter::repeat_n(0xAA, extra));
        prop_assert!(decode_data::<ScMsg>(&buf).is_err());
    }
}
