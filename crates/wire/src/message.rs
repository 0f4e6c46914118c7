//! Framing for the IGMP message family.
//!
//! Every control message in this reproduction — host IGMP, PIM, DVMRP and
//! CBT — travels as an "IGMP-family" payload (the 1994 PIM design extended
//! IGMP with new message types). The common frame is:
//!
//! ```text
//! +--------+--------+-----------------+
//! |  type  |reserved|    checksum     |
//! +--------+--------+-----------------+
//! |        type-specific body ...     |
//! ```
//!
//! The checksum covers the whole message (with the checksum field zeroed),
//! per RFC 1071.

use crate::{cbt, checksum, dvmrp, igmp, pim, unicast, DecodeError, Reader, Result, Writer};

/// Every message that can appear in an IGMP-family payload.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror the per-protocol structs they wrap
pub enum Message {
    HostQuery(igmp::HostQuery),
    HostReport(igmp::HostReport),
    RpMapping(igmp::RpMapping),
    PimQuery(pim::Query),
    PimRegister(pim::Register),
    PimJoinPrune(pim::JoinPrune),
    PimRpReachability(pim::RpReachability),
    DvmrpProbe(dvmrp::Probe),
    DvmrpPrune(dvmrp::Prune),
    DvmrpGraft(dvmrp::Graft),
    DvmrpGraftAck(dvmrp::GraftAck),
    CbtJoinRequest(cbt::JoinRequest),
    CbtJoinAck(cbt::JoinAck),
    CbtEcho(cbt::Echo),
    CbtEchoReply(cbt::EchoReply),
    CbtQuit(cbt::Quit),
    CbtFlushTree(cbt::FlushTree),
    DvUpdate(unicast::DvUpdate),
    Lsa(unicast::Lsa),
    Hello(unicast::Hello),
}

// Type octets. 0x11/0x12 match real IGMPv1 query/report; the rest occupy
// the extension space the paper anticipated.
const T_HOST_QUERY: u8 = 0x11;
const T_HOST_REPORT: u8 = 0x12;
const T_RP_MAPPING: u8 = 0x13;
const T_PIM_QUERY: u8 = 0x20;
const T_PIM_REGISTER: u8 = 0x21;
const T_PIM_JOIN_PRUNE: u8 = 0x22;
const T_PIM_RP_REACH: u8 = 0x23;
const T_DVMRP_PROBE: u8 = 0x30;
const T_DVMRP_PRUNE: u8 = 0x31;
const T_DVMRP_GRAFT: u8 = 0x32;
const T_DVMRP_GRAFT_ACK: u8 = 0x33;
const T_CBT_JOIN: u8 = 0x40;
const T_CBT_JOIN_ACK: u8 = 0x41;
const T_CBT_ECHO: u8 = 0x42;
const T_CBT_ECHO_REPLY: u8 = 0x43;
const T_CBT_QUIT: u8 = 0x44;
const T_CBT_FLUSH: u8 = 0x45;
const T_DV_UPDATE: u8 = 0x50;
const T_LSA: u8 = 0x51;
const T_HELLO: u8 = 0x52;

impl Message {
    fn type_byte(&self) -> u8 {
        match self {
            Message::HostQuery(_) => T_HOST_QUERY,
            Message::HostReport(_) => T_HOST_REPORT,
            Message::RpMapping(_) => T_RP_MAPPING,
            Message::PimQuery(_) => T_PIM_QUERY,
            Message::PimRegister(_) => T_PIM_REGISTER,
            Message::PimJoinPrune(_) => T_PIM_JOIN_PRUNE,
            Message::PimRpReachability(_) => T_PIM_RP_REACH,
            Message::DvmrpProbe(_) => T_DVMRP_PROBE,
            Message::DvmrpPrune(_) => T_DVMRP_PRUNE,
            Message::DvmrpGraft(_) => T_DVMRP_GRAFT,
            Message::DvmrpGraftAck(_) => T_DVMRP_GRAFT_ACK,
            Message::CbtJoinRequest(_) => T_CBT_JOIN,
            Message::CbtJoinAck(_) => T_CBT_JOIN_ACK,
            Message::CbtEcho(_) => T_CBT_ECHO,
            Message::CbtEchoReply(_) => T_CBT_ECHO_REPLY,
            Message::CbtQuit(_) => T_CBT_QUIT,
            Message::CbtFlushTree(_) => T_CBT_FLUSH,
            Message::DvUpdate(_) => T_DV_UPDATE,
            Message::Lsa(_) => T_LSA,
            Message::Hello(_) => T_HELLO,
        }
    }

    /// Serialize this message, including the frame header and checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// [`Message::encode`] appended to `buf`: the frame starts where
    /// `buf` ended, so a packet image is written once, header space
    /// first and the message straight after it.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        let mut w = Writer::appending_to(std::mem::take(buf));
        w.u8(self.type_byte());
        w.u8(0); // reserved
        w.u16(0); // checksum placeholder
        match self {
            Message::HostQuery(m) => m.encode_body(&mut w),
            Message::HostReport(m) => m.encode_body(&mut w),
            Message::RpMapping(m) => m.encode_body(&mut w),
            Message::PimQuery(m) => m.encode_body(&mut w),
            Message::PimRegister(m) => m.encode_body(&mut w),
            Message::PimJoinPrune(m) => m.encode_body(&mut w),
            Message::PimRpReachability(m) => m.encode_body(&mut w),
            Message::DvmrpProbe(m) => m.encode_body(&mut w),
            Message::DvmrpPrune(m) => m.encode_body(&mut w),
            Message::DvmrpGraft(m) => m.encode_body(&mut w),
            Message::DvmrpGraftAck(m) => m.encode_body(&mut w),
            Message::CbtJoinRequest(m) => m.encode_body(&mut w),
            Message::CbtJoinAck(m) => m.encode_body(&mut w),
            Message::CbtEcho(m) => m.encode_body(&mut w),
            Message::CbtEchoReply(m) => m.encode_body(&mut w),
            Message::CbtQuit(m) => m.encode_body(&mut w),
            Message::CbtFlushTree(m) => m.encode_body(&mut w),
            Message::DvUpdate(m) => m.encode_body(&mut w),
            Message::Lsa(m) => m.encode_body(&mut w),
            Message::Hello(m) => m.encode_body(&mut w),
        }
        *buf = w.finish();
        checksum::fill(&mut buf[start..], 2);
    }

    /// Parse a framed message, verifying its checksum.
    pub fn decode(buf: &[u8]) -> Result<Message> {
        if buf.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        if !checksum::verify(buf) {
            return Err(DecodeError::Checksum);
        }
        let mut r = Reader::new(buf);
        let ty = r.u8()?;
        let _reserved = r.u8()?;
        let _cksum = r.u16()?;
        let msg = match ty {
            T_HOST_QUERY => Message::HostQuery(igmp::HostQuery::decode_body(&mut r)?),
            T_HOST_REPORT => Message::HostReport(igmp::HostReport::decode_body(&mut r)?),
            T_RP_MAPPING => Message::RpMapping(igmp::RpMapping::decode_body(&mut r)?),
            T_PIM_QUERY => Message::PimQuery(pim::Query::decode_body(&mut r)?),
            T_PIM_REGISTER => Message::PimRegister(pim::Register::decode_body(&mut r)?),
            T_PIM_JOIN_PRUNE => Message::PimJoinPrune(pim::JoinPrune::decode_body(&mut r)?),
            T_PIM_RP_REACH => Message::PimRpReachability(pim::RpReachability::decode_body(&mut r)?),
            T_DVMRP_PROBE => Message::DvmrpProbe(dvmrp::Probe::decode_body(&mut r)?),
            T_DVMRP_PRUNE => Message::DvmrpPrune(dvmrp::Prune::decode_body(&mut r)?),
            T_DVMRP_GRAFT => Message::DvmrpGraft(dvmrp::Graft::decode_body(&mut r)?),
            T_DVMRP_GRAFT_ACK => Message::DvmrpGraftAck(dvmrp::GraftAck::decode_body(&mut r)?),
            T_CBT_JOIN => Message::CbtJoinRequest(cbt::JoinRequest::decode_body(&mut r)?),
            T_CBT_JOIN_ACK => Message::CbtJoinAck(cbt::JoinAck::decode_body(&mut r)?),
            T_CBT_ECHO => Message::CbtEcho(cbt::Echo::decode_body(&mut r)?),
            T_CBT_ECHO_REPLY => Message::CbtEchoReply(cbt::EchoReply::decode_body(&mut r)?),
            T_CBT_QUIT => Message::CbtQuit(cbt::Quit::decode_body(&mut r)?),
            T_CBT_FLUSH => Message::CbtFlushTree(cbt::FlushTree::decode_body(&mut r)?),
            T_DV_UPDATE => Message::DvUpdate(unicast::DvUpdate::decode_body(&mut r)?),
            T_LSA => Message::Lsa(unicast::Lsa::decode_body(&mut r)?),
            T_HELLO => Message::Hello(unicast::Hello::decode_body(&mut r)?),
            other => return Err(DecodeError::UnknownType(other)),
        };
        // Registers deliberately consume the rest of the buffer (their
        // payload is the remainder); everything else must end exactly.
        if r.remaining() != 0 {
            return Err(DecodeError::BadLength);
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Group};

    #[test]
    fn corrupted_checksum_rejected() {
        let m = Message::HostReport(igmp::HostReport {
            group: Group::test(0),
        });
        let mut buf = m.encode();
        buf[5] ^= 0x01;
        assert_eq!(Message::decode(&buf), Err(DecodeError::Checksum));
    }

    #[test]
    fn unknown_type_rejected() {
        let mut buf = vec![0x77, 0, 0, 0];
        checksum::fill(&mut buf, 2);
        assert_eq!(Message::decode(&buf), Err(DecodeError::UnknownType(0x77)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let m = Message::PimQuery(pim::Query { holdtime: 1 });
        let mut buf = m.encode();
        // Append trailing bytes and re-checksum so only the length is wrong.
        buf.extend_from_slice(&[0, 0]);
        buf[2] = 0;
        buf[3] = 0;
        checksum::fill(&mut buf, 2);
        assert_eq!(Message::decode(&buf), Err(DecodeError::BadLength));
    }

    #[test]
    fn tiny_buffers_rejected() {
        assert_eq!(Message::decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(Message::decode(&[0x11]), Err(DecodeError::Truncated));
        assert_eq!(Message::decode(&[0x11, 0, 0]), Err(DecodeError::Truncated));
    }

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            Message::HostQuery(igmp::HostQuery { max_resp_time: 10 }),
            Message::HostReport(igmp::HostReport {
                group: Group::test(1),
            }),
            Message::RpMapping(igmp::RpMapping {
                group: Group::test(1),
                rps: vec![Addr::new(10, 0, 0, 1)],
            }),
            Message::PimQuery(pim::Query { holdtime: 105 }),
            Message::PimRegister(pim::Register {
                group: Group::test(2),
                source: Addr::new(10, 0, 0, 2),
                payload: vec![1, 2, 3],
            }),
            Message::PimJoinPrune(pim::JoinPrune {
                upstream_neighbor: Addr::new(10, 0, 0, 3),
                holdtime: 210,
                groups: vec![],
            }),
            Message::PimRpReachability(pim::RpReachability {
                group: Group::test(3),
                rp: Addr::new(10, 0, 0, 4),
                holdtime: 90,
            }),
            Message::DvmrpProbe(dvmrp::Probe { neighbors: vec![] }),
            Message::DvmrpPrune(dvmrp::Prune {
                source: Addr::new(10, 0, 0, 5),
                group: Group::test(4),
                lifetime: 100,
            }),
            Message::DvmrpGraft(dvmrp::Graft {
                source: Addr::new(10, 0, 0, 5),
                group: Group::test(4),
            }),
            Message::DvmrpGraftAck(dvmrp::GraftAck {
                source: Addr::new(10, 0, 0, 5),
                group: Group::test(4),
            }),
            Message::CbtJoinRequest(cbt::JoinRequest {
                group: Group::test(5),
                core: Addr::new(10, 0, 0, 6),
                originator: Addr::new(10, 0, 0, 7),
            }),
            Message::CbtJoinAck(cbt::JoinAck {
                group: Group::test(5),
                core: Addr::new(10, 0, 0, 6),
                originator: Addr::new(10, 0, 0, 7),
            }),
            Message::CbtEcho(cbt::Echo {
                groups: vec![Group::test(6)],
            }),
            Message::CbtEchoReply(cbt::EchoReply {
                groups: vec![Group::test(6)],
            }),
            Message::CbtQuit(cbt::Quit {
                group: Group::test(7),
            }),
            Message::CbtFlushTree(cbt::FlushTree {
                group: Group::test(7),
            }),
        ];
        for m in msgs {
            let buf = m.encode();
            assert!(checksum::verify(&buf), "{m:?}");
            assert_eq!(Message::decode(&buf).unwrap(), m);
            // Appended after other bytes, the frame is the same frame.
            let mut after = vec![0xA5; 3];
            m.encode_into(&mut after);
            assert_eq!(after[3..], buf[..], "{m:?}");
        }
    }
}
