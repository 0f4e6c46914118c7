//! A compact IPv4-style network-layer header.
//!
//! The simulator serializes every packet crossing a link as
//! `header || payload`. The header is a fixed 16 bytes:
//!
//! ```text
//!  0       1       2       3
//! +-------+-------+-------+-------+
//! | ver=1 | proto |  ttl  | flags |
//! +-------+-------+-------+-------+
//! |        source address         |
//! +-------------------------------+
//! |      destination address      |
//! +-------------------------------+
//! |  total length |   checksum    |
//! +-------------------------------+
//! ```
//!
//! `total length` covers header + payload, so trailing garbage after a
//! well-formed packet is detected. The checksum covers the header only
//! (like real IPv4); IGMP-family payloads carry their own checksum.

use crate::{checksum, Addr, DecodeError, Message, Result};
use std::sync::Arc;

/// Protocol numbers carried in the header's `proto` field.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// IGMP family — host membership plus PIM/DVMRP/CBT control messages
    /// (the 1994 PIM design carried PIM messages as IGMP extensions).
    Igmp,
    /// Application multicast/unicast data.
    Data,
}

impl Protocol {
    fn to_byte(self) -> u8 {
        match self {
            Protocol::Igmp => 2,
            Protocol::Data => 17,
        }
    }

    fn from_byte(b: u8) -> Result<Protocol> {
        match b {
            2 => Ok(Protocol::Igmp),
            17 => Ok(Protocol::Data),
            other => Err(DecodeError::UnknownType(other)),
        }
    }
}

/// The fixed network-layer header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Payload protocol.
    pub proto: Protocol,
    /// Time-to-live; routers decrement on forward and drop at zero. The
    /// paper's incoming-interface check (footnote 4.2) is the primary loop
    /// defense, TTL is the backstop.
    pub ttl: u8,
    /// Source address (a router or host unicast address).
    pub src: Addr,
    /// Destination address (unicast, or a class-D group for multicast).
    pub dst: Addr,
}

/// Fixed encoded size of [`Header`].
pub const HEADER_LEN: usize = 16;

/// Current header version.
const VERSION: u8 = 1;

impl Header {
    /// The encoded header of a packet `total` bytes long.
    fn encode(&self, total: usize) -> [u8; HEADER_LEN] {
        assert!(total <= u16::MAX as usize, "packet too large");
        let mut h = [0; HEADER_LEN];
        h[0] = VERSION;
        h[1] = self.proto.to_byte();
        h[2] = self.ttl;
        // h[3]: flags, reserved
        h[4..8].copy_from_slice(&self.src.to_bytes());
        h[8..12].copy_from_slice(&self.dst.to_bytes());
        h[12..14].copy_from_slice(&(total as u16).to_be_bytes());
        checksum::fill(&mut h, 14);
        h
    }

    /// Encode this header followed by `payload` into a full packet buffer.
    pub fn encap(&self, payload: &[u8]) -> Vec<u8> {
        let total = HEADER_LEN + payload.len();
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&self.encode(total));
        buf.extend_from_slice(payload);
        buf
    }

    /// [`Header::encap`] straight into the shared, immutable buffer a
    /// packet travels in: built once per hop, then handed to every
    /// outgoing interface and every receiver by reference count.
    ///
    /// One allocation and one pass over the payload. Safe code can only
    /// get a writable `Arc<[u8]>` of a chosen length by collecting into
    /// it, so the buffer is collected as zeros (a `memset`) and filled in
    /// place; going through a `Vec` would copy the payload twice, and
    /// collecting `header.chain(payload)` byte by byte measured 5× slower.
    pub fn encap_shared(&self, payload: &[u8]) -> Arc<[u8]> {
        let total = HEADER_LEN + payload.len();
        let header = self.encode(total);
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, total).collect();
        let bytes = Arc::get_mut(&mut buf).expect("just built, not yet shared");
        bytes[..HEADER_LEN].copy_from_slice(&header);
        bytes[HEADER_LEN..].copy_from_slice(payload);
        buf
    }

    /// [`Header::encap_shared`] of a control message that has not been
    /// encoded yet: the packet is written once into `image` — header
    /// space, then the message encoded straight after it — and copied to
    /// its shared buffer, the hop's one allocation. `image` is the
    /// caller's scratch space; it is overwritten and keeps its capacity
    /// from one message to the next.
    pub fn encap_message_shared(&self, msg: &Message, image: &mut Vec<u8>) -> Arc<[u8]> {
        image.clear();
        image.resize(HEADER_LEN, 0);
        msg.encode_into(image);
        let header = self.encode(image.len());
        image[..HEADER_LEN].copy_from_slice(&header);
        Arc::from(&image[..])
    }

    /// Decode a packet buffer into its header and payload slice.
    ///
    /// Verifies the version, the header checksum, and that the declared
    /// total length matches the buffer.
    pub fn decap(buf: &[u8]) -> Result<(Header, &[u8])> {
        if buf.len() < HEADER_LEN {
            return Err(DecodeError::Truncated);
        }
        if buf[0] != VERSION {
            return Err(DecodeError::Version(buf[0]));
        }
        if !checksum::verify(&buf[..HEADER_LEN]) {
            return Err(DecodeError::Checksum);
        }
        let proto = Protocol::from_byte(buf[1])?;
        let ttl = buf[2];
        let src = Addr::from_bytes([buf[4], buf[5], buf[6], buf[7]]);
        let dst = Addr::from_bytes([buf[8], buf[9], buf[10], buf[11]]);
        let total = u16::from_be_bytes([buf[12], buf[13]]) as usize;
        if total != buf.len() || total < HEADER_LEN {
            return Err(DecodeError::BadLength);
        }
        Ok((
            Header {
                proto,
                ttl,
                src,
                dst,
            },
            &buf[HEADER_LEN..],
        ))
    }

    /// Return a copy with the TTL decremented, or `None` if the TTL is
    /// exhausted (the packet must be dropped, not forwarded).
    pub fn decrement_ttl(&self) -> Option<Header> {
        if self.ttl <= 1 {
            return None;
        }
        Some(Header {
            ttl: self.ttl - 1,
            ..*self
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Header {
        Header {
            proto: Protocol::Data,
            ttl: 64,
            src: Addr::new(10, 0, 0, 1),
            dst: Addr::new(239, 1, 0, 0),
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let pkt = h.encap(b"hello group");
        let (h2, payload) = Header::decap(&pkt).unwrap();
        assert_eq!(h, h2);
        assert_eq!(payload, b"hello group");
    }

    #[test]
    fn shared_encap_is_the_same_bytes() {
        let h = sample();
        assert_eq!(
            &h.encap_shared(b"hello group")[..],
            &h.encap(b"hello group")[..]
        );
    }

    #[test]
    fn a_message_encoded_in_place_is_the_same_packet() {
        let h = Header {
            proto: Protocol::Igmp,
            ..sample()
        };
        let msg = Message::PimQuery(crate::pim::Query { holdtime: 105 });
        // Scratch space with an earlier, longer packet still in it.
        let mut image = vec![0xEE; 64];
        let pkt = h.encap_message_shared(&msg, &mut image);
        assert_eq!(&pkt[..], &h.encap(&msg.encode())[..]);
    }

    #[test]
    fn roundtrip_empty_payload() {
        let h = sample();
        let pkt = h.encap(&[]);
        assert_eq!(pkt.len(), HEADER_LEN);
        let (h2, payload) = Header::decap(&pkt).unwrap();
        assert_eq!(h, h2);
        assert!(payload.is_empty());
    }

    #[test]
    fn truncated_rejected() {
        let pkt = sample().encap(b"x");
        assert_eq!(
            Header::decap(&pkt[..HEADER_LEN - 1]),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut pkt = sample().encap(b"abc");
        pkt.push(0); // trailing garbage
        assert_eq!(Header::decap(&pkt), Err(DecodeError::BadLength));
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut pkt = sample().encap(b"abc");
        pkt[5] ^= 0xFF; // flip a source-address byte
        assert_eq!(Header::decap(&pkt), Err(DecodeError::Checksum));
    }

    #[test]
    fn bad_version_rejected() {
        let mut pkt = sample().encap(&[]);
        pkt[0] = 9;
        assert_eq!(Header::decap(&pkt), Err(DecodeError::Version(9)));
    }

    #[test]
    fn unknown_protocol_rejected() {
        let mut pkt = sample().encap(&[]);
        pkt[1] = 99;
        // Re-fill the checksum so only the protocol is wrong.
        pkt[14] = 0;
        pkt[15] = 0;
        crate::checksum::fill(&mut pkt[..HEADER_LEN], 14);
        assert_eq!(Header::decap(&pkt), Err(DecodeError::UnknownType(99)));
    }

    #[test]
    fn ttl_decrement() {
        let h = sample();
        assert_eq!(h.decrement_ttl().unwrap().ttl, 63);
        let dying = Header { ttl: 1, ..h };
        assert!(dying.decrement_ttl().is_none());
        let dead = Header { ttl: 0, ..h };
        assert!(dead.decrement_ttl().is_none());
    }
}
