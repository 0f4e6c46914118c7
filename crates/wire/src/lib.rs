//! Byte-level packet formats for the PIM reproduction.
//!
//! The 1994 PIM architecture paper says (§5) that "a protocol implementation
//! of PIM using extensions to existing IGMP message types is in progress" —
//! i.e. the original PIM messages were carried as new IGMP message types
//! inside IP. This crate reproduces that layering:
//!
//! * [`ip`] — a compact IPv4-style network header ([`ip::Header`]) carrying a
//!   protocol number, TTL, source and destination [`Addr`];
//! * [`igmp`] — classic IGMP host-membership messages (RFC 1112) plus the
//!   paper's proposed host→router *RP-mapping* message;
//! * [`pim`] — PIM Query (hello), Join/Prune (with per-entry WC/RP/SPT flag
//!   bits), Register, and RP-Reachability messages;
//! * [`dvmrp`] — the dense-mode baseline's Probe/Prune/Graft/GraftAck;
//! * [`cbt`] — the Core Based Tree baseline's Join/JoinAck/Echo/Quit/Flush
//!   (explicitly acknowledged, in contrast to PIM's soft state).
//!
//! Everything here follows the smoltcp house rules for wire code: no
//! `unsafe`, no panics on untrusted input (decoding returns
//! `Result<_, `[`DecodeError`]`>`), explicit network byte order, and an internet
//! checksum over every message. Encode→decode round-trips are covered by
//! unit tests and property tests.

#![warn(missing_docs)]

pub mod cbt;
pub mod checksum;
pub mod dvmrp;
pub mod igmp;
pub mod ip;
pub mod message;
pub mod pim;
pub mod unicast;

pub use message::Message;

use std::fmt;

/// A 32-bit network address, printed in IPv4 dotted-quad notation.
///
/// Unicast router/host addresses live outside the class-D block; multicast
/// group addresses live inside it (`224.0.0.0/4`), exactly as in IPv4.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl Addr {
    /// The unspecified address, `0.0.0.0`.
    pub const UNSPECIFIED: Addr = Addr(0);
    /// `224.0.0.2` — all PIM-speaking routers on this subnetwork. Used for
    /// LAN join/prune override and PIM Query messages (paper §3.7,
    /// footnote 14).
    pub const ALL_PIM_ROUTERS: Addr = Addr(0xE000_0002);
    /// `224.0.0.1` — all multicast hosts on this subnetwork (IGMP queries).
    pub const ALL_HOSTS: Addr = Addr(0xE000_0001);
    /// `224.0.0.5` — all routers on this subnetwork (unicast routing
    /// protocol hellos, updates and LSAs).
    pub const ALL_ROUTERS: Addr = Addr(0xE000_0005);

    /// Construct from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Addr {
        Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// True for class-D (multicast group) addresses: `224.0.0.0/4`.
    #[inline]
    pub fn is_multicast(self) -> bool {
        self.0 & 0xF000_0000 == 0xE000_0000
    }

    /// True for link-local multicast (`224.0.0.0/24`), which routers never
    /// forward off the local subnetwork.
    #[inline]
    pub fn is_link_local_multicast(self) -> bool {
        self.0 & 0xFFFF_FF00 == 0xE000_0000
    }

    /// Encode into 4 big-endian bytes.
    #[inline]
    pub fn to_bytes(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// Decode from 4 big-endian bytes.
    #[inline]
    pub fn from_bytes(b: [u8; 4]) -> Addr {
        Addr(u32::from_be_bytes(b))
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl Addr {
    /// The dotted quad, at most 15 characters, appended to `out`. The
    /// only dotted-quad writer: `Display`, every trace line and the
    /// JSONL stream print addresses through it.
    pub fn write_to<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        let mut buf = [b'.'; 15];
        let mut n = 0;
        for (i, octet) in self.to_bytes().into_iter().enumerate() {
            n += usize::from(i > 0);
            if octet >= 100 {
                buf[n] = b'0' + octet / 100;
                n += 1;
            }
            if octet >= 10 {
                buf[n] = b'0' + octet / 10 % 10;
                n += 1;
            }
            buf[n] = b'0' + octet % 10;
            n += 1;
        }
        write_ascii(out, &buf[..n])
    }
}

/// Width, fill and alignment are ignored (no `f.pad`): they always were,
/// and pinned output depends on it.
impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

/// `DIGIT_PAIRS[2 * n..2 * n + 2]` is `n` in two decimal digits, for
/// `n < 100`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        t[2 * n] = b'0' + (n / 10) as u8;
        t[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    t
};

/// What `{}` prints for `n`, appended to `out`, two digits per
/// division. The only decimal writer of the text paths hot enough to
/// skip `format_args!`: the JSONL stream and the explorer's trace lines.
pub fn write_dec<W: fmt::Write>(out: &mut W, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    write_ascii(out, &buf[i..])
}

/// Append ASCII `bytes` to `out` character by character. Validating
/// them as UTF-8 for one `write_str` made the JSONL sink, which writes
/// a few numbers and addresses per event, about 50 % slower.
fn write_ascii<W: fmt::Write>(out: &mut W, bytes: &[u8]) -> fmt::Result {
    bytes
        .iter()
        .try_for_each(|&b| out.write_char(char::from(b)))
}

/// A multicast group address — an [`Addr`] guaranteed to be class-D.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Group(Addr);

impl Group {
    /// Wrap a class-D address as a group; `None` otherwise.
    pub fn new(addr: Addr) -> Option<Group> {
        addr.is_multicast().then_some(Group(addr))
    }

    /// The `i`-th routable test group, `239.1.x.y`. Panics if `i` would
    /// overflow the block.
    pub fn test(i: u32) -> Group {
        assert!(i < 0x10000, "test group index out of range");
        Group(Addr(0xEF01_0000 | i))
    }

    /// The underlying class-D address.
    #[inline]
    pub fn addr(self) -> Addr {
        self.0
    }
}

impl fmt::Debug for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Decode-failure taxonomy. Encoding is infallible; decoding of untrusted
/// bytes is not, and every way it can fail is classified so receive paths
/// can account for *why* a frame was dropped (the adversarial-channel
/// experiments break drops down by kind).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before a fixed-size field it must contain.
    Truncated,
    /// A checksum did not verify.
    Checksum,
    /// An unknown message-type octet.
    UnknownType(u8),
    /// A version field had an unsupported value.
    Version(u8),
    /// A declared length or entry-count field disagrees with the actual
    /// buffer: trailing bytes after a complete message, an IP total length
    /// that is not the buffer length, or an entry count whose entries
    /// cannot fit in the bytes that follow.
    BadLength,
    /// A field held a value that is structurally invalid (e.g. a non-class-D
    /// group address where a group is required).
    Malformed,
}

impl DecodeError {
    /// Stable lower-case label for telemetry and drop accounting.
    pub fn kind(self) -> &'static str {
        match self {
            DecodeError::Truncated => "truncated",
            DecodeError::Checksum => "checksum",
            DecodeError::UnknownType(_) => "unknown-type",
            DecodeError::Version(_) => "version",
            DecodeError::BadLength => "bad-length",
            DecodeError::Malformed => "malformed",
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::Checksum => write!(f, "checksum mismatch"),
            DecodeError::UnknownType(t) => write!(f, "unknown message type {t:#04x}"),
            DecodeError::Version(v) => write!(f, "unsupported version {v}"),
            DecodeError::BadLength => write!(f, "length field disagrees with buffer"),
            DecodeError::Malformed => write!(f, "structurally invalid field"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Shorthand result type for decoding.
pub type Result<T> = std::result::Result<T, DecodeError>;

/// Cursor-style reader over untrusted bytes; every accessor bounds-checks.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn addr(&mut self) -> Result<Addr> {
        Ok(Addr(self.u32()?))
    }

    pub(crate) fn group(&mut self) -> Result<Group> {
        Group::new(self.addr()?).ok_or(DecodeError::Malformed)
    }

    /// The rest of the buffer.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

/// Append-only writer used by all encoders.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Writer::appending_to(Vec::new())
    }

    /// A writer that appends to `buf` ([`Writer::finish`] hands it back).
    pub(crate) fn appending_to(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    pub(crate) fn addr(&mut self, a: Addr) {
        self.u32(a.0);
    }

    pub(crate) fn group(&mut self, g: Group) {
        self.addr(g.addr());
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_roundtrip() {
        let a = Addr::new(10, 0, 1, 200);
        assert_eq!(a.to_string(), "10.0.1.200");
        assert_eq!(Addr::from_bytes(a.to_bytes()), a);
    }

    #[test]
    fn multicast_classification() {
        assert!(Addr::new(224, 0, 0, 1).is_multicast());
        assert!(Addr::new(239, 255, 255, 255).is_multicast());
        assert!(!Addr::new(223, 255, 255, 255).is_multicast());
        assert!(!Addr::new(240, 0, 0, 0).is_multicast());
        assert!(Addr::ALL_PIM_ROUTERS.is_link_local_multicast());
        assert!(!Addr::new(224, 0, 1, 0).is_link_local_multicast());
    }

    #[test]
    fn group_rejects_unicast() {
        assert!(Group::new(Addr::new(10, 0, 0, 1)).is_none());
        assert!(Group::new(Addr::new(230, 1, 2, 3)).is_some());
    }

    #[test]
    fn test_groups_distinct() {
        assert_ne!(Group::test(0), Group::test(1));
        assert!(Group::test(65535).addr().is_multicast());
    }

    #[test]
    fn reader_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0203));
        assert_eq!(r.u8(), Err(DecodeError::Truncated));
        assert_eq!(r.u32(), Err(DecodeError::Truncated));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.addr(Addr::new(1, 2, 3, 4));
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.addr(), Ok(Addr::new(1, 2, 3, 4)));
        assert_eq!(r.remaining(), 0);
    }
}
