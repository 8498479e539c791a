//! TCP segment model.
//!
//! Only the fields the DDoS monitor's instrumentation needs: addresses,
//! the handshake-relevant flag bits, a timestamp for timeout handling,
//! and a payload length so volume-based baselines have something to
//! count.

use std::fmt;

use dcs_core::{DestAddr, SourceAddr};

/// The TCP flag bits relevant to handshake tracking.
///
/// # Examples
///
/// ```
/// use dcs_netsim::TcpFlags;
///
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert!(synack.contains(TcpFlags::ACK));
/// assert!(!synack.contains(TcpFlags::RST));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// Synchronize: connection-open request.
    pub const SYN: TcpFlags = TcpFlags(0b0001);
    /// Acknowledge.
    pub const ACK: TcpFlags = TcpFlags(0b0010);
    /// Finish: orderly close.
    pub const FIN: TcpFlags = TcpFlags(0b0100);
    /// Reset: abortive close.
    pub const RST: TcpFlags = TcpFlags(0b1000);

    /// The empty flag set.
    pub const fn empty() -> Self {
        TcpFlags(0)
    }

    /// Whether all bits of `other` are set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether this is a pure SYN (no ACK) — a connection-open attempt.
    pub const fn is_syn_only(self) -> bool {
        self.contains(TcpFlags::SYN) && !self.contains(TcpFlags::ACK)
    }

    /// Whether this is a SYN-ACK — the server's handshake reply.
    pub const fn is_syn_ack(self) -> bool {
        self.contains(TcpFlags::SYN) && self.contains(TcpFlags::ACK)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = Vec::new();
        if self.contains(TcpFlags::SYN) {
            names.push("SYN");
        }
        if self.contains(TcpFlags::ACK) {
            names.push("ACK");
        }
        if self.contains(TcpFlags::FIN) {
            names.push("FIN");
        }
        if self.contains(TcpFlags::RST) {
            names.push("RST");
        }
        if names.is_empty() {
            write!(f, "(none)")
        } else {
            write!(f, "{}", names.join("|"))
        }
    }
}

/// One observed TCP segment.
///
/// `src`/`dst` are the addresses *on the wire* — a server's SYN-ACK has
/// the server as `src`. Handshake tracking canonicalizes to the
/// client→server flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcpSegment {
    /// Sender address.
    pub src: SourceAddr,
    /// Receiver address.
    pub dst: DestAddr,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Observation time, in abstract ticks.
    pub timestamp: u64,
    /// Payload bytes carried (zero for bare control segments).
    pub payload_len: u32,
}

impl TcpSegment {
    /// A client SYN from `src` to `dst` at `timestamp`.
    pub fn syn(src: SourceAddr, dst: DestAddr, timestamp: u64) -> Self {
        Self {
            src,
            dst,
            flags: TcpFlags::SYN,
            timestamp,
            payload_len: 0,
        }
    }

    /// A server SYN-ACK replying to a handshake: `server` → `client`.
    pub fn syn_ack(server: DestAddr, client: SourceAddr, timestamp: u64) -> Self {
        Self {
            src: SourceAddr(server.0),
            dst: DestAddr(client.0),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            timestamp,
            payload_len: 0,
        }
    }

    /// A client ACK completing the handshake.
    pub fn ack(src: SourceAddr, dst: DestAddr, timestamp: u64) -> Self {
        Self {
            src,
            dst,
            flags: TcpFlags::ACK,
            timestamp,
            payload_len: 0,
        }
    }

    /// A data segment (ACK + payload).
    pub fn data(src: SourceAddr, dst: DestAddr, timestamp: u64, payload_len: u32) -> Self {
        Self {
            src,
            dst,
            flags: TcpFlags::ACK,
            timestamp,
            payload_len,
        }
    }

    /// A reset from `src` to `dst`.
    pub fn rst(src: SourceAddr, dst: DestAddr, timestamp: u64) -> Self {
        Self {
            src,
            dst,
            flags: TcpFlags::RST,
            timestamp,
            payload_len: 0,
        }
    }

    /// A FIN from `src` to `dst`.
    pub fn fin(src: SourceAddr, dst: DestAddr, timestamp: u64) -> Self {
        Self {
            src,
            dst,
            flags: TcpFlags::FIN | TcpFlags::ACK,
            timestamp,
            payload_len: 0,
        }
    }
}

impl fmt::Display for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={}] {} -> {} {} ({}B)",
            self.timestamp, self.src, self.dst, self.flags, self.payload_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_classification() {
        assert!(TcpFlags::SYN.is_syn_only());
        assert!(!(TcpFlags::SYN | TcpFlags::ACK).is_syn_only());
        assert!((TcpFlags::SYN | TcpFlags::ACK).is_syn_ack());
        assert!(!TcpFlags::ACK.is_syn_ack());
        assert!(TcpFlags::empty().is_empty());
        assert!(!TcpFlags::RST.is_empty());
    }

    #[test]
    fn constructors_set_expected_flags() {
        let s = SourceAddr(1);
        let d = DestAddr(2);
        assert!(TcpSegment::syn(s, d, 0).flags.is_syn_only());
        assert!(TcpSegment::syn_ack(d, s, 0).flags.is_syn_ack());
        assert_eq!(TcpSegment::ack(s, d, 0).flags, TcpFlags::ACK);
        assert!(TcpSegment::rst(s, d, 0).flags.contains(TcpFlags::RST));
        assert!(TcpSegment::fin(s, d, 0).flags.contains(TcpFlags::FIN));
        assert_eq!(TcpSegment::data(s, d, 0, 1460).payload_len, 1460);
    }

    #[test]
    fn syn_ack_reverses_direction() {
        let client = SourceAddr(10);
        let server = DestAddr(20);
        let reply = TcpSegment::syn_ack(server, client, 5);
        assert_eq!(reply.src.0, 20);
        assert_eq!(reply.dst.0, 10);
        assert_eq!(reply.timestamp, 5);
    }

    #[test]
    fn display_formats() {
        let seg = TcpSegment::syn(SourceAddr(0x01000001), DestAddr(0x02000002), 3);
        let text = format!("{seg}");
        assert!(text.contains("SYN"));
        assert!(text.contains("t=3"));
        assert_eq!(format!("{}", TcpFlags::empty()), "(none)");
        assert_eq!(format!("{}", TcpFlags::FIN | TcpFlags::ACK), "ACK|FIN");
    }
}
