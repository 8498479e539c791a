//! Core vocabulary types for flow-update streams.
//!
//! These mirror Table 1 of the paper: source/destination IP addresses
//! drawn from the integer domain `[m] = [2^32]` (IPv4), source-destination
//! pairs packed into the domain `[m²] = [2^64]` "by concatenating the two
//! addresses in the pair", and signed flow updates `(source, dest, ±1)`.

use std::fmt;
use std::net::Ipv4Addr;

/// A source IP address in the integer domain `[m] = [2^32]`.
///
/// # Examples
///
/// ```
/// use dcs_core::SourceAddr;
/// use std::net::Ipv4Addr;
///
/// let s = SourceAddr::from(Ipv4Addr::new(10, 0, 0, 1));
/// assert_eq!(u32::from(s), 0x0a000001);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SourceAddr(pub u32);

/// A destination IP address in the integer domain `[m] = [2^32]`.
///
/// # Examples
///
/// ```
/// use dcs_core::DestAddr;
///
/// let d = DestAddr(0x7f000001);
/// assert_eq!(d.to_ipv4(), std::net::Ipv4Addr::new(127, 0, 0, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DestAddr(pub u32);

impl SourceAddr {
    /// Returns the address as a dotted-quad [`Ipv4Addr`].
    pub fn to_ipv4(self) -> Ipv4Addr {
        Ipv4Addr::from(self.0)
    }
}

impl DestAddr {
    /// Returns the address as a dotted-quad [`Ipv4Addr`].
    pub fn to_ipv4(self) -> Ipv4Addr {
        Ipv4Addr::from(self.0)
    }
}

impl From<Ipv4Addr> for SourceAddr {
    fn from(addr: Ipv4Addr) -> Self {
        Self(u32::from(addr))
    }
}

impl From<Ipv4Addr> for DestAddr {
    fn from(addr: Ipv4Addr) -> Self {
        Self(u32::from(addr))
    }
}

impl From<u32> for SourceAddr {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<u32> for DestAddr {
    fn from(v: u32) -> Self {
        Self(v)
    }
}

impl From<SourceAddr> for u32 {
    fn from(a: SourceAddr) -> Self {
        a.0
    }
}

impl From<DestAddr> for u32 {
    fn from(a: DestAddr) -> Self {
        a.0
    }
}

impl fmt::Display for SourceAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ipv4())
    }
}

impl fmt::Display for DestAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ipv4())
    }
}

/// A source-destination address pair packed into the domain `[m²]`.
///
/// The packing concatenates the source into the high 32 bits and the
/// destination into the low 32 bits, exactly as the paper's
/// "concatenating the two addresses" convention. Count signatures sum
/// the packed form's two 32-bit halves and recover it from those sums.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, FlowKey, SourceAddr};
///
/// let key = FlowKey::new(SourceAddr(0xAABBCCDD), DestAddr(0x11223344));
/// assert_eq!(key.packed(), 0xAABBCCDD_11223344);
/// assert_eq!(key.source(), SourceAddr(0xAABBCCDD));
/// assert_eq!(key.dest(), DestAddr(0x11223344));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowKey(u64);

impl FlowKey {
    /// Packs a source-destination pair.
    #[inline]
    pub fn new(source: SourceAddr, dest: DestAddr) -> Self {
        Self((u64::from(source.0) << 32) | u64::from(dest.0))
    }

    /// Reconstructs a key from its packed 64-bit representation.
    #[inline]
    pub fn from_packed(packed: u64) -> Self {
        Self(packed)
    }

    /// Returns the packed 64-bit representation.
    #[inline]
    pub fn packed(self) -> u64 {
        self.0
    }

    /// Returns the source half of the pair.
    #[inline]
    pub fn source(self) -> SourceAddr {
        SourceAddr(dcs_hash::cast::high_u32(self.0))
    }

    /// Returns the destination half of the pair.
    #[inline]
    pub fn dest(self) -> DestAddr {
        DestAddr(dcs_hash::cast::low_u32(self.0))
    }

    /// Returns bit `index` (0 = least significant) of the packed pair —
    /// the paper's `BIT_j(u, v)`.
    #[inline]
    pub fn bit(self, index: u32) -> bool {
        debug_assert!(index < 64);
        (self.0 >> index) & 1 == 1
    }
}

impl From<(SourceAddr, DestAddr)> for FlowKey {
    fn from((s, d): (SourceAddr, DestAddr)) -> Self {
        Self::new(s, d)
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.source(), self.dest())
    }
}

/// The sign of a flow update: `+1` (a potentially-malicious connection
/// appears) or `-1` (the connection is established as legitimate and must
/// be discounted).
///
/// In the SYN-flood scenario, a SYN from `u` to `v` arrives as
/// [`Delta::Insert`] and the legitimacy-establishing ACK as
/// [`Delta::Delete`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Delta {
    /// `+1`: net frequency of the pair increases.
    Insert,
    /// `-1`: net frequency of the pair decreases.
    Delete,
}

impl Delta {
    /// Returns the signed magnitude of the update (`+1` or `-1`).
    #[inline]
    pub fn signum(self) -> i64 {
        match self {
            Delta::Insert => 1,
            Delta::Delete => -1,
        }
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delta::Insert => write!(f, "+1"),
            Delta::Delete => write!(f, "-1"),
        }
    }
}

/// A flow update `(source, dest, ±1)` — one element of the input stream.
///
/// # Examples
///
/// ```
/// use dcs_core::{Delta, DestAddr, FlowUpdate, SourceAddr};
///
/// let up = FlowUpdate::insert(SourceAddr(1), DestAddr(2));
/// assert_eq!(up.delta, Delta::Insert);
/// assert_eq!(up.key.dest(), DestAddr(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowUpdate {
    /// The source-destination pair the update refers to.
    pub key: FlowKey,
    /// Whether the pair's net frequency goes up or down.
    pub delta: Delta,
}

impl FlowUpdate {
    /// Creates an update with an explicit delta.
    pub fn new(source: SourceAddr, dest: DestAddr, delta: Delta) -> Self {
        Self {
            key: FlowKey::new(source, dest),
            delta,
        }
    }

    /// Creates a `+1` update for the pair.
    pub fn insert(source: SourceAddr, dest: DestAddr) -> Self {
        Self::new(source, dest, Delta::Insert)
    }

    /// Creates a `-1` update for the pair.
    pub fn delete(source: SourceAddr, dest: DestAddr) -> Self {
        Self::new(source, dest, Delta::Delete)
    }

    /// Returns the update with the opposite sign, leaving the key as is.
    pub fn inverted(self) -> Self {
        Self {
            key: self.key,
            delta: match self.delta {
                Delta::Insert => Delta::Delete,
                Delta::Delete => Delta::Insert,
            },
        }
    }
}

impl fmt::Display for FlowUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.key, self.delta)
    }
}

/// A pair's net change over a stretch of the stream: the sum of its
/// updates' signs. The sketch is linear, so applying the net change
/// leaves every counter as the updates themselves would.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NetUpdate {
    /// The source-destination pair.
    pub key: FlowKey,
    /// The sum of the pair's `±1` updates.
    pub delta: i64,
}

impl From<FlowUpdate> for NetUpdate {
    fn from(update: FlowUpdate) -> Self {
        Self {
            key: update.key,
            delta: update.delta.signum(),
        }
    }
}

/// The net changes of a stretch of `covered` consecutive updates of the
/// stream, as [`crate::UpdateFold`] emits them: a pair may appear more
/// than once, and pairs whose updates cancelled need not appear at all.
/// Applying the entries leaves every counter as the `covered` updates
/// would, and the stream position advances by `covered`.
///
/// # Examples
///
/// ```
/// use dcs_core::{DestAddr, DistinctCountSketch, FlowUpdate, NetBatch, SketchConfig, SourceAddr};
///
/// let updates = [
///     FlowUpdate::insert(SourceAddr(1), DestAddr(80)),
///     FlowUpdate::delete(SourceAddr(1), DestAddr(80)),
/// ];
/// let mut raw = DistinctCountSketch::new(SketchConfig::paper_default());
/// raw.update_batch(&updates);
/// let mut net = DistinctCountSketch::new(SketchConfig::paper_default());
/// net.apply_net(&NetBatch { entries: Vec::new(), covered: 2 });
/// assert_eq!(net.to_state(), raw.to_state());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetBatch {
    /// The net changes, in no particular order.
    pub entries: Vec<NetUpdate>,
    /// How many raw updates the entries stand for.
    pub covered: u64,
}

impl NetBatch {
    /// The batch of `updates` as they are: one `±1` entry per update.
    pub fn from_updates(updates: &[FlowUpdate]) -> Self {
        Self {
            entries: updates.iter().map(|&u| NetUpdate::from(u)).collect(),
            covered: dcs_hash::cast::u64_from_usize(updates.len()),
        }
    }

    /// Empties the batch, keeping its capacity.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.covered = 0;
    }

    /// Appends `other`: the batch of the two stretches back to back.
    pub fn extend_from(&mut self, other: &Self) {
        self.entries.extend_from_slice(&other.entries);
        self.covered += other.covered;
    }
}

/// Which end of the pair the sketch aggregates distinct counts for.
///
/// The paper's DDoS monitor groups by destination (how many distinct
/// sources contact each destination); its footnote 1 observes the same
/// structure, grouped by source, identifies port-scanners contacting many
/// distinct destinations (the superspreader orientation). The prefix
/// variants aggregate whole subnets — attacks on a hosting provider
/// often spray a /24 rather than one host, and per-host counts dilute
/// below any threshold while the prefix total stands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GroupBy {
    /// Group by destination: `f_v` = number of distinct sources with
    /// positive net count towards `v`. DDoS-victim detection.
    #[default]
    Destination,
    /// Group by source: `f_u` = number of distinct destinations `u`
    /// contacts. Port-scan / superspreader detection.
    Source,
    /// Group by the top `bits` bits of the destination: the frequency
    /// is the number of distinct half-open *flows* into the prefix
    /// (the sum of its hosts' frequencies). Subnet-victim detection.
    DestinationPrefix {
        /// Prefix length in bits (`1..=32`).
        bits: u8,
    },
    /// Group by the top `bits` bits of the source: distinct half-open
    /// flows originated by the prefix. Botnet-subnet detection.
    SourcePrefix {
        /// Prefix length in bits (`1..=32`).
        bits: u8,
    },
}

/// Masks `addr` down to its top `bits` bits (a network prefix).
#[inline]
fn prefix_of(addr: u32, bits: u8) -> u32 {
    debug_assert!((1..=32).contains(&bits));
    if bits >= 32 {
        addr
    } else {
        addr & (u32::MAX << (32 - bits))
    }
}

impl GroupBy {
    /// Extracts the grouping key from a flow key.
    #[inline]
    pub fn group_of(self, key: FlowKey) -> u32 {
        match self {
            GroupBy::Destination => key.dest().0,
            GroupBy::Source => key.source().0,
            GroupBy::DestinationPrefix { bits } => prefix_of(key.dest().0, bits),
            GroupBy::SourcePrefix { bits } => prefix_of(key.source().0, bits),
        }
    }
}

impl fmt::Display for GroupBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupBy::Destination => write!(f, "destination"),
            GroupBy::Source => write!(f, "source"),
            GroupBy::DestinationPrefix { bits } => write!(f, "destination /{bits}"),
            GroupBy::SourcePrefix { bits } => write!(f, "source /{bits}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_key_packs_and_unpacks() {
        let key = FlowKey::new(SourceAddr(0x01020304), DestAddr(0x05060708));
        assert_eq!(key.packed(), 0x01020304_05060708);
        assert_eq!(key.source().0, 0x01020304);
        assert_eq!(key.dest().0, 0x05060708);
        assert_eq!(FlowKey::from_packed(key.packed()), key);
    }

    #[test]
    fn flow_key_bits_match_packed_bits() {
        let key = FlowKey::from_packed(0b1011);
        assert!(key.bit(0));
        assert!(key.bit(1));
        assert!(!key.bit(2));
        assert!(key.bit(3));
        assert!(!key.bit(63));
    }

    #[test]
    fn delta_signum() {
        assert_eq!(Delta::Insert.signum(), 1);
        assert_eq!(Delta::Delete.signum(), -1);
    }

    #[test]
    fn update_inversion_roundtrips() {
        let up = FlowUpdate::insert(SourceAddr(9), DestAddr(10));
        assert_eq!(up.inverted().inverted(), up);
        assert_eq!(up.inverted().delta, Delta::Delete);
        assert_eq!(up.inverted().key, up.key);
    }

    #[test]
    fn group_by_extracts_correct_half() {
        let key = FlowKey::new(SourceAddr(111), DestAddr(222));
        assert_eq!(GroupBy::Destination.group_of(key), 222);
        assert_eq!(GroupBy::Source.group_of(key), 111);
    }

    #[test]
    fn prefix_grouping_masks_low_bits() {
        let key = FlowKey::new(SourceAddr(0xC0A8_0142), DestAddr(0x0A00_12FF));
        // Destination 10.0.18.255/24 → 10.0.18.0.
        assert_eq!(
            GroupBy::DestinationPrefix { bits: 24 }.group_of(key),
            0x0A00_1200
        );
        // Source 192.168.1.66/16 → 192.168.0.0.
        assert_eq!(
            GroupBy::SourcePrefix { bits: 16 }.group_of(key),
            0xC0A8_0000
        );
        // /32 is host-exact; equivalent to the non-prefix variant.
        assert_eq!(
            GroupBy::DestinationPrefix { bits: 32 }.group_of(key),
            GroupBy::Destination.group_of(key)
        );
    }

    #[test]
    fn prefix_display_shows_mask_length() {
        assert_eq!(
            format!("{}", GroupBy::DestinationPrefix { bits: 24 }),
            "destination /24"
        );
        assert_eq!(
            format!("{}", GroupBy::SourcePrefix { bits: 8 }),
            "source /8"
        );
    }

    #[test]
    fn ipv4_conversions_roundtrip() {
        let ip = Ipv4Addr::new(192, 168, 1, 77);
        let s = SourceAddr::from(ip);
        assert_eq!(s.to_ipv4(), ip);
        assert_eq!(format!("{s}"), "192.168.1.77");
        let d = DestAddr::from(ip);
        assert_eq!(d.to_ipv4(), ip);
    }

    #[test]
    fn display_formats() {
        let up = FlowUpdate::delete(SourceAddr(0x01000001), DestAddr(0x02000002));
        let text = format!("{up}");
        assert!(text.contains("1.0.0.1"));
        assert!(text.contains("2.0.0.2"));
        assert!(text.contains("-1"));
        assert_eq!(format!("{}", GroupBy::Destination), "destination");
        assert_eq!(format!("{}", GroupBy::Source), "source");
    }
}
