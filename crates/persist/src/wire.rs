//! Hand-rolled little-endian wire primitives and CRC-32.
//!
//! Same philosophy as `dcs-telemetry`'s hand-rolled JSONL: the build
//! environment vendors no serialization crates, so the checkpoint codec
//! writes and reads its bytes directly. Everything is little-endian
//! with fixed widths; readers return typed
//! [`PersistError::Truncated`] errors instead of panicking on short
//! input.

use dcs_hash::cast::{i32_from_i64, usize_from_u32};

use crate::error::PersistError;

/// Slicing-by-16 tables for the reflected IEEE CRC-32 (polynomial
/// `0xEDB88320`) — the same checksum gzip, PNG, and zlib use.
/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; entry `t` of
/// table `k` is the CRC register after feeding byte `t` followed by `k`
/// zero bytes, so one lookup per table folds sixteen input bytes at
/// once.
const CRC32_TABLES: [[u32; 256]; 16] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][usize_from_u32(i)] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][usize_from_u32(prev & 0xff)];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Table lookup keyed by the low byte of `v`.
#[inline(always)]
fn lookup(table: &[u32; 256], v: u32) -> u32 {
    table[usize_from_u32(v & 0xff)]
}

/// Folds one 16-byte block into the CRC register `c`: the register is
/// XORed into the block's first four bytes, then each of the sixteen
/// bytes is looked up in the table for its distance from the block's
/// end.
#[inline(always)]
fn fold_block(c: u32, b: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    lookup(&t[15], head)
        ^ lookup(&t[14], head >> 8)
        ^ lookup(&t[13], head >> 16)
        ^ lookup(&t[12], head >> 24)
        ^ lookup(&t[11], u32::from(b[4]))
        ^ lookup(&t[10], u32::from(b[5]))
        ^ lookup(&t[9], u32::from(b[6]))
        ^ lookup(&t[8], u32::from(b[7]))
        ^ lookup(&t[7], u32::from(b[8]))
        ^ lookup(&t[6], u32::from(b[9]))
        ^ lookup(&t[5], u32::from(b[10]))
        ^ lookup(&t[4], u32::from(b[11]))
        ^ lookup(&t[3], u32::from(b[12]))
        ^ lookup(&t[2], u32::from(b[13]))
        ^ lookup(&t[1], u32::from(b[14]))
        ^ lookup(&t[0], u32::from(b[15]))
}

/// Runs the CRC register `c` over `data`: slicing-by-16 over whole
/// blocks, then the classic byte-at-a-time loop over the tail.
fn fold(mut c: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        c = fold_block(c, block);
    }
    for &byte in blocks.remainder() {
        c = lookup(&CRC32_TABLES[0], c ^ u32::from(byte)) ^ (c >> 8);
    }
    c
}

/// `a · b mod P` for polynomials over GF(2) in the CRC's reflected
/// bit order (`x^k` is bit `31 − k`).
fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        if a & (1 << bit) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
    }
    product
}

/// `x^(8n) mod P`: multiplying a register by it has the effect of
/// feeding it `n` zero bytes.
fn zero_bytes_operator(mut n: usize) -> u32 {
    let (mut op, mut square) = (1u32 << 31, 1u32 << 23); // x^0, x^8
    while n != 0 {
        if n & 1 != 0 {
            op = mul_mod_p(square, op);
        }
        square = mul_mod_p(square, square);
        n >>= 1;
    }
    op
}

/// Below this many bytes `crc32` runs one lane; above it, the three
/// lanes' throughput outweighs the fixed cost of combining them.
const LANES_MIN: usize = 4096;

/// The reflected IEEE CRC-32 of `data`.
///
/// Detects every single-bit error (and all burst errors up to 32 bits),
/// which is what the corruption-matrix tests lean on: any one flipped
/// bit in a section payload is guaranteed to surface as a
/// [`PersistError::ChecksumMismatch`].
///
/// Slicing-by-16 (see `fold_block`). One register chain is bound by
/// the latency of its lookups, so inputs of at least `LANES_MIN` bytes
/// run three chains over three equal thirds side by side and combine
/// them by CRC linearity: feeding a register `n` zero bytes is a
/// multiplication by `x^(8n) mod P`, so the first third's register is
/// shifted past the second, XORed with the second's (started from 0),
/// and likewise for the third. The result is the same value the
/// one-lane loop computes, about 2.3× faster on a 4 MB payload
/// (2-vCPU Xeon KVM guest).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    let lane = if data.len() >= LANES_MIN {
        data.len() / 48 * 16
    } else {
        0
    };
    let (lanes, rest) = data.split_at(3 * lane);
    if lane > 0 {
        let (first, others) = lanes.split_at(lane);
        let (second, third) = others.split_at(lane);
        let (mut a, mut b, mut z) = (c, 0u32, 0u32);
        let blocks = first.chunks_exact(16).zip(second.chunks_exact(16));
        for ((x, y), w) in blocks.zip(third.chunks_exact(16)) {
            a = fold_block(a, x);
            b = fold_block(b, y);
            z = fold_block(z, w);
        }
        let shift = zero_bytes_operator(lane);
        c = mul_mod_p(shift, mul_mod_p(shift, a) ^ b) ^ z;
    }
    !fold(c, rest)
}

/// An append-only little-endian byte buffer.
///
/// Besides appending, a writer can overwrite bytes it already wrote
/// ([`patch`](Self::patch)), so a length or checksum that precedes its
/// payload is reserved first and filled in once the payload is known.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer over `buf`, discarding its contents but
    /// keeping its allocation, so a caller that encodes repeatedly
    /// reuses one buffer.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written from offset `start` on.
    ///
    /// # Panics
    ///
    /// Panics if `start` is past the end of what was written.
    pub fn written_since(&self, start: usize) -> &[u8] {
        &self.buf[start..]
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a slab of `u64`s, little-endian, in one pass.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_words(vs, u64::to_le_bytes);
    }

    /// Appends a slab of `i64`s, little-endian two's complement, in
    /// one pass.
    pub fn put_i64s(&mut self, vs: &[i64]) {
        self.put_words(vs, i64::to_le_bytes);
    }

    /// Appends a slab of `i32`s, four little-endian bytes each, in one
    /// pass.
    pub fn put_i32s(&mut self, vs: &[i32]) {
        self.put_words(vs, i32::to_le_bytes);
    }

    fn put_words<T: Copy, const N: usize>(&mut self, vs: &[T], to_le: impl Fn(T) -> [u8; N]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * N, 0);
        for (dst, &v) in self.buf[start..].chunks_exact_mut(N).zip(vs) {
            dst.copy_from_slice(&to_le(v));
        }
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites already-written bytes starting at offset `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at + v.len()` is past the end of what was written.
    pub fn patch(&mut self, at: usize, v: &[u8]) {
        self.buf[at..at + v.len()].copy_from_slice(v);
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked little-endian reader over a byte slice.
///
/// Every read names what it was reading, so a short file produces
/// `Truncated { context: "level counter slab" }` rather than an index
/// panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte slice for reading from the start.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes the next `n` bytes, or fails with the reading context.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                context: what.to_string(),
            });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        let bytes = self.take(4, what)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        let bytes = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian two's-complement `i64`.
    pub fn i64(&mut self, what: &str) -> Result<i64, PersistError> {
        let bytes = self.take(8, what)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads a `u64` count of fixed-width elements, pre-checking that
    /// the claimed `count × width` bytes actually remain — a corrupted
    /// length can therefore never trigger an over-allocation or a long
    /// sequence of element-wise truncation errors.
    pub fn element_count(&mut self, width: usize, what: &str) -> Result<usize, PersistError> {
        let raw = self.u64(what)?;
        let count = usize::try_from(raw).map_err(|_| PersistError::Corrupt {
            context: format!("{what}: count {raw} does not fit in memory"),
        })?;
        let needed = count
            .checked_mul(width)
            .ok_or_else(|| PersistError::Corrupt {
                context: format!("{what}: count {count} × width {width} overflows"),
            })?;
        if self.remaining() < needed {
            return Err(PersistError::Truncated {
                context: what.to_string(),
            });
        }
        Ok(count)
    }

    /// Reads a `u64`-count-prefixed slab of little-endian `u64`s with
    /// one bounds check for the whole slab.
    pub fn u64_slab(&mut self, what: &str) -> Result<Vec<u64>, PersistError> {
        self.word_slab(what, u64::from_le_bytes)
    }

    /// Reads a `u64`-count-prefixed slab of little-endian `i64`s.
    pub fn i64_slab(&mut self, what: &str) -> Result<Vec<i64>, PersistError> {
        self.word_slab(what, i64::from_le_bytes)
    }

    /// Reads a `u64`-count-prefixed slab of 4-byte little-endian `i32`s.
    pub fn i32_slab(&mut self, what: &str) -> Result<Vec<i32>, PersistError> {
        self.word_slab(what, i32::from_le_bytes)
    }

    /// Reads a `u64`-count-prefixed slab of `i64` counter words (the
    /// format-1 counter slab) and narrows each to a 4-byte counter in
    /// the same pass, refusing the slab with
    /// [`PersistError::CounterOutOfRange`] at the first word outside
    /// `i32`.
    pub fn counter_slab(&mut self, what: &str) -> Result<Vec<i32>, PersistError> {
        // The first out-of-range word, noted without leaving the
        // exact-size pass that fills the slab.
        let mut refused = None;
        let slab = self.word_slab(what, |word| {
            let value = i64::from_le_bytes(word);
            i32_from_i64(value).unwrap_or_else(|| {
                refused.get_or_insert(value);
                0
            })
        })?;
        match refused {
            None => Ok(slab),
            Some(value) => Err(PersistError::CounterOutOfRange {
                context: what.to_string(),
                value,
            }),
        }
    }

    fn word_slab<T, const N: usize>(
        &mut self,
        what: &str,
        mut from_le: impl FnMut([u8; N]) -> T,
    ) -> Result<Vec<T>, PersistError> {
        let count = self.element_count(N, what)?;
        // `element_count` proved `count × N` fits and remains.
        let bytes = self.take(count * N, what)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|word| {
                let mut arr = [0u8; N];
                arr.copy_from_slice(word);
                from_le(arr)
            })
            .collect())
    }

    /// Fails with [`PersistError::TrailingBytes`] unless the reader is
    /// exactly exhausted.
    pub fn expect_end(&self) -> Result<(), PersistError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(PersistError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as its oracle.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &byte in data {
            c = lookup(&CRC32_TABLES[0], c ^ u32::from(byte)) ^ (c >> 8);
        }
        !c
    }

    /// Deterministic pseudo-random bytes (splitmix64).
    fn seeded_bytes(len: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_alignment() {
        let data = seeded_bytes(16 + 256, 0xc4c3_2016);
        for start in 0..16 {
            for len in 0..=256 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        // Both sides of the three-lane cutoff, with every tail length.
        let data = seeded_bytes(16 + LANES_MIN + 48, 3);
        for start in 0..16 {
            for len in LANES_MIN - 1..=LANES_MIN + 48 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        let big = seeded_bytes(4 << 20, 7);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let clean = crc32(data);
        for byte in 0..data.len() {
            for bit in 0..8u8 {
                let mut flipped = data.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&flipped),
                    clean,
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_bytes(b"xyz");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("d").unwrap(), -42);
        assert_eq!(r.take(3, "e").unwrap(), b"xyz");
        r.expect_end().unwrap();
    }

    #[test]
    fn slabs_roundtrip_and_backpatch_in_place() {
        let mut w = ByteWriter::with_buffer(vec![0xaa; 64]);
        assert!(w.is_empty(), "a reused buffer starts empty");
        w.put_u32(0);
        w.put_u64(3);
        w.put_i64s(&[-1, 0, i64::from(i32::MIN)]);
        w.put_u64(2);
        w.put_i32s(&[i32::MAX, -7]);
        w.put_u64(2);
        w.put_u64s(&[u64::MAX, 5]);
        w.patch(0, &9u32.to_le_bytes());
        assert_eq!(w.written_since(w.len() - 8), 5u64.to_le_bytes());
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32("patched").unwrap(), 9);
        assert_eq!(r.counter_slab("i").unwrap(), vec![-1, 0, i32::MIN]);
        assert_eq!(r.i32_slab("n").unwrap(), vec![i32::MAX, -7]);
        assert_eq!(r.u64_slab("u").unwrap(), vec![u64::MAX, 5]);
        r.expect_end().unwrap();
    }

    #[test]
    fn short_slab_is_truncated_not_allocated() {
        let mut w = ByteWriter::new();
        w.put_u64(4);
        w.put_u64s(&[1, 2, 3]);
        let bytes = w.into_bytes();
        assert!(matches!(
            ByteReader::new(&bytes).u64_slab("slab"),
            Err(PersistError::Truncated { context }) if context == "slab"
        ));
    }

    #[test]
    fn short_reads_name_their_context() {
        let mut r = ByteReader::new(&[1, 2]);
        let err = r.u32("test field").unwrap_err();
        match err {
            PersistError::Truncated { context } => assert_eq!(context, "test field"),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = ByteReader::new(&[1, 2, 3]);
        match r.expect_end().unwrap_err() {
            PersistError::TrailingBytes { remaining } => assert_eq!(remaining, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn element_count_rejects_absurd_lengths() {
        // Claims u64::MAX elements with only a few payload bytes behind.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        w.put_bytes(&[0; 16]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.element_count(8, "slab").is_err());
    }
}
