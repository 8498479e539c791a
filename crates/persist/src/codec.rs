//! The versioned binary checkpoint format.
//!
//! A checkpoint file is a *document*:
//!
//! ```text
//! header   := magic[8] version:u32 doc_kind:u8 section_count:u32
//! section  := tag[4] payload_len:u64 payload_crc32:u32 payload[payload_len]
//! document := header section*
//! ```
//!
//! All integers are little-endian. Each section's payload is protected
//! by its own CRC-32 (reflected IEEE), so any single flipped bit in a
//! payload is detected; the header fields are protected structurally
//! (magic, version, known tags, exact length accounting, and a
//! trailing-bytes check). Compound documents nest recursively: a
//! window checkpoint's `CUR`/`BAS`/`WIN`/`SNP` sections carry complete
//! embedded documents, so the same encode/decode pair handles every
//! layer. An
//! embedded document must be the kind the table below names for its
//! section; the decoder checks the embedded header's kind byte before
//! reading any further, so nesting is at most three documents deep
//! whatever a file claims.
//!
//! The encoder writes a whole document into one buffer: section frames
//! are reserved, payloads (nested documents included) are written in
//! place, and each frame's length and CRC are filled in afterwards.
//!
//! Document kinds and their section sequences (order is fixed and
//! enforced):
//!
//! | kind | sections |
//! |---|---|
//! | 1 `Sketch`   | `CFG` `MET` `LVL`* |
//! | 2 `Tracking` | `SKC`(nested Sketch) `TRM` `TRK`* |
//! | 4 `Sharded`  | `SHD` `SNP`(nested Sketch)* |
//! | 5 `Window`   | `WND` `CUR`(nested Tracking) `BAS`(nested Sketch) `WIN`(nested Sketch) `SNP`(nested Sketch)* |
//!
//! A `LVL` section carries one level's four slabs, 28 bytes per bucket,
//! and a sketch has one per level with a non-zero slot (see
//! [`SketchState`]). Documents from earlier builds that also carry
//! all-zero levels decode to the same counters:
//!
//! ```text
//! level := index:u32  n:u64 total:i32*n  n:u64 lo:i64*n  n:u64 hi:i64*n  n:u64 fp:u64*n
//! ```
//!
//! Format 1 stored the paper's 65 counters per bucket (each 4-byte
//! counter widened to an 8-byte word) plus a key sum and a fingerprint
//! sum, 536 bytes per bucket. Format-1 files still decode: the bit
//! counters `c_j` of each bucket convert exactly to the half sums
//! `lo = Σ_{j<32} 2^j·c_j` and `hi = Σ_{j≥32} 2^(j−32)·c_j`, the first
//! counter is the total, and the fingerprint sum carries over. A
//! counter word outside `i32` is refused with
//! [`PersistError::CounterOutOfRange`], and a level whose stored key
//! sum differs from `lo + hi·2³²` (mod 2⁶⁴) — a sum the bit counters
//! alone determine — is `Corrupt`. The update log's format is
//! unchanged, so a format-1 snapshot resumes with its log.
//!
//! Kind 3 was an epoch snapshot ring, retired in favour of the window
//! document; its byte is never reused, and a file that carries it
//! decodes to an error. Kind 4 is written only by
//! `ShardedIngest::checkpoint`: pipelines save kind 1 or 5 in every
//! ingest mode.
//!
//! Version-evolution rules: `FORMAT_VERSION` bumps on any change to
//! the byte layout; readers reject versions newer than they know
//! (`UnsupportedVersion`), and a future reader that keeps
//! compatibility code may accept older ones. Unknown section tags are
//! an error, not skipped — a checkpoint is a complete state capture,
//! so "unknown but ignorable" sections do not exist at this layer.
//! See DESIGN.md §12 for the full specification.

use dcs_core::{GroupBy, LevelSlabs, SketchConfig, SketchState, TrackingLevelState, TrackingState};

use crate::error::PersistError;
use crate::wire::{crc32, ByteReader, ByteWriter};

/// The first eight bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"DCSCKPT\0";

/// The checkpoint format version this build writes. It reads this one
/// and format 1 (see the module docs).
pub const FORMAT_VERSION: u32 = 2;

/// The last format that stored 65 counters per bucket.
const FORMAT_V1: u32 = 1;

/// Counters per bucket in a format-1 level: a total and 64 bit counts.
const V1_SIGNATURE_LEN: usize = 65;

/// The `CFG` `hash_family` byte: multiply-shift, the only second-level
/// hash. 1 was the retired tabulation family; a file carrying it (or any
/// other value) is refused.
const HASH_MULTIPLY_SHIFT: u8 = 0;

const KIND_SKETCH: u8 = 1;
const KIND_TRACKING: u8 = 2;
// 3 was the retired epoch-ring document; never reuse it.
const KIND_SHARDED: u8 = 4;
const KIND_WINDOW: u8 = 5;

const TAG_CFG: [u8; 4] = *b"CFG\0";
const TAG_MET: [u8; 4] = *b"MET\0";
const TAG_LVL: [u8; 4] = *b"LVL\0";
const TAG_SKC: [u8; 4] = *b"SKC\0";
const TAG_TRM: [u8; 4] = *b"TRM\0";
const TAG_TRK: [u8; 4] = *b"TRK\0";
const TAG_CUR: [u8; 4] = *b"CUR\0";
const TAG_SNP: [u8; 4] = *b"SNP\0";
const TAG_SHD: [u8; 4] = *b"SHD\0";
const TAG_WND: [u8; 4] = *b"WND\0";
const TAG_BAS: [u8; 4] = *b"BAS\0";
const TAG_WIN: [u8; 4] = *b"WIN\0";

fn tag_name(tag: [u8; 4]) -> String {
    tag.iter()
        .take_while(|&&b| b != 0)
        .map(|&b| char::from(b))
        .collect()
}

/// The persistent state of a sharded ingest pipeline: one basic-sketch
/// state per shard (in shard order) plus the distribution cursor.
///
/// Captured only at *ring-drained* positions: the engine flushes every
/// worker ring before snapshotting, so the per-shard states cover
/// everything dispatched and the document never records an in-flight
/// item. Restore re-checks that the shard counts sum exactly to
/// `updates_distributed` (overflow included), because the cursor is
/// what absolute-position routing resumes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedCheckpoint {
    /// Total updates distributed across the shards so far — the
    /// absolute stream position routing resumes from.
    pub updates_distributed: u64,
    /// Per-shard sketch states, in shard index order.
    pub shards: Vec<SketchState>,
}

/// The persistent state of a windowed monitor: the cumulative tracking
/// sketch, the epoch base (the cumulative counter state at the last
/// rotation, from which the next epoch delta is differenced), the
/// ring-of-deltas accumulator, and the retained per-epoch deltas.
///
/// The accumulator is persisted **explicitly** rather than recomputed
/// from the deltas on restore: the accumulator a long-running window
/// converges to carries levels that have been merged in and then
/// subtracted back to zero, and recomputing from the surviving deltas
/// would drop those zeroed levels — restoring a state that is
/// query-equivalent but not bit-identical to the one saved. Persisting
/// it keeps kill-and-resume runs bit-identical to uninterrupted ones
/// (the property the window equivalence suite pins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowCheckpoint {
    /// Ring capacity in epochs (`N`; always ≥ 1).
    pub epochs: u64,
    /// Total number of epoch rotations so far.
    pub epochs_rotated: u64,
    /// State of the cumulative (all-time) tracking sketch.
    pub current: TrackingState,
    /// The cumulative counter state at the last rotation.
    pub base: SketchState,
    /// The ring accumulator: the sum of the retained deltas, with its
    /// exact level allocation preserved.
    pub window: SketchState,
    /// Retained per-epoch delta sketches, oldest first; at most
    /// `epochs` of them.
    pub deltas: Vec<SketchState>,
}

/// Everything the persistence layer can checkpoint, as one tagged
/// union — the document kind on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Checkpoint {
    /// A basic [`dcs_core::DistinctCountSketch`].
    Sketch(SketchState),
    /// A [`dcs_core::TrackingDcs`] with its tracking structures.
    Tracking(TrackingState),
    /// A sharded ingest pipeline: per-shard sketches + stream cursor.
    Sharded(ShardedCheckpoint),
    /// A windowed monitor: cumulative sketch + ring-of-deltas window.
    Window(WindowCheckpoint),
}

impl Checkpoint {
    /// A short human-readable name for the document kind.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Checkpoint::Sketch(_) => "sketch",
            Checkpoint::Tracking(_) => "tracking",
            Checkpoint::Sharded(_) => "sharded",
            Checkpoint::Window(_) => "window",
        }
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// One document being written into a shared buffer. The header goes
/// out first; each section reserves its frame, writes its payload in
/// place, then backpatches the payload's length and CRC; the section
/// count is backpatched last. A nested document is written straight
/// into its parent's section payload, so the whole checkpoint is one
/// buffer with no per-section copies.
struct DocWriter<'w> {
    w: &'w mut ByteWriter,
    count_at: usize,
    sections: u32,
}

impl<'w> DocWriter<'w> {
    fn begin(w: &'w mut ByteWriter, kind: u8) -> Self {
        w.put_bytes(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u8(kind);
        let count_at = w.len();
        w.put_u32(0);
        Self {
            w,
            count_at,
            sections: 0,
        }
    }

    fn section(&mut self, tag: [u8; 4], payload: impl FnOnce(&mut ByteWriter)) {
        self.w.put_bytes(&tag);
        let frame = self.w.len();
        self.w.put_u64(0);
        self.w.put_u32(0);
        let start = self.w.len();
        payload(self.w);
        let len = len_u64(self.w.len() - start);
        let crc = crc32(self.w.written_since(start));
        self.w.patch(frame, &len.to_le_bytes());
        self.w.patch(frame + 8, &crc.to_le_bytes());
        self.sections = self.sections.saturating_add(1);
    }

    fn finish(self) {
        self.w.patch(self.count_at, &self.sections.to_le_bytes());
    }
}

fn len_u64(len: usize) -> u64 {
    u64::try_from(len).unwrap_or(u64::MAX)
}

fn len_u32(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

fn write_config(w: &mut ByteWriter, config: &SketchConfig) {
    w.put_u64(len_u64(config.num_tables()));
    w.put_u64(len_u64(config.buckets_per_table()));
    w.put_u32(config.max_levels());
    w.put_u64(config.seed());
    let (group_tag, bits) = match config.group_by() {
        GroupBy::Destination => (0u8, 0u8),
        GroupBy::Source => (1, 0),
        GroupBy::DestinationPrefix { bits } => (2, bits),
        GroupBy::SourcePrefix { bits } => (3, bits),
    };
    w.put_u8(group_tag);
    w.put_u8(bits);
    w.put_u8(HASH_MULTIPLY_SHIFT);
}

fn write_level(w: &mut ByteWriter, slab: &LevelSlabs) {
    w.put_u32(slab.level);
    w.put_u64(len_u64(slab.totals.len()));
    w.put_i32s(&slab.totals);
    for sums in [&slab.lo_sums, &slab.hi_sums] {
        w.put_u64(len_u64(sums.len()));
        w.put_i64s(sums);
    }
    w.put_u64(len_u64(slab.fp_sums.len()));
    w.put_u64s(&slab.fp_sums);
}

fn write_tracking_level(w: &mut ByteWriter, level: &TrackingLevelState) {
    w.put_u32(level.level);
    w.put_u64(len_u64(level.singletons.len()));
    for &(packed, count) in &level.singletons {
        w.put_u64(packed);
        w.put_u32(count);
    }
    w.put_u64(len_u64(level.heap_slots.len()));
    for &(priority, group) in &level.heap_slots {
        w.put_u64(priority);
        w.put_u32(group);
    }
    w.put_u64(level.heap_underflows);
    w.put_u64(level.heap_overflows);
    w.put_u64(level.heap_adjusts);
}

fn write_sketch(w: &mut ByteWriter, state: &SketchState) {
    let mut doc = DocWriter::begin(w, KIND_SKETCH);
    doc.section(TAG_CFG, |w| write_config(w, &state.config));
    doc.section(TAG_MET, |w| {
        w.put_u64(state.updates_processed);
        w.put_i64(state.net_updates);
    });
    for slab in &state.levels {
        doc.section(TAG_LVL, |w| write_level(w, slab));
    }
    doc.finish();
}

fn write_tracking(w: &mut ByteWriter, state: &TrackingState) {
    let mut doc = DocWriter::begin(w, KIND_TRACKING);
    doc.section(TAG_SKC, |w| write_sketch(w, &state.sketch));
    doc.section(TAG_TRM, |w| w.put_u64(state.untracked_decrements));
    for level in &state.levels {
        doc.section(TAG_TRK, |w| write_tracking_level(w, level));
    }
    doc.finish();
}

fn write_checkpoint(w: &mut ByteWriter, checkpoint: &Checkpoint) {
    match checkpoint {
        Checkpoint::Sketch(state) => write_sketch(w, state),
        Checkpoint::Tracking(state) => write_tracking(w, state),
        Checkpoint::Sharded(sharded) => {
            let mut doc = DocWriter::begin(w, KIND_SHARDED);
            doc.section(TAG_SHD, |w| {
                w.put_u64(sharded.updates_distributed);
                w.put_u32(len_u32(sharded.shards.len()));
            });
            for shard in &sharded.shards {
                doc.section(TAG_SNP, |w| write_sketch(w, shard));
            }
            doc.finish();
        }
        Checkpoint::Window(window) => {
            let mut doc = DocWriter::begin(w, KIND_WINDOW);
            doc.section(TAG_WND, |w| {
                w.put_u64(window.epochs);
                w.put_u64(window.epochs_rotated);
                w.put_u32(len_u32(window.deltas.len()));
            });
            doc.section(TAG_CUR, |w| write_tracking(w, &window.current));
            doc.section(TAG_BAS, |w| write_sketch(w, &window.base));
            doc.section(TAG_WIN, |w| write_sketch(w, &window.window));
            for delta in &window.deltas {
                doc.section(TAG_SNP, |w| write_sketch(w, delta));
            }
            doc.finish();
        }
    }
}

/// Roughly the encoded size of `checkpoint`: every slab and list
/// element plus a frame allowance per section. It only has to be close
/// enough that a fresh buffer is allocated once.
fn size_hint(checkpoint: &Checkpoint) -> usize {
    let sketch = |s: &SketchState| -> usize {
        let bytes: usize = (s.levels.iter())
            .map(|l| l.totals.len() * SketchConfig::signature_bytes() + 64)
            .sum();
        bytes + 128
    };
    let tracking = |t: &TrackingState| -> usize {
        let pairs: usize = (t.levels.iter())
            .map(|l| l.singletons.len() + l.heap_slots.len() + 6)
            .sum();
        sketch(&t.sketch) + pairs * 12 + 64
    };
    let ring = |states: &[SketchState]| -> usize { states.iter().map(sketch).sum::<usize>() + 64 };
    match checkpoint {
        Checkpoint::Sketch(s) => sketch(s),
        Checkpoint::Tracking(t) => tracking(t),
        Checkpoint::Sharded(s) => ring(&s.shards),
        Checkpoint::Window(w) => {
            tracking(&w.current) + sketch(&w.base) + sketch(&w.window) + ring(&w.deltas)
        }
    }
}

/// Encodes a checkpoint into its on-disk byte representation.
///
/// Encoding is deterministic: the same state always produces the same
/// bytes (the golden-fixture tests pin this down).
pub fn encode(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(checkpoint, &mut out);
    out
}

/// Encodes a checkpoint into `out`, replacing its contents but keeping
/// its allocation — the same bytes as [`encode`], without faulting in
/// a fresh buffer on every periodic save.
pub(crate) fn encode_into(checkpoint: &Checkpoint, out: &mut Vec<u8>) {
    let mut w = ByteWriter::with_buffer(std::mem::take(out));
    w.reserve(size_hint(checkpoint));
    write_checkpoint(&mut w, checkpoint);
    *out = w.into_bytes();
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

struct Section<'a> {
    tag: [u8; 4],
    payload: &'a [u8],
}

/// A document's kind, format version and declared section count.
struct Header {
    kind: u8,
    version: u32,
    section_count: u32,
}

/// Reads a document header: validates magic and version.
fn read_header(r: &mut ByteReader<'_>) -> Result<Header, PersistError> {
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(PersistError::BadMagic { found });
    }
    let version = r.u32("format version")?;
    if !(FORMAT_V1..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = r.u8("document kind")?;
    let section_count = r.u32("section count")?;
    Ok(Header {
        kind,
        version,
        section_count,
    })
}

/// Reads the section table after a header and checks every section's
/// CRC, so nothing is interpreted before all of it is known intact.
/// Returns the sections in file order.
fn read_sections<'a>(
    mut r: ByteReader<'a>,
    section_count: u32,
) -> Result<Vec<Section<'a>>, PersistError> {
    let mut sections = Vec::new();
    for index in 0..section_count {
        let tag_bytes = r.take(4, "section tag")?;
        let mut tag = [0u8; 4];
        tag.copy_from_slice(tag_bytes);
        let len_raw = r.u64("section length")?;
        let len = usize::try_from(len_raw).map_err(|_| PersistError::Corrupt {
            context: format!("section {index} length {len_raw} does not fit in memory"),
        })?;
        let expected = r.u32("section checksum")?;
        let payload = r.take(len, "section payload")?;
        let actual = crc32(payload);
        if actual != expected {
            return Err(PersistError::ChecksumMismatch {
                section: tag_name(tag),
                expected,
                actual,
            });
        }
        sections.push(Section { tag, payload });
    }
    r.expect_end()?;
    Ok(sections)
}

/// Walks the document framing: header, then every section with its
/// CRC checked. Returns the header and the sections in file order.
fn read_document(bytes: &[u8]) -> Result<(Header, Vec<Section<'_>>), PersistError> {
    let mut r = ByteReader::new(bytes);
    let header = read_header(&mut r)?;
    let sections = read_sections(r, header.section_count)?;
    Ok((header, sections))
}

/// Reads a document embedded in a section payload, refusing it from
/// its header alone unless it is the one kind the grammar allows
/// there. Only leaf kinds are ever expected, so nesting stays at most
/// three documents deep whatever the input claims.
fn read_embedded<'a>(
    payload: &'a [u8],
    expected: u8,
    what: &str,
) -> Result<(u32, Vec<Section<'a>>), PersistError> {
    let mut r = ByteReader::new(payload);
    let Header {
        kind,
        version,
        section_count,
    } = read_header(&mut r)?;
    if kind != expected {
        return Err(PersistError::Corrupt {
            context: format!("{what}: embedded document has kind {kind}, expected {expected}"),
        });
    }
    Ok((version, read_sections(r, section_count)?))
}

/// Returns the byte offset of every top-level section boundary in a
/// valid document: the end of the header, then the end of each section
/// (the final entry is the file length). The corruption-matrix tests
/// use this to truncate a checkpoint at exactly every boundary.
pub fn section_offsets(bytes: &[u8]) -> Result<Vec<usize>, PersistError> {
    let (_, sections) = read_document(bytes)?;
    // Header: magic(8) + version(4) + kind(1) + section count(4).
    let mut offset = 8 + 4 + 1 + 4;
    let mut offsets = vec![offset];
    for section in &sections {
        // Frame: tag(4) + length(8) + crc(4) + payload.
        offset += 4 + 8 + 4 + section.payload.len();
        offsets.push(offset);
    }
    Ok(offsets)
}

fn decode_config(payload: &[u8]) -> Result<SketchConfig, PersistError> {
    let mut r = ByteReader::new(payload);
    let num_tables_raw = r.u64("config num_tables")?;
    let num_tables = usize::try_from(num_tables_raw).map_err(|_| PersistError::Corrupt {
        context: format!("config num_tables {num_tables_raw} does not fit in memory"),
    })?;
    let buckets_raw = r.u64("config buckets_per_table")?;
    let buckets = usize::try_from(buckets_raw).map_err(|_| PersistError::Corrupt {
        context: format!("config buckets_per_table {buckets_raw} does not fit in memory"),
    })?;
    let max_levels = r.u32("config max_levels")?;
    let seed = r.u64("config seed")?;
    let group_tag = r.u8("config group_by tag")?;
    let bits = r.u8("config group_by bits")?;
    let family_tag = r.u8("config hash_family")?;
    r.expect_end()?;
    let prefix_bits = |bits: u8| -> Result<u8, PersistError> {
        if (1..=32).contains(&bits) {
            Ok(bits)
        } else {
            Err(PersistError::Corrupt {
                context: format!("config prefix bits {bits} outside 1..=32"),
            })
        }
    };
    let group_by = match group_tag {
        0 => GroupBy::Destination,
        1 => GroupBy::Source,
        2 => GroupBy::DestinationPrefix {
            bits: prefix_bits(bits)?,
        },
        3 => GroupBy::SourcePrefix {
            bits: prefix_bits(bits)?,
        },
        other => {
            return Err(PersistError::Corrupt {
                context: format!("unknown group_by tag {other}"),
            })
        }
    };
    if family_tag != HASH_MULTIPLY_SHIFT {
        return Err(PersistError::Corrupt {
            context: format!(
                "config hash_family byte {family_tag} is not {HASH_MULTIPLY_SHIFT} (multiply-shift)"
            ),
        });
    }
    SketchConfig::builder()
        .num_tables(num_tables)
        .buckets_per_table(buckets)
        .max_levels(max_levels)
        .seed(seed)
        .group_by(group_by)
        .build()
        .map_err(PersistError::State)
}

fn decode_level(payload: &[u8], version: u32) -> Result<LevelSlabs, PersistError> {
    if version == FORMAT_V1 {
        return decode_level_v1(payload);
    }
    let mut r = ByteReader::new(payload);
    let level = r.u32("level index")?;
    let totals = r.i32_slab("level totals slab")?;
    let lo_sums = r.i64_slab("level low-sum slab")?;
    let hi_sums = r.i64_slab("level high-sum slab")?;
    let fp_sums = r.u64_slab("level fp-sum slab")?;
    r.expect_end()?;
    Ok(LevelSlabs {
        level,
        totals,
        lo_sums,
        hi_sums,
        fp_sums,
    })
}

/// Converts a format-1 level (65 counters per bucket, a key sum and a
/// fingerprint sum) to the four slabs, exactly; see the module docs.
fn decode_level_v1(payload: &[u8]) -> Result<LevelSlabs, PersistError> {
    let mut r = ByteReader::new(payload);
    let level = r.u32("level index")?;
    let counts = r.counter_slab("level counter slab")?;
    let key_sums = r.u64_slab("level key-sum slab")?;
    let fp_sums = r.u64_slab("level fp-sum slab")?;
    r.expect_end()?;
    let slots = key_sums.len();
    if counts.len() != slots.saturating_mul(V1_SIGNATURE_LEN) || fp_sums.len() != slots {
        return Err(PersistError::Corrupt {
            context: format!(
                "level {level}: {} counters and {} fingerprint sums do not fit {slots} buckets",
                counts.len(),
                fp_sums.len()
            ),
        });
    }
    let mut totals = Vec::with_capacity(slots);
    let mut lo_sums = Vec::with_capacity(slots);
    let mut hi_sums = Vec::with_capacity(slots);
    for (slot, (block, &key_sum)) in counts
        .chunks_exact(V1_SIGNATURE_LEN)
        .zip(&key_sums)
        .enumerate()
    {
        // |c_j| ≤ 2³¹, so each half sum stays below 2³¹·(2³² − 1) < 2⁶³.
        let half = |bits: &[i32]| -> i64 {
            (bits.iter().zip(0u32..))
                .map(|(&c, j)| i64::from(c) << j)
                .sum()
        };
        let (lo, hi) = (half(&block[1..33]), half(&block[33..]));
        let derived = lo.wrapping_add(hi.wrapping_shl(32));
        if u64::from_le_bytes(derived.to_le_bytes()) != key_sum {
            return Err(PersistError::Corrupt {
                context: format!(
                    "level {level} bucket {slot}: key sum {key_sum:#x} disagrees with its bit counters"
                ),
            });
        }
        totals.push(block[0]);
        lo_sums.push(lo);
        hi_sums.push(hi);
    }
    Ok(LevelSlabs {
        level,
        totals,
        lo_sums,
        hi_sums,
        fp_sums,
    })
}

fn decode_tracking_level(payload: &[u8]) -> Result<TrackingLevelState, PersistError> {
    let mut r = ByteReader::new(payload);
    let level = r.u32("tracking level index")?;
    let singleton_len = r.element_count(12, "tracking singleton list")?;
    let mut singletons = Vec::with_capacity(singleton_len);
    for _ in 0..singleton_len {
        let packed = r.u64("singleton key")?;
        let count = r.u32("singleton count")?;
        singletons.push((packed, count));
    }
    let heap_len = r.element_count(12, "tracking heap slots")?;
    let mut heap_slots = Vec::with_capacity(heap_len);
    for _ in 0..heap_len {
        let priority = r.u64("heap slot priority")?;
        let group = r.u32("heap slot group")?;
        heap_slots.push((priority, group));
    }
    let heap_underflows = r.u64("heap underflow counter")?;
    let heap_overflows = r.u64("heap overflow counter")?;
    let heap_adjusts = r.u64("heap adjust counter")?;
    r.expect_end()?;
    Ok(TrackingLevelState {
        level,
        singletons,
        heap_slots,
        heap_underflows,
        heap_overflows,
        heap_adjusts,
    })
}

fn expect_tag(section: &Section<'_>, tag: [u8; 4]) -> Result<(), PersistError> {
    if section.tag == tag {
        Ok(())
    } else {
        Err(PersistError::Corrupt {
            context: format!(
                "expected section {:?}, found {:?}",
                tag_name(tag),
                tag_name(section.tag)
            ),
        })
    }
}

fn decode_sketch_sections(
    sections: &[Section<'_>],
    version: u32,
) -> Result<SketchState, PersistError> {
    if sections.len() < 2 {
        return Err(PersistError::Corrupt {
            context: format!(
                "sketch document has {} section(s), needs at least CFG and MET",
                sections.len()
            ),
        });
    }
    expect_tag(&sections[0], TAG_CFG)?;
    expect_tag(&sections[1], TAG_MET)?;
    let config = decode_config(sections[0].payload)?;
    let mut met = ByteReader::new(sections[1].payload);
    let updates_processed = met.u64("updates_processed")?;
    let net_updates = met.i64("net_updates")?;
    met.expect_end()?;
    let mut levels = Vec::with_capacity(sections.len() - 2);
    for section in &sections[2..] {
        expect_tag(section, TAG_LVL)?;
        levels.push(decode_level(section.payload, version)?);
    }
    Ok(SketchState {
        config,
        updates_processed,
        net_updates,
        levels,
    })
}

fn decode_tracking_sections(sections: &[Section<'_>]) -> Result<TrackingState, PersistError> {
    if sections.len() < 2 {
        return Err(PersistError::Corrupt {
            context: format!(
                "tracking document has {} section(s), needs at least SKC and TRM",
                sections.len()
            ),
        });
    }
    expect_tag(&sections[0], TAG_SKC)?;
    expect_tag(&sections[1], TAG_TRM)?;
    let sketch = decode_nested_sketch(sections[0].payload, "SKC section")?;
    let mut trm = ByteReader::new(sections[1].payload);
    let untracked_decrements = trm.u64("untracked_decrements")?;
    trm.expect_end()?;
    let mut levels = Vec::with_capacity(sections.len() - 2);
    for section in &sections[2..] {
        expect_tag(section, TAG_TRK)?;
        levels.push(decode_tracking_level(section.payload)?);
    }
    Ok(TrackingState {
        sketch,
        levels,
        untracked_decrements,
    })
}

fn decode_nested_sketch(payload: &[u8], what: &str) -> Result<SketchState, PersistError> {
    let (version, sections) = read_embedded(payload, KIND_SKETCH, what)?;
    decode_sketch_sections(&sections, version)
}

fn decode_nested_tracking(payload: &[u8], what: &str) -> Result<TrackingState, PersistError> {
    decode_tracking_sections(&read_embedded(payload, KIND_TRACKING, what)?.1)
}

/// Decodes a checkpoint document, validating framing, CRCs, and
/// structural consistency. Never panics on any input.
///
/// Decoding validates the *representation*; the restored-state
/// constructors ([`dcs_core::DistinctCountSketch::from_state`] and
/// friends) validate the *semantics* — both must pass before any live
/// structure is built.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint, PersistError> {
    let (header, sections) = read_document(bytes)?;
    match header.kind {
        KIND_SKETCH => Ok(Checkpoint::Sketch(decode_sketch_sections(
            &sections,
            header.version,
        )?)),
        KIND_TRACKING => Ok(Checkpoint::Tracking(decode_tracking_sections(&sections)?)),
        KIND_SHARDED => {
            if sections.is_empty() {
                return Err(PersistError::Corrupt {
                    context: "sharded document has no sections, needs at least SHD".into(),
                });
            }
            expect_tag(&sections[0], TAG_SHD)?;
            let mut shd = ByteReader::new(sections[0].payload);
            let updates_distributed = shd.u64("updates distributed")?;
            let shard_count = shd.u32("shard count")?;
            shd.expect_end()?;
            let mut shards = Vec::with_capacity(sections.len() - 1);
            for section in &sections[1..] {
                expect_tag(section, TAG_SNP)?;
                shards.push(decode_nested_sketch(section.payload, "SNP section")?);
            }
            if u64::try_from(shards.len()).unwrap_or(u64::MAX) != u64::from(shard_count) {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "sharded document declares {shard_count} shard(s) but carries {}",
                        shards.len()
                    ),
                });
            }
            Ok(Checkpoint::Sharded(ShardedCheckpoint {
                updates_distributed,
                shards,
            }))
        }
        KIND_WINDOW => {
            if sections.len() < 4 {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "window document has {} section(s), needs at least \
                         WND, CUR, BAS, and WIN",
                        sections.len()
                    ),
                });
            }
            expect_tag(&sections[0], TAG_WND)?;
            expect_tag(&sections[1], TAG_CUR)?;
            expect_tag(&sections[2], TAG_BAS)?;
            expect_tag(&sections[3], TAG_WIN)?;
            let mut wnd = ByteReader::new(sections[0].payload);
            let epochs = wnd.u64("window ring capacity")?;
            let epochs_rotated = wnd.u64("window epochs rotated")?;
            let delta_count = wnd.u32("window delta count")?;
            wnd.expect_end()?;
            let current = decode_nested_tracking(sections[1].payload, "CUR section")?;
            let base = decode_nested_sketch(sections[2].payload, "BAS section")?;
            let window = decode_nested_sketch(sections[3].payload, "WIN section")?;
            let mut deltas = Vec::with_capacity(sections.len() - 4);
            for section in &sections[4..] {
                expect_tag(section, TAG_SNP)?;
                deltas.push(decode_nested_sketch(section.payload, "SNP section")?);
            }
            if u64::try_from(deltas.len()).unwrap_or(u64::MAX) != u64::from(delta_count) {
                return Err(PersistError::Corrupt {
                    context: format!(
                        "window document declares {delta_count} delta(s) but carries {}",
                        deltas.len()
                    ),
                });
            }
            Ok(Checkpoint::Window(WindowCheckpoint {
                epochs,
                epochs_rotated,
                current,
                base,
                window,
                deltas,
            }))
        }
        other => Err(PersistError::Corrupt {
            context: format!("unknown document kind {other}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, DistinctCountSketch, SourceAddr, TrackingDcs};
    use proptest::prelude::*;

    fn config(seed: u64) -> SketchConfig {
        // Small dimensions keep the encoded documents in the tens of
        // KB; the exhaustive truncation test below decodes every
        // prefix, which is quadratic in document length.
        SketchConfig::builder()
            .num_tables(2)
            .buckets_per_table(8)
            .max_levels(5)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn sample_sketch(seed: u64, pairs: u32) -> SketchState {
        let mut sketch = DistinctCountSketch::new(config(seed));
        for s in 0..pairs {
            sketch.insert(SourceAddr(s), DestAddr(s % 5));
        }
        sketch.to_state()
    }

    fn sample_tracking(seed: u64, pairs: u32) -> TrackingState {
        let mut t = TrackingDcs::new(config(seed));
        for s in 0..pairs {
            t.insert(SourceAddr(s), DestAddr(s % 5));
        }
        t.to_state()
    }

    // The encoder `encode` replaced — one `Vec` per section payload,
    // assembled at the end, nested documents encoded from clones — kept
    // as the byte-for-byte oracle for the one-buffer encoder.

    fn legacy_assemble(kind: u8, sections: Vec<([u8; 4], Vec<u8>)>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(FORMAT_VERSION);
        w.put_u8(kind);
        w.put_u32(u32::try_from(sections.len()).unwrap());
        for (tag, payload) in sections {
            w.put_bytes(&tag);
            w.put_u64(u64::try_from(payload.len()).unwrap());
            w.put_u32(crc32(&payload));
            w.put_bytes(&payload);
        }
        w.into_bytes()
    }

    fn legacy_config(config: &SketchConfig) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(u64::try_from(config.num_tables()).unwrap());
        w.put_u64(u64::try_from(config.buckets_per_table()).unwrap());
        w.put_u32(config.max_levels());
        w.put_u64(config.seed());
        let (group_tag, bits) = match config.group_by() {
            GroupBy::Destination => (0u8, 0u8),
            GroupBy::Source => (1, 0),
            GroupBy::DestinationPrefix { bits } => (2, bits),
            GroupBy::SourcePrefix { bits } => (3, bits),
        };
        w.put_u8(group_tag);
        w.put_u8(bits);
        w.put_u8(HASH_MULTIPLY_SHIFT);
        w.into_bytes()
    }

    fn legacy_level(slab: &LevelSlabs) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(slab.level);
        w.put_u64(u64::try_from(slab.totals.len()).unwrap());
        for &t in &slab.totals {
            w.put_bytes(&t.to_le_bytes());
        }
        for sums in [&slab.lo_sums, &slab.hi_sums] {
            w.put_u64(u64::try_from(sums.len()).unwrap());
            for &s in sums {
                w.put_i64(s);
            }
        }
        w.put_u64(u64::try_from(slab.fp_sums.len()).unwrap());
        for &s in &slab.fp_sums {
            w.put_u64(s);
        }
        w.into_bytes()
    }

    fn legacy_tracking_level(level: &TrackingLevelState) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(level.level);
        for pairs in [&level.singletons, &level.heap_slots] {
            w.put_u64(u64::try_from(pairs.len()).unwrap());
            for &(wide, narrow) in pairs {
                w.put_u64(wide);
                w.put_u32(narrow);
            }
        }
        w.put_u64(level.heap_underflows);
        w.put_u64(level.heap_overflows);
        w.put_u64(level.heap_adjusts);
        w.into_bytes()
    }

    fn legacy_header(words: &[u64], count: usize) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for &word in words {
            w.put_u64(word);
        }
        w.put_u32(u32::try_from(count).unwrap());
        w.into_bytes()
    }

    fn legacy_encode(checkpoint: &Checkpoint) -> Vec<u8> {
        let sketch = |s: &SketchState| legacy_encode(&Checkpoint::Sketch(s.clone()));
        let tracking = |t: &TrackingState| legacy_encode(&Checkpoint::Tracking(t.clone()));
        let mut sections = Vec::new();
        let kind = match checkpoint {
            Checkpoint::Sketch(state) => {
                sections.push((TAG_CFG, legacy_config(&state.config)));
                let mut met = ByteWriter::new();
                met.put_u64(state.updates_processed);
                met.put_i64(state.net_updates);
                sections.push((TAG_MET, met.into_bytes()));
                sections.extend(state.levels.iter().map(|l| (TAG_LVL, legacy_level(l))));
                KIND_SKETCH
            }
            Checkpoint::Tracking(state) => {
                sections.push((TAG_SKC, sketch(&state.sketch)));
                let trm = state.untracked_decrements.to_le_bytes().to_vec();
                sections.push((TAG_TRM, trm));
                let levels = state.levels.iter();
                sections.extend(levels.map(|l| (TAG_TRK, legacy_tracking_level(l))));
                KIND_TRACKING
            }
            Checkpoint::Sharded(s) => {
                let words = [s.updates_distributed];
                sections.push((TAG_SHD, legacy_header(&words, s.shards.len())));
                sections.extend(s.shards.iter().map(|s| (TAG_SNP, sketch(s))));
                KIND_SHARDED
            }
            Checkpoint::Window(w) => {
                let words = [w.epochs, w.epochs_rotated];
                sections.push((TAG_WND, legacy_header(&words, w.deltas.len())));
                sections.push((TAG_CUR, tracking(&w.current)));
                sections.push((TAG_BAS, sketch(&w.base)));
                sections.push((TAG_WIN, sketch(&w.window)));
                sections.extend(w.deltas.iter().map(|s| (TAG_SNP, sketch(s))));
                KIND_WINDOW
            }
        };
        legacy_assemble(kind, sections)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every document kind — nested Sharded and Window documents
        /// with none or several ring members included — encodes to
        /// exactly the legacy encoder's bytes, and decodes back to the
        /// same state.
        #[test]
        fn one_buffer_encode_matches_the_legacy_encoder(
            seed in 0u64..1_000,
            n in 1u32..800,
            members in 0usize..4,
        ) {
            let ring: Vec<SketchState> = (0..members)
                .map(|i| sample_sketch(seed, n / (u32::try_from(i).unwrap() + 2)))
                .collect();
            let docs = [
                Checkpoint::Sketch(sample_sketch(seed, n)),
                Checkpoint::Tracking(sample_tracking(seed, n)),
                Checkpoint::Sharded(ShardedCheckpoint {
                    updates_distributed: u64::from(n) * 3,
                    shards: ring.clone(),
                }),
                Checkpoint::Window(WindowCheckpoint {
                    epochs: 4,
                    epochs_rotated: u64::from(n) / 7,
                    current: sample_tracking(seed, n),
                    base: sample_sketch(seed, n / 2),
                    window: sample_sketch(seed, n / 3),
                    deltas: ring,
                }),
            ];
            for doc in &docs {
                let bytes = encode(doc);
                prop_assert!(size_hint(doc) >= bytes.len(), "the buffer had to grow");
                prop_assert_eq!(&bytes, &legacy_encode(doc));
                prop_assert_eq!(&decode(&bytes).unwrap(), doc);
            }
        }
    }

    #[test]
    fn sketch_document_roundtrips() {
        let state = sample_sketch(1, 300);
        let bytes = encode(&Checkpoint::Sketch(state.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Sketch(state));
    }

    #[test]
    fn tracking_document_roundtrips() {
        let state = sample_tracking(2, 400);
        let bytes = encode(&Checkpoint::Tracking(state.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Tracking(state));
    }

    #[test]
    fn sharded_document_roundtrips() {
        let sharded = ShardedCheckpoint {
            updates_distributed: 777,
            shards: vec![
                sample_sketch(4, 80),
                sample_sketch(4, 90),
                sample_sketch(4, 10),
            ],
        };
        let bytes = encode(&Checkpoint::Sharded(sharded.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Sharded(sharded));
    }

    #[test]
    fn window_document_roundtrips() {
        let window = WindowCheckpoint {
            epochs: 3,
            epochs_rotated: 11,
            current: sample_tracking(12, 150),
            base: sample_sketch(12, 150),
            window: sample_sketch(12, 60),
            deltas: vec![sample_sketch(12, 20), sample_sketch(12, 40)],
        };
        let bytes = encode(&Checkpoint::Window(window.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Window(window));
    }

    #[test]
    fn window_document_with_empty_ring_roundtrips() {
        let window = WindowCheckpoint {
            epochs: 4,
            epochs_rotated: 0,
            current: sample_tracking(13, 30),
            base: sample_sketch(13, 30),
            window: DistinctCountSketch::new(config(13)).to_state(),
            deltas: Vec::new(),
        };
        let bytes = encode(&Checkpoint::Window(window.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Window(window));
    }

    #[test]
    fn window_document_delta_count_mismatch_is_rejected() {
        let window = WindowCheckpoint {
            epochs: 3,
            epochs_rotated: 2,
            current: sample_tracking(14, 40),
            base: sample_sketch(14, 40),
            window: sample_sketch(14, 40),
            deltas: vec![sample_sketch(14, 10)],
        };
        let bytes = encode(&Checkpoint::Window(window));
        let boundaries = section_offsets(&bytes).unwrap();
        // Drop the trailing SNP section and patch the section count in
        // the header (offset 13, after magic+version): the declared
        // delta count in WND no longer matches.
        let mut truncated = bytes[..boundaries[boundaries.len() - 2]].to_vec();
        truncated[13] -= 1;
        assert!(matches!(
            decode(&truncated),
            Err(PersistError::Corrupt { context }) if context.contains("declares 1 delta")
        ));
    }

    #[test]
    fn empty_sketch_roundtrips() {
        let state = DistinctCountSketch::new(config(5)).to_state();
        let bytes = encode(&Checkpoint::Sketch(state.clone()));
        assert_eq!(decode(&bytes).unwrap(), Checkpoint::Sketch(state));
    }

    #[test]
    fn documents_carry_only_levels_with_content() {
        let mut sketch = DistinctCountSketch::new(config(11));
        for s in 0..400u32 {
            sketch.insert(SourceAddr(s), DestAddr(s % 5));
        }
        for s in 3..400u32 {
            sketch.delete(SourceAddr(s), DestAddr(s % 5));
        }
        let sparse = sketch.to_state();
        let bytes = encode(&Checkpoint::Sketch(sparse.clone()));
        let restored = DistinctCountSketch::from_state(sparse.clone()).unwrap();
        assert_eq!(encode(&Checkpoint::Sketch(restored.to_state())), bytes);

        // The same state with its all-zero levels written out, as
        // earlier builds saved it, decodes to the same counters.
        let slots = sparse.config.num_tables() * sparse.config.buckets_per_table();
        let mut legacy = sparse.clone();
        for level in 0..sparse.config.max_levels() {
            if sketch.level_occupancy(level) == Some((0, 0)) {
                let at = legacy.levels.partition_point(|l| l.level < level);
                legacy.levels.insert(
                    at,
                    LevelSlabs {
                        level,
                        totals: vec![0; slots],
                        lo_sums: vec![0; slots],
                        hi_sums: vec![0; slots],
                        fp_sums: vec![0; slots],
                    },
                );
            }
        }
        assert!(
            legacy.levels.len() > sparse.levels.len(),
            "no level cancelled"
        );
        let Checkpoint::Sketch(decoded) = decode(&encode(&Checkpoint::Sketch(legacy))).unwrap()
        else {
            panic!("a kind-1 document decodes to a sketch");
        };
        let from_legacy = DistinctCountSketch::from_state(decoded).unwrap();
        assert_eq!(encode(&Checkpoint::Sketch(from_legacy.to_state())), bytes);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode(&Checkpoint::Tracking(sample_tracking(6, 250)));
        let b = encode(&Checkpoint::Tracking(sample_tracking(6, 250)));
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&Checkpoint::Sketch(sample_sketch(7, 10)));
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(PersistError::BadMagic { .. })));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = encode(&Checkpoint::Sketch(sample_sketch(8, 10)));
        // Version field sits right after the 8-byte magic.
        bytes[8] = 0xff;
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::UnsupportedVersion { found, .. }) if found != FORMAT_VERSION
        ));
    }

    #[test]
    fn unknown_document_kind_is_rejected() {
        let mut bytes = encode(&Checkpoint::Sketch(sample_sketch(9, 10)));
        // Kind byte sits after magic(8) + version(4).
        bytes[12] = 99;
        assert!(matches!(decode(&bytes), Err(PersistError::Corrupt { .. })));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&Checkpoint::Sketch(sample_sketch(10, 10)));
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let bytes = encode(&Checkpoint::Sketch(sample_sketch(11, 100)));
        let boundaries = section_offsets(&bytes).unwrap();
        // Flip one bit inside the first section's payload (just past
        // its 16-byte frame header).
        let mut flipped = bytes.clone();
        let target = boundaries[0] + 16 + 2;
        flipped[target] ^= 0x10;
        assert!(matches!(
            decode(&flipped),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn section_offsets_cover_the_whole_file() {
        let bytes = encode(&Checkpoint::Tracking(sample_tracking(12, 150)));
        let offsets = section_offsets(&bytes).unwrap();
        assert_eq!(*offsets.last().unwrap(), bytes.len());
        assert!(offsets.len() >= 3, "SKC + TRM + at least one TRK");
        for pair in offsets.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn truncation_at_every_offset_is_an_error_not_a_panic() {
        let bytes = encode(&Checkpoint::Sketch(sample_sketch(13, 60)));
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn retired_hash_family_bytes_are_refused() {
        let state = sample_sketch(15, 0);
        let document = |family: u8| {
            let mut cfg = legacy_config(&state.config);
            *cfg.last_mut().unwrap() = family;
            let mut met = ByteWriter::new();
            met.put_u64(state.updates_processed);
            met.put_i64(state.net_updates);
            legacy_assemble(
                KIND_SKETCH,
                vec![(TAG_CFG, cfg), (TAG_MET, met.into_bytes())],
            )
        };
        assert_eq!(
            decode(&document(0)).unwrap(),
            Checkpoint::Sketch(state.clone())
        );
        // 1 was tabulation; 2 was never written.
        for family in [1u8, 2] {
            match decode(&document(family)) {
                Err(PersistError::Corrupt { context }) => assert!(
                    context.contains(&format!("hash_family byte {family}")),
                    "{context}"
                ),
                other => panic!("hash_family byte {family} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn mismatched_shard_count_is_corrupt() {
        let sharded = ShardedCheckpoint {
            updates_distributed: 70,
            shards: vec![sample_sketch(14, 60), sample_sketch(14, 10)],
        };
        let bytes = encode(&Checkpoint::Sharded(sharded));
        // Drop the final SNP section and fix up the section count so the
        // framing stays valid; the declared shard count now lies.
        let offsets = section_offsets(&bytes).unwrap();
        let mut shortened = bytes[..offsets[offsets.len() - 2]].to_vec();
        // Section count is a u32 at offset 13 (magic 8 + version 4 + kind 1).
        let old_count = u32::from_le_bytes([bytes[13], bytes[14], bytes[15], bytes[16]]);
        shortened[13..17].copy_from_slice(&(old_count - 1).to_le_bytes());
        assert!(matches!(
            decode(&shortened),
            Err(PersistError::Corrupt { context }) if context.contains("declares 2 shard")
        ));
    }
}
