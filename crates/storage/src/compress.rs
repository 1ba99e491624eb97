//! Compressed column fragments: the storage half of lightweight
//! compression (paper §4.3 / §5).
//!
//! At checkpoint / reorganize time a per-column *format chooser* samples
//! each fragment's value range, sort order and cardinality and rewrites
//! it as a sequence of compressed chunks — PFOR, PFOR-DELTA or PDICT —
//! each carrying a self-describing [`ChunkHeader`] plus exception
//! blocks. Columns where compression would not pay (savings below 10%)
//! stay raw. The scan decompresses vector-at-a-time through
//! [`CompressedColumn::decode_range`], so compressed data stays
//! compressed in the buffer pool and expands only into cache-resident
//! vectors.

use crate::column::ColumnData;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use x100_vector::compress as k;
use x100_vector::{ScalarType, StrVec, Value, Vector};

/// Rows per compressed chunk. A multiple of the vector size and of
/// [`k::DELTA_SYNC`], so vector refills decode aligned lanes.
pub const CHUNK_ROWS: usize = 65536;

/// Encoded size of a [`ChunkHeader`].
pub const HEADER_BYTES: usize = 32;

const HEADER_MAGIC: u8 = 0xCB;

/// Physical format of one compressed chunk (or of a whole column, as
/// the chooser's verdict).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFormat {
    /// Uncompressed — the chooser's fallback when compression won't pay.
    Raw,
    /// Patched frame-of-reference.
    Pfor,
    /// PFOR over deltas of a non-decreasing column.
    PforDelta,
    /// Dictionary codes into a column-wide sorted dictionary.
    Pdict,
}

impl ChunkFormat {
    /// Short lowercase name (bench JSON, stats display).
    pub fn name(self) -> &'static str {
        match self {
            ChunkFormat::Raw => "raw",
            ChunkFormat::Pfor => "pfor",
            ChunkFormat::PforDelta => "pfordelta",
            ChunkFormat::Pdict => "pdict",
        }
    }
}

/// Self-describing header written in front of every compressed chunk.
///
/// The header is what makes a chunk readable without consulting the
/// catalog: format tag, row count, frame lane, frame base, decimal
/// scale, payload length and the sizes of the exception / sync blocks
/// that follow the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHeader {
    /// Chunk format tag.
    pub format: ChunkFormat,
    /// Frame lane in bits (PFOR / PFOR-DELTA) or code width (PDICT).
    pub lane: u8,
    /// 8-bit fold of the payload + exception + sync bytes, written when
    /// the chunk is built and re-checked on every compressed read. A
    /// mismatch means the body was torn after the header was written.
    pub checksum: u8,
    /// Rows in this chunk.
    pub rows: u32,
    /// Decimal scale for f64 frames (0 = integer frames).
    pub scale: u32,
    /// Frame base (chunk minimum / minimum delta).
    pub base: u64,
    /// Packed payload length in bytes.
    pub payload_bytes: u32,
    /// Entries in the exception block.
    pub exceptions: u32,
    /// Entries in the sync-carry block (PFOR-DELTA only).
    pub sync_points: u32,
}

impl ChunkHeader {
    /// Serialize to the on-chunk byte layout.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut b = [0u8; HEADER_BYTES];
        b[0] = HEADER_MAGIC;
        b[1] = match self.format {
            ChunkFormat::Raw => 0,
            ChunkFormat::Pfor => 1,
            ChunkFormat::PforDelta => 2,
            ChunkFormat::Pdict => 3,
        };
        b[2] = self.lane;
        b[3] = self.checksum;
        b[4..8].copy_from_slice(&self.rows.to_le_bytes());
        b[8..12].copy_from_slice(&self.scale.to_le_bytes());
        b[12..20].copy_from_slice(&self.base.to_le_bytes());
        b[20..24].copy_from_slice(&self.payload_bytes.to_le_bytes());
        b[24..28].copy_from_slice(&self.exceptions.to_le_bytes());
        b[28..32].copy_from_slice(&self.sync_points.to_le_bytes());
        b
    }

    /// Parse the on-chunk byte layout back.
    pub fn decode(b: &[u8; HEADER_BYTES]) -> Result<ChunkHeader, String> {
        if b[0] != HEADER_MAGIC {
            return Err(format!("bad chunk magic 0x{:02x}", b[0]));
        }
        let format = match b[1] {
            0 => ChunkFormat::Raw,
            1 => ChunkFormat::Pfor,
            2 => ChunkFormat::PforDelta,
            3 => ChunkFormat::Pdict,
            t => return Err(format!("unknown chunk format tag {t}")),
        };
        let word32 = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        let mut base = [0u8; 8];
        base.copy_from_slice(&b[12..20]);
        Ok(ChunkHeader {
            format,
            lane: b[2],
            checksum: b[3],
            rows: word32(4),
            scale: word32(8),
            base: u64::from_le_bytes(base),
            payload_bytes: word32(20),
            exceptions: word32(24),
            sync_points: word32(28),
        })
    }
}

/// Compressed payload of one chunk.
#[derive(Debug, Clone)]
pub enum ChunkBody {
    /// Patched frame-of-reference frames + exception block.
    Pfor(k::PforChunk),
    /// Delta frames + sync carries + exception block.
    PforDelta(k::PforDeltaChunk),
    /// Packed dictionary codes (dictionary lives on the column).
    Pdict(Vec<u8>),
}

/// One compressed chunk: header + typed body.
#[derive(Debug, Clone)]
pub struct CompressedChunk {
    /// The self-describing header.
    pub header: ChunkHeader,
    /// The compressed payload.
    pub body: ChunkBody,
}

impl CompressedChunk {
    /// Total compressed footprint including the header.
    pub fn byte_size(&self) -> usize {
        HEADER_BYTES
            + match &self.body {
                ChunkBody::Pfor(c) => c.byte_size(),
                ChunkBody::PforDelta(c) => c.byte_size(),
                ChunkBody::Pdict(p) => p.len(),
            }
    }
}

/// Column-wide sorted dictionary for PDICT columns.
#[derive(Debug, Clone)]
pub enum PdictValues {
    I32(Vec<i32>),
    I64(Vec<i64>),
    F64(Vec<f64>),
    Str(StrVec),
}

impl PdictValues {
    fn len(&self) -> usize {
        match self {
            PdictValues::I32(v) => v.len(),
            PdictValues::I64(v) => v.len(),
            PdictValues::F64(v) => v.len(),
            PdictValues::Str(v) => v.len(),
        }
    }

    /// Code lane in bits: one byte up to 256 entries, else two.
    fn lane(&self) -> u32 {
        if self.len() <= 256 {
            8
        } else {
            16
        }
    }

    /// Bit-identical dictionaries (floats compare by representation).
    fn same_as(&self, other: &PdictValues) -> bool {
        match (self, other) {
            (PdictValues::I32(a), PdictValues::I32(b)) => a == b,
            (PdictValues::I64(a), PdictValues::I64(b)) => a == b,
            (PdictValues::F64(a), PdictValues::F64(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (PdictValues::Str(a), PdictValues::Str(b)) => a == b,
            _ => false,
        }
    }

    fn byte_size(&self) -> usize {
        match self {
            PdictValues::I32(v) => v.len() * 4,
            PdictValues::I64(v) => v.len() * 8,
            PdictValues::F64(v) => v.len() * 8,
            PdictValues::Str(v) => v.byte_size(),
        }
    }
}

/// Decode progress of one scan over one compressed column. Sequential
/// refills continue PFOR-DELTA prefix sums from the saved carry instead
/// of replaying from the nearest sync point.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeCursor {
    chunk: usize,
    next_row: usize,
    carry: u64,
    /// Last chunk whose checksum this cursor verified — sequential
    /// scans pay the verification pass once per chunk, not per refill.
    verified: Option<usize>,
}

/// Accounting of one `decode_range` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecodeStats {
    /// Exception patches applied in the decoded window.
    pub exceptions: u64,
    /// Byte offset of the first compressed byte touched (for chunked
    /// buffer-manager accounting).
    pub comp_offset: u64,
    /// Compressed bytes touched (payload window + exceptions + header).
    pub comp_len: u64,
}

/// One column fragment rewritten as compressed chunks.
#[derive(Debug, Clone)]
pub struct CompressedColumn {
    format: ChunkFormat,
    physical: ScalarType,
    rows: usize,
    chunks: Vec<CompressedChunk>,
    /// Byte offset of each chunk in the compressed stream.
    chunk_offsets: Vec<u64>,
    dict: Option<PdictValues>,
    dict_lane: u32,
    raw_bytes: u64,
    compressed_bytes: u64,
}

impl CompressedColumn {
    /// The chooser's format verdict for this column.
    pub fn format(&self) -> ChunkFormat {
        self.format
    }

    /// The physical scalar type the chunks decode to.
    pub fn physical_type(&self) -> ScalarType {
        self.physical
    }

    /// Rows covered (the whole fragment at checkpoint time).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Uncompressed fragment size in bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Compressed size in bytes (headers + payloads + dictionary).
    pub fn compressed_bytes(&self) -> u64 {
        self.compressed_bytes
    }

    /// Compressed size as a percentage of raw (lower = better).
    pub fn ratio_pct(&self) -> u64 {
        (self.compressed_bytes * 100)
            .checked_div(self.raw_bytes)
            .unwrap_or(100)
    }

    /// The registered decompress-primitive signature the scan must run
    /// to expand this column — `engine::check` verifies it against the
    /// primitive registry like any other compiled instruction.
    pub fn decode_sig(&self) -> &'static str {
        macro_rules! sig {
            ($codec:literal) => {
                match self.physical {
                    ScalarType::I8 => concat!("decompress_", $codec, "_i8_col"),
                    ScalarType::I16 => concat!("decompress_", $codec, "_i16_col"),
                    ScalarType::I32 => concat!("decompress_", $codec, "_i32_col"),
                    ScalarType::I64 => concat!("decompress_", $codec, "_i64_col"),
                    ScalarType::U8 => concat!("decompress_", $codec, "_u8_col"),
                    ScalarType::U16 => concat!("decompress_", $codec, "_u16_col"),
                    ScalarType::U32 => concat!("decompress_", $codec, "_u32_col"),
                    ScalarType::U64 => concat!("decompress_", $codec, "_u64_col"),
                    ScalarType::F64 => concat!("decompress_", $codec, "_f64_col"),
                    ScalarType::Str => concat!("decompress_", $codec, "_str_col"),
                    ScalarType::Bool => unreachable!("Bool is not a storage type"),
                }
            };
        }
        match self.format {
            ChunkFormat::Raw => "raw",
            ChunkFormat::Pfor => sig!("pfor"),
            ChunkFormat::PforDelta => sig!("pfordelta"),
            ChunkFormat::Pdict => sig!("pdict"),
        }
    }

    /// Serialize the whole column to a self-describing byte stream:
    /// a column preamble (format, physical type, rows, dictionary)
    /// followed by every chunk as `header.encode()` + body blocks in
    /// the order the chunk checksum folds them. The per-chunk checksums
    /// travel inside the headers, so a torn byte anywhere in a body is
    /// caught by [`CompressedColumn::decode_range`] after
    /// [`CompressedColumn::from_bytes`] — exactly the guarantee spill
    /// runs need when they cross a (faultable) disk boundary.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(self.compressed_bytes as usize + 64);
        b.extend_from_slice(b"XCPC");
        b.push(1); // version
        b.push(match self.format {
            ChunkFormat::Raw => 0,
            ChunkFormat::Pfor => 1,
            ChunkFormat::PforDelta => 2,
            ChunkFormat::Pdict => 3,
        });
        b.push(scalar_tag(self.physical));
        b.push(match &self.dict {
            None => 0,
            Some(PdictValues::I32(_)) => 1,
            Some(PdictValues::I64(_)) => 2,
            Some(PdictValues::F64(_)) => 3,
            Some(PdictValues::Str(_)) => 4,
        });
        b.extend_from_slice(&(self.rows as u64).to_le_bytes());
        b.extend_from_slice(&self.raw_bytes.to_le_bytes());
        b.extend_from_slice(&self.dict_lane.to_le_bytes());
        b.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        match &self.dict {
            None => {}
            Some(PdictValues::I32(v)) => {
                b.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    b.extend_from_slice(&x.to_le_bytes());
                }
            }
            Some(PdictValues::I64(v)) => {
                b.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    b.extend_from_slice(&x.to_le_bytes());
                }
            }
            Some(PdictValues::F64(v)) => {
                b.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for x in v {
                    b.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            Some(PdictValues::Str(v)) => {
                b.extend_from_slice(&(v.len() as u32).to_le_bytes());
                for s in v.iter() {
                    b.extend_from_slice(&(s.len() as u32).to_le_bytes());
                    b.extend_from_slice(s.as_bytes());
                }
            }
        }
        for c in &self.chunks {
            b.extend_from_slice(&c.header.encode());
            match &c.body {
                ChunkBody::Pfor(p) => {
                    b.extend_from_slice(&p.payload);
                    for &x in &p.exc_pos {
                        b.extend_from_slice(&x.to_le_bytes());
                    }
                    for &x in &p.exc_frames {
                        b.extend_from_slice(&x.to_le_bytes());
                    }
                }
                ChunkBody::PforDelta(p) => {
                    b.extend_from_slice(&p.payload);
                    for &x in &p.sync {
                        b.extend_from_slice(&x.to_le_bytes());
                    }
                    for &x in &p.exc_pos {
                        b.extend_from_slice(&x.to_le_bytes());
                    }
                    for &x in &p.exc_frames {
                        b.extend_from_slice(&x.to_le_bytes());
                    }
                }
                ChunkBody::Pdict(p) => b.extend_from_slice(p),
            }
        }
        b
    }

    /// Rebuild a column serialized by [`CompressedColumn::to_bytes`].
    /// Structural damage (bad magic, truncation, impossible counts)
    /// fails here; payload corruption inside a chunk body is deferred
    /// to the per-chunk checksum on the first `decode_range` touch.
    pub fn from_bytes(b: &[u8]) -> Result<CompressedColumn, String> {
        let mut r = ByteReader { b, at: 0 };
        if r.take(4)? != b"XCPC" {
            return Err("bad compressed-column magic".into());
        }
        let version = r.u8()?;
        if version != 1 {
            return Err(format!("unknown compressed-column version {version}"));
        }
        let format = match r.u8()? {
            0 => ChunkFormat::Raw,
            1 => ChunkFormat::Pfor,
            2 => ChunkFormat::PforDelta,
            3 => ChunkFormat::Pdict,
            t => return Err(format!("unknown column format tag {t}")),
        };
        let physical = scalar_from_tag(r.u8()?)?;
        let dict_tag = r.u8()?;
        let rows = r.u64()? as usize;
        let raw_bytes = r.u64()?;
        let dict_lane = r.u32()?;
        let n_chunks = r.u32()? as usize;
        let dict = match dict_tag {
            0 => None,
            1 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.u32()? as i32);
                }
                Some(PdictValues::I32(v))
            }
            2 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(r.u64()? as i64);
                }
                Some(PdictValues::I64(v))
            }
            3 => {
                let n = r.u32()? as usize;
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(f64::from_bits(r.u64()?));
                }
                Some(PdictValues::F64(v))
            }
            4 => {
                let n = r.u32()? as usize;
                let mut v = StrVec::new();
                for _ in 0..n {
                    let len = r.u32()? as usize;
                    let s = std::str::from_utf8(r.take(len)?)
                        .map_err(|_| "non-UTF-8 dictionary entry".to_string())?;
                    v.push(s);
                }
                Some(PdictValues::Str(v))
            }
            t => return Err(format!("unknown dictionary tag {t}")),
        };
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut covered = 0usize;
        for _ in 0..n_chunks {
            let mut hb = [0u8; HEADER_BYTES];
            hb.copy_from_slice(r.take(HEADER_BYTES)?);
            let header = ChunkHeader::decode(&hb)?;
            let payload = r.take(header.payload_bytes as usize)?.to_vec();
            let body = match header.format {
                ChunkFormat::Raw => return Err("raw tag inside compressed chunk".into()),
                ChunkFormat::Pfor => {
                    let (exc_pos, exc_frames) = r.exceptions(header.exceptions as usize)?;
                    ChunkBody::Pfor(k::PforChunk {
                        lane: header.lane as u32,
                        base: header.base,
                        scale: header.scale,
                        payload,
                        exc_pos,
                        exc_frames,
                    })
                }
                ChunkFormat::PforDelta => {
                    let mut sync = Vec::with_capacity(header.sync_points as usize);
                    for _ in 0..header.sync_points {
                        sync.push(r.u64()?);
                    }
                    let (exc_pos, exc_frames) = r.exceptions(header.exceptions as usize)?;
                    ChunkBody::PforDelta(k::PforDeltaChunk {
                        lane: header.lane as u32,
                        base: header.base,
                        payload,
                        sync,
                        exc_pos,
                        exc_frames,
                    })
                }
                ChunkFormat::Pdict => ChunkBody::Pdict(payload),
            };
            covered += header.rows as usize;
            chunks.push(CompressedChunk { header, body });
        }
        if covered != rows {
            return Err(format!("chunk rows {covered} != column rows {rows}"));
        }
        let mut chunk_offsets = Vec::with_capacity(chunks.len());
        let mut off = 0u64;
        for c in &chunks {
            chunk_offsets.push(off);
            off += c.byte_size() as u64;
        }
        let compressed_bytes = off + dict.as_ref().map_or(0, |d| d.byte_size() as u64);
        Ok(CompressedColumn {
            format,
            physical,
            rows,
            chunks,
            chunk_offsets,
            dict,
            dict_lane,
            raw_bytes,
            compressed_bytes,
        })
    }

    /// Decompress rows `[start, start + rows)` into `out` (cleared and
    /// refilled, mirroring `ColumnData::read_into`). `cursor` carries
    /// sequential decode state between refills; `scratch` is the reused
    /// frame buffer the governor charges. Fails (typed upstream as
    /// `Io`) when a chunk's stored checksum no longer matches its body.
    pub fn decode_range(
        &self,
        start: usize,
        rows: usize,
        out: &mut Vector,
        cursor: &mut DecodeCursor,
        scratch: &mut Vec<u64>,
    ) -> Result<DecodeStats, String> {
        assert!(start + rows <= self.rows, "decode_range beyond fragment");
        let mut stats = DecodeStats {
            comp_offset: u64::MAX,
            ..DecodeStats::default()
        };
        if self.physical == ScalarType::Str {
            out.clear();
        } else {
            // Every numeric position is overwritten by the dense decode
            // below, so only growth needs the zero fill — resizing in
            // place (instead of clear + refill) skips one full store
            // pass per refill once the vector reaches steady state.
            out.resize_zeroed(rows);
        }
        let mut done = 0usize;
        while done < rows {
            let abs = start + done;
            let ci = abs / CHUNK_ROWS;
            let chunk = &self.chunks[ci];
            let local = abs - ci * CHUNK_ROWS;
            let n = rows - done;
            let n = n.min(chunk.header.rows as usize - local);
            self.decode_chunk(ci, local, n, done, out, cursor, scratch, &mut stats)?;
            done += n;
        }
        if stats.comp_offset == u64::MAX {
            stats.comp_offset = 0;
        }
        Ok(stats)
    }

    /// Decode `n` rows of chunk `ci` starting at chunk-local `local`
    /// into `out` at position `at`.
    #[allow(clippy::too_many_arguments)]
    fn decode_chunk(
        &self,
        ci: usize,
        local: usize,
        n: usize,
        at: usize,
        out: &mut Vector,
        cursor: &mut DecodeCursor,
        scratch: &mut Vec<u64>,
        stats: &mut DecodeStats,
    ) -> Result<(), String> {
        if cursor.verified != Some(ci) {
            self.verify_chunk(ci)?;
            cursor.verified = Some(ci);
        }
        let chunk = &self.chunks[ci];
        let lane_bytes = (chunk.header.lane as u64) / 8;
        let mut touched = HEADER_BYTES as u64 + n as u64 * lane_bytes;
        match &chunk.body {
            ChunkBody::Pfor(c) => {
                let exc = window_exceptions(&c.exc_pos, local, n);
                touched += exc * 12;
                stats.exceptions += exc;
                macro_rules! arm {
                    ($($variant:ident => $dec:path),+ $(,)?) => {
                        match out {
                            $(Vector::$variant(dst) => $dec(&mut dst[at..at + n], c, local, scratch),)+
                            other => panic!("pfor decode into {:?}", other.scalar_type()),
                        }
                    };
                }
                arm! {
                    I8 => k::decompress_pfor_i8_col,
                    I16 => k::decompress_pfor_i16_col,
                    I32 => k::decompress_pfor_i32_col,
                    I64 => k::decompress_pfor_i64_col,
                    U8 => k::decompress_pfor_u8_col,
                    U16 => k::decompress_pfor_u16_col,
                    U32 => k::decompress_pfor_u32_col,
                    U64 => k::decompress_pfor_u64_col,
                    F64 => k::decompress_pfor_f64_col,
                }
            }
            ChunkBody::PforDelta(c) => {
                // Sequential refills continue from the cursor carry; any
                // other entry replays from the preceding sync carry.
                let abs = ci * CHUNK_ROWS + local;
                let (seek, carry) = if cursor.chunk == ci && cursor.next_row == abs && abs != 0 {
                    (local, cursor.carry)
                } else {
                    let sk = local / k::DELTA_SYNC;
                    (sk * k::DELTA_SYNC, c.sync[sk])
                };
                let exc = window_exceptions(&c.exc_pos, seek, local + n - seek);
                touched += exc * 12 + (local - seek) as u64 * lane_bytes + 8;
                stats.exceptions += exc;
                macro_rules! arm {
                    ($($variant:ident => $dec:path),+ $(,)?) => {
                        match out {
                            $(Vector::$variant(dst) => {
                                $dec(&mut dst[at..at + n], c, seek, carry, local, scratch)
                            })+
                            other => panic!("pfordelta decode into {:?}", other.scalar_type()),
                        }
                    };
                }
                let new_carry = arm! {
                    I8 => k::decompress_pfordelta_i8_col,
                    I16 => k::decompress_pfordelta_i16_col,
                    I32 => k::decompress_pfordelta_i32_col,
                    I64 => k::decompress_pfordelta_i64_col,
                    U8 => k::decompress_pfordelta_u8_col,
                    U16 => k::decompress_pfordelta_u16_col,
                    U32 => k::decompress_pfordelta_u32_col,
                    U64 => k::decompress_pfordelta_u64_col,
                };
                cursor.chunk = ci;
                cursor.next_row = abs + n;
                cursor.carry = new_carry;
            }
            ChunkBody::Pdict(payload) => {
                let dict = self.dict.as_ref().expect("pdict column has a dictionary");
                let lane = self.dict_lane;
                match (out, dict) {
                    (Vector::I32(dst), PdictValues::I32(d)) => k::decompress_pdict_i32_col(
                        &mut dst[at..at + n],
                        payload,
                        lane,
                        local,
                        d,
                        scratch,
                    ),
                    (Vector::I64(dst), PdictValues::I64(d)) => k::decompress_pdict_i64_col(
                        &mut dst[at..at + n],
                        payload,
                        lane,
                        local,
                        d,
                        scratch,
                    ),
                    (Vector::F64(dst), PdictValues::F64(d)) => k::decompress_pdict_f64_col(
                        &mut dst[at..at + n],
                        payload,
                        lane,
                        local,
                        d,
                        scratch,
                    ),
                    (Vector::Str(dst), PdictValues::Str(d)) => {
                        k::decompress_pdict_str_col(dst, payload, lane, local, n, d, scratch)
                    }
                    (o, _) => panic!("pdict decode into {:?}", o.scalar_type()),
                }
            }
        }
        let off = self.chunk_offsets[ci] + HEADER_BYTES as u64 + local as u64 * lane_bytes;
        stats.comp_offset = stats.comp_offset.min(off);
        stats.comp_len += touched;
        Ok(())
    }

    /// Recompute chunk `ci`'s body checksum and compare with the header
    /// copy. A mismatch means the chunk bytes were torn after the
    /// header was written — the scan surfaces it as a typed `Io` error
    /// and falls back to the retained raw fragment.
    pub fn verify_chunk(&self, ci: usize) -> Result<(), String> {
        let chunk = &self.chunks[ci];
        let got = chunk_checksum(&chunk.body);
        if got != chunk.header.checksum {
            return Err(format!(
                "chunk {ci} checksum mismatch: header 0x{:02x}, body 0x{got:02x} (torn write)",
                chunk.header.checksum
            ));
        }
        Ok(())
    }

    /// Verify every chunk's body checksum — the durable heal path runs
    /// this over a freshly parsed replica before trusting it, so a copy
    /// that was torn *before* it reached disk (file-level checksum
    /// intact, chunk-level wrong) is rejected rather than healed from.
    pub fn verify_all(&self) -> Result<(), String> {
        for ci in 0..self.chunks.len() {
            self.verify_chunk(ci)?;
        }
        Ok(())
    }

    /// Flip one payload byte of chunk `ci` *without* touching the
    /// header checksum — a torn write: the write "succeeded", the bytes
    /// are wrong, and only checksum verification can tell. Fault
    /// injection and tests only. Returns `false` when the chunk has no
    /// payload byte at `at` (e.g. a constant lane-0 chunk).
    pub fn corrupt_payload_byte(&mut self, ci: usize, at: usize) -> bool {
        let Some(chunk) = self.chunks.get_mut(ci) else {
            return false;
        };
        let payload = match &mut chunk.body {
            ChunkBody::Pfor(c) => &mut c.payload,
            ChunkBody::PforDelta(c) => &mut c.payload,
            ChunkBody::Pdict(p) => p,
        };
        match payload.get_mut(at) {
            Some(b) => {
                *b ^= 0x40;
                true
            }
            None => false,
        }
    }

    /// Compile `col ⟨op⟩ v` (or `col between v w`) into this column's
    /// encoded space. Returns `None` when no encoded-space kernel
    /// exists for the (format, type, op) triple — PFOR-DELTA columns
    /// (prefix sums), `ne` over PFOR frames, `between` over dictionary
    /// codes, or a constant whose type does not match the column — and
    /// the caller falls back to decode-then-select.
    ///
    /// For PDICT this is where the dictionary-predicate rewrite
    /// happens: the predicate is evaluated once over the sorted
    /// dictionary and collapsed into a code-set test
    /// ([`k::DictSel`]), so per-vector evaluation never touches the
    /// dictionary values again — string predicates in particular never
    /// materialize a `StrVec` until output.
    pub fn compile_pushdown(&self, op: PushOp, v: &Value, w: Option<&Value>) -> Option<Pushdown> {
        if v.scalar_type() != self.physical {
            return None;
        }
        if op == PushOp::Between {
            match w {
                Some(w) if w.scalar_type() == self.physical => {}
                _ => return None,
            }
        } else if w.is_some() {
            return None;
        }
        let opn = op.name();
        let ty = ty_name(self.physical);
        match self.format {
            ChunkFormat::Pfor => {
                if op == PushOp::Ne || self.physical == ScalarType::Str {
                    return None;
                }
                let sig = if op == PushOp::Between {
                    format!("cmp_pfor_between_{ty}_col_val_val")
                } else {
                    format!("cmp_pfor_{opn}_{ty}_col_val")
                };
                Some(Pushdown {
                    op,
                    lo: v.clone(),
                    hi: w.cloned(),
                    dict: None,
                    sig,
                })
            }
            ChunkFormat::Pdict => {
                if op == PushOp::Between {
                    return None;
                }
                let dict = self.dict_predicate(op, v)?;
                Some(Pushdown {
                    op,
                    lo: v.clone(),
                    hi: None,
                    dict: Some(dict),
                    sig: format!("cmp_pdict_{opn}_{ty}_col_val"),
                })
            }
            ChunkFormat::Raw | ChunkFormat::PforDelta => None,
        }
    }

    /// The dictionary-predicate rewrite: evaluate `op v` over every
    /// dictionary entry once and collapse the result.
    fn dict_predicate(&self, op: PushOp, v: &Value) -> Option<k::DictSel> {
        let dict = self.dict.as_ref()?;
        macro_rules! pred {
            ($d:expr, $x:expr) => {
                match op {
                    PushOp::Eq => $d == $x,
                    PushOp::Ne => $d != $x,
                    PushOp::Lt => $d < $x,
                    PushOp::Le => $d <= $x,
                    PushOp::Gt => $d > $x,
                    PushOp::Ge => $d >= $x,
                    PushOp::Between => false,
                }
            };
        }
        match (dict, v) {
            (PdictValues::I32(d), Value::I32(x)) => {
                Some(k::DictSel::from_pred(d.len(), |c| pred!(d[c], *x)))
            }
            (PdictValues::I64(d), Value::I64(x)) => {
                Some(k::DictSel::from_pred(d.len(), |c| pred!(d[c], *x)))
            }
            (PdictValues::F64(d), Value::F64(x)) => {
                Some(k::DictSel::from_pred(d.len(), |c| pred!(d[c], *x)))
            }
            (PdictValues::Str(d), Value::Str(x)) => Some(k::DictSel::from_pred(d.len(), |c| {
                pred!(d.get(c), x.as_str())
            })),
            _ => None,
        }
    }

    /// Evaluate a compiled pushdown over rows `[start, start + rows)`
    /// entirely in encoded space: appends the *window-relative*
    /// ascending positions (0 = row `start`) of qualifying rows to
    /// `out` without decoding a single value. `_tmp` is kept for
    /// call-site symmetry with `decode_positions`; `cursor` shares
    /// checksum-verification state with `decode_range` /
    /// `decode_positions`.
    pub fn select_range(
        &self,
        p: &Pushdown,
        start: usize,
        rows: usize,
        out: &mut Vec<u32>,
        _tmp: &mut Vec<u32>,
        cursor: &mut DecodeCursor,
    ) -> Result<(), String> {
        assert!(start + rows <= self.rows, "select_range beyond fragment");
        let mut done = 0usize;
        while done < rows {
            let abs = start + done;
            let ci = abs / CHUNK_ROWS;
            let chunk = &self.chunks[ci];
            let local = abs - ci * CHUNK_ROWS;
            let n = (rows - done).min(chunk.header.rows as usize - local);
            if cursor.verified != Some(ci) {
                self.verify_chunk(ci)?;
                cursor.verified = Some(ci);
            }
            let before = out.len();
            match &chunk.body {
                ChunkBody::Pfor(c) => pfor_chunk_select(p, c, local, n, out),
                ChunkBody::Pdict(payload) => {
                    let sel = p.dict.as_ref().expect("pdict pushdown carries a rewrite");
                    k::pdict_select_codes(payload, self.dict_lane, local, n, sel, out);
                }
                ChunkBody::PforDelta(_) => {
                    return Err("pushdown over PFOR-DELTA chunks is not supported".into());
                }
            }
            // Chunk-relative → window-relative, adjusted in place over
            // the freshly appended tail (no bounce buffer).
            let rebase = done as i64 - local as i64;
            if rebase != 0 {
                for pos in &mut out[before..] {
                    *pos = (*pos as i64 + rebase) as u32;
                }
            }
            done += n;
        }
        Ok(())
    }

    /// Gather-decode the rows at window-relative positions `sel`
    /// (ascending; 0 = row `start`) into `out`, compacted: `out[i]`
    /// becomes row `start + sel[i]`. This is the lazy-materialization
    /// half of a pushed-down selection — only surviving positions are
    /// ever decoded, everything else is skipped while still packed.
    pub fn decode_positions(
        &self,
        start: usize,
        sel: &[u32],
        out: &mut Vector,
        tmp: &mut Vec<u32>,
        cursor: &mut DecodeCursor,
    ) -> Result<DecodeStats, String> {
        let mut stats = DecodeStats {
            comp_offset: u64::MAX,
            ..DecodeStats::default()
        };
        if self.physical == ScalarType::Str {
            out.clear();
        } else {
            out.resize_zeroed(sel.len());
        }
        let mut i = 0usize;
        while i < sel.len() {
            let ci = (start + sel[i] as usize) / CHUNK_ROWS;
            tmp.clear();
            let mut j = sel.len();
            if (start + sel[j - 1] as usize) / CHUNK_ROWS == ci {
                // Common case: the whole remaining selection lives in
                // one chunk — rebase it with a single vectorizable add
                // instead of dividing per position.
                let d = start as i64 - (ci * CHUNK_ROWS) as i64;
                tmp.extend(sel[i..].iter().map(|&p| (p as i64 + d) as u32));
            } else {
                j = i;
                while j < sel.len() {
                    let abs = start + sel[j] as usize;
                    if abs / CHUNK_ROWS != ci {
                        break;
                    }
                    tmp.push((abs - ci * CHUNK_ROWS) as u32);
                    j += 1;
                }
            }
            if cursor.verified != Some(ci) {
                self.verify_chunk(ci)?;
                cursor.verified = Some(ci);
            }
            let chunk = &self.chunks[ci];
            match &chunk.body {
                ChunkBody::Pfor(c) => {
                    stats.exceptions += sel_exceptions(&c.exc_pos, tmp);
                    macro_rules! arm {
                        ($($variant:ident => $dec:path),+ $(,)?) => {
                            match &mut *out {
                                $(Vector::$variant(dst) => {
                                    $dec(&mut dst[i..i + tmp.len()], c, tmp)
                                })+
                                other => {
                                    return Err(format!(
                                        "pfor decode_sel into {:?}",
                                        other.scalar_type()
                                    ));
                                }
                            }
                        };
                    }
                    arm! {
                        I8 => k::decode_sel_pfor_i8_col,
                        I16 => k::decode_sel_pfor_i16_col,
                        I32 => k::decode_sel_pfor_i32_col,
                        I64 => k::decode_sel_pfor_i64_col,
                        U8 => k::decode_sel_pfor_u8_col,
                        U16 => k::decode_sel_pfor_u16_col,
                        U32 => k::decode_sel_pfor_u32_col,
                        U64 => k::decode_sel_pfor_u64_col,
                        F64 => k::decode_sel_pfor_f64_col,
                    }
                }
                ChunkBody::Pdict(payload) => {
                    let dict = self.dict.as_ref().expect("pdict column has a dictionary");
                    let lane = self.dict_lane;
                    match (&mut *out, dict) {
                        (Vector::I32(dst), PdictValues::I32(d)) => k::decode_sel_pdict_i32_col(
                            &mut dst[i..i + tmp.len()],
                            payload,
                            lane,
                            d,
                            tmp,
                        ),
                        (Vector::I64(dst), PdictValues::I64(d)) => k::decode_sel_pdict_i64_col(
                            &mut dst[i..i + tmp.len()],
                            payload,
                            lane,
                            d,
                            tmp,
                        ),
                        (Vector::F64(dst), PdictValues::F64(d)) => k::decode_sel_pdict_f64_col(
                            &mut dst[i..i + tmp.len()],
                            payload,
                            lane,
                            d,
                            tmp,
                        ),
                        (Vector::Str(dst), PdictValues::Str(d)) => {
                            k::decode_sel_pdict_str_col(dst, payload, lane, d, tmp)
                        }
                        (o, _) => {
                            return Err(format!("pdict decode_sel into {:?}", o.scalar_type()));
                        }
                    }
                }
                ChunkBody::PforDelta(_) => {
                    return Err("no selective decode over PFOR-DELTA chunks (prefix sums)".into());
                }
            }
            let lane_bytes = (chunk.header.lane as u64) / 8;
            stats.comp_len += HEADER_BYTES as u64 + tmp.len() as u64 * lane_bytes;
            stats.comp_offset = stats.comp_offset.min(self.chunk_offsets[ci]);
            i = j;
        }
        if stats.comp_offset == u64::MAX {
            stats.comp_offset = 0;
        }
        Ok(stats)
    }

    /// Positional gather through the codec: decode row `rowids[i]`
    /// (any order, duplicates allowed) into `out[i]`. Ascending
    /// same-chunk runs batch through the `decode_sel` kernels;
    /// PFOR-DELTA runs replay from the nearest sync carry — the
    /// sync-point seek path that join-index position reads ride.
    /// `cursor` only carries checksum-verification state here.
    pub fn gather(
        &self,
        rowids: &[u32],
        out: &mut Vector,
        scratch: &mut Vec<u64>,
        tmp: &mut Vec<u32>,
        cursor: &mut DecodeCursor,
    ) -> Result<(), String> {
        if self.physical == ScalarType::Str {
            out.clear();
        } else {
            out.resize_zeroed(rowids.len());
        }
        let mut i = 0usize;
        while i < rowids.len() {
            let ci = rowids[i] as usize / CHUNK_ROWS;
            let is_delta = matches!(self.chunks[ci].body, ChunkBody::PforDelta(_));
            tmp.clear();
            tmp.push((rowids[i] as usize - ci * CHUNK_ROWS) as u32);
            let mut j = i + 1;
            while j < rowids.len() {
                let abs = rowids[j] as usize;
                if abs / CHUNK_ROWS != ci || abs <= rowids[j - 1] as usize {
                    break;
                }
                // Bound the replay span so the delta scratch stays
                // cache-resident even for scattered rowids.
                if is_delta && abs - rowids[i] as usize >= 8192 {
                    break;
                }
                tmp.push((abs - ci * CHUNK_ROWS) as u32);
                j += 1;
            }
            if cursor.verified != Some(ci) {
                self.verify_chunk(ci)?;
                cursor.verified = Some(ci);
            }
            let chunk = &self.chunks[ci];
            match &chunk.body {
                ChunkBody::Pfor(c) => {
                    macro_rules! arm {
                        ($($variant:ident => $dec:path),+ $(,)?) => {
                            match &mut *out {
                                $(Vector::$variant(dst) => {
                                    $dec(&mut dst[i..i + tmp.len()], c, tmp)
                                })+
                                other => {
                                    return Err(format!(
                                        "pfor gather into {:?}",
                                        other.scalar_type()
                                    ));
                                }
                            }
                        };
                    }
                    arm! {
                        I8 => k::decode_sel_pfor_i8_col,
                        I16 => k::decode_sel_pfor_i16_col,
                        I32 => k::decode_sel_pfor_i32_col,
                        I64 => k::decode_sel_pfor_i64_col,
                        U8 => k::decode_sel_pfor_u8_col,
                        U16 => k::decode_sel_pfor_u16_col,
                        U32 => k::decode_sel_pfor_u32_col,
                        U64 => k::decode_sel_pfor_u64_col,
                        F64 => k::decode_sel_pfor_f64_col,
                    }
                }
                ChunkBody::PforDelta(c) => {
                    // Seek: replay packed deltas from the sync carry
                    // preceding the run, then pick the selected rows.
                    let first = tmp[0] as usize;
                    let last = tmp[tmp.len() - 1] as usize;
                    let sk = first / k::DELTA_SYNC;
                    let seek = sk * k::DELTA_SYNC;
                    let carry = c.sync[sk];
                    let span = last - first + 1;
                    macro_rules! arm {
                        ($($variant:ident : $t:ty => $dec:path),+ $(,)?) => {
                            match &mut *out {
                                $(Vector::$variant(dst) => {
                                    let mut buf: Vec<$t> = vec![0 as $t; span];
                                    let _ = $dec(&mut buf, c, seek, carry, first, scratch);
                                    for (o, &p) in
                                        dst[i..i + tmp.len()].iter_mut().zip(tmp.iter())
                                    {
                                        *o = buf[p as usize - first];
                                    }
                                })+
                                other => {
                                    return Err(format!(
                                        "pfordelta gather into {:?}",
                                        other.scalar_type()
                                    ));
                                }
                            }
                        };
                    }
                    arm! {
                        I8: i8 => k::decompress_pfordelta_i8_col,
                        I16: i16 => k::decompress_pfordelta_i16_col,
                        I32: i32 => k::decompress_pfordelta_i32_col,
                        I64: i64 => k::decompress_pfordelta_i64_col,
                        U8: u8 => k::decompress_pfordelta_u8_col,
                        U16: u16 => k::decompress_pfordelta_u16_col,
                        U32: u32 => k::decompress_pfordelta_u32_col,
                        U64: u64 => k::decompress_pfordelta_u64_col,
                    }
                }
                ChunkBody::Pdict(payload) => {
                    let dict = self.dict.as_ref().expect("pdict column has a dictionary");
                    let lane = self.dict_lane;
                    match (&mut *out, dict) {
                        (Vector::I32(dst), PdictValues::I32(d)) => k::decode_sel_pdict_i32_col(
                            &mut dst[i..i + tmp.len()],
                            payload,
                            lane,
                            d,
                            tmp,
                        ),
                        (Vector::I64(dst), PdictValues::I64(d)) => k::decode_sel_pdict_i64_col(
                            &mut dst[i..i + tmp.len()],
                            payload,
                            lane,
                            d,
                            tmp,
                        ),
                        (Vector::F64(dst), PdictValues::F64(d)) => k::decode_sel_pdict_f64_col(
                            &mut dst[i..i + tmp.len()],
                            payload,
                            lane,
                            d,
                            tmp,
                        ),
                        (Vector::Str(dst), PdictValues::Str(d)) => {
                            k::decode_sel_pdict_str_col(dst, payload, lane, d, tmp)
                        }
                        (o, _) => {
                            return Err(format!("pdict gather into {:?}", o.scalar_type()));
                        }
                    }
                }
            }
            i += tmp.len();
        }
        Ok(())
    }

    /// The registered gather-decode signature the lazy materialization
    /// runs (`decode_sel_*`), or `None` for formats without one.
    pub fn decode_sel_sig(&self) -> Option<&'static str> {
        macro_rules! sig {
            ($codec:literal, $($t:ident => $n:literal),+ $(,)?) => {
                match self.physical {
                    $(ScalarType::$t => Some(concat!("decode_sel_", $codec, "_", $n, "_col")),)+
                    _ => None,
                }
            };
        }
        match self.format {
            ChunkFormat::Pfor => sig!(
                "pfor",
                I8 => "i8", I16 => "i16", I32 => "i32", I64 => "i64",
                U8 => "u8", U16 => "u16", U32 => "u32", U64 => "u64",
                F64 => "f64",
            ),
            ChunkFormat::Pdict => sig!(
                "pdict",
                I32 => "i32", I64 => "i64", F64 => "f64", Str => "str",
            ),
            ChunkFormat::Raw | ChunkFormat::PforDelta => None,
        }
    }
}

/// Comparison operator of a pushed-down predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Between,
}

impl PushOp {
    /// Lowercase signature fragment (`eq`, `lt`, …).
    pub fn name(self) -> &'static str {
        match self {
            PushOp::Eq => "eq",
            PushOp::Ne => "ne",
            PushOp::Lt => "lt",
            PushOp::Le => "le",
            PushOp::Gt => "gt",
            PushOp::Ge => "ge",
            PushOp::Between => "between",
        }
    }
}

/// One predicate compiled into a compressed column's encoded space.
/// For PFOR the constant is re-translated per chunk (base and scale are
/// per-chunk properties); for PDICT the dictionary was already
/// evaluated at compile time and collapsed into a code-set test.
#[derive(Debug, Clone)]
pub struct Pushdown {
    op: PushOp,
    lo: Value,
    hi: Option<Value>,
    dict: Option<k::DictSel>,
    sig: String,
}

impl Pushdown {
    /// The registered compare-primitive signature this pushdown runs —
    /// `engine::check` verifies it like any compiled instruction.
    pub fn sig(&self) -> &str {
        &self.sig
    }

    /// True when this pushdown is a dictionary-predicate rewrite.
    pub fn is_dict_rewrite(&self) -> bool {
        self.dict.is_some()
    }

    /// The comparison this pushdown evaluates.
    pub fn op(&self) -> PushOp {
        self.op
    }

    /// The (lower) comparison constant, in value space.
    pub fn lo(&self) -> &Value {
        &self.lo
    }

    /// The upper bound of a `Between`, in value space.
    pub fn hi(&self) -> Option<&Value> {
        self.hi.as_ref()
    }
}

/// Per-chunk PFOR dispatch: translate the typed constant into this
/// chunk's encoded space and walk the packed lanes.
fn pfor_chunk_select(p: &Pushdown, c: &k::PforChunk, local: usize, n: usize, out: &mut Vec<u32>) {
    macro_rules! ops {
        ($variant:ident, $v:expr, $eq:path, $lt:path, $le:path, $gt:path, $ge:path, $bt:path) => {
            match p.op {
                PushOp::Eq => $eq(c, local, n, $v, out),
                PushOp::Lt => $lt(c, local, n, $v, out),
                PushOp::Le => $le(c, local, n, $v, out),
                PushOp::Gt => $gt(c, local, n, $v, out),
                PushOp::Ge => $ge(c, local, n, $v, out),
                PushOp::Between => match &p.hi {
                    Some(Value::$variant(w)) => $bt(c, local, n, $v, *w, out),
                    other => unreachable!("between upper bound {other:?}"),
                },
                PushOp::Ne => unreachable!("ne is not a PFOR pushdown"),
            }
        };
    }
    match &p.lo {
        Value::I8(v) => ops!(
            I8,
            *v,
            k::cmp_pfor_eq_i8_col_val,
            k::cmp_pfor_lt_i8_col_val,
            k::cmp_pfor_le_i8_col_val,
            k::cmp_pfor_gt_i8_col_val,
            k::cmp_pfor_ge_i8_col_val,
            k::cmp_pfor_between_i8_col_val_val
        ),
        Value::I16(v) => ops!(
            I16,
            *v,
            k::cmp_pfor_eq_i16_col_val,
            k::cmp_pfor_lt_i16_col_val,
            k::cmp_pfor_le_i16_col_val,
            k::cmp_pfor_gt_i16_col_val,
            k::cmp_pfor_ge_i16_col_val,
            k::cmp_pfor_between_i16_col_val_val
        ),
        Value::I32(v) => ops!(
            I32,
            *v,
            k::cmp_pfor_eq_i32_col_val,
            k::cmp_pfor_lt_i32_col_val,
            k::cmp_pfor_le_i32_col_val,
            k::cmp_pfor_gt_i32_col_val,
            k::cmp_pfor_ge_i32_col_val,
            k::cmp_pfor_between_i32_col_val_val
        ),
        Value::I64(v) => ops!(
            I64,
            *v,
            k::cmp_pfor_eq_i64_col_val,
            k::cmp_pfor_lt_i64_col_val,
            k::cmp_pfor_le_i64_col_val,
            k::cmp_pfor_gt_i64_col_val,
            k::cmp_pfor_ge_i64_col_val,
            k::cmp_pfor_between_i64_col_val_val
        ),
        Value::U8(v) => ops!(
            U8,
            *v,
            k::cmp_pfor_eq_u8_col_val,
            k::cmp_pfor_lt_u8_col_val,
            k::cmp_pfor_le_u8_col_val,
            k::cmp_pfor_gt_u8_col_val,
            k::cmp_pfor_ge_u8_col_val,
            k::cmp_pfor_between_u8_col_val_val
        ),
        Value::U16(v) => ops!(
            U16,
            *v,
            k::cmp_pfor_eq_u16_col_val,
            k::cmp_pfor_lt_u16_col_val,
            k::cmp_pfor_le_u16_col_val,
            k::cmp_pfor_gt_u16_col_val,
            k::cmp_pfor_ge_u16_col_val,
            k::cmp_pfor_between_u16_col_val_val
        ),
        Value::U32(v) => ops!(
            U32,
            *v,
            k::cmp_pfor_eq_u32_col_val,
            k::cmp_pfor_lt_u32_col_val,
            k::cmp_pfor_le_u32_col_val,
            k::cmp_pfor_gt_u32_col_val,
            k::cmp_pfor_ge_u32_col_val,
            k::cmp_pfor_between_u32_col_val_val
        ),
        Value::U64(v) => ops!(
            U64,
            *v,
            k::cmp_pfor_eq_u64_col_val,
            k::cmp_pfor_lt_u64_col_val,
            k::cmp_pfor_le_u64_col_val,
            k::cmp_pfor_gt_u64_col_val,
            k::cmp_pfor_ge_u64_col_val,
            k::cmp_pfor_between_u64_col_val_val
        ),
        Value::F64(v) => ops!(
            F64,
            *v,
            k::cmp_pfor_eq_f64_col_val,
            k::cmp_pfor_lt_f64_col_val,
            k::cmp_pfor_le_f64_col_val,
            k::cmp_pfor_gt_f64_col_val,
            k::cmp_pfor_ge_f64_col_val,
            k::cmp_pfor_between_f64_col_val_val
        ),
        other => unreachable!("pfor pushdown constant {other:?}"),
    }
}

/// Lowercase type name used in primitive signatures.
fn ty_name(t: ScalarType) -> &'static str {
    match t {
        ScalarType::I8 => "i8",
        ScalarType::I16 => "i16",
        ScalarType::I32 => "i32",
        ScalarType::I64 => "i64",
        ScalarType::U8 => "u8",
        ScalarType::U16 => "u16",
        ScalarType::U32 => "u32",
        ScalarType::U64 => "u64",
        ScalarType::F64 => "f64",
        ScalarType::Str => "str",
        ScalarType::Bool => "bool",
    }
}

/// 8-bit fold of a byte block (torn-write detector, not crypto).
///
/// Folds eight bytes per step instead of one: a rotate/xor over 64-bit
/// words with a byte-wise tail, reduced to 8 bits by xoring the lanes
/// together. The whole pipeline is *linear* over GF(2) — rotates and
/// xors never cancel an injected difference against the original data —
/// so a single flipped bit anywhere in the block always flips the
/// checksum, exactly the guarantee the torn-write fault plan exercises.
/// Verification runs once per chunk per cursor, ahead of every decode
/// path; the word-at-a-time fold keeps that fixed cost from dominating
/// selective decodes that only touch a handful of rows per chunk.
fn byte_fold(acc: u8, bytes: &[u8]) -> u8 {
    // Four independent rotate/xor accumulators hide the serial
    // dependency of a single fold chain; distinct rotations at the
    // merge keep the combination linear but lane-position-sensitive.
    let mut l = [acc as u64, 0u64, 0u64, 0u64];
    let mut blocks = bytes.chunks_exact(32);
    for blk in blocks.by_ref() {
        for (j, ch) in blk.chunks_exact(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(ch);
            l[j] = l[j].rotate_left(7) ^ u64::from_le_bytes(b);
        }
    }
    let mut w = l[0].rotate_left(31) ^ l[1].rotate_left(19) ^ l[2].rotate_left(9) ^ l[3];
    for &b in blocks.remainder() {
        w = w.rotate_left(7) ^ b as u64;
    }
    let f = w ^ (w >> 32);
    let f = f ^ (f >> 16);
    (f ^ (f >> 8)) as u8
}

/// 8-bit fold over one raw byte block — the chunk-checksum fold with
/// its standard seed, exposed so spill-run frames that store *raw*
/// (incompressible) column bytes get the same torn-byte detection as
/// compressed chunks.
pub fn fold_checksum(bytes: &[u8]) -> u8 {
    byte_fold(0xA5, bytes)
}

/// Stable on-disk tag of a physical scalar type (spill/serialize use).
pub(crate) fn scalar_tag(t: ScalarType) -> u8 {
    match t {
        ScalarType::I8 => 0,
        ScalarType::I16 => 1,
        ScalarType::I32 => 2,
        ScalarType::I64 => 3,
        ScalarType::U8 => 4,
        ScalarType::U16 => 5,
        ScalarType::U32 => 6,
        ScalarType::U64 => 7,
        ScalarType::F64 => 8,
        ScalarType::Str => 9,
        ScalarType::Bool => 10,
    }
}

pub(crate) fn scalar_from_tag(tag: u8) -> Result<ScalarType, String> {
    Ok(match tag {
        0 => ScalarType::I8,
        1 => ScalarType::I16,
        2 => ScalarType::I32,
        3 => ScalarType::I64,
        4 => ScalarType::U8,
        5 => ScalarType::U16,
        6 => ScalarType::U32,
        7 => ScalarType::U64,
        8 => ScalarType::F64,
        9 => ScalarType::Str,
        t => return Err(format!("unknown scalar tag {t}")),
    })
}

/// Bounds-checked little-endian reader over a serialized column.
pub(crate) struct ByteReader<'a> {
    pub(crate) b: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.at + n > self.b.len() {
            return Err(format!(
                "truncated column stream: need {} bytes at {}, have {}",
                n,
                self.at,
                self.b.len()
            ));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn exceptions(&mut self, n: usize) -> Result<(Vec<u32>, Vec<u64>), String> {
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            pos.push(self.u32()?);
        }
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            frames.push(self.u64()?);
        }
        Ok((pos, frames))
    }
}

fn pfor_checksum(c: &k::PforChunk) -> u8 {
    let mut a = byte_fold(0xA5, &c.payload);
    for &p in &c.exc_pos {
        a = byte_fold(a, &p.to_le_bytes());
    }
    for &f in &c.exc_frames {
        a = byte_fold(a, &f.to_le_bytes());
    }
    a
}

fn pfordelta_checksum(c: &k::PforDeltaChunk) -> u8 {
    let mut a = byte_fold(0xA5, &c.payload);
    for &p in &c.exc_pos {
        a = byte_fold(a, &p.to_le_bytes());
    }
    for &f in &c.exc_frames {
        a = byte_fold(a, &f.to_le_bytes());
    }
    for &s in &c.sync {
        a = byte_fold(a, &s.to_le_bytes());
    }
    a
}

/// The checksum stored in a chunk's header: an 8-bit fold over every
/// body block the decoder will touch.
fn chunk_checksum(body: &ChunkBody) -> u8 {
    match body {
        ChunkBody::Pfor(c) => pfor_checksum(c),
        ChunkBody::PforDelta(c) => pfordelta_checksum(c),
        ChunkBody::Pdict(p) => byte_fold(0xA5, p),
    }
}

/// Exact exception count among the gathered (ascending) positions.
/// Iterates the (few) exceptions inside the selection's span and
/// binary-searches each one, so the cost scales with the patch list,
/// not with the number of selected positions.
fn sel_exceptions(exc_pos: &[u32], sel: &[u32]) -> u64 {
    let (Some(&first), Some(&last)) = (sel.first(), sel.last()) else {
        return 0;
    };
    let lo = exc_pos.partition_point(|&p| p < first);
    let hi = exc_pos.partition_point(|&p| p <= last);
    exc_pos[lo..hi]
        .iter()
        .filter(|&&p| sel.binary_search(&p).is_ok())
        .count() as u64
}

/// Exceptions falling in `[start, start + n)` of a sorted patch list.
fn window_exceptions(exc_pos: &[u32], start: usize, n: usize) -> u64 {
    let lo = exc_pos.partition_point(|&p| (p as usize) < start);
    let hi = exc_pos.partition_point(|&p| (p as usize) < start + n);
    (hi - lo) as u64
}

/// Row range of chunk `ci` in a column of `rows` rows.
fn chunk_range(rows: usize, ci: usize) -> Range<usize> {
    ci * CHUNK_ROWS..((ci + 1) * CHUNK_ROWS).min(rows)
}

/// Leading chunks of a new fragment of `rows` rows that are identical
/// to those of an old fragment of `old_rows` rows, when the first
/// `same_rows` rows of both agree: every whole chunk inside the common
/// prefix, plus a partial last chunk only if nothing changed at all.
fn kept_chunks(same_rows: usize, old_rows: usize, rows: usize) -> usize {
    if same_rows == old_rows && old_rows == rows {
        rows.div_ceil(CHUNK_ROWS)
    } else {
        same_rows / CHUNK_ROWS
    }
}

/// Compress `data` in a specific format, or `None` when the format does
/// not apply to this column (wrong type, unsorted for PFOR-DELTA,
/// cardinality too high for PDICT). `Raw` always yields `None`.
pub fn compress_column_as(data: &ColumnData, format: ChunkFormat) -> Option<CompressedColumn> {
    if data.is_empty() {
        return None;
    }
    let n = data.len().div_ceil(CHUNK_ROWS);
    match format {
        ChunkFormat::Raw => None,
        ChunkFormat::Pfor | ChunkFormat::PforDelta => {
            let chunks = (0..n)
                .map(|ci| frame_chunk(data, format, ci))
                .collect::<Option<Vec<_>>>()?;
            Some(CompressedColumn::assemble(format, data, chunks, None))
        }
        ChunkFormat::Pdict => {
            let dict = pdict_values(data)?;
            let chunks = (0..n).map(|ci| pdict_chunk(data, &dict, ci)).collect();
            Some(CompressedColumn::assemble(format, data, chunks, Some(dict)))
        }
    }
}

impl CompressedColumn {
    /// Wrap encoded chunks (and the PDICT dictionary) as a column of
    /// `data`, computing the chunk offsets and byte accounting.
    fn assemble(
        format: ChunkFormat,
        data: &ColumnData,
        chunks: Vec<CompressedChunk>,
        dict: Option<PdictValues>,
    ) -> CompressedColumn {
        let mut chunk_offsets = Vec::with_capacity(chunks.len());
        let mut off = 0u64;
        for c in &chunks {
            chunk_offsets.push(off);
            off += c.byte_size() as u64;
        }
        let compressed_bytes = off + dict.as_ref().map_or(0, |d| d.byte_size() as u64);
        CompressedColumn {
            format,
            physical: data.scalar_type(),
            rows: data.len(),
            chunks,
            chunk_offsets,
            dict_lane: dict.as_ref().map_or(0, PdictValues::lane),
            dict,
            raw_bytes: data.byte_size() as u64,
            compressed_bytes,
        }
    }
}

/// The per-column format chooser: samples sort order and cardinality,
/// compresses with every applicable format, and keeps the smallest
/// result — unless even the winner saves less than 10% of the raw
/// bytes, in which case the column stays raw (`None`).
pub fn choose_and_compress(data: &ColumnData) -> Option<CompressedColumn> {
    sweep(data, is_sorted(data), &Prior::default()).compressed
}

/// What a chooser sweep learned about a fragment beyond its verdict.
/// A column keeps it so that the sweep after its next reorganization
/// encodes only the chunks that changed.
#[derive(Debug, Clone, Default)]
pub(crate) struct SweepMemo {
    /// Per-chunk encoded sizes (headers included) under each frame
    /// format that applied (PFOR, PFOR-DELTA). A PDICT chunk's size
    /// follows from its row count and lane, so PDICT needs none.
    frame_sizes: Vec<(ChunkFormat, Vec<u32>)>,
    /// Lower bound on the fragment's distinct values: exact when the
    /// PDICT dictionary fit its cap, else what the cardinality check
    /// saw before it stopped. `None` when PDICT does not apply.
    distinct: Option<usize>,
}

impl SweepMemo {
    fn frame_sizes(&self, format: ChunkFormat) -> Option<&[u32]> {
        self.frame_sizes
            .iter()
            .find(|(f, _)| *f == format)
            .map(|(_, s)| s.as_slice())
    }
}

/// The chooser's knowledge of the previous version of a fragment.
#[derive(Default)]
pub(crate) struct Prior<'a> {
    /// The memo of the sweep over the previous version.
    pub(crate) memo: Option<&'a SweepMemo>,
    /// The previous version's compressed chunks.
    pub(crate) old: Option<&'a CompressedColumn>,
    /// Rows of the previous version.
    pub(crate) old_rows: usize,
    /// Leading rows that are identical in both versions.
    pub(crate) same_rows: usize,
    /// Rows removed from the previous version: the distinct values can
    /// have dropped by at most this many.
    pub(crate) deleted: usize,
}

/// A chooser verdict and what the sweep learned on the way.
pub(crate) struct Sweep {
    /// The winner, or `None` to stay raw.
    pub(crate) compressed: Option<CompressedColumn>,
    pub(crate) memo: SweepMemo,
    /// Chunks encoded by this sweep, over all candidate formats.
    pub(crate) chunks_encoded: u64,
}

/// The best candidate so far: a frame format with the chunks it had to
/// encode (from chunk `first` on), or PDICT with its dictionary.
enum Candidate {
    Frames {
        format: ChunkFormat,
        first: usize,
        fresh: Vec<CompressedChunk>,
    },
    Pdict(PdictValues),
}

/// The format chooser, delta-aware. Reaches the verdict of a full sweep
/// (every applicable format's total size; the smallest wins, earlier
/// candidates on ties; raw unless it saves 10%) while encoding only
/// what `prior` cannot vouch for:
///
/// * frame formats (PFOR, PFOR-DELTA) encode each chunk on its own, so
///   the sizes of chunks in the unchanged prefix come from the memo or
///   the old chunks and only the suffix is encoded;
/// * PFOR-DELTA applies when `sorted` (the fragment's `ColumnStats`);
/// * PDICT depends on the whole column's dictionary. Its chunk sizes
///   follow from the lane, and the memo's distinct count bounds the new
///   one from below (`distinct_old − deleted`): past the cap, PDICT is
///   out without a pass. Otherwise the dictionary is rebuilt by an
///   early-exit distinct pass.
///
/// The winner reuses the old chunk bytes of the unchanged prefix when
/// the old column has the same format (and, for PDICT, dictionary) and
/// the chunk still passes its checksum, so the result is byte-identical
/// to [`compress_column_as`] over the whole fragment.
pub(crate) fn sweep(data: &ColumnData, sorted: bool, prior: &Prior<'_>) -> Sweep {
    let rows = data.len();
    let mut memo = SweepMemo::default();
    let mut encoded = 0u64;
    if rows == 0 {
        return Sweep {
            compressed: None,
            memo,
            chunks_encoded: 0,
        };
    }
    let n = rows.div_ceil(CHUNK_ROWS);
    let kept = kept_chunks(prior.same_rows, prior.old_rows, rows).min(n);
    // The old chunks of `format`, as far as they are unchanged.
    let old_of = |format: ChunkFormat| {
        prior
            .old
            .filter(|o| o.format == format)
            .map(|o| &o.chunks[..kept.min(o.chunks.len())])
    };
    let mut best: Option<(u64, Candidate)> = None;
    let mut consider = |total: u64, c: Candidate| {
        if !matches!(&best, Some((b, _)) if *b <= total) {
            best = Some((total, c));
        }
    };

    let mut frames = Vec::new();
    match data {
        ColumnData::Str(_) => {}
        ColumnData::F64(_) => frames.push(ChunkFormat::Pfor),
        _ => {
            frames.push(ChunkFormat::Pfor);
            if sorted {
                frames.push(ChunkFormat::PforDelta);
            }
        }
    }
    for format in frames {
        let mut sizes: Vec<u32> = prior
            .memo
            .and_then(|m| m.frame_sizes(format))
            .map(|s| s[..kept.min(s.len())].to_vec())
            .or_else(|| old_of(format).map(|cs| cs.iter().map(|c| c.byte_size() as u32).collect()))
            .unwrap_or_default();
        let first = sizes.len();
        let fresh: Vec<CompressedChunk> = (first..n)
            .map(|ci| frame_chunk(data, format, ci).expect("frame format applies to the type"))
            .collect();
        encoded += fresh.len() as u64;
        sizes.extend(fresh.iter().map(|c| c.byte_size() as u32));
        let total = sizes.iter().map(|&s| s as u64).sum();
        memo.frame_sizes.push((format, sizes));
        consider(
            total,
            Candidate::Frames {
                format,
                first,
                fresh,
            },
        );
    }

    if let Some(cap) = pdict_cap(data) {
        let bound = prior
            .memo
            .and_then(|m| m.distinct)
            .map(|d| d.saturating_sub(prior.deleted));
        if let Some(b) = bound.filter(|&b| b > cap) {
            memo.distinct = Some(b);
        } else if let Some(dict) = pdict_values(data) {
            memo.distinct = Some(dict.len());
            let code_bytes = dict.lane() as usize / 8;
            let chunks: usize = (0..n)
                .map(|ci| HEADER_BYTES + chunk_range(rows, ci).len() * code_bytes)
                .sum();
            consider((chunks + dict.byte_size()) as u64, Candidate::Pdict(dict));
        } else {
            memo.distinct = Some(cap + 1);
        }
    }

    // Fall back to raw unless compression saves at least 10%.
    let raw_bytes = data.byte_size() as u64;
    let winner = best.filter(|(total, _)| total * 10 <= raw_bytes * 9);
    let compressed = winner.map(|(_, cand)| {
        // Unchanged leading chunks keep their bytes while they verify.
        let reuse = |old: Option<&[CompressedChunk]>, ci: usize| {
            old.and_then(|cs| cs.get(ci))
                .filter(|c| chunk_checksum(&c.body) == c.header.checksum)
                .cloned()
        };
        let mut fill = |old: Option<&[CompressedChunk]>,
                        upto: usize,
                        encode: &dyn Fn(usize) -> CompressedChunk| {
            (0..upto)
                .map(|ci| {
                    reuse(old, ci).unwrap_or_else(|| {
                        encoded += 1;
                        encode(ci)
                    })
                })
                .collect::<Vec<_>>()
        };
        match cand {
            Candidate::Frames {
                format,
                first,
                fresh,
            } => {
                let mut chunks = fill(old_of(format), first, &|ci| {
                    frame_chunk(data, format, ci).expect("frame format applies to the type")
                });
                chunks.extend(fresh);
                CompressedColumn::assemble(format, data, chunks, None)
            }
            Candidate::Pdict(dict) => {
                let old = old_of(ChunkFormat::Pdict).filter(|_| {
                    prior
                        .old
                        .and_then(|o| o.dict.as_ref())
                        .is_some_and(|d| d.same_as(&dict))
                });
                let chunks = fill(old, n, &|ci| pdict_chunk(data, &dict, ci));
                CompressedColumn::assemble(ChunkFormat::Pdict, data, chunks, Some(dict))
            }
        }
    });
    Sweep {
        compressed,
        memo,
        chunks_encoded: encoded,
    }
}

fn is_sorted(data: &ColumnData) -> bool {
    match data {
        ColumnData::I8(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::I16(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::I32(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::I64(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U8(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U16(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U32(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::U64(v) => v.windows(2).all(|w| w[0] <= w[1]),
        ColumnData::F64(_) | ColumnData::Str(_) => false,
    }
}

fn pfor_header(format: ChunkFormat, rows: usize, c: &k::PforChunk) -> ChunkHeader {
    ChunkHeader {
        format,
        lane: c.lane as u8,
        checksum: pfor_checksum(c),
        rows: rows as u32,
        scale: c.scale,
        base: c.base,
        payload_bytes: c.payload.len() as u32,
        exceptions: c.exc_pos.len() as u32,
        sync_points: 0,
    }
}

/// Encode chunk `ci` of `data` as PFOR, or as PFOR-DELTA — where a
/// chunk that is not non-decreasing falls back to plain PFOR, its
/// header self-describing the switch. `None` when the format does not
/// apply to the type (strings; PFOR-DELTA over `f64`).
fn frame_chunk(data: &ColumnData, format: ChunkFormat, ci: usize) -> Option<CompressedChunk> {
    let r = chunk_range(data.len(), ci);
    fn pfor<T>(s: &[T], comp: fn(&[T]) -> k::PforChunk) -> CompressedChunk {
        let c = comp(s);
        CompressedChunk {
            header: pfor_header(ChunkFormat::Pfor, s.len(), &c),
            body: ChunkBody::Pfor(c),
        }
    }
    fn delta<T>(
        s: &[T],
        comp: fn(&[T]) -> Option<k::PforDeltaChunk>,
        fallback: fn(&[T]) -> k::PforChunk,
    ) -> CompressedChunk {
        match comp(s) {
            None => pfor(s, fallback),
            Some(c) => CompressedChunk {
                header: ChunkHeader {
                    format: ChunkFormat::PforDelta,
                    lane: c.lane as u8,
                    checksum: pfordelta_checksum(&c),
                    rows: s.len() as u32,
                    scale: 0,
                    base: c.base,
                    payload_bytes: c.payload.len() as u32,
                    exceptions: c.exc_pos.len() as u32,
                    sync_points: c.sync.len() as u32,
                },
                body: ChunkBody::PforDelta(c),
            },
        }
    }
    macro_rules! int {
        ($v:expr, $pfor:path, $delta:path) => {
            match format {
                ChunkFormat::PforDelta => delta(&$v[r], $delta, $pfor),
                _ => pfor(&$v[r], $pfor),
            }
        };
    }
    Some(match data {
        ColumnData::I8(v) => int!(v, k::compress_pfor_i8_col, k::compress_pfordelta_i8_col),
        ColumnData::I16(v) => int!(v, k::compress_pfor_i16_col, k::compress_pfordelta_i16_col),
        ColumnData::I32(v) => int!(v, k::compress_pfor_i32_col, k::compress_pfordelta_i32_col),
        ColumnData::I64(v) => int!(v, k::compress_pfor_i64_col, k::compress_pfordelta_i64_col),
        ColumnData::U8(v) => int!(v, k::compress_pfor_u8_col, k::compress_pfordelta_u8_col),
        ColumnData::U16(v) => int!(v, k::compress_pfor_u16_col, k::compress_pfordelta_u16_col),
        ColumnData::U32(v) => int!(v, k::compress_pfor_u32_col, k::compress_pfordelta_u32_col),
        ColumnData::U64(v) => int!(v, k::compress_pfor_u64_col, k::compress_pfordelta_u64_col),
        ColumnData::F64(v) if format == ChunkFormat::Pfor => pfor(&v[r], k::compress_pfor_f64_col),
        ColumnData::F64(_) | ColumnData::Str(_) => return None,
    })
}

/// Cardinality cap for PDICT on numeric columns: beyond this the
/// binary-search encode and the dictionary itself stop paying.
const PDICT_NUMERIC_CAP: usize = 4096;

/// Cardinality cap for PDICT on string columns (2-byte codes).
const PDICT_STR_CAP: usize = 65536;

/// PDICT's cardinality cap for `data`'s type, `None` where PDICT does
/// not apply.
fn pdict_cap(data: &ColumnData) -> Option<usize> {
    match data {
        ColumnData::I32(_) | ColumnData::I64(_) | ColumnData::F64(_) => Some(PDICT_NUMERIC_CAP),
        ColumnData::Str(_) => Some(PDICT_STR_CAP),
        _ => None,
    }
}

/// A multiply-rotate hasher for the chooser's distinct-value sets. The
/// keys are column values and the sets are dropped after one pass, so
/// SipHash's flooding resistance buys nothing here but costs time.
#[derive(Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in words.by_ref() {
            let mut b = [0u8; 8];
            b.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(b));
        }
        let rest = words.remainder();
        let mut b = [0u8; 8];
        b[..rest.len()].copy_from_slice(rest);
        self.write_u64(u64::from_le_bytes(b) ^ ((rest.len() as u64) << 59));
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(x as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// The distinct items (unordered), or `None` as soon as more than
/// `cap` of them turn up.
fn distinct_capped<T: Hash + Eq>(items: impl Iterator<Item = T>, cap: usize) -> Option<Vec<T>> {
    let mut seen: HashSet<T, BuildHasherDefault<FoldHasher>> = HashSet::default();
    for x in items {
        if seen.insert(x) && seen.len() > cap {
            return None;
        }
    }
    Some(seen.into_iter().collect())
}

/// The sorted PDICT dictionary of `data`, or `None` when PDICT does not
/// apply (type, or more distinct values than its cap). Floats are
/// distinct by bit pattern and ordered by `total_cmp`.
fn pdict_values(data: &ColumnData) -> Option<PdictValues> {
    let cap = pdict_cap(data)?;
    match data {
        ColumnData::I32(v) => {
            let mut d = distinct_capped(v.iter().copied(), cap)?;
            d.sort_unstable();
            Some(PdictValues::I32(d))
        }
        ColumnData::I64(v) => {
            let mut d = distinct_capped(v.iter().copied(), cap)?;
            d.sort_unstable();
            Some(PdictValues::I64(d))
        }
        ColumnData::F64(v) => {
            let bits = distinct_capped(v.iter().map(|x| x.to_bits()), cap)?;
            let mut d: Vec<f64> = bits.into_iter().map(f64::from_bits).collect();
            d.sort_unstable_by(|a, b| a.total_cmp(b));
            Some(PdictValues::F64(d))
        }
        ColumnData::Str(v) => {
            let mut d = distinct_capped((0..v.len()).map(|i| v.get(i)), cap)?;
            d.sort_unstable();
            Some(PdictValues::Str(d.into_iter().collect()))
        }
        _ => None,
    }
}

/// Encode chunk `ci` of `data` as PDICT codes into `dict`.
fn pdict_chunk(data: &ColumnData, dict: &PdictValues, ci: usize) -> CompressedChunk {
    let r = chunk_range(data.len(), ci);
    let rows = r.len();
    let lane = dict.lane();
    let payload = match (data, dict) {
        (ColumnData::I32(v), PdictValues::I32(d)) => k::compress_pdict_i32_col(&v[r], d, lane),
        (ColumnData::I64(v), PdictValues::I64(d)) => k::compress_pdict_i64_col(&v[r], d, lane),
        (ColumnData::F64(v), PdictValues::F64(d)) => k::compress_pdict_f64_col(&v[r], d, lane),
        (ColumnData::Str(v), PdictValues::Str(d)) => {
            let mut slice = StrVec::with_capacity(rows, 8);
            for i in r {
                slice.push(v.get(i));
            }
            k::compress_pdict_str_col(&slice, d, lane)
        }
        _ => None,
    }
    .expect("dict covers the column");
    CompressedChunk {
        header: pdict_header(rows, lane, &payload),
        body: ChunkBody::Pdict(payload),
    }
}

fn pdict_header(rows: usize, lane: u32, payload: &[u8]) -> ChunkHeader {
    ChunkHeader {
        format: ChunkFormat::Pdict,
        lane: lane as u8,
        checksum: byte_fold(0xA5, payload),
        rows: rows as u32,
        scale: 0,
        base: 0,
        payload_bytes: payload.len() as u32,
        exceptions: 0,
        sync_points: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &ColumnData, format: ChunkFormat) -> CompressedColumn {
        let col = compress_column_as(data, format).expect("format applies");
        let mut out = Vector::with_capacity(data.scalar_type(), 1024);
        let mut cursor = DecodeCursor::default();
        let mut scratch = Vec::new();
        // Decode in 1000-row vectors (deliberately misaligned with both
        // CHUNK_ROWS and DELTA_SYNC) and compare to read_into.
        let mut want = Vector::with_capacity(data.scalar_type(), 1024);
        let mut at = 0usize;
        while at < data.len() {
            let n = (data.len() - at).min(1000);
            col.decode_range(at, n, &mut out, &mut cursor, &mut scratch)
                .expect("checksum verifies");
            data.read_into(at, n, &mut want);
            assert_eq!(out, want, "window at {at}");
            at += n;
        }
        col
    }

    #[test]
    fn header_roundtrip() {
        let h = ChunkHeader {
            format: ChunkFormat::PforDelta,
            lane: 16,
            checksum: 0x5A,
            rows: 65536,
            scale: 100,
            base: 0xDEAD_BEEF,
            payload_bytes: 131072,
            exceptions: 17,
            sync_points: 64,
        };
        assert_eq!(ChunkHeader::decode(&h.encode()), Ok(h));
        let mut bad = h.encode();
        bad[0] = 0;
        assert!(ChunkHeader::decode(&bad).is_err());
        bad = h.encode();
        bad[1] = 9;
        assert!(ChunkHeader::decode(&bad).is_err());
    }

    #[test]
    fn pfor_column_roundtrip_multi_chunk() {
        let v: Vec<i64> = (0..150_000).map(|i| 50 + (i * 7) % 200).collect();
        let col = roundtrip(&ColumnData::I64(v), ChunkFormat::Pfor);
        assert_eq!(col.num_chunks(), 3);
        assert!(col.ratio_pct() < 20, "8-byte ints in a 1-byte range");
        assert_eq!(col.decode_sig(), "decompress_pfor_i64_col");
    }

    #[test]
    fn pfor_f64_column_roundtrip() {
        let v: Vec<f64> = (0..80_000).map(|i| (i % 5000) as f64 / 100.0).collect();
        let col = roundtrip(&ColumnData::F64(v), ChunkFormat::Pfor);
        assert!(
            col.ratio_pct() <= 30,
            "cents fit 2 bytes: {}",
            col.ratio_pct()
        );
    }

    #[test]
    fn pfordelta_column_roundtrip_with_cursor() {
        let v: Vec<i32> = (0..200_000).map(|i| i * 2).collect();
        let col = roundtrip(&ColumnData::I32(v), ChunkFormat::PforDelta);
        assert!(col.ratio_pct() < 40, "constant deltas: {}", col.ratio_pct());
        assert_eq!(col.decode_sig(), "decompress_pfordelta_i32_col");
    }

    #[test]
    fn pfordelta_random_access_ignores_cursor() {
        let v: Vec<u64> = (0..100_000u64).map(|i| i * i / 1000).collect();
        let data = ColumnData::U64(v.clone());
        let col = compress_column_as(&data, ChunkFormat::PforDelta).expect("sorted");
        let mut out = Vector::with_capacity(ScalarType::U64, 64);
        let mut scratch = Vec::new();
        // Jump around: each decode must be position-correct regardless
        // of the stale cursor.
        for start in [70_000usize, 3, 65_530, 99_990, 0] {
            let mut cursor = DecodeCursor {
                chunk: 1,
                next_row: 12345,
                carry: 999,
                verified: None,
            };
            let n = 10.min(v.len() - start);
            col.decode_range(start, n, &mut out, &mut cursor, &mut scratch)
                .expect("checksum verifies");
            assert_eq!(out.as_u64(), &v[start..start + n]);
        }
    }

    #[test]
    fn pdict_str_column_roundtrip() {
        let mut s = StrVec::new();
        for i in 0..70_000 {
            s.push(["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][i % 5]);
        }
        let col = roundtrip(&ColumnData::Str(s), ChunkFormat::Pdict);
        assert_eq!(col.decode_sig(), "decompress_pdict_str_col");
        assert!(col.ratio_pct() < 30, "1-byte codes vs 4+-byte strings");
    }

    #[test]
    fn pdict_f64_column_roundtrip() {
        let v: Vec<f64> = (0..50_000)
            .map(|i| [0.0, -0.0, 0.04, 0.07][i % 4])
            .collect();
        let col = roundtrip(&ColumnData::F64(v), ChunkFormat::Pdict);
        assert_eq!(col.format(), ChunkFormat::Pdict);
    }

    #[test]
    fn chooser_prefers_delta_on_sorted_keys() {
        let v: Vec<i64> = (0..100_000).collect();
        let col = choose_and_compress(&ColumnData::I64(v)).expect("compresses");
        assert_eq!(col.format(), ChunkFormat::PforDelta);
    }

    #[test]
    fn chooser_falls_back_to_raw_on_random_wide_values() {
        // xorshift values spanning the full u64 range: nothing pays.
        let mut x = 0x12345678u64;
        let v: Vec<u64> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        assert!(choose_and_compress(&ColumnData::U64(v)).is_none());
    }

    #[test]
    fn chooser_picks_pdict_for_low_cardinality_strings() {
        let mut s = StrVec::new();
        for i in 0..30_000 {
            s.push(if i % 2 == 0 { "YES" } else { "NO" });
        }
        let col = choose_and_compress(&ColumnData::Str(s)).expect("compresses");
        assert_eq!(col.format(), ChunkFormat::Pdict);
    }

    #[test]
    fn empty_column_stays_raw() {
        assert!(choose_and_compress(&ColumnData::I64(Vec::new())).is_none());
        assert!(compress_column_as(&ColumnData::I64(Vec::new()), ChunkFormat::Pfor).is_none());
    }

    #[test]
    fn decode_stats_account_compressed_bytes() {
        let v: Vec<i64> = (0..70_000).map(|i| i % 100).collect();
        let data = ColumnData::I64(v);
        let col = compress_column_as(&data, ChunkFormat::Pfor).expect("compresses");
        let mut out = Vector::with_capacity(ScalarType::I64, 1024);
        let mut cursor = DecodeCursor::default();
        let mut scratch = Vec::new();
        let stats = col
            .decode_range(66_000, 1024, &mut out, &mut cursor, &mut scratch)
            .expect("checksum verifies");
        // Lane-8 frames: ~1 byte per row plus the header, far below raw.
        assert!(stats.comp_len >= 1024);
        assert!(stats.comp_len < 8 * 1024);
        assert!(stats.comp_offset > 0, "second chunk starts past the first");
    }

    #[test]
    fn pushdown_pfor_matches_decode_then_select() {
        let mut v: Vec<i64> = (0..150_000).map(|i| 50 + (i * 7) % 200).collect();
        // Outliers become exception-patched slow-lane entries.
        v[123] = 1_000_000;
        v[70_000] = -5;
        let data = ColumnData::I64(v.clone());
        let col = compress_column_as(&data, ChunkFormat::Pfor).expect("applies");
        type Pred = Box<dyn Fn(i64) -> bool>;
        let cases: Vec<(PushOp, i64, Option<i64>, Pred)> = vec![
            (PushOp::Eq, 57, None, Box::new(|x| x == 57)),
            (PushOp::Lt, 60, None, Box::new(|x| x < 60)),
            (PushOp::Le, 60, None, Box::new(|x| x <= 60)),
            (PushOp::Gt, 240, None, Box::new(|x| x > 240)),
            (PushOp::Ge, 240, None, Box::new(|x| x >= 240)),
            (
                PushOp::Between,
                55,
                Some(65),
                Box::new(|x| (55..=65).contains(&x)),
            ),
        ];
        for (op, lo, hi, f) in cases {
            let w = hi.map(Value::I64);
            let p = col
                .compile_pushdown(op, &Value::I64(lo), w.as_ref())
                .expect("pfor i64 pushdown compiles");
            assert!(!p.is_dict_rewrite());
            let mut cursor = DecodeCursor::default();
            let mut tmp = Vec::new();
            let mut at = 0usize;
            while at < v.len() {
                let n = (v.len() - at).min(1000);
                let mut got = Vec::new();
                col.select_range(&p, at, n, &mut got, &mut tmp, &mut cursor)
                    .expect("checksum verifies");
                let want: Vec<u32> = (0..n).filter(|&i| f(v[at + i])).map(|i| i as u32).collect();
                assert_eq!(got, want, "{op:?} window at {at}");
                let mut out = Vector::with_capacity(ScalarType::I64, 64);
                col.decode_positions(at, &got, &mut out, &mut tmp, &mut cursor)
                    .expect("checksum verifies");
                let wantv: Vec<i64> = got.iter().map(|&i| v[at + i as usize]).collect();
                assert_eq!(out.as_i64(), &wantv[..], "{op:?} values at {at}");
                at += n;
            }
        }
    }

    #[test]
    fn pushdown_pdict_str_never_decodes_unselected() {
        let name = |i: usize| ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][i % 5];
        let mut s = StrVec::new();
        for i in 0..70_000 {
            s.push(name(i));
        }
        let col = compress_column_as(&ColumnData::Str(s), ChunkFormat::Pdict).expect("applies");
        type Pred = Box<dyn Fn(&str) -> bool>;
        let cases: Vec<(PushOp, Pred)> = vec![
            (PushOp::Eq, Box::new(|x| x == "SHIP")),
            (PushOp::Ne, Box::new(|x| x != "SHIP")),
            (PushOp::Lt, Box::new(|x| x < "SHIP")),
            (PushOp::Ge, Box::new(|x| x >= "SHIP")),
        ];
        for (op, f) in cases {
            let p = col
                .compile_pushdown(op, &Value::Str("SHIP".into()), None)
                .expect("dict rewrite compiles");
            assert!(p.is_dict_rewrite());
            assert_eq!(p.sig(), format!("cmp_pdict_{}_str_col_val", op.name()));
            let mut cursor = DecodeCursor::default();
            let mut tmp = Vec::new();
            let mut got = Vec::new();
            // A window crossing the 65536-row chunk boundary.
            col.select_range(&p, 64_000, 3_000, &mut got, &mut tmp, &mut cursor)
                .expect("checksum verifies");
            let want: Vec<u32> = (0..3_000)
                .filter(|&i| f(name(64_000 + i)))
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "{op:?}");
            let mut out = Vector::with_capacity(ScalarType::Str, 8);
            col.decode_positions(64_000, &got, &mut out, &mut tmp, &mut cursor)
                .expect("checksum verifies");
            match &out {
                Vector::Str(sv) => {
                    assert_eq!(sv.len(), got.len());
                    for (o, &i) in got.iter().enumerate() {
                        assert_eq!(sv.get(o), name(64_000 + i as usize), "{op:?}");
                    }
                }
                other => panic!("str gather into {:?}", other.scalar_type()),
            }
        }
    }

    #[test]
    fn pushdown_rejects_unsupported_triples() {
        let sorted: Vec<i64> = (0..100_000).collect();
        let delta =
            compress_column_as(&ColumnData::I64(sorted), ChunkFormat::PforDelta).expect("sorted");
        assert!(
            delta
                .compile_pushdown(PushOp::Eq, &Value::I64(5), None)
                .is_none(),
            "prefix sums cannot be compared in place"
        );
        let v: Vec<i64> = (0..80_000).map(|i| i % 100).collect();
        let pfor = compress_column_as(&ColumnData::I64(v.clone()), ChunkFormat::Pfor).expect("ok");
        assert!(
            pfor.compile_pushdown(PushOp::Ne, &Value::I64(5), None)
                .is_none(),
            "ne needs dictionary codes"
        );
        assert!(
            pfor.compile_pushdown(PushOp::Eq, &Value::I32(5), None)
                .is_none(),
            "constant type must match the column"
        );
        assert!(
            pfor.compile_pushdown(PushOp::Eq, &Value::I64(5), Some(&Value::I64(9)))
                .is_none(),
            "stray upper bound"
        );
        assert!(
            pfor.compile_pushdown(PushOp::Between, &Value::I64(5), None)
                .is_none(),
            "missing upper bound"
        );
        let pdict = compress_column_as(&ColumnData::I64(v), ChunkFormat::Pdict).expect("ok");
        assert!(
            pdict
                .compile_pushdown(PushOp::Between, &Value::I64(5), Some(&Value::I64(9)))
                .is_none(),
            "between stays a PFOR-frame rewrite"
        );
        assert!(
            pdict
                .compile_pushdown(PushOp::Ne, &Value::I64(5), None)
                .is_some(),
            "ne over codes is the PDICT-only op"
        );
    }

    #[test]
    fn checksum_detects_torn_write() {
        let v: Vec<i64> = (0..150_000).map(|i| i % 100).collect();
        let data = ColumnData::I64(v);
        let mut col = compress_column_as(&data, ChunkFormat::Pfor).expect("applies");
        assert!(col.verify_chunk(1).is_ok());
        assert!(col.corrupt_payload_byte(1, 7), "chunk 1 has payload");
        let err = col.verify_chunk(1).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let mut out = Vector::with_capacity(ScalarType::I64, 1024);
        let mut scratch = Vec::new();
        // The intact chunk still reads; any window touching the torn
        // chunk refuses — wrong rows can never escape.
        let mut cursor = DecodeCursor::default();
        col.decode_range(0, 1000, &mut out, &mut cursor, &mut scratch)
            .expect("chunk 0 is intact");
        let mut cursor = DecodeCursor::default();
        let err = col
            .decode_range(66_000, 100, &mut out, &mut cursor, &mut scratch)
            .unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        let p = col
            .compile_pushdown(PushOp::Ge, &Value::I64(50), None)
            .expect("compiles");
        let mut got = Vec::new();
        let mut tmp = Vec::new();
        let mut cursor = DecodeCursor::default();
        assert!(col
            .select_range(&p, 66_000, 100, &mut got, &mut tmp, &mut cursor)
            .is_err());
    }

    #[test]
    fn gather_seeks_all_formats() {
        let mut scratch = Vec::new();
        let mut tmp = Vec::new();
        // PFOR-DELTA: the rowid-column shape — runs seek from sync
        // carries, order and duplicates preserved.
        let v: Vec<u64> = (0..200_000u64).map(|i| i * 3 / 2).collect();
        let col =
            compress_column_as(&ColumnData::U64(v.clone()), ChunkFormat::PforDelta).expect("ok");
        let rowids: Vec<u32> = vec![5, 9, 70_000, 70_001, 65_535, 65_536, 199_999, 0, 0];
        let mut out = Vector::with_capacity(ScalarType::U64, 16);
        let mut cursor = DecodeCursor::default();
        col.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor)
            .expect("checksum verifies");
        let want: Vec<u64> = rowids.iter().map(|&r| v[r as usize]).collect();
        assert_eq!(out.as_u64(), &want[..]);
        // PFOR f64 goes through the selective decoder.
        let f: Vec<f64> = (0..80_000).map(|i| (i % 5000) as f64 / 100.0).collect();
        let col = compress_column_as(&ColumnData::F64(f.clone()), ChunkFormat::Pfor).expect("ok");
        let rowids: Vec<u32> = vec![0, 4_999, 70_000, 3, 79_999];
        let mut out = Vector::with_capacity(ScalarType::F64, 16);
        let mut cursor = DecodeCursor::default();
        col.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor)
            .expect("checksum verifies");
        let want: Vec<f64> = rowids.iter().map(|&r| f[r as usize]).collect();
        assert_eq!(out.as_f64(), &want[..]);
        // PDICT strings gather by code.
        let name = |i: usize| ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"][i % 5];
        let mut s = StrVec::new();
        for i in 0..70_000 {
            s.push(name(i));
        }
        let col = compress_column_as(&ColumnData::Str(s), ChunkFormat::Pdict).expect("ok");
        let rowids: Vec<u32> = vec![3, 69_999, 65_536, 1, 2];
        let mut out = Vector::with_capacity(ScalarType::Str, 8);
        let mut cursor = DecodeCursor::default();
        col.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor)
            .expect("checksum verifies");
        match &out {
            Vector::Str(sv) => {
                assert_eq!(sv.len(), rowids.len());
                for (o, &r) in rowids.iter().enumerate() {
                    assert_eq!(sv.get(o), name(r as usize));
                }
            }
            other => panic!("str gather into {:?}", other.scalar_type()),
        }
    }

    #[test]
    fn decode_sel_sig_matches_format() {
        let v: Vec<i64> = (0..80_000).map(|i| i % 100).collect();
        let pfor = compress_column_as(&ColumnData::I64(v.clone()), ChunkFormat::Pfor).expect("ok");
        assert_eq!(pfor.decode_sel_sig(), Some("decode_sel_pfor_i64_col"));
        let pdict =
            compress_column_as(&ColumnData::I64(v.clone()), ChunkFormat::Pdict).expect("ok");
        assert_eq!(pdict.decode_sel_sig(), Some("decode_sel_pdict_i64_col"));
        let sorted: Vec<i64> = (0..80_000).collect();
        let delta =
            compress_column_as(&ColumnData::I64(sorted), ChunkFormat::PforDelta).expect("ok");
        assert_eq!(
            delta.decode_sel_sig(),
            None,
            "prefix sums: no gather decode"
        );
    }
}
