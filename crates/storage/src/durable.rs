//! Durable chunk store: crash-consistent checkpoints with replicated
//! self-healing recovery (DESIGN.md §14).
//!
//! A durable checkpoint is a per-table directory holding one file per
//! (column, replica) pair plus a versioned manifest:
//!
//! ```text
//! manifest-0000000003.xman        committed checkpoint version 3
//! col000-v0000000003-r0.chunks    column 0, replica 0
//! col000-v0000000003-r1.chunks    column 0, replica 1
//! col001-v0000000003-r0.chunks    ...
//! ```
//!
//! Every file is written temp → fsync → atomic-rename → directory
//! fsync, and the manifest is written *last*, so the manifest's
//! existence implies every file it names is complete. A crash at any
//! write step leaves either no manifest for the new version (recovery
//! uses the previous one, still fully readable) or a committed version
//! whose files all made it. Orphan `.tmp` and stale-version files are
//! pruned on the next successful commit.
//!
//! Each chunk file carries the column's raw fragment, its compressed
//! rewrite (the XCPC stream of `compress.rs`, when the codec chooser
//! found a paying format), and its enum dictionary, sealed by a
//! trailing whole-file fold checksum. [`DurableOptions::replicas`]
//! (default 2) copies of every file are kept: a checksum, torn-write,
//! or IO failure on one copy transparently heals from another —
//! rewriting the bad copy in place and counting `chunk_heals` — and a
//! typed [`DurableError::Io`] surfaces only when *all* copies fail.

use crate::column::ColumnData;
use crate::columnbm::{retry_with_backoff, FaultSite, FaultState, StorageFaultError};
use crate::compress::{fold_checksum, scalar_from_tag, scalar_tag, ByteReader, CompressedColumn};
use crate::delta::{DeleteList, InsertDelta};
use crate::enumcol::EnumDict;
use crate::table::{summary_of, ColumnStats, Field, StoredColumn, Table};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use x100_vector::ScalarType;

/// Magic + version of one on-disk column-replica file.
const CHUNK_MAGIC: &[u8; 4] = b"XDCF";
/// Magic + version of the committing manifest.
const MANIFEST_MAGIC: &[u8; 4] = b"XMAN";
const FORMAT_VERSION: u8 = 1;

/// Retry budget for *real* IO errors when no fault plan supplies one
/// (mirrors `FaultPlan::default()`).
const DEFAULT_MAX_RETRIES: u32 = 6;
const DEFAULT_BACKOFF_US: u64 = 20;

/// Tuning knobs of the durable checkpoint path.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Copies kept of every chunk file. With 2 (the default) any
    /// single-copy corruption heals transparently; 1 disables
    /// replication (a bad file is unrecoverable).
    pub replicas: u32,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { replicas: 2 }
    }
}

impl DurableOptions {
    /// Set the replication factor (clamped to at least 1).
    pub fn with_replicas(mut self, replicas: u32) -> Self {
        self.replicas = replicas.max(1);
        self
    }
}

/// A durable-store failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An IO step kept failing after its retry budget — or, on read,
    /// *every* replica of some file failed.
    Io {
        /// The fault site of the failing step.
        site: FaultSite,
        /// Human-readable description (path, attempts, cause).
        detail: String,
    },
    /// The directory holds no committed checkpoint this code can read
    /// (missing, unparseable, or checksum-bad manifests).
    Corrupt(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io { site, detail } => {
                write!(f, "durable io failure at {site}: {detail}")
            }
            DurableError::Corrupt(d) => write!(f, "durable store corrupt: {d}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<StorageFaultError> for DurableError {
    fn from(e: StorageFaultError) -> Self {
        DurableError::Io {
            site: e.site,
            detail: e.to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Raw ColumnData serialization (type tag + rows + LE values)
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn encode_column_data(data: &ColumnData, out: &mut Vec<u8>) {
    out.push(scalar_tag(data.scalar_type()));
    put_u64(out, data.len() as u64);
    fn ints<T: Copy, const W: usize>(v: &[T], le: impl Fn(T) -> [u8; W], out: &mut Vec<u8>) {
        out.reserve(v.len() * W);
        for &x in v {
            out.extend_from_slice(&le(x));
        }
    }
    match data {
        ColumnData::I8(v) => ints(v, i8::to_le_bytes, out),
        ColumnData::I16(v) => ints(v, i16::to_le_bytes, out),
        ColumnData::I32(v) => ints(v, i32::to_le_bytes, out),
        ColumnData::I64(v) => ints(v, i64::to_le_bytes, out),
        ColumnData::U8(v) => ints(v, u8::to_le_bytes, out),
        ColumnData::U16(v) => ints(v, u16::to_le_bytes, out),
        ColumnData::U32(v) => ints(v, u32::to_le_bytes, out),
        ColumnData::U64(v) => ints(v, u64::to_le_bytes, out),
        ColumnData::F64(v) => ints(v, f64::to_le_bytes, out),
        ColumnData::Str(s) => {
            for x in s.iter() {
                put_u32(out, x.len() as u32);
                out.extend_from_slice(x.as_bytes());
            }
        }
    }
}

fn decode_column_data(r: &mut ByteReader<'_>) -> Result<ColumnData, String> {
    let ty = scalar_from_tag(r.u8()?)?;
    let rows = r.u64()? as usize;
    fn ints<T: Copy, const W: usize>(
        r: &mut ByteReader<'_>,
        rows: usize,
        de: impl Fn([u8; W]) -> T,
    ) -> Result<Vec<T>, String> {
        let s = r.take(rows * W)?;
        Ok(s.chunks_exact(W)
            .map(|c| {
                let mut b = [0u8; W];
                b.copy_from_slice(c);
                de(b)
            })
            .collect())
    }
    Ok(match ty {
        ScalarType::I8 => ColumnData::I8(ints(r, rows, i8::from_le_bytes)?),
        ScalarType::I16 => ColumnData::I16(ints(r, rows, i16::from_le_bytes)?),
        ScalarType::I32 => ColumnData::I32(ints(r, rows, i32::from_le_bytes)?),
        ScalarType::I64 => ColumnData::I64(ints(r, rows, i64::from_le_bytes)?),
        ScalarType::U8 => ColumnData::U8(ints(r, rows, u8::from_le_bytes)?),
        ScalarType::U16 => ColumnData::U16(ints(r, rows, u16::from_le_bytes)?),
        ScalarType::U32 => ColumnData::U32(ints(r, rows, u32::from_le_bytes)?),
        ScalarType::U64 => ColumnData::U64(ints(r, rows, u64::from_le_bytes)?),
        ScalarType::F64 => ColumnData::F64(ints(r, rows, f64::from_le_bytes)?),
        ScalarType::Str => {
            let mut col = ColumnData::new(ScalarType::Str);
            let ColumnData::Str(sv) = &mut col else {
                unreachable!("ColumnData::new(Str) is Str");
            };
            for _ in 0..rows {
                let n = r.u32()? as usize;
                let bytes = r.take(n)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|e| format!("non-UTF-8 string payload: {e}"))?;
                sv.push(s);
            }
            col
        }
        ScalarType::Bool => return Err("bool columns are not storable".into()),
    })
}

// ---------------------------------------------------------------------------
// Chunk file (one column replica): XDCF
// ---------------------------------------------------------------------------

/// Everything one column replica file decodes to.
struct ColFile {
    col: u32,
    rows: u64,
    logical: ScalarType,
    data: ColumnData,
    compressed: Option<CompressedColumn>,
    dict: Option<ColumnData>,
    has_summary: bool,
    /// Whether the codec chooser's verdict (including "stay raw") was
    /// current at checkpoint time — restores the sweep cache at open.
    codec_done: bool,
}

fn encode_col_file(col: u32, sc: &StoredColumn) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(CHUNK_MAGIC);
    b.push(FORMAT_VERSION);
    put_u32(&mut b, col);
    put_u64(&mut b, sc.data.len() as u64);
    b.push(scalar_tag(sc.field.logical));
    b.push(u8::from(sc.summary.is_some()));
    b.push(u8::from(sc.codec_epoch == Some(sc.epoch)));
    let mut raw = Vec::new();
    encode_column_data(&sc.data, &mut raw);
    put_u64(&mut b, raw.len() as u64);
    b.extend_from_slice(&raw);
    match &sc.compressed {
        Some(c) => {
            b.push(1);
            let blob = c.to_bytes();
            put_u64(&mut b, blob.len() as u64);
            b.extend_from_slice(&blob);
        }
        None => b.push(0),
    }
    match &sc.dict {
        Some(d) => {
            b.push(1);
            let mut dv = Vec::new();
            encode_column_data(d.values(), &mut dv);
            put_u64(&mut b, dv.len() as u64);
            b.extend_from_slice(&dv);
        }
        None => b.push(0),
    }
    let sum = fold_checksum(&b);
    b.push(sum);
    b
}

fn decode_col_file(bytes: &[u8]) -> Result<ColFile, String> {
    let Some((&sum, body)) = bytes.split_last() else {
        return Err("empty chunk file".into());
    };
    let got = fold_checksum(body);
    if got != sum {
        return Err(format!(
            "file checksum mismatch: trailer 0x{sum:02x}, body 0x{got:02x} (torn write)"
        ));
    }
    let mut r = ByteReader { b: body, at: 0 };
    if r.take(4)? != CHUNK_MAGIC {
        return Err("bad chunk-file magic".into());
    }
    if r.u8()? != FORMAT_VERSION {
        return Err("unsupported chunk-file version".into());
    }
    let col = r.u32()?;
    let rows = r.u64()?;
    let logical = scalar_from_tag(r.u8()?)?;
    let has_summary = r.u8()? != 0;
    let codec_done = r.u8()? != 0;
    let raw_len = r.u64()? as usize;
    let raw = r.take(raw_len)?;
    let data = decode_column_data(&mut ByteReader { b: raw, at: 0 })?;
    if data.len() as u64 != rows {
        return Err(format!(
            "row count mismatch: header {rows}, payload {}",
            data.len()
        ));
    }
    let compressed = if r.u8()? != 0 {
        let n = r.u64()? as usize;
        let blob = r.take(n)?;
        Some(CompressedColumn::from_bytes(blob)?)
    } else {
        None
    };
    let dict = if r.u8()? != 0 {
        let n = r.u64()? as usize;
        let dv = r.take(n)?;
        Some(decode_column_data(&mut ByteReader { b: dv, at: 0 })?)
    } else {
        None
    };
    Ok(ColFile {
        col,
        rows,
        logical,
        data,
        compressed,
        dict,
        has_summary,
        codec_done,
    })
}

// ---------------------------------------------------------------------------
// Manifest: XMAN
// ---------------------------------------------------------------------------

/// One column's entry in a committed manifest.
#[derive(Debug, Clone)]
struct ManifestCol {
    name: String,
    /// Size of the (identical) replica files, trailer included.
    file_bytes: u64,
    /// The file's trailing fold checksum — cross-checked at open so a
    /// stale or swapped file cannot impersonate a committed one.
    checksum: u8,
}

#[derive(Debug, Clone)]
struct Manifest {
    version: u64,
    replicas: u32,
    table: String,
    frag_rows: u64,
    cols: Vec<ManifestCol>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(MANIFEST_MAGIC);
    b.push(FORMAT_VERSION);
    put_u64(&mut b, m.version);
    put_u32(&mut b, m.replicas);
    put_u32(&mut b, m.table.len() as u32);
    b.extend_from_slice(m.table.as_bytes());
    put_u64(&mut b, m.frag_rows);
    put_u32(&mut b, m.cols.len() as u32);
    for c in &m.cols {
        put_u32(&mut b, c.name.len() as u32);
        b.extend_from_slice(c.name.as_bytes());
        put_u64(&mut b, c.file_bytes);
        b.push(c.checksum);
    }
    let sum = fold_checksum(&b);
    b.push(sum);
    b
}

fn decode_manifest(bytes: &[u8]) -> Result<Manifest, String> {
    let Some((&sum, body)) = bytes.split_last() else {
        return Err("empty manifest".into());
    };
    let got = fold_checksum(body);
    if got != sum {
        return Err(format!(
            "manifest checksum mismatch: trailer 0x{sum:02x}, body 0x{got:02x}"
        ));
    }
    let mut r = ByteReader { b: body, at: 0 };
    if r.take(4)? != MANIFEST_MAGIC {
        return Err("bad manifest magic".into());
    }
    if r.u8()? != FORMAT_VERSION {
        return Err("unsupported manifest version".into());
    }
    let version = r.u64()?;
    let replicas = r.u32()?;
    let name_len = r.u32()? as usize;
    let table = std::str::from_utf8(r.take(name_len)?)
        .map_err(|e| format!("non-UTF-8 table name: {e}"))?
        .to_owned();
    let frag_rows = r.u64()?;
    let ncols = r.u32()? as usize;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let n = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(n)?)
            .map_err(|e| format!("non-UTF-8 column name: {e}"))?
            .to_owned();
        let file_bytes = r.u64()?;
        let checksum = r.u8()?;
        cols.push(ManifestCol {
            name,
            file_bytes,
            checksum,
        });
    }
    Ok(Manifest {
        version,
        replicas,
        table,
        frag_rows,
        cols,
    })
}

// ---------------------------------------------------------------------------
// File naming + atomic write
// ---------------------------------------------------------------------------

fn manifest_name(version: u64) -> String {
    format!("manifest-{version:010}.xman")
}

fn col_file_name(col: u32, version: u64, replica: u32) -> String {
    format!("col{col:03}-v{version:010}-r{replica}.chunks")
}

/// Parse `manifest-{v}.xman` back to `v`.
fn parse_manifest_name(name: &str) -> Option<u64> {
    let v = name.strip_prefix("manifest-")?.strip_suffix(".xman")?;
    v.parse().ok()
}

/// Parse `colNNN-vVVV-rR.chunks` back to its version.
fn parse_col_file_version(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("col")?.strip_suffix(".chunks")?;
    let (_, rest) = rest.split_once("-v")?;
    let (v, _) = rest.split_once("-r")?;
    v.parse().ok()
}

fn io_budget(fault: Option<&FaultState>) -> (u32, u64) {
    match fault {
        Some(f) => (f.plan().max_retries, f.plan().backoff_base_us),
        None => (DEFAULT_MAX_RETRIES, DEFAULT_BACKOFF_US),
    }
}

/// Read one file with bounded-backoff retry over real IO errors.
fn read_file_retrying(
    path: &Path,
    fault: Option<&FaultState>,
    site: FaultSite,
) -> Result<Vec<u8>, DurableError> {
    let (max_retries, backoff) = io_budget(fault);
    retry_with_backoff(max_retries, backoff, |_| std::fs::read(path)).map_or_else(
        |(e, attempts)| {
            Err(DurableError::Io {
                site,
                detail: format!("{}: {e} after {attempts} attempts", path.display()),
            })
        },
        |(bytes, _)| Ok(bytes),
    )
}

/// Write `bytes` to `dir/name` crash-consistently: temp file → fsync →
/// atomic rename → directory fsync. Two fault checks model the two
/// points a dying process can leave distinct on-disk states — before
/// the temp file is complete (a stray `.tmp`, ignored by recovery) and
/// before the rename (the final name never appears). Real IO errors
/// retry with the same bounded-backoff budget.
fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    site: FaultSite,
    fault: Option<&FaultState>,
) -> Result<(), DurableError> {
    let (max_retries, backoff) = io_budget(fault);
    let tmp = dir.join(format!("{name}.tmp"));
    let fin = dir.join(name);

    // Kill-point 1: died before the temp write finished. A partial
    // `.tmp` may remain; recovery never reads `.tmp` files.
    if let Some(f) = fault {
        f.check_site(site, 0)?;
    }
    let write_step = |_| -> std::io::Result<()> {
        let mut fh = std::fs::File::create(&tmp)?;
        fh.write_all(bytes)?;
        fh.sync_all()
    };
    if let Err((e, attempts)) = retry_with_backoff(max_retries, backoff, write_step) {
        return Err(DurableError::Io {
            site,
            detail: format!("{}: {e} after {attempts} attempts", tmp.display()),
        });
    }

    // Kill-point 2: died between the temp write and the commit rename.
    // The final name never appears; the previous version is untouched.
    if let Some(f) = fault {
        f.check_site(site, 0)?;
    }
    let rename_step = |_| -> std::io::Result<()> {
        std::fs::rename(&tmp, &fin)?;
        // Persist the directory entry itself; without this a crash can
        // forget the rename even though the data blocks survived.
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    };
    if let Err((e, attempts)) = retry_with_backoff(max_retries, backoff, rename_step) {
        return Err(DurableError::Io {
            site,
            detail: format!("{}: {e} after {attempts} attempts", fin.display()),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Commit (checkpoint write path)
// ---------------------------------------------------------------------------

/// Largest committed (or orphaned) version present in `dir`, from both
/// manifest and chunk-file names — a new commit must outnumber aborted
/// attempts too, or their orphan files could collide with ours.
fn newest_version_in_dir(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut newest = 0;
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(v) = parse_manifest_name(name).or_else(|| parse_col_file_version(name)) {
            newest = newest.max(v);
        }
    }
    newest
}

/// Persist every column of `table` to `dir` as checkpoint version
/// `newest + 1`: all chunk files first (each `opts.replicas` times),
/// the manifest last. Returns the [`DurableSource`] describing the
/// committed version. Called by [`Table::try_checkpoint_durable`].
pub(crate) fn commit_checkpoint(
    table: &Table,
    dir: &Path,
    opts: &DurableOptions,
    fault: Option<&FaultState>,
) -> Result<Arc<DurableSource>, DurableError> {
    std::fs::create_dir_all(dir).map_err(|e| DurableError::Io {
        site: FaultSite::DurableChunkWrite,
        detail: format!("create {}: {e}", dir.display()),
    })?;
    let replicas = opts.replicas.max(1);
    let version = newest_version_in_dir(dir) + 1;
    let mut cols = Vec::with_capacity(table.columns.len());
    for (i, sc) in table.columns.iter().enumerate() {
        let bytes = encode_col_file(i as u32, sc);
        let checksum = bytes.last().copied().unwrap_or(0);
        for r in 0..replicas {
            write_atomic(
                dir,
                &col_file_name(i as u32, version, r),
                &bytes,
                FaultSite::DurableChunkWrite,
                fault,
            )?;
        }
        cols.push(ManifestCol {
            name: sc.field.name.clone(),
            file_bytes: bytes.len() as u64,
            checksum,
        });
    }
    let manifest = Manifest {
        version,
        replicas,
        table: table.name.clone(),
        frag_rows: table.frag_rows as u64,
        cols,
    };
    write_atomic(
        dir,
        &manifest_name(version),
        &encode_manifest(&manifest),
        FaultSite::ManifestWrite,
        fault,
    )?;
    prune_stale(dir, version);
    Ok(Arc::new(DurableSource::new(dir.to_path_buf(), manifest)))
}

/// Best-effort cleanup after a successful commit: older versions'
/// manifests and chunk files, plus `.tmp` orphans of crashed attempts.
/// Failures are ignored — stale files cost disk, never correctness.
fn prune_stale(dir: &Path, keep_version: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name.ends_with(".tmp")
            || parse_manifest_name(name).is_some_and(|v| v < keep_version)
            || parse_col_file_version(name).is_some_and(|v| v != keep_version);
        if stale {
            let _ = std::fs::remove_file(e.path());
        }
    }
}

// ---------------------------------------------------------------------------
// Open (recovery path)
// ---------------------------------------------------------------------------

/// Read one column of manifest version `m` from the first replica that
/// passes validation, healing bad copies from the good one. Returns the
/// decoded file plus how many replicas were rewritten.
fn read_column_replicas(
    dir: &Path,
    m: &Manifest,
    col: u32,
    fault: Option<&FaultState>,
) -> Result<(ColFile, u64), DurableError> {
    let meta = &m.cols[col as usize];
    let mut bad: Vec<PathBuf> = Vec::new();
    let mut last_err = String::new();
    for r in 0..m.replicas {
        let path = dir.join(col_file_name(col, m.version, r));
        // A read fault that exhausts its retry budget marks this copy
        // bad and falls over to the next replica — replication is the
        // second line of defense after retry.
        if let Some(f) = fault {
            if let Err(e) = f.check_site(FaultSite::DurableChunkRead, col) {
                last_err = e.to_string();
                bad.push(path);
                continue;
            }
        }
        let bytes = match read_file_retrying(&path, fault, FaultSite::DurableChunkRead) {
            Ok(b) => b,
            Err(e) => {
                last_err = e.to_string();
                bad.push(path);
                continue;
            }
        };
        let valid = if bytes.len() as u64 != meta.file_bytes {
            Err(format!(
                "size mismatch: manifest {} bytes, file {}",
                meta.file_bytes,
                bytes.len()
            ))
        } else if bytes.last() != Some(&meta.checksum) {
            Err("checksum differs from manifest".into())
        } else {
            decode_col_file(&bytes).and_then(|cf| {
                if cf.col != col || cf.rows != m.frag_rows {
                    Err(format!(
                        "file identifies as col {} × {} rows, manifest says col {col} × {}",
                        cf.col, cf.rows, m.frag_rows
                    ))
                } else {
                    Ok(cf)
                }
            })
        };
        match valid {
            Ok(cf) => {
                // Heal: rewrite every bad copy seen so far from this
                // good one. Best-effort — a failed heal leaves the bad
                // copy for the next open to retry.
                let mut heals = 0;
                for bp in &bad {
                    let Some(name) = bp.file_name().and_then(|n| n.to_str()) else {
                        continue;
                    };
                    if write_atomic(dir, name, &bytes, FaultSite::DurableChunkWrite, fault).is_ok()
                    {
                        heals += 1;
                    }
                }
                return Ok((cf, heals));
            }
            Err(e) => {
                last_err = format!("{}: {e}", path.display());
                bad.push(path);
            }
        }
    }
    Err(DurableError::Io {
        site: FaultSite::DurableChunkRead,
        detail: format!(
            "column {col} (`{}`): all {} replicas failed; last: {last_err}",
            meta.name, m.replicas
        ),
    })
}

/// Rebuild a [`StoredColumn`] from a decoded replica file: dictionary
/// re-wrapped, summary index and fragment stats recomputed (both are
/// derived data — cheaper to rebuild than to verify).
fn restore_column(cf: ColFile) -> Result<StoredColumn, DurableError> {
    let dict = cf.dict.map(EnumDict::new);
    let logical = match &dict {
        Some(d) => d.value_type(),
        None => cf.data.scalar_type(),
    };
    if logical != cf.logical {
        return Err(DurableError::Corrupt(format!(
            "column {}: logical type {:?} does not match payload {:?}",
            cf.col, cf.logical, logical
        )));
    }
    let summary = if cf.has_summary {
        summary_of(&cf.data)
    } else {
        None
    };
    let stats = Some(ColumnStats::compute(&cf.data));
    Ok(StoredColumn {
        field: Field {
            name: String::new(), // patched from the manifest by the caller
            logical,
        },
        data: cf.data,
        dict,
        summary,
        stats,
        compressed: cf.compressed,
        epoch: 0,
        codec_epoch: cf.codec_done.then_some(0),
        codec_memo: None,
    })
}

/// Recover a table from `dir`: newest valid manifest wins, every column
/// loads from its first good replica (healing the rest). Called by
/// [`Table::try_open`].
pub(crate) fn open_table(dir: &Path, fault: Option<&FaultState>) -> Result<Table, DurableError> {
    let entries = std::fs::read_dir(dir).map_err(|e| DurableError::Io {
        site: FaultSite::ManifestRead,
        detail: format!("read dir {}: {e}", dir.display()),
    })?;
    let mut versions: Vec<u64> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str().and_then(parse_manifest_name))
        .collect();
    versions.sort_unstable();
    versions.reverse();
    if versions.is_empty() {
        return Err(DurableError::Corrupt(format!(
            "no manifest in {}",
            dir.display()
        )));
    }
    let mut last_err = String::new();
    for v in versions {
        // A manifest-read fault past its retry budget is a hard error
        // (the site models the directory being unreadable, not one
        // stale file); a *corrupt* manifest falls back a version.
        if let Some(f) = fault {
            f.check_site(FaultSite::ManifestRead, 0)?;
        }
        let bytes =
            read_file_retrying(&dir.join(manifest_name(v)), fault, FaultSite::ManifestRead)?;
        let manifest = match decode_manifest(&bytes) {
            Ok(m) if m.version == v => m,
            Ok(m) => {
                last_err = format!("manifest {v} claims version {}", m.version);
                continue;
            }
            Err(e) => {
                last_err = format!("manifest {v}: {e}");
                continue;
            }
        };
        return open_from_manifest(dir, manifest, fault);
    }
    Err(DurableError::Corrupt(format!(
        "no valid manifest in {}: {last_err}",
        dir.display()
    )))
}

fn open_from_manifest(
    dir: &Path,
    manifest: Manifest,
    fault: Option<&FaultState>,
) -> Result<Table, DurableError> {
    let mut columns = Vec::with_capacity(manifest.cols.len());
    let mut heals = 0u64;
    for i in 0..manifest.cols.len() as u32 {
        let (cf, h) = read_column_replicas(dir, &manifest, i, fault)?;
        heals += h;
        let mut sc = restore_column(cf)?;
        sc.field.name = manifest.cols[i as usize].name.clone();
        columns.push(sc);
    }
    let types: Vec<ScalarType> = columns.iter().map(|c| c.field.logical).collect();
    let source = DurableSource::new(dir.to_path_buf(), manifest.clone());
    source.heals.fetch_add(heals, Ordering::SeqCst);
    Ok(Table {
        name: manifest.table,
        columns,
        frag_rows: manifest.frag_rows as usize,
        deletes: DeleteList::default(),
        inserts: InsertDelta::new(&types),
        codec_sweeps: 0,
        chunks_encoded: 0,
        durable: Some(Arc::new(source)),
    })
}

// ---------------------------------------------------------------------------
// DurableSource: mid-query self-healing
// ---------------------------------------------------------------------------

/// Handle to the committed checkpoint backing an open table.
///
/// Scans hold it through `Table::durable_source()`: when a compressed
/// chunk fails its checksum mid-query (in-memory torn write, bit rot),
/// [`DurableSource::recover_column`] re-reads the column from a disk
/// replica, verifies *every* chunk of the parsed copy, heals bad disk
/// replicas in place, and caches the verified copy so concurrent
/// queries hitting the same damage pay for exactly one heal.
#[derive(Debug)]
pub struct DurableSource {
    dir: PathBuf,
    manifest: Manifest,
    /// Columns already healed this process lifetime: verified
    /// compressed copies, shared by all queries over this table.
    healed: Mutex<HashMap<u32, Arc<CompressedColumn>>>,
    heals: AtomicU64,
}

impl DurableSource {
    fn new(dir: PathBuf, manifest: Manifest) -> Self {
        DurableSource {
            dir,
            manifest,
            healed: Mutex::new(HashMap::new()),
            heals: AtomicU64::new(0),
        }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The committed checkpoint version.
    pub fn version(&self) -> u64 {
        self.manifest.version
    }

    /// Replication factor of the committed checkpoint.
    pub fn replicas(&self) -> u32 {
        self.manifest.replicas
    }

    /// Chunk heals performed so far: replica-to-replica rewrites at
    /// open plus mid-query recoveries (each counted once, however many
    /// queries observed the damage).
    pub fn heals(&self) -> u64 {
        self.heals.load(Ordering::SeqCst)
    }

    /// Recover column `col`'s compressed chunks from a disk replica.
    ///
    /// Returns the verified copy and whether *this call* performed the
    /// heal (`false` = served from the heal cache). The per-source lock
    /// is held across the disk read on purpose: two queries racing on
    /// the same corrupt chunk serialize here, the first heals, the
    /// second gets the cached copy.
    ///
    /// Errors when the column has no compressed form on disk or when
    /// every replica fails — the caller falls back to the raw fragment
    /// (and then to a typed `Io`, the PR 6 contract).
    pub fn recover_column(
        &self,
        col: u32,
        fault: Option<&FaultState>,
    ) -> Result<(Arc<CompressedColumn>, bool), DurableError> {
        if col as usize >= self.manifest.cols.len() {
            return Err(DurableError::Corrupt(format!(
                "column {col} out of range ({} columns)",
                self.manifest.cols.len()
            )));
        }
        let mut healed = self.healed.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(c) = healed.get(&col) {
            return Ok((Arc::clone(c), false));
        }
        let meta = &self.manifest.cols[col as usize];
        let mut bad: Vec<(String, Vec<u8>)> = Vec::new();
        let mut last_err = String::new();
        let mut recovered: Option<(Arc<CompressedColumn>, Vec<u8>)> = None;
        for r in 0..self.manifest.replicas {
            let name = col_file_name(col, self.manifest.version, r);
            let path = self.dir.join(&name);
            if let Some(f) = fault {
                if let Err(e) = f.check_site(FaultSite::DurableChunkRead, col) {
                    last_err = e.to_string();
                    bad.push((name, Vec::new()));
                    continue;
                }
            }
            let bytes = match read_file_retrying(&path, fault, FaultSite::DurableChunkRead) {
                Ok(b) => b,
                Err(e) => {
                    last_err = e.to_string();
                    bad.push((name, Vec::new()));
                    continue;
                }
            };
            let parsed =
                if bytes.len() as u64 != meta.file_bytes || bytes.last() != Some(&meta.checksum) {
                    Err("file differs from manifest".to_string())
                } else {
                    decode_col_file(&bytes)
                };
            match parsed {
                Ok(cf) => match cf.compressed {
                    Some(c) => {
                        // The whole-file fold proves the *disk bytes*
                        // match what was written; the per-chunk pass
                        // additionally rejects a copy that was already
                        // torn in memory before it was written.
                        if let Err(e) = c.verify_all() {
                            last_err = format!("{}: {e}", path.display());
                            bad.push((name, Vec::new()));
                            continue;
                        }
                        recovered = Some((Arc::new(c), bytes));
                        break;
                    }
                    None => {
                        return Err(DurableError::Corrupt(format!(
                            "column {col} (`{}`) has no compressed chunks on disk",
                            meta.name
                        )))
                    }
                },
                Err(e) => {
                    last_err = format!("{}: {e}", path.display());
                    bad.push((name, Vec::new()));
                }
            }
        }
        let Some((arc, good_bytes)) = recovered else {
            return Err(DurableError::Io {
                site: FaultSite::DurableChunkRead,
                detail: format!(
                    "column {col} (`{}`): all {} replicas failed; last: {last_err}",
                    meta.name, self.manifest.replicas
                ),
            });
        };
        // Rewrite every bad disk copy from the verified one
        // (best-effort; a failed rewrite is retried at the next heal).
        for (name, _) in &bad {
            let _ = write_atomic(
                &self.dir,
                name,
                &good_bytes,
                FaultSite::DurableChunkWrite,
                fault,
            );
        }
        self.heals.fetch_add(1, Ordering::SeqCst);
        healed.insert(col, Arc::clone(&arc));
        Ok((arc, true))
    }
}
