//! The one read path for checkpoint-compressed chunks (DESIGN.md §14).
//!
//! Every operator that reads a compressed fragment column — the dense
//! scan refill, the pushed-down predicate, the lazily decoded payload
//! columns, the PFOR-DELTA co-column seek and the fetch-join gather —
//! goes through [`ChunkReader::read`], which owns the recovery ladder:
//!
//! 1. the in-memory chunks (or a copy healed earlier in this query);
//! 2. on a checksum mismatch, one heal from the table's durable-store
//!    replicas (`chunk_heals`), which then serves the rest of the query;
//! 3. failing that, the retained raw fragment (`decode_recoveries`),
//!    which the caller reads itself;
//! 4. a fault on that fallback read too is the unrecoverable
//!    double-fault case: a typed `Io`, never wrong rows.

use crate::govern::QueryContext;
use crate::profile::Profiler;
use crate::PlanError;
use std::sync::Arc;
use x100_storage::{CompressedColumn, DecodeCursor, FaultSite, StorageFaultError, Table};

/// Reused decode buffers of one compressed column, handed to the read
/// closure together with the chunks to read.
#[derive(Default)]
pub(crate) struct ChunkScratch {
    /// Sequential decode position and checksum-verification state.
    pub cursor: DecodeCursor,
    /// Frame buffer (PFOR-DELTA sync-point replay); governor-charged.
    pub frames: Vec<u64>,
    /// Chunk-local position list of the selective kernels.
    pub pos: Vec<u32>,
}

/// Per-column state of one compressed-column reader.
pub(crate) struct ChunkReader {
    /// Column index in the table.
    col: usize,
    scratch: ChunkScratch,
    /// Verified replacement chunks healed from a durable replica after
    /// the in-memory copy failed its checksum; once set, every later
    /// read of this column in the query uses it.
    healed: Option<Arc<CompressedColumn>>,
}

impl ChunkReader {
    /// A reader of table column `col`.
    pub(crate) fn new(col: usize) -> Self {
        ChunkReader {
            col,
            scratch: ChunkScratch::default(),
            healed: None,
        }
    }

    /// Bytes the scratch buffers hold (for the governor charge).
    pub(crate) fn scratch_bytes(&self) -> usize {
        self.scratch.frames.capacity() * std::mem::size_of::<u64>()
            + self.scratch.pos.capacity() * std::mem::size_of::<u32>()
    }

    /// Forget the sequential decode position (operator re-runs).
    pub(crate) fn rewind(&mut self) {
        self.scratch.cursor = DecodeCursor::default();
    }

    /// Run `read` over this column's chunks through the recovery
    /// ladder. `Ok(Some(r))`: the chunks served the rows. `Ok(None)`:
    /// no intact compressed copy is left, so the caller must serve the
    /// rows from the raw fragment. `Err`: that fallback read faulted
    /// too. `read` must overwrite its outputs, since it may run twice.
    pub(crate) fn read<R>(
        &mut self,
        table: &Table,
        ctx: &QueryContext,
        prof: &mut Profiler,
        mut read: impl FnMut(&CompressedColumn, &mut ChunkScratch) -> Result<R, String>,
    ) -> Result<Option<R>, PlanError> {
        let first = match self.healed.as_deref() {
            Some(h) => read(h, &mut self.scratch),
            None => {
                let cc = table
                    .column(self.col)
                    .compressed()
                    .expect("ChunkReader on an uncompressed column");
                read(cc, &mut self.scratch)
            }
        };
        if let Ok(r) = first {
            return Ok(Some(r));
        }
        let col = self.col as u32;
        if self.healed.is_none() {
            if let Some(hc) = heal(table, ctx, prof, col) {
                self.rewind();
                if let Ok(r) = read(&hc, &mut self.scratch) {
                    self.healed = Some(hc);
                    return Ok(Some(r));
                }
            }
        }
        // The raw-fragment fallback is itself a faultable chunk read.
        if let Some(fs) = ctx.fault_state() {
            fs.check_site(FaultSite::ChunkRead, col)
                .map_err(|e| double_fault(col, e))?;
        }
        prof.add_counter("decode_recoveries", 1);
        self.rewind();
        Ok(None)
    }
}

/// Fetch column `col`'s verified chunks from a durable-store replica.
/// `None` when the table has no durable checkpoint or every replica
/// failed. Counts `chunk_heals` only when this query performed the
/// heal: concurrent queries racing on the same damage share one heal
/// through the source's cache.
fn heal(
    table: &Table,
    ctx: &QueryContext,
    prof: &mut Profiler,
    col: u32,
) -> Option<Arc<CompressedColumn>> {
    let ds = table.durable_source()?;
    let (cc, healed_now) = ds.recover_column(col, ctx.fault_state()).ok()?;
    if healed_now {
        prof.add_counter("chunk_heals", 1);
    }
    Some(cc)
}

/// Typed unrecoverable I/O error: a compressed chunk was torn and the
/// raw-fragment fallback read faulted too, so no intact copy remains.
fn double_fault(col: u32, e: StorageFaultError) -> PlanError {
    PlanError::Io {
        site: FaultSite::ChunkRead,
        unrecoverable: true,
        detail: format!(
            "column {col}: torn compressed chunk and raw-fragment fallback both failed ({e})"
        ),
    }
}
