//! Storage and I/O substrate for the BOAT reproduction.
//!
//! The BOAT paper operates on a *training database*: a large sequential file
//! of fixed-width records scanned from secondary storage, with temporary
//! spill files for the per-node sets `S_n` of tuples that fall inside a
//! node's confidence interval. This crate provides that substrate:
//!
//! * [`schema`] — attribute schemas (numeric / categorical predictor
//!   attributes plus the class label).
//! * [`record`] — the in-memory record representation, and the
//!   [`Fields`] accessor that decoded records and encoded rows share.
//! * [`codec`] — a fixed-width binary record codec derived from the schema.
//! * [`dataset`] — the [`dataset::RecordSource`] streaming-scan
//!   abstraction with in-memory and on-disk implementations. Every source
//!   counts its scans and bytes into its own `boat-obs` registry, and
//!   every experiment in the bench harness reports these alongside wall
//!   time.
//! * [`sample`] — skip-based reservoir sampling over a chunked scan into
//!   encoded rows, and bootstrap resampling.
//! * [`spill`] — memory-budgeted record buffers that transparently spill to
//!   temporary files (the paper's `S_n` files), holding [`codec`] rows in
//!   memory and on disk.
//! * [`wal`] — a durable write-ahead log for streaming insert/delete
//!   chunks: concurrent producers, a single fsync-batching appender
//!   thread, checksummed segment files, and durable-prefix crash replay.
//! * [`audit`] — an append-only audit log persisting the provenance
//!   layer's chained epoch fingerprints (`boat-proof`), so model history
//!   stays verifiable back to genesis across process restarts.
//! * [`csv`] — CSV import (in-memory or streamed to disk) with per-column
//!   category dictionaries.

#![warn(missing_docs)]

pub mod audit;
pub mod codec;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod record;
pub mod sample;
pub mod schema;
pub mod spill;
pub mod wal;

pub use audit::{read_audit_log, AuditLog, AuditReplay};
pub use dataset::{
    ChunkScan, Chunks, FileDataset, FileDatasetWriter, IoSnapshot, MemoryDataset, RecordChunk,
    RecordScan, RecordSource, ScanCounters,
};
pub use error::{DataError, Result};
pub use record::{Field, Fields, Record};
pub use schema::{AttrType, Attribute, Schema};
pub use spill::{sweep_stale_spill_files, SpillBuffer};
pub use wal::{
    read_segment, replay_segments, SegmentReplay, Wal, WalAppender, WalConfig, WalEvent, WalKind,
    WalOp, WalSummary,
};
