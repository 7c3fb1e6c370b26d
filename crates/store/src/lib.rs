//! # eco-store — the durable, content-addressed model store
//!
//! The paper's predictor maps `(system_hash, binary_hash)` to an
//! energy-optimal configuration, but before this crate that mapping
//! lived only in daemon memory: a restarted replica bootstrapped cold
//! and depended on a client to re-preload it. `eco-store` makes the
//! mapping durable and auditable:
//!
//! * a **blob** ([`ModelBlob`]) is the model itself — the benchmark
//!   rows it was fit on plus its parameters — written atomically under
//!   its content address ([`blob_hash`], the paper's `simple_hash`
//!   over the canonical encoding);
//! * a **metadata record** ([`ModelRecord`]) carries provenance
//!   ([`Provenance`]: which campaign, which seed, what calibration
//!   numbers) and generation lineage (parent → child), appended to a
//!   CRC-checked write-ahead journal ([`chronus::integrations::codec`]);
//! * the journal is an **append-only ledger** ([`LedgerRecord`]):
//!   rollback appends a record pointing at an earlier generation, it
//!   never rewrites history — so the currently-serving generation is a
//!   fold over the ledger and every operator action stays auditable;
//! * recovery is **torn-tail tolerant**: reopening after a crash keeps
//!   the longest valid prefix and truncates the rest, and a crash
//!   between the blob write and the metadata append leaves only a
//!   harmless orphan blob.
//!
//! The I/O seam is [`StoreBackend`]: [`DiskBackend`] for real
//! directories, [`MemBackend`] for tests and for the simtest store
//! world's fault injection.
//!
//! Consumers: every `chronus serve` (over `$CHRONUS_HOME/store`, or
//! `--store <dir>`) self-serves catch-up from the store on boot,
//! `chronus load-model` commits what it stages, the campaign engine
//! commits each built model before rolling it out, and `chronus models`
//! audits, verifies and rolls back the history.

#![warn(missing_docs)]

pub mod backend;
pub mod ledger;
mod store;

pub use backend::{DiskBackend, MemBackend, StoreBackend};
pub use ledger::{LedgerRecord, ModelBlob, ModelRecord, Provenance, ProvenanceSource};
pub use store::{blob_hash, ModelStore, StoreError, VerifyIssue, BLOB_DIR, JOURNAL_FILE};
