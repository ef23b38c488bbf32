//! # hmc-mem
//!
//! The memory storage substrate of the HMC-Sim stack: sparse row-granular
//! backing stores, banks that check every span against their geometry,
//! per-vault bank stacks, and the cell-fault model that corrupts them. The
//! simulator core (`hmc-core`) drives this crate from its vault
//! controllers during sub-cycle stage 4 (vault queue memory request
//! processing, paper §IV.C); the vault counts each access and its timing
//! backend owns the row buffer, so nothing here counts.
//!
//! Storage can run **functional** (real bytes move) or **timing-only**
//! (no bytes held) — the latter keeps the paper's 33.5-million-request
//! Table I runs within laptop memory budgets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod cellfault;
pub mod storage;
pub mod vault_mem;

pub use bank::Bank;
pub use cellfault::{ActivationOutcome, CellFaultState, ELEVATED_REFRESH_DIVISOR};
pub use storage::RowStore;
pub use vault_mem::VaultMemory;
