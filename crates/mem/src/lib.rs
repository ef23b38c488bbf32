//! # hmc-mem
//!
//! The memory storage substrate of the HMC-Sim stack: sparse row-granular
//! backing stores, banks with row-buffer and DRAM-die accounting, and
//! per-vault bank stacks. The simulator core (`hmc-core`) drives this
//! crate from its vault controllers during sub-cycle stage 4 (vault queue
//! memory request processing, paper §IV.C).
//!
//! Storage can run **functional** (real bytes move) or **timing-only**
//! (counters only) — the latter keeps the paper's 33.5-million-request
//! Table I runs within laptop memory budgets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod cellfault;
pub mod dram;
pub mod storage;
pub mod vault_mem;

pub use bank::{Bank, BankStats};
pub use cellfault::{ActivationOutcome, CellFaultState, ELEVATED_REFRESH_DIVISOR};
pub use dram::{DramBlock, COLUMN_FETCH_BYTES, DRAM_ADDRESS_BYTES};
pub use storage::RowStore;
pub use vault_mem::VaultMemory;
