//! Simulated memory system for the Swarm spatial-hints reproduction.
//!
//! This models the memory side of the baseline architecture (paper
//! Section II and the hierarchy rows of Table II). Two independent pieces
//! live here:
//!
//! * [`SimMemory`]: a word-addressed store holding all mutable shared state
//!   of an application, with undo records so the speculation layer can roll
//!   back aborted tasks (eager versioning, as in LogTM-SE / Swarm).
//! * [`CacheModel`]: a line-granular model of the paper's three-level cache
//!   hierarchy (per-core L1s, per-tile L2s, a static-NUCA shared L3) with
//!   directory-style owner/sharer tracking. The model reports *where* an
//!   access was served from; the simulator crate combines that with the mesh
//!   model to charge cycles and network flits.
//!
//! # Example
//!
//! ```
//! use swarm_mem::SimMemory;
//!
//! let mut mem = SimMemory::new();
//! assert_eq!(mem.load(0x100), 0);
//! let old = mem.store(0x100, 7);
//! assert_eq!(old, 0);
//! assert_eq!(mem.load(0x100), 7);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod layout;
pub mod lru;
pub mod memory;
pub mod table;

pub use cache::{AccessKind, AccessOutcome, CacheModel, HitLevel};
pub use layout::{AddressSpace, Region};
pub use lru::{LruList, LruSet};
pub use memory::{SimMemory, UndoEntry};
pub use table::{OpenTable, Probe};
