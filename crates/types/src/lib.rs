//! Common types for the Swarm spatial-hints reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for tasks, tiles and cores, timestamps, the
//! [`Hint`] type that is the paper's central abstraction, deterministic
//! hashing utilities, and the [`SystemConfig`] describing the simulated
//! machine (the analogue of Table II in the paper).
//!
//! # Example
//!
//! ```
//! use swarm_types::{Hint, SystemConfig, TileId};
//!
//! let cfg = SystemConfig::with_cores(16);
//! assert_eq!(cfg.num_tiles(), cfg.tiles_x as usize * cfg.tiles_y as usize);
//!
//! let hint = Hint::value(42);
//! let tile = hint.to_tile(cfg.num_tiles()).unwrap_or(TileId(0));
//! assert!((tile.0 as usize) < cfg.num_tiles());
//! ```

#![warn(missing_docs)]

pub mod canon;
pub mod config;
pub mod error;
pub mod hashing;
pub mod hint;
pub mod ids;

pub use canon::{key_of, CanonBuf, CanonKey, Canonical};
pub use config::{CacheConfig, NocConfig, NocModel, QueueConfig, SystemConfig};
pub use error::{SimError, SimResult};
pub use hashing::{
    fast_mix64, hash64, hash_to_bucket, hash_to_range, hash_to_u16, FastBuildHasher, FastHashMap,
    FastHasher,
};
pub use hint::{Hint, HINT_BUCKET_BITS};
pub use ids::{Addr, CoreId, LineAddr, TaskFnId, TaskId, TileId, Timestamp, CACHE_LINE_BYTES};
