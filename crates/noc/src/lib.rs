//! On-chip network model: a 2D mesh with X-Y routing, per-hop latencies and
//! flit-level traffic accounting by message class (paper Table II for the
//! mesh parameters, Fig. 5b / Fig. 8b for the traffic categories).
//!
//! The paper's machine uses a 16×16 mesh of 128-bit links with X-Y routing,
//! one cycle per hop when going straight and two on turns (Table II). The
//! evaluation reports NoC data transferred broken down into memory accesses,
//! abort traffic, task enqueues, and GVT updates (Fig. 5b); [`TrafficStats`]
//! mirrors exactly those categories.
//!
//! # Example
//!
//! ```
//! use swarm_noc::{Mesh, TrafficClass, TrafficStats};
//! use swarm_types::TileId;
//!
//! let mesh = Mesh::new(4, 4);
//! let hops = mesh.hops(TileId(0), TileId(15));
//! assert_eq!(hops, 6); // 3 in X + 3 in Y
//!
//! let mut traffic = TrafficStats::default();
//! traffic.record(TrafficClass::Task, hops, 2);
//! assert_eq!(traffic.task_flit_hops, 12);
//! ```

pub mod link;
pub mod mesh;
pub mod traffic;

pub use link::{FanIn, Hop, LinkCounters, LinkNet, LinkStats, LINK_QUEUE_DEPTH};
pub use mesh::{flits_for_bytes, Mesh, DIR_LABELS, LINE_FLITS, LINKS_PER_TILE};
pub use traffic::{TrafficClass, TrafficStats};
