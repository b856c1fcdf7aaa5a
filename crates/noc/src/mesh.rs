//! Mesh geometry, routing distance and latency.

use swarm_types::config::{CONTROL_FLITS, HOP_LATENCY, LINK_BITS, TURN_PENALTY};
use swarm_types::{TileId, CACHE_LINE_BYTES};

/// Directed-link slots per tile: east, west, south, north (in the direction
/// encoding of [`Mesh::route_links`]).
pub const LINKS_PER_TILE: usize = 4;

/// Direction labels matching the link-id encoding of [`Mesh::route_links`].
pub const DIR_LABELS: [&str; LINKS_PER_TILE] = ["E", "W", "S", "N"];

/// Number of flits needed to move `bytes` of payload over a mesh link,
/// including one head flit of control.
pub const fn flits_for_bytes(bytes: u64) -> u64 {
    CONTROL_FLITS + (bytes * 8).div_ceil(LINK_BITS)
}

/// Flits for a full cache line (64 bytes).
pub const LINE_FLITS: u64 = flits_for_bytes(CACHE_LINE_BYTES);

/// A 2D mesh of tiles with dimension-ordered (X-Y) routing.
#[derive(Debug, Clone)]
pub struct Mesh {
    width: u32,
    height: u32,
    /// `log2(width)` when the width is a power of two, so the hot-path
    /// coordinate split can use shift/mask instead of division.
    width_shift: Option<u32>,
}

impl Mesh {
    /// Create a `width` × `height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        let width_shift = width.is_power_of_two().then(|| width.trailing_zeros());
        Mesh { width, height, width_shift }
    }

    /// Split a tile id into (x, y) without the bounds check.
    #[inline]
    fn split(&self, t: u32) -> (u32, u32) {
        match self.width_shift {
            Some(shift) => (t & (self.width - 1), t >> shift),
            None => (t % self.width, t / self.width),
        }
    }

    /// Number of tiles in the mesh.
    pub fn num_tiles(&self) -> usize {
        (self.width * self.height) as usize
    }

    /// Mesh width (tiles along X).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Mesh height (tiles along Y).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// (x, y) coordinates of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile is outside the mesh.
    pub fn coords(&self, tile: TileId) -> (u32, u32) {
        assert!(
            tile.index() < self.num_tiles(),
            "tile {tile} outside {}x{} mesh",
            self.width,
            self.height
        );
        self.split(tile.0)
    }

    /// Tile at coordinates (x, y).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates fall outside the mesh.
    pub fn tile_at(&self, x: u32, y: u32) -> TileId {
        assert!(x < self.width && y < self.height, "({x},{y}) outside mesh");
        TileId(y * self.width + x)
    }

    /// Manhattan hop count between two tiles under X-Y routing.
    pub fn hops(&self, from: TileId, to: TileId) -> u64 {
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
    }

    /// Network latency in cycles from `from` to `to`: per-hop latency plus a
    /// turn penalty when the X-Y route changes dimension.
    pub fn latency(&self, from: TileId, to: TileId) -> u64 {
        if from == to {
            return 0;
        }
        let (fx, fy) = self.split(from.0);
        let (tx, ty) = self.split(to.0);
        let hops = u64::from(fx.abs_diff(tx) + fy.abs_diff(ty));
        let turns = u64::from(fx != tx && fy != ty);
        hops * HOP_LATENCY + turns * TURN_PENALTY
    }

    /// Visit every directed link on the dimension-ordered (X-then-Y) route
    /// from `from` to `to`, in traversal order. Each link is identified as
    /// `source_tile_index * LINKS_PER_TILE + direction` with direction
    /// `0 = east (+x)`, `1 = west (-x)`, `2 = south (+y)`, `3 = north (-y)`,
    /// named after the tile the flit *leaves*. A `from == to` route visits
    /// nothing; the number of visits always equals [`Mesh::hops`].
    ///
    /// # Panics
    ///
    /// Panics if either tile is outside the mesh.
    pub fn route_links(&self, from: TileId, to: TileId, mut visit: impl FnMut(u32)) {
        let (mut x, mut y) = self.coords(from);
        let (tx, ty) = self.coords(to);
        while x != tx {
            let (dir, nx) = if x < tx { (0, x + 1) } else { (1, x - 1) };
            visit((y * self.width + x) * LINKS_PER_TILE as u32 + dir);
            x = nx;
        }
        while y != ty {
            let (dir, ny) = if y < ty { (2, y + 1) } else { (3, y - 1) };
            visit((y * self.width + x) * LINKS_PER_TILE as u32 + dir);
            y = ny;
        }
    }

    /// Total number of directed link slots (`num_tiles * LINKS_PER_TILE`).
    /// Edge tiles own slots pointing off-mesh that no route ever visits;
    /// indexing by slot keeps link lookup a shift instead of a map.
    pub fn num_links(&self) -> usize {
        self.num_tiles() * LINKS_PER_TILE
    }

    /// The `(source, destination)` tiles of a directed link id produced by
    /// [`Mesh::route_links`].
    ///
    /// # Panics
    ///
    /// Panics if the link id points off-mesh (a slot no route ever visits).
    pub fn link_endpoints(&self, link: u32) -> (TileId, TileId) {
        let tile = link / LINKS_PER_TILE as u32;
        let dir = link % LINKS_PER_TILE as u32;
        let (x, y) = self.coords(TileId(tile));
        let (nx, ny) = match dir {
            0 => (x + 1, y),
            1 => (x.checked_sub(1).expect("west link off-mesh"), y),
            2 => (x, y + 1),
            _ => (x, y.checked_sub(1).expect("north link off-mesh")),
        };
        (TileId(tile), self.tile_at(nx, ny))
    }

    /// Average hop distance between distinct tiles (useful as a sanity check
    /// and in the analytical tests).
    pub fn mean_hops(&self) -> f64 {
        let n = self.num_tiles();
        if n <= 1 {
            return 0.0;
        }
        let mut total = 0u64;
        let mut pairs = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += self.hops(TileId(a as u32), TileId(b as u32));
                    pairs += 1;
                }
            }
        }
        total as f64 / pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4x4() -> Mesh {
        Mesh::new(4, 4)
    }

    #[test]
    fn coords_round_trip() {
        let m = mesh4x4();
        for t in 0..16u32 {
            let (x, y) = m.coords(TileId(t));
            assert_eq!(m.tile_at(x, y), TileId(t));
        }
    }

    #[test]
    fn hops_are_manhattan_distance() {
        let m = mesh4x4();
        assert_eq!(m.hops(TileId(0), TileId(0)), 0);
        assert_eq!(m.hops(TileId(0), TileId(3)), 3);
        assert_eq!(m.hops(TileId(0), TileId(12)), 3);
        assert_eq!(m.hops(TileId(0), TileId(15)), 6);
        assert_eq!(m.hops(TileId(5), TileId(10)), 2);
    }

    #[test]
    fn hops_are_symmetric() {
        let m = mesh4x4();
        for a in 0..16u32 {
            for b in 0..16u32 {
                assert_eq!(m.hops(TileId(a), TileId(b)), m.hops(TileId(b), TileId(a)));
            }
        }
    }

    #[test]
    fn latency_adds_turn_penalty() {
        let m = mesh4x4();
        // Straight along X: no turn.
        assert_eq!(m.latency(TileId(0), TileId(3)), 3);
        // Diagonal route: one turn.
        assert_eq!(m.latency(TileId(0), TileId(5)), 2 + 1);
        // Same tile: free.
        assert_eq!(m.latency(TileId(7), TileId(7)), 0);
    }

    #[test]
    fn line_flits_match_link_width() {
        // 64 bytes = 512 bits over 128-bit links = 4 flits + 1 control.
        assert_eq!(LINE_FLITS, 5);
        assert_eq!(flits_for_bytes(0), CONTROL_FLITS);
        assert_eq!(flits_for_bytes(16), 2);
    }

    #[test]
    fn single_tile_mesh_is_free() {
        let m = Mesh::new(1, 1);
        assert_eq!(m.num_tiles(), 1);
        assert_eq!(m.latency(TileId(0), TileId(0)), 0);
        assert_eq!(m.mean_hops(), 0.0);
    }

    #[test]
    fn mean_hops_grows_with_mesh_size() {
        let small = Mesh::new(2, 2).mean_hops();
        let large = Mesh::new(8, 8).mean_hops();
        assert!(large > small);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_tile_panics() {
        let m = mesh4x4();
        let _ = m.coords(TileId(16));
    }

    /// Collect the route as a link-id list.
    fn route(m: &Mesh, from: u32, to: u32) -> Vec<u32> {
        let mut links = Vec::new();
        m.route_links(TileId(from), TileId(to), |l| links.push(l));
        links
    }

    #[test]
    fn route_walk_covers_exactly_the_hop_count() {
        let m = mesh4x4();
        for a in 0..16u32 {
            for b in 0..16u32 {
                let links = route(&m, a, b);
                assert_eq!(links.len() as u64, m.hops(TileId(a), TileId(b)), "{a}->{b}");
            }
        }
    }

    #[test]
    fn route_walk_is_a_contiguous_x_then_y_path() {
        let m = mesh4x4();
        for a in 0..16u32 {
            for b in 0..16u32 {
                if a == b {
                    continue;
                }
                // Each link departs from where the previous one arrived, the
                // path starts at `a` and ends at `b`, and X moves precede Y
                // moves (dimension order).
                let links = route(&m, a, b);
                let mut at = TileId(a);
                let mut seen_y = false;
                for &l in &links {
                    let (src, dst) = m.link_endpoints(l);
                    assert_eq!(src, at, "route {a}->{b} teleported");
                    let x_move = l % LINKS_PER_TILE as u32 <= 1;
                    assert!(!(x_move && seen_y), "route {a}->{b} turned back to X");
                    seen_y |= !x_move;
                    at = dst;
                }
                assert_eq!(at, TileId(b), "route {a}->{b} ended elsewhere");
            }
        }
    }

    #[test]
    fn route_walk_on_same_tile_is_empty() {
        let m = mesh4x4();
        assert!(route(&m, 7, 7).is_empty());
    }
}
