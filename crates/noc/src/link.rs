//! Link contention: each directed mesh link as a bandwidth-limited FIFO.
//!
//! In [`swarm_types::NocModel::Contention`] every message walks its
//! dimension-ordered route link by link (see [`crate::Mesh::route_links`]).
//! A link serves one message at a time in arrival order and needs
//! `ceil(flits / link_flits_per_cycle)` cycles per message, so a message
//! arriving while the link is busy queues behind the in-flight ones and its
//! delivery time slips by the backlog. The model is work-conserving: a link
//! never idles while a message is waiting, and because arrival order is
//! deterministic (the engine processes events in a fixed total order) the
//! resulting delays are bit-identical across repeats and `--jobs` levels.
//!
//! [`LINK_QUEUE_DEPTH`] bounds the *reported* occupancy — the backlog a
//! router's finite buffers would expose — not the departure times: a
//! work-conserving FIFO drains in the same order and at the same rate
//! regardless of how the backlog is buffered, so clamping only the statistic
//! keeps the model simple and the delays exact.
//!
//! The depth also bounds the backlog each link *stores*, without changing
//! any statistic. A link's departures strictly increase (each is at least
//! one service time past the previous one), and an arrival only ever drops
//! departures at or before its own cycle from the front. The stored backlog
//! is therefore always a suffix of the link's departure history, and the
//! occupancy an arrival sees is `min(len, depth)` of the unbounded suffix.
//! Keeping only its newest `depth` entries keeps that minimum exact. The
//! dropped entries are older than every kept one, so an arrival that drains
//! into the kept entries has drained every dropped one first, and both
//! backlogs agree entry for entry; an arrival that does not still finds at
//! least `depth` entries either way. Each link record holds its backlog as
//! a fixed ring of `depth` slots, and an arrival at or after the link's
//! busy cycle (its newest departure) finds every stored departure drained,
//! so it restarts the ring in O(1).
//!
//! The per-epoch GVT exchange sends one message from every tile to tile 0
//! at the same cycle. [`LinkNet::walk_fan_in`] walks those messages
//! link-major through a [`FanIn`] schedule instead of route by route; see
//! [`FanIn`] for why both orders leave every link in the same state.

use swarm_types::{NocConfig, TileId};

use crate::mesh::{Mesh, LINKS_PER_TILE};
use crate::traffic::TrafficClass;

/// Departures each link stores, and the cap on the backlog an arrival
/// reports as its occupancy.
pub const LINK_QUEUE_DEPTH: usize = 16;

/// Ring index mask: the depth is a power of two, so the ring wraps by mask.
const RING_MASK: usize = LINK_QUEUE_DEPTH - 1;
const _: () = assert!(LINK_QUEUE_DEPTH.is_power_of_two());

/// Aggregate counters for one directed link (integer-only: these end up in
/// `RunStats`, which derives `Eq` so determinism checks can compare runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct LinkCounters {
    /// Messages that traversed the link.
    pub messages: u64,
    /// Total flits carried.
    pub flits: u64,
    /// Total cycles messages spent queued behind earlier ones.
    pub queue_cycles: u64,
    /// Sum over messages of the backlog observed on arrival (each clamped to
    /// [`LINK_QUEUE_DEPTH`]); divide by `messages` for the mean occupancy.
    pub occupancy_sum: u64,
    /// Largest backlog observed on any arrival (clamped to
    /// [`LINK_QUEUE_DEPTH`]).
    pub max_occupancy: u64,
}

impl LinkCounters {
    /// Mean backlog observed on arrival (0 when the link carried nothing).
    pub fn mean_occupancy(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.messages as f64
        }
    }
}

/// End-of-run snapshot of link contention: per-link counters plus queueing
/// cycles broken down by [`TrafficClass`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// One entry per directed link slot (see [`crate::Mesh::num_links`];
    /// index with the link ids of [`crate::Mesh::route_links`]).
    pub links: Vec<LinkCounters>,
    /// Queueing cycles per class, indexed by [`TrafficClass::index`].
    pub class_queue_cycles: [u64; TrafficClass::ALL.len()],
}

impl LinkStats {
    /// Total queueing cycles over every link and class.
    pub fn total_queue_cycles(&self) -> u64 {
        self.class_queue_cycles.iter().sum()
    }

    /// The busiest link by queueing cycles, as `(link id, counters)`.
    pub fn hottest_link(&self) -> Option<(u32, LinkCounters)> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, c)| c.messages > 0)
            .max_by_key(|&(i, c)| (c.queue_cycles, std::cmp::Reverse(i)))
            .map(|(i, c)| (i as u32, *c))
    }
}

/// One link a message crossed, as [`LinkNet::walk`] reports it per hop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hop {
    /// The directed link id (see [`crate::Mesh::route_links`]).
    pub link: u32,
    /// Cycle the message arrived at the link.
    pub enter: u64,
    /// Cycle the message cleared the link (service plus any queueing).
    pub depart: u64,
    /// Cycles spent waiting behind earlier messages on this link.
    pub queue_cycles: u64,
}

/// The live contention state of every directed link in the mesh.
#[derive(Debug, Clone)]
pub struct LinkNet {
    flits_per_cycle: u64,
    /// One record per directed link slot, so a hop touches one record.
    links: Vec<Link>,
    class_queue_cycles: [u64; TrafficClass::ALL.len()],
}

/// Everything one directed link keeps.
#[derive(Debug, Clone, Default)]
struct Link {
    /// Cycle at which the link finishes serving everything accepted so far:
    /// the newest departure in `backlog`, or 0 before the first message.
    busy_until: u64,
    /// Totals reported by [`LinkNet::snapshot`].
    counters: LinkCounters,
    /// Departures of the messages still on the link.
    backlog: Backlog,
}

/// Departure cycles of the newest messages still on one link, oldest
/// first, in a fixed ring of [`LINK_QUEUE_DEPTH`] slots (see the module
/// docs for why dropping older ones is exact).
#[derive(Debug, Clone, Default)]
struct Backlog {
    slots: [u64; LINK_QUEUE_DEPTH],
    /// Slot of the oldest departure.
    head: usize,
    /// Departures held.
    len: usize,
}

impl Backlog {
    /// Admit a message arriving at `enter` that departs at `depart`, on a
    /// link busy until `busy_until`: forget the departures at or before
    /// `enter`, record `depart` (displacing the oldest when the ring is
    /// full), and return how many messages were still ahead of it, at most
    /// [`LINK_QUEUE_DEPTH`].
    #[inline]
    fn admit(&mut self, enter: u64, busy_until: u64, depart: u64) -> u64 {
        if enter >= busy_until {
            // Every held departure is at or before `busy_until`: the link
            // has drained, so the ring restarts with this message alone.
            self.head = 0;
            self.slots[0] = depart;
            self.len = 1;
            return 0;
        }
        // The newest held departure is `busy_until > enter`, so this stops
        // before the ring empties.
        while self.slots[self.head] <= enter {
            debug_assert!(self.len > 1);
            self.head = (self.head + 1) & RING_MASK;
            self.len -= 1;
        }
        let ahead = self.len;
        if ahead == LINK_QUEUE_DEPTH {
            // Full: the newest departure takes the oldest one's slot.
            self.slots[self.head] = depart;
            self.head = (self.head + 1) & RING_MASK;
        } else {
            self.slots[(self.head + ahead) & RING_MASK] = depart;
            self.len += 1;
        }
        ahead as u64
    }
}

/// The GVT exchange's link-major walk: every link the X-Y routes to tile 0
/// cross, upstream first, each with the contiguous range of source tiles
/// whose messages it carries, plus the per-tile scratch one
/// [`LinkNet::walk_fan_in`] advances in place.
///
/// The route from tile `(x, y)` runs west along row `y` to column 0, then
/// north to `(0, 0)`. The west link leaving `(x', y)` carries the tiles
/// `(x'.., y)` of its row; the north link leaving `(0, y')` carries every
/// tile of rows `y'..`. Both are contiguous tile ranges. Listing each row's
/// west links from east to west, and each row's north link after its west
/// links and after the north link below it, puts every link after all the
/// links that feed it.
///
/// Walking link-major in that order is exact: a link's FIFO state depends
/// only on the arrival cycles and order of its own messages; the arrival
/// cycle of a message at a link is its departure from the upstream link,
/// walked earlier; and every link still takes its messages in tile order,
/// as walking the routes tile by tile would.
#[derive(Debug, Clone)]
pub struct FanIn {
    groups: Vec<FanInLink>,
    /// Per tile: the cycle its message reaches the next link of its route.
    at: Vec<u64>,
    /// Per tile: its message's queueing cycles in the last walk.
    queued: Vec<u64>,
    /// Tile `t`'s route occupies `hops[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
    /// Per tile: the next `hops` slot a recording walk fills.
    next: Vec<u32>,
    /// Every tile's hops from the last recording walk, in message order;
    /// sized on the first recording walk.
    hops: Vec<Hop>,
}

/// One link of a [`FanIn`] and the source tiles `first..end` it carries.
#[derive(Debug, Clone, Copy)]
struct FanInLink {
    link: u32,
    first: u32,
    end: u32,
}

impl FanIn {
    /// The fan-in of every tile's X-Y route to tile 0 on `mesh`, built in
    /// O(links).
    pub fn new(mesh: &Mesh) -> Self {
        let (w, h) = (mesh.width(), mesh.height());
        let n = mesh.num_tiles();
        let link = |x: u32, y: u32, dir: u32| (y * w + x) * LINKS_PER_TILE as u32 + dir;
        let mut groups = Vec::with_capacity((h * w - 1) as usize);
        for y in (0..h).rev() {
            for x in (1..w).rev() {
                groups.push(FanInLink { link: link(x, y, 1), first: y * w + x, end: (y + 1) * w });
            }
            if y > 0 {
                groups.push(FanInLink { link: link(0, y, 3), first: y * w, end: n as u32 });
            }
        }
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0);
        for t in 0..n as u32 {
            starts.push(starts[t as usize] + t % w + t / w);
        }
        FanIn {
            groups,
            at: vec![0; n],
            queued: vec![0; n],
            starts,
            next: vec![0; n],
            hops: Vec::new(),
        }
    }

    /// Per tile, its message's queueing cycles in the last walk.
    pub fn queued(&self) -> &[u64] {
        &self.queued
    }

    /// The links `from`'s message crossed in the last walk that recorded
    /// hops, in route order.
    ///
    /// # Panics
    ///
    /// Panics if no walk has recorded hops yet, or if `from` is outside the
    /// mesh.
    pub fn route_hops(&self, from: TileId) -> &[Hop] {
        let t = from.index();
        &self.hops[self.starts[t] as usize..self.starts[t + 1] as usize]
    }
}

impl LinkNet {
    /// Create the link state for a mesh with `num_links` directed link slots
    /// (see [`crate::Mesh::num_links`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.link_flits_per_cycle` is zero (a validated
    /// `SystemConfig` rejects it).
    pub fn new(cfg: &NocConfig, num_links: usize) -> Self {
        assert!(cfg.link_flits_per_cycle > 0, "link_flits_per_cycle must be positive");
        LinkNet {
            flits_per_cycle: cfg.link_flits_per_cycle,
            links: vec![Link::default(); num_links],
            class_queue_cycles: [0; TrafficClass::ALL.len()],
        }
    }

    /// Walk one `flits`-flit message of `class` over `route` (link ids in
    /// traversal order). It arrives at the first link at cycle `enter` and
    /// at each later link when it clears the one before; every link serves
    /// it behind everything it accepted earlier. `on_hop` sees each link
    /// crossed, in order. Returns the message's total queueing delay, which
    /// is also accumulated into the link and class counters.
    #[inline]
    pub fn walk(
        &mut self,
        route: &[u32],
        class: TrafficClass,
        flits: u64,
        enter: u64,
        mut on_hop: impl FnMut(Hop),
    ) -> u64 {
        let service = self.service_cycles(flits);
        let mut at = enter;
        let mut queued = 0;
        for &link in route {
            let l = &mut self.links[link as usize];
            let busy = l.busy_until;
            let wait = busy.saturating_sub(at);
            let depart = at + wait + service;
            let occupancy = l.backlog.admit(at, busy, depart);
            l.busy_until = depart;
            let c = &mut l.counters;
            c.messages += 1;
            c.flits += flits;
            c.queue_cycles += wait;
            c.occupancy_sum += occupancy;
            c.max_occupancy = c.max_occupancy.max(occupancy);
            on_hop(Hop { link, enter: at, depart, queue_cycles: wait });
            queued += wait;
            at = depart;
        }
        self.class_queue_cycles[class.index()] += queued;
        queued
    }

    /// Send one `flits`-flit message of `class` from every tile to tile 0,
    /// all leaving at cycle `enter`, in tile order: the same link state,
    /// counters and per-message delays as walking each tile's route with
    /// [`LinkNet::walk`] in turn, computed link-major (see [`FanIn`]).
    /// Afterwards [`FanIn::queued`] holds each message's queueing delay,
    /// and with `record_hops` [`FanIn::route_hops`] holds the hops each
    /// message crossed.
    pub fn walk_fan_in(
        &mut self,
        fan_in: &mut FanIn,
        class: TrafficClass,
        flits: u64,
        enter: u64,
        record_hops: bool,
    ) {
        let service = self.service_cycles(flits);
        let FanIn { groups, at, queued, starts, next, hops } = fan_in;
        at.fill(enter);
        queued.fill(0);
        if record_hops {
            hops.resize(starts[starts.len() - 1] as usize, Hop::default());
            let tiles = next.len();
            next.copy_from_slice(&starts[..tiles]);
        }
        let mut total = 0;
        for g in groups.iter() {
            let l = &mut self.links[g.link as usize];
            let mut busy = l.busy_until;
            let mut c = l.counters;
            for t in g.first as usize..g.end as usize {
                let arrive = at[t];
                let wait = busy.saturating_sub(arrive);
                let depart = arrive + wait + service;
                let occupancy = l.backlog.admit(arrive, busy, depart);
                busy = depart;
                c.queue_cycles += wait;
                c.occupancy_sum += occupancy;
                c.max_occupancy = c.max_occupancy.max(occupancy);
                at[t] = depart;
                queued[t] += wait;
                total += wait;
                if record_hops {
                    hops[next[t] as usize] =
                        Hop { link: g.link, enter: arrive, depart, queue_cycles: wait };
                    next[t] += 1;
                }
            }
            let carried = u64::from(g.end - g.first);
            c.messages += carried;
            c.flits += carried * flits;
            l.busy_until = busy;
            l.counters = c;
        }
        self.class_queue_cycles[class.index()] += total;
    }

    /// Pass one `flits`-flit message of `class` through the single link
    /// `link`, arriving at cycle `enter`. Returns the departure cycle: the
    /// raw service time plus the queueing delay.
    #[cfg(test)]
    fn traverse(&mut self, link: u32, class: TrafficClass, flits: u64, enter: u64) -> u64 {
        enter + self.service_cycles(flits) + self.walk(&[link], class, flits, enter, |_| {})
    }

    /// Raw service time of a `flits`-flit message on an idle link.
    #[inline]
    pub fn service_cycles(&self, flits: u64) -> u64 {
        flits.div_ceil(self.flits_per_cycle).max(1)
    }

    /// Total queueing cycles accumulated so far, over every link and class.
    pub fn total_queue_cycles(&self) -> u64 {
        self.class_queue_cycles.iter().sum()
    }

    /// Snapshot the counters for end-of-run statistics.
    pub fn snapshot(&self) -> LinkStats {
        LinkStats {
            links: self.links.iter().map(|l| l.counters).collect(),
            class_queue_cycles: self.class_queue_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(flits_per_cycle: u64) -> LinkNet {
        let cfg = NocConfig { link_flits_per_cycle: flits_per_cycle, ..NocConfig::default() };
        LinkNet::new(&cfg, 8)
    }

    #[test]
    fn idle_link_charges_only_service_time() {
        let mut n = net(1);
        // 5 flits at 1 flit/cycle: departs 5 cycles after arrival, no wait.
        assert_eq!(n.traverse(0, TrafficClass::Memory, 5, 100), 105);
        let s = n.snapshot();
        assert_eq!(s.links[0].queue_cycles, 0);
        assert_eq!(s.links[0].messages, 1);
        assert_eq!(s.links[0].flits, 5);
        assert_eq!(s.total_queue_cycles(), 0);
    }

    #[test]
    fn back_to_back_messages_queue_fifo() {
        let mut n = net(1);
        // Three 4-flit messages arriving at the same cycle serialize.
        assert_eq!(n.traverse(0, TrafficClass::Memory, 4, 0), 4);
        assert_eq!(n.traverse(0, TrafficClass::Task, 4, 0), 8);
        assert_eq!(n.traverse(0, TrafficClass::Task, 4, 0), 12);
        let s = n.snapshot();
        assert_eq!(s.links[0].queue_cycles, 4 + 8);
        assert_eq!(s.class_queue_cycles[TrafficClass::Memory.index()], 0);
        assert_eq!(s.class_queue_cycles[TrafficClass::Task.index()], 12);
        assert_eq!(s.total_queue_cycles(), 12);
    }

    #[test]
    fn a_late_arrival_finds_the_link_idle_again() {
        let mut n = net(2);
        // 4 flits at 2 flits/cycle = 2 cycles of service.
        assert_eq!(n.traverse(3, TrafficClass::Gvt, 4, 10), 12);
        // Arriving after the link drained: no queueing.
        assert_eq!(n.traverse(3, TrafficClass::Gvt, 4, 20), 22);
        assert_eq!(n.snapshot().links[3].queue_cycles, 0);
    }

    #[test]
    fn occupancy_counts_messages_ahead_and_clamps_at_depth() {
        let mut n = net(1);
        let depth = LINK_QUEUE_DEPTH as u64;
        for k in 0..depth + 4 {
            n.traverse(1, TrafficClass::Abort, 10, 0);
            let c = n.snapshot().links[1];
            // The k-th arrival queues behind min(k, depth) earlier messages.
            assert_eq!(c.max_occupancy, k.min(depth));
        }
        let c = n.snapshot().links[1];
        // Backlogs seen: 0, 1, .., 15, then 16 (clamped) four times.
        assert_eq!(c.occupancy_sum, 120 + 4 * 16);
        assert_eq!(c.max_occupancy, depth);
        assert!((c.mean_occupancy() - 184.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn links_are_independent() {
        let mut n = net(1);
        assert_eq!(n.traverse(0, TrafficClass::Memory, 8, 0), 8);
        // A different link is idle even while link 0 is busy.
        assert_eq!(n.traverse(1, TrafficClass::Memory, 8, 0), 8);
        assert_eq!(n.total_queue_cycles(), 0);
    }

    #[test]
    fn hottest_link_picks_the_most_queued() {
        let mut n = net(1);
        n.traverse(2, TrafficClass::Memory, 4, 0);
        n.traverse(2, TrafficClass::Memory, 4, 0);
        n.traverse(5, TrafficClass::Memory, 4, 0);
        let (link, c) = n.snapshot().hottest_link().expect("traffic exists");
        assert_eq!(link, 2);
        assert_eq!(c.queue_cycles, 4);
        assert!(LinkStats::default().hottest_link().is_none());
    }

    #[test]
    fn zero_flit_control_still_occupies_one_cycle() {
        let mut n = net(4);
        // Service time is at least one cycle regardless of width.
        assert_eq!(n.traverse(0, TrafficClass::Gvt, 1, 0), 1);
        assert_eq!(n.service_cycles(1), 1);
    }

    /// The departures link `l`'s ring holds, oldest first.
    fn held(n: &LinkNet, l: usize) -> Vec<u64> {
        let b = &n.links[l].backlog;
        (0..b.len).map(|k| b.slots[(b.head + k) & RING_MASK]).collect()
    }

    #[test]
    fn the_ring_keeps_the_newest_departures_and_restarts_on_an_idle_link() {
        let mut n = net(1);
        let depth = LINK_QUEUE_DEPTH as u64;
        // 100 same-cycle 3-flit arrivals saturate link 0 (departures 3, 6,
        // .., 300); the ring keeps the newest `depth` of them while the
        // statistic still clamps.
        for k in 1..=100u64 {
            n.traverse(0, TrafficClass::Memory, 3, 0);
            let want: Vec<u64> = (k.saturating_sub(depth) + 1..=k).map(|j| 3 * j).collect();
            assert_eq!(held(&n, 0), want, "after {k} arrivals");
        }
        let expect: u64 = (0..100u64).map(|k| k.min(depth)).sum();
        assert_eq!(n.snapshot().links[0].occupancy_sum, expect);
        // An arrival at cycle 280 drains the departures up to 279 (the
        // kept 255..=279, and every dropped one before them) and still
        // finds 7 ahead (282..=300).
        assert_eq!(n.traverse(0, TrafficClass::Memory, 3, 280), 303);
        assert_eq!(held(&n, 0), (94..=101).map(|j| 3 * j).collect::<Vec<_>>());
        assert_eq!(n.snapshot().links[0].max_occupancy, depth);
        // Arriving exactly when the link frees up restarts the ring.
        assert_eq!(n.traverse(0, TrafficClass::Memory, 3, 303), 306);
        assert_eq!((n.links[0].backlog.head, held(&n, 0)), (0, vec![306]));
        // So does a late arrival; it sees an empty link.
        let before = n.snapshot().links[0].occupancy_sum;
        assert_eq!(n.traverse(0, TrafficClass::Memory, 3, 10_000), 10_003);
        assert_eq!(held(&n, 0), [10_003]);
        assert_eq!(n.snapshot().links[0].occupancy_sum, before);
    }

    #[test]
    fn fan_in_lists_every_arbiter_link_upstream_first() {
        // A 3x2 mesh: tiles 0 1 2 / 3 4 5. Row 1's west links (5 then 4),
        // then its north link (carrying tiles 3..6), then row 0's west links.
        let f = FanIn::new(&Mesh::new(3, 2));
        let groups: Vec<(u32, u32, u32)> =
            f.groups.iter().map(|g| (g.link, g.first, g.end)).collect();
        assert_eq!(
            groups,
            [
                (5 * 4 + 1, 5, 6),
                (4 * 4 + 1, 4, 6),
                (3 * 4 + 3, 3, 6),
                (2 * 4 + 1, 2, 3),
                (4 + 1, 1, 3)
            ]
        );
        assert_eq!(f.starts, [0, 0, 1, 3, 4, 6, 9]);
        assert!(FanIn::new(&Mesh::new(1, 1)).groups.is_empty());
    }

    #[test]
    fn a_walk_chains_hops_and_reports_each_one() {
        let mut n = net(2);
        // Link 4 is busy until cycle 7, so the message queues there.
        assert_eq!(n.traverse(4, TrafficClass::Task, 6, 4), 7);
        let mut hops = Vec::new();
        let queued = n.walk(&[1, 4, 6], TrafficClass::Gvt, 3, 2, |h| hops.push(h));
        assert_eq!(
            hops,
            [
                Hop { link: 1, enter: 2, depart: 4, queue_cycles: 0 },
                Hop { link: 4, enter: 4, depart: 9, queue_cycles: 3 },
                Hop { link: 6, enter: 9, depart: 11, queue_cycles: 0 },
            ]
        );
        assert_eq!(queued, 3);
        assert_eq!(n.snapshot().class_queue_cycles[TrafficClass::Gvt.index()], 3);
        // An empty route crosses nothing and charges nothing.
        assert_eq!(n.walk(&[], TrafficClass::Gvt, 3, 0, |_| unreachable!()), 0);
    }
}
