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
//! The configured `link_queue_depth` bounds the *reported* occupancy — the
//! backlog a router's finite buffers would expose — not the departure times:
//! a work-conserving FIFO drains in the same order and at the same rate
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
//! least `depth` entries either way. The stored backlog grows with the real
//! one and never past `depth`, so a large configured depth costs no memory
//! up front.

use swarm_types::NocConfig;

use crate::traffic::TrafficClass;

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
    /// `link_queue_depth`); divide by `messages` for the mean occupancy.
    pub occupancy_sum: u64,
    /// Largest backlog observed on any arrival (clamped to
    /// `link_queue_depth`).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    queue_depth: usize,
    /// One record per directed link slot, so a hop touches one record.
    links: Vec<Link>,
    class_queue_cycles: [u64; TrafficClass::ALL.len()],
}

/// Everything one directed link keeps.
#[derive(Debug, Clone, Default)]
struct Link {
    /// Cycle at which the link finishes serving everything accepted so far.
    busy_until: u64,
    /// Totals reported by [`LinkNet::snapshot`].
    counters: LinkCounters,
    /// Departures of the messages still on the link.
    backlog: Backlog,
}

/// Departure cycles of the messages still on one link, oldest first, in a
/// ring that holds at most the queue depth of them (see the module docs for
/// why that is exact). The ring doubles as the backlog grows, never past the
/// depth, and keeps its storage, so the steady state allocates nothing.
#[derive(Debug, Clone, Default)]
struct Backlog {
    /// Ring storage; every slot is initialised and `slots.len()` is the
    /// ring size.
    slots: Vec<u64>,
    /// Slot of the oldest departure.
    head: usize,
    /// Departures held.
    len: usize,
}

impl Backlog {
    /// Admit a message arriving at `enter` that departs at `depart`: forget
    /// the departures at or before `enter`, record `depart` (displacing the
    /// oldest when `depth` are held), and return how many messages were
    /// still ahead of it, at most `depth`.
    #[inline]
    fn admit(&mut self, enter: u64, depart: u64, depth: usize) -> u64 {
        while self.len > 0 && self.slots[self.head] <= enter {
            self.head = self.next(self.head);
            self.len -= 1;
        }
        let ahead = self.len;
        if ahead == depth {
            // Full at the cap, where the ring size is `depth`: the newest
            // departure takes the oldest one's slot.
            self.slots[self.head] = depart;
            self.head = self.next(self.head);
        } else {
            if ahead == self.slots.len() {
                self.grow(depth);
            }
            let mut tail = self.head + ahead;
            if tail >= self.slots.len() {
                tail -= self.slots.len();
            }
            self.slots[tail] = depart;
            self.len += 1;
        }
        ahead as u64
    }

    #[inline]
    fn next(&self, slot: usize) -> usize {
        if slot + 1 == self.slots.len() {
            0
        } else {
            slot + 1
        }
    }

    /// Double the full ring, capped at `depth`, unrolled so the oldest
    /// departure sits in slot 0.
    #[cold]
    fn grow(&mut self, depth: usize) {
        let size = (self.slots.len() * 2).max(4).min(depth);
        let mut slots = Vec::with_capacity(size);
        slots.extend_from_slice(&self.slots[self.head..]);
        slots.extend_from_slice(&self.slots[..self.head]);
        slots.resize(size, 0);
        self.slots = slots;
        self.head = 0;
    }
}

impl LinkNet {
    /// Create the link state for a mesh with `num_links` directed link slots
    /// (see [`crate::Mesh::num_links`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.link_flits_per_cycle` or `cfg.link_queue_depth` is
    /// zero (a validated `SystemConfig` rejects both).
    pub fn new(cfg: &NocConfig, num_links: usize) -> Self {
        assert!(cfg.link_flits_per_cycle > 0, "link_flits_per_cycle must be positive");
        assert!(cfg.link_queue_depth > 0, "link_queue_depth must be positive");
        LinkNet {
            flits_per_cycle: cfg.link_flits_per_cycle,
            queue_depth: usize::try_from(cfg.link_queue_depth).unwrap_or(usize::MAX),
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
            let wait = l.busy_until.saturating_sub(at);
            let depart = at + wait + service;
            l.busy_until = depart;
            let occupancy = l.backlog.admit(at, depart, self.queue_depth);
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

    /// Pass one `flits`-flit message of `class` through the single link
    /// `link`, arriving at cycle `enter`. Returns the departure cycle: the
    /// raw service time plus the queueing delay.
    pub fn traverse(&mut self, link: u32, class: TrafficClass, flits: u64, enter: u64) -> u64 {
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

    fn net(flits_per_cycle: u64, depth: u64) -> LinkNet {
        let cfg = NocConfig {
            link_flits_per_cycle: flits_per_cycle,
            link_queue_depth: depth,
            ..NocConfig::default()
        };
        LinkNet::new(&cfg, 8)
    }

    #[test]
    fn idle_link_charges_only_service_time() {
        let mut n = net(1, 16);
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
        let mut n = net(1, 16);
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
        let mut n = net(2, 16);
        // 4 flits at 2 flits/cycle = 2 cycles of service.
        assert_eq!(n.traverse(3, TrafficClass::Gvt, 4, 10), 12);
        // Arriving after the link drained: no queueing.
        assert_eq!(n.traverse(3, TrafficClass::Gvt, 4, 20), 22);
        assert_eq!(n.snapshot().links[3].queue_cycles, 0);
    }

    #[test]
    fn occupancy_counts_messages_ahead_and_clamps_at_depth() {
        let mut n = net(1, 2);
        for k in 0..5 {
            n.traverse(1, TrafficClass::Abort, 10, 0);
            let c = n.snapshot().links[1];
            // The k-th arrival queues behind min(k, depth) earlier messages.
            assert_eq!(c.max_occupancy, (k as u64).min(2));
        }
        let c = n.snapshot().links[1];
        // Backlogs seen: 0, 1, 2, 2 (clamped), 2 (clamped) — sum 7.
        assert_eq!(c.occupancy_sum, 7);
        assert_eq!(c.max_occupancy, 2);
        assert!((c.mean_occupancy() - 7.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn links_are_independent() {
        let mut n = net(1, 16);
        assert_eq!(n.traverse(0, TrafficClass::Memory, 8, 0), 8);
        // A different link is idle even while link 0 is busy.
        assert_eq!(n.traverse(1, TrafficClass::Memory, 8, 0), 8);
        assert_eq!(n.total_queue_cycles(), 0);
    }

    #[test]
    fn hottest_link_picks_the_most_queued() {
        let mut n = net(1, 16);
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
        let mut n = net(4, 16);
        // Service time is at least one cycle regardless of width.
        assert_eq!(n.traverse(0, TrafficClass::Gvt, 1, 0), 1);
        assert_eq!(n.service_cycles(1), 1);
    }

    #[test]
    fn stored_backlog_never_exceeds_depth_and_grows_lazily() {
        for depth in [1u64, 2, 5, 16, 1 << 40] {
            let mut n = net(1, depth);
            // An untouched link holds no storage, whatever the depth.
            assert_eq!(n.links[0].backlog.slots.capacity(), 0);
            // 100 same-cycle arrivals saturate link 0; its backlog keeps at
            // most `depth` departures while the statistic still clamps.
            for k in 0..100u64 {
                n.traverse(0, TrafficClass::Memory, 3, 0);
                let cap = n.links[0].backlog.slots.capacity() as u64;
                assert!(cap <= depth, "depth {depth}: capacity {cap}");
                assert!(cap <= (2 * k).max(4), "depth {depth}: grew ahead of the backlog");
            }
            let c = n.snapshot().links[0];
            let expect: u64 = (0..100u64).map(|k| k.min(depth)).sum();
            assert_eq!(c.occupancy_sum, expect, "depth {depth}");
            // A late arrival drains the whole ring and finds the link idle.
            assert_eq!(n.traverse(0, TrafficClass::Memory, 3, 10_000), 10_003);
            assert_eq!(n.links[0].backlog.len, 1);
        }
    }

    #[test]
    fn a_walk_chains_hops_and_reports_each_one() {
        let mut n = net(2, 16);
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
