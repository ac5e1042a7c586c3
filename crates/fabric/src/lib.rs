//! CXL fabric model: per-host links to the CXL memory node.
//!
//! Each host connects to the memory node through a full-duplex link with a
//! one-way propagation latency (Table 2: 50 ns) and a per-direction
//! bandwidth (Table 2: 5 GB/s in the ×16 scaled-down setting). Messages
//! serialize on each direction: a message arriving while the direction is
//! busy queues behind earlier traffic (busy-until model).
//!
//! The fabric distinguishes demand traffic from migration payload traffic
//! so the simulator can attribute queueing delay caused by page transfers —
//! the "page transfer overhead" component of the paper's Figure 4.
//!
//! Host-to-host messages (inter-host accesses, M-state forwarding) are
//! routed through the CXL memory node's root complex: up one host's link,
//! down the other's, as in Figure 3 of the paper.
//!
//! Rack-scale graphs — multiple multi-headed devices behind switches —
//! are described by a `pipm_types::TopologySpec` and executed by
//! [`Topology`], which composes these links into per-device planes,
//! shared uplinks, and switch ports (see [`topology`]).
//!
//! # Example
//!
//! ```
//! use pipm_fabric::{Topology, Dir};
//! use pipm_types::{HostId, SystemConfig, TopologySpec};
//!
//! let mut cfg = SystemConfig::default();
//! cfg.apply_topology(TopologySpec::single_device(4));
//! let mut fabric = Topology::new(&cfg);
//! let h = HostId::new(0);
//! // Send a 16-byte request host→device 0 at cycle 0: arrives after the
//! // 50 ns (200-cycle) propagation plus serialization.
//! let arr = fabric.send(h, 0, Dir::ToDevice, 0, 16, false);
//! assert!(arr.at >= 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod topology;

pub use topology::{Topology, TopologyStats};

use pipm_types::{CxlConfig, Cycle, HostId, CPU_GHZ};

/// Direction of a message on a host's CXL link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// From the host toward the CXL memory node.
    ToDevice,
    /// From the CXL memory node toward the host.
    ToHost,
}

/// Result of sending a message over a link direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Arrival {
    /// Cycle at which the message is fully delivered.
    pub at: Cycle,
    /// Cycles the message queued behind earlier traffic.
    pub queued: Cycle,
    /// Portion of `queued` attributable to migration payload traffic.
    pub queued_behind_migration: Cycle,
}

#[derive(Clone, Copy, Debug, Default)]
struct Direction {
    busy_until: Cycle,
    mig_busy_until: Cycle,
}

/// Per-link traffic counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LinkStats {
    /// Demand messages sent (both directions).
    pub demand_messages: u64,
    /// Demand bytes sent.
    pub demand_bytes: u64,
    /// Migration payload bytes sent.
    pub migration_bytes: u64,
    /// Total queueing cycles experienced by demand messages.
    pub demand_queue_cycles: u64,
}

#[derive(Clone, Debug)]
struct Link {
    up: Direction,
    down: Direction,
    stats: LinkStats,
}

/// The CXL fabric: one full-duplex link per host.
#[derive(Clone, Debug)]
pub struct Fabric {
    links: Vec<Link>,
    latency: Cycle,
    cycles_per_byte: f64,
    header_bytes: u64,
}

impl Fabric {
    /// Internal edge constructor used by [`Topology`]: a bundle of `n`
    /// independent full-duplex links under one link config.
    pub(crate) fn with_links(n: usize, cfg: &CxlConfig) -> Self {
        assert!(n > 0, "fabric needs at least one link");
        assert!(cfg.link_gbps > 0.0, "link bandwidth must be positive");
        Fabric {
            links: vec![
                Link {
                    up: Direction::default(),
                    down: Direction::default(),
                    stats: LinkStats::default(),
                };
                n
            ],
            latency: pipm_types::cycles_from_ns(cfg.link_latency_ns),
            cycles_per_byte: CPU_GHZ / cfg.link_gbps,
            header_bytes: cfg.header_bytes,
        }
    }

    /// One-way propagation latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Reconfigures link latency, bandwidth, and header size in place,
    /// preserving per-direction occupancy (busy-until horizons) and
    /// accumulated statistics. Checkpointed sweeps use this to apply a
    /// late-binding configuration delta to a warmed fabric: in-flight
    /// serialization finishes under the old parameters, messages sent
    /// after the call see the new ones.
    ///
    /// # Panics
    ///
    /// Panics if the new bandwidth is non-positive.
    pub fn set_link_params(&mut self, cfg: &CxlConfig) {
        assert!(cfg.link_gbps > 0.0, "link bandwidth must be positive");
        self.latency = pipm_types::cycles_from_ns(cfg.link_latency_ns);
        self.cycles_per_byte = CPU_GHZ / cfg.link_gbps;
        self.header_bytes = cfg.header_bytes;
    }

    /// Size in bytes of a control/request message.
    pub fn header_bytes(&self) -> u64 {
        self.header_bytes
    }

    fn serialization(&self, bytes: u64) -> Cycle {
        (bytes as f64 * self.cycles_per_byte).ceil() as Cycle
    }

    /// Sends `bytes` over host `h`'s link in direction `dir` starting at
    /// `now`. `is_migration` marks migration payload traffic, which is
    /// tracked separately for transfer-overhead attribution.
    pub fn send(
        &mut self,
        h: HostId,
        dir: Dir,
        now: Cycle,
        bytes: u64,
        is_migration: bool,
    ) -> Arrival {
        let ser = self.serialization(bytes);
        let latency = self.latency;
        let link = &mut self.links[h.index()];
        let d = match dir {
            Dir::ToDevice => &mut link.up,
            Dir::ToHost => &mut link.down,
        };
        let start = now.max(d.busy_until);
        let queued = start - now;
        let queued_behind_migration = d.mig_busy_until.min(start).saturating_sub(now);
        d.busy_until = start + ser;
        if is_migration {
            d.mig_busy_until = d.busy_until;
            link.stats.migration_bytes += bytes;
        } else {
            link.stats.demand_messages += 1;
            link.stats.demand_bytes += bytes;
            link.stats.demand_queue_cycles += queued;
        }
        Arrival {
            at: start + ser + latency,
            queued,
            queued_behind_migration,
        }
    }

    /// Convenience: a round trip host→device→host carrying a request header
    /// up and `payload_bytes` down, starting at `now`. Returns the arrival
    /// of the response at the host.
    pub fn round_trip(&mut self, h: HostId, now: Cycle, payload_bytes: u64) -> Arrival {
        let up = self.send(h, Dir::ToDevice, now, self.header_bytes, false);
        let down = self.send(h, Dir::ToHost, up.at, payload_bytes, false);
        Arrival {
            at: down.at,
            queued: up.queued + down.queued,
            queued_behind_migration: up.queued_behind_migration + down.queued_behind_migration,
        }
    }

    /// Routes a message from host `from` to host `to` through the memory
    /// node (two link traversals), as inter-host traffic does in Figure 3.
    pub fn host_to_host(
        &mut self,
        from: HostId,
        to: HostId,
        now: Cycle,
        bytes: u64,
        is_migration: bool,
    ) -> Arrival {
        let leg1 = self.send(from, Dir::ToDevice, now, bytes, is_migration);
        let leg2 = self.send(to, Dir::ToHost, leg1.at, bytes, is_migration);
        Arrival {
            at: leg2.at,
            queued: leg1.queued + leg2.queued,
            queued_behind_migration: leg1.queued_behind_migration + leg2.queued_behind_migration,
        }
    }

    /// Statistics for host `h`'s link.
    pub fn stats(&self, h: HostId) -> LinkStats {
        self.links[h.index()].stats
    }

    /// Aggregate statistics over all links.
    pub fn total_stats(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for l in &self.links {
            t.demand_messages += l.stats.demand_messages;
            t.demand_bytes += l.stats.demand_bytes;
            t.migration_bytes += l.stats.migration_bytes;
            t.demand_queue_cycles += l.stats.demand_queue_cycles;
        }
        t
    }

    /// Resets statistics without disturbing link occupancy.
    pub fn reset_stats(&mut self) {
        for l in &mut self.links {
            l.stats = LinkStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Fabric {
        Fabric::with_links(4, &CxlConfig::default())
    }

    #[test]
    fn propagation_latency() {
        let mut f = fabric();
        let a = f.send(HostId::new(0), Dir::ToDevice, 0, 16, false);
        // 16 B at 8 GB/s = 8 cycles, plus 200 cycles propagation.
        assert_eq!(a.at, 208);
        assert_eq!(a.queued, 0);
    }

    #[test]
    fn serialization_queues_messages() {
        let mut f = fabric();
        let h = HostId::new(1);
        let a1 = f.send(h, Dir::ToDevice, 0, 64, false);
        let a2 = f.send(h, Dir::ToDevice, 0, 64, false);
        assert!(a2.queued > 0);
        assert!(a2.at > a1.at);
    }

    #[test]
    fn set_link_params_preserves_occupancy_and_stats() {
        let mut f = fabric();
        let h = HostId::new(0);
        let old_latency = f.latency();
        let before = f.send(h, Dir::ToDevice, 0, 1 << 16, false);
        let busy_until = before.at - old_latency;
        let faster = CxlConfig {
            link_latency_ns: 25.0,
            link_gbps: 16.0,
            ..CxlConfig::default()
        };
        f.set_link_params(&faster);
        assert_eq!(f.latency(), pipm_types::cycles_from_ns(25.0));
        // New messages still queue behind traffic sent under the old
        // parameters (occupancy is preserved across reconfiguration) …
        let a = f.send(h, Dir::ToDevice, 0, 64, false);
        assert!(a.queued > 0, "pre-delta occupancy must persist");
        // … but serialize and propagate under the new ones: 64 B at
        // 16 GB/s = 16 cycles, plus the new 100-cycle propagation.
        assert_eq!(a.at, busy_until + 16 + f.latency());
        // … and statistics keep accumulating.
        assert_eq!(f.total_stats().demand_messages, 2);
        assert_eq!(f.total_stats().demand_bytes, (1 << 16) + 64);
    }

    #[test]
    fn directions_are_independent() {
        let mut f = fabric();
        let h = HostId::new(0);
        f.send(h, Dir::ToDevice, 0, 1 << 20, false); // saturate upstream
        let a = f.send(h, Dir::ToHost, 0, 64, false);
        assert_eq!(a.queued, 0, "downstream must not queue behind upstream");
    }

    #[test]
    fn hosts_are_independent() {
        let mut f = fabric();
        f.send(HostId::new(0), Dir::ToDevice, 0, 1 << 20, false);
        let a = f.send(HostId::new(1), Dir::ToDevice, 0, 64, false);
        assert_eq!(a.queued, 0);
    }

    #[test]
    fn migration_attribution() {
        let mut f = fabric();
        let h = HostId::new(2);
        // A 4 KB migration payload occupies the downstream direction.
        f.send(h, Dir::ToHost, 0, 4096, true);
        let a = f.send(h, Dir::ToHost, 0, 64, false);
        assert!(a.queued > 0);
        assert_eq!(a.queued, a.queued_behind_migration);
        assert_eq!(f.stats(h).migration_bytes, 4096);
    }

    #[test]
    fn demand_after_migration_window_not_attributed() {
        let mut f = fabric();
        let h = HostId::new(0);
        let m = f.send(h, Dir::ToHost, 0, 4096, true);
        // Issue demand long after the migration drained: no attribution.
        let a = f.send(h, Dir::ToHost, m.at + 10_000, 64, false);
        assert_eq!(a.queued_behind_migration, 0);
    }

    #[test]
    fn stale_migration_window_attributes_nothing() {
        let mut f = fabric();
        let h = HostId::new(0);
        // Migration occupies [0, 128) (256 B at 2 B/cycle), then drains.
        f.send(h, Dir::ToHost, 0, 256, true);
        // Demand traffic occupies the direction well past the migration.
        f.send(h, Dir::ToHost, 128, 1 << 16, false);
        // Issued with mig_busy_until (128) already in the past: the delay
        // is real but none of it is the migration's fault.
        let a = f.send(h, Dir::ToHost, 129, 64, false);
        assert!(a.queued > 0);
        assert_eq!(a.queued_behind_migration, 0);
    }

    #[test]
    fn inflight_migration_attributes_partially() {
        let mut f = fabric();
        let h = HostId::new(1);
        // Migration occupies [0, 2048); demand extends occupancy to 4096.
        f.send(h, Dir::ToHost, 0, 4096, true);
        f.send(h, Dir::ToHost, 0, 4096, false);
        // Issued mid-migration: queues to cycle 4096, but only the
        // migration's remaining window [100, 2048) is attributed.
        let a = f.send(h, Dir::ToHost, 100, 64, false);
        assert_eq!(a.queued, 4096 - 100);
        assert_eq!(a.queued_behind_migration, 2048 - 100);
    }

    #[test]
    fn round_trip_sums_leg_queueing() {
        let mut f = fabric();
        let h = HostId::new(2);
        // Occupy both directions with migration payloads.
        f.send(h, Dir::ToDevice, 0, 8192, true);
        f.send(h, Dir::ToHost, 0, 8192, true);
        let mut manual = f.clone();
        let rt = f.round_trip(h, 0, 64);
        let up = manual.send(h, Dir::ToDevice, 0, manual.header_bytes(), false);
        let down = manual.send(h, Dir::ToHost, up.at, 64, false);
        assert_eq!(rt.at, down.at);
        assert_eq!(rt.queued, up.queued + down.queued);
        assert_eq!(
            rt.queued_behind_migration,
            up.queued_behind_migration + down.queued_behind_migration
        );
        assert!(rt.queued_behind_migration > 0);
    }

    #[test]
    fn host_to_host_sums_leg_queueing() {
        let mut f = fabric();
        let (from, to) = (HostId::new(0), HostId::new(3));
        f.send(from, Dir::ToDevice, 0, 8192, true);
        f.send(to, Dir::ToHost, 0, 8192, true);
        let mut manual = f.clone();
        let a = f.host_to_host(from, to, 0, 64, false);
        let leg1 = manual.send(from, Dir::ToDevice, 0, 64, false);
        let leg2 = manual.send(to, Dir::ToHost, leg1.at, 64, false);
        assert_eq!(a.at, leg2.at);
        assert_eq!(a.queued, leg1.queued + leg2.queued);
        assert_eq!(
            a.queued_behind_migration,
            leg1.queued_behind_migration + leg2.queued_behind_migration
        );
        assert!(a.queued_behind_migration > 0);
    }

    #[test]
    fn host_to_host_crosses_two_links() {
        let mut f = fabric();
        let a = f.host_to_host(HostId::new(0), HostId::new(1), 0, 64, false);
        // Two propagation delays plus two serializations of 64 B (32 cyc).
        assert_eq!(a.at, 2 * 200 + 2 * 32);
    }

    #[test]
    fn round_trip_carries_payload_down() {
        let mut f = fabric();
        let a = f.round_trip(HostId::new(3), 0, 64);
        // Up: 8 + 200; down: 32 + 200.
        assert_eq!(a.at, 208 + 232);
    }

    #[test]
    fn bandwidth_scales_serialization() {
        let slow = CxlConfig {
            link_gbps: 2.5,
            ..CxlConfig::default()
        };
        let fast = CxlConfig {
            link_gbps: 10.0,
            ..CxlConfig::default()
        };
        let mut fs = Fabric::with_links(1, &slow);
        let mut ff = Fabric::with_links(1, &fast);
        let h = HostId::new(0);
        let ts = fs.send(h, Dir::ToDevice, 0, 4096, false).at;
        let tf = ff.send(h, Dir::ToDevice, 0, 4096, false).at;
        assert!(ts > tf);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Per-direction FIFO ordering: messages sent at non-decreasing
        /// times arrive in order, and arrival always includes propagation.
        #[test]
        fn prop_fifo_per_direction(
            seq in proptest::collection::vec((0u64..200, 1u64..4096), 1..200)
        ) {
            let mut f = Fabric::with_links(2, &CxlConfig::default());
            let h = HostId::new(0);
            let mut now = 0;
            let mut last_arrival = 0;
            for (gap, bytes) in seq {
                now += gap;
                let a = f.send(h, Dir::ToDevice, now, bytes, false);
                prop_assert!(a.at >= now + f.latency());
                prop_assert!(a.at >= last_arrival, "FIFO violated");
                last_arrival = a.at;
            }
        }

        /// Queue attribution never exceeds the total queueing delay.
        #[test]
        fn prop_migration_attribution_bounded(
            seq in proptest::collection::vec((0u64..64, 1u64..512, proptest::bool::ANY), 1..200)
        ) {
            let mut f = Fabric::with_links(1, &CxlConfig::default());
            let h = HostId::new(0);
            let mut now = 0;
            for (gap, bytes, mig) in seq {
                now += gap;
                let a = f.send(h, Dir::ToHost, now, bytes, mig);
                prop_assert!(a.queued_behind_migration <= a.queued);
            }
        }
    }
}
