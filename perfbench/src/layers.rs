//! Deterministic per-layer counters read from a finished traced world.

use simnet::{NodeId, Simulator};
use softstage::StagingVnf;
use xia_host::EndHost;
use xia_router::RouterNode;
use xia_wire::XiaPacket;

use perfbench::timed::Timed;

/// Counters summed over the worlds of one batch. They repeat exactly for
/// a seed; they explain busy time, they do not measure it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub events: u64,
    pub timers: u64,
    pub packets: u64,
    pub link_lost: u64,
    pub link_queue_drops: u64,
    pub link_attempts: u64,
    pub link_delivered: u64,
    pub forwarded: u64,
    pub cid_intercepts: u64,
    pub dropped_no_route: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
    pub evict_log_dropped: u64,
    pub vnf_requests: u64,
    pub vnf_staged: u64,
    pub vnf_already_cached: u64,
    pub vnf_failed: u64,
    pub vnf_rejected: u64,
    /// Highest queue depth of any VNF (a maximum, not a sum).
    pub vnf_peak_depth: u64,
    pub client_stage_requests: u64,
    pub client_from_staged: u64,
    pub client_from_origin: u64,
}

fn router(sim: &Simulator<XiaPacket>, id: NodeId) -> &RouterNode {
    sim.node::<Timed<RouterNode>>(id)
        .expect("traced router")
        .inner()
}

impl Counts {
    /// Reads the counters of a traced world.
    pub fn of(
        sim: &Simulator<XiaPacket>,
        core: NodeId,
        edges: &[NodeId],
        clients: &[NodeId],
    ) -> Counts {
        let stats = sim.stats();
        let mut c = Counts {
            events: stats.events,
            timers: stats.timers,
            packets: stats.packets,
            ..Counts::default()
        };
        for l in &stats.links {
            c.link_lost += l.lost;
            c.link_queue_drops += l.dropped_queue;
            c.link_attempts += l.attempts;
            c.link_delivered += l.delivered;
        }
        for &id in edges.iter().chain([&core]) {
            let r = router(sim, id).stats();
            c.forwarded += r.forwarded;
            c.cid_intercepts += r.cid_intercepts;
            c.dropped_no_route += r.dropped_no_route;
        }
        for &id in edges {
            let host = router(sim, id).host();
            let s = host.store().stats();
            c.cache_hits += s.hits;
            c.cache_misses += s.misses;
            c.cache_insertions += s.insertions;
            c.cache_evictions += s.evictions;
            c.evict_log_dropped += s.evict_log_dropped;
            if let Some(vnf) = host.app::<StagingVnf>(0) {
                let v = vnf.stats();
                c.vnf_requests += v.requests;
                c.vnf_staged += v.staged;
                c.vnf_already_cached += v.already_cached;
                c.vnf_failed += v.failed;
                c.vnf_rejected += v.rejected;
                c.vnf_peak_depth = c.vnf_peak_depth.max(v.peak_depth);
            }
        }
        for &id in clients {
            let app = sim
                .node::<Timed<EndHost>>(id)
                .and_then(|h| h.inner().host().app::<softstage::SoftStageClient>(0))
                .expect("traced client app");
            let s = app.stats();
            c.client_stage_requests += s.stage_requests;
            c.client_from_staged += s.from_staged;
            c.client_from_origin += s.from_origin;
        }
        c
    }

    /// Adds `o` (maximum for the peak depth).
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.timers += o.timers;
        self.packets += o.packets;
        self.link_lost += o.link_lost;
        self.link_queue_drops += o.link_queue_drops;
        self.link_attempts += o.link_attempts;
        self.link_delivered += o.link_delivered;
        self.forwarded += o.forwarded;
        self.cid_intercepts += o.cid_intercepts;
        self.dropped_no_route += o.dropped_no_route;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_insertions += o.cache_insertions;
        self.cache_evictions += o.cache_evictions;
        self.evict_log_dropped += o.evict_log_dropped;
        self.vnf_requests += o.vnf_requests;
        self.vnf_staged += o.vnf_staged;
        self.vnf_already_cached += o.vnf_already_cached;
        self.vnf_failed += o.vnf_failed;
        self.vnf_rejected += o.vnf_rejected;
        self.vnf_peak_depth = self.vnf_peak_depth.max(o.vnf_peak_depth);
        self.client_stage_requests += o.client_stage_requests;
        self.client_from_staged += o.client_from_staged;
        self.client_from_origin += o.client_from_origin;
    }
}
