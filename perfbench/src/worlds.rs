//! Traced twins of the repository's worlds, and the guard that proves
//! them equal to the untraced originals.
//!
//! `experiments::fleet::build` and `experiments::testbed::build_with_vnf`
//! box their nodes themselves, so a timing decorator cannot be slipped
//! in. The functions here assemble the same worlds from the same public
//! constructors, in the same node, link and event order, with every node
//! wrapped in [`Timed`]. Three helpers the originals keep crate-private
//! (object-byte generation, the fleet working-set draw and the Internet
//! loss inversion) are restated here. Any drift between a twin and its
//! original shows up as an [`equivalent`] failure, because event counts,
//! link counters and client outcomes are pure functions of the world.

use std::rc::Rc;
use std::time::Instant;

use simnet::{LinkConfig, LinkId, NodeId, SimDuration, SimStats, SimTime, Simulator};
use softstage::{DeadlineAware, SoftStageClient, SoftStageConfig, StagingVnf, VnfConfig};
use softstage_apps::build_origin;
use softstage_experiments::fleet::FleetParams;
use softstage_experiments::workload::ZipfCatalog;
use softstage_experiments::ExperimentParams;
use util::bytes::Bytes;
use vehicular::{BeaconApp, CoverageSchedule};
use xia_addr::sha1;
use xia_addr::{Dag, Principal, Xid};
use xia_host::{EndHost, Host, HostConfig};
use xia_router::RouterNode;
use xia_wire::XiaPacket;

use crate::timed::{Role, RoleClocks, Timed};

/// Host seconds of one `build`, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// Generating object bytes (`simnet::Rng::fill_bytes`).
    pub content_s: f64,
    /// Publishing (chunking, CIDs) plus the whole-file SHA-1.
    pub publish_s: f64,
    /// Everything else: nodes, apps, links, routes, schedules.
    pub wire_s: f64,
}

impl SetupSplit {
    /// Adds `other` phase by phase.
    pub fn add(&mut self, other: &SetupSplit) {
        self.content_s += other.content_s;
        self.publish_s += other.publish_s;
        self.wire_s += other.wire_s;
    }
}

/// Deterministic object bytes, as the experiments crate generates them.
pub fn content(len: usize, seed: u64) -> Bytes {
    let mut rng = simnet::Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut data = vec![0u8; len];
    rng.fill_bytes(&mut data);
    Bytes::from(data)
}

/// The content seed of fleet catalog object `obj`.
pub fn fleet_object_seed(seed: u64, obj: usize) -> u64 {
    util::seed::derive(seed, "fleet/object", obj as u32 + 1)
}

/// The distinct objects fleet client `client` downloads, in order.
pub fn client_objects(catalog: &ZipfCatalog, seed: u64, client: u32, count: usize) -> Vec<usize> {
    let stream = util::seed::derive(seed, "fleet/workload", client.wrapping_add(1));
    let mut rng = simnet::Rng::seed_from_u64(stream);
    let mut picked = Vec::with_capacity(count);
    let mut seen = vec![false; catalog.len()];
    while picked.len() < count {
        let idx = catalog.sample(rng.gen_range_f64(0.0, 1.0));
        if !seen[idx] {
            seen[idx] = true;
            picked.push(idx);
        }
    }
    picked
}

/// The Internet-segment loss rate that throttles a Reno flow to
/// `params.internet_bw_bps` (the Mathis inversion the testbed uses).
fn internet_loss(params: &ExperimentParams) -> f64 {
    let mss_bits = (xia_wire::MSS * 8) as f64;
    let reference_rtt_s = 0.020;
    let p = (1.22 * mss_bits / (reference_rtt_s * params.internet_bw_bps as f64)).powi(2);
    p.min(0.05)
}

fn timed<N: simnet::Node<XiaPacket>>(
    node: N,
    role: Role,
    clocks: &Rc<RoleClocks>,
) -> Box<Timed<N>> {
    Box::new(Timed::new(node, role, Rc::clone(clocks)))
}

fn router(sim: &mut Simulator<XiaPacket>, id: NodeId) -> &mut RouterNode {
    sim.node_mut::<Timed<RouterNode>>(id)
        .expect("router node")
        .inner_mut()
}

fn end_host(sim: &mut Simulator<XiaPacket>, id: NodeId) -> &mut EndHost {
    sim.node_mut::<Timed<EndHost>>(id)
        .expect("end host node")
        .inner_mut()
}

/// The SoftStage client app of an untraced client node.
pub fn client_app(sim: &Simulator<XiaPacket>, id: NodeId) -> &SoftStageClient {
    sim.node::<EndHost>(id)
        .and_then(|h| h.host().app::<SoftStageClient>(0))
        .expect("client app")
}

/// The SoftStage client app of a traced client node.
pub fn traced_client_app(sim: &Simulator<XiaPacket>, id: NodeId) -> &SoftStageClient {
    sim.node::<Timed<EndHost>>(id)
        .and_then(|h| h.inner().host().app::<SoftStageClient>(0))
        .expect("traced client app")
}

/// A traced fleet world: `fleet::build` with every node timed.
pub struct TracedFleet {
    /// The simulator.
    pub sim: Simulator<XiaPacket>,
    /// Client nodes, in client-id order.
    pub clients: Vec<NodeId>,
    /// Edge router nodes.
    pub edges: Vec<NodeId>,
    /// The core router node.
    pub core: NodeId,
    /// Busy time per role.
    pub clocks: Rc<RoleClocks>,
    /// How long each build phase took.
    pub setup: SetupSplit,
    up_times: Vec<SimTime>,
    horizon: SimTime,
}

/// Builds the traced twin of `experiments::fleet::build(params)`.
///
/// # Panics
///
/// Panics on an empty fleet, and on `verify_content`: the benchmark
/// checks delivered content itself, outside the timed region.
pub fn traced_fleet(params: &FleetParams) -> TracedFleet {
    let started = Instant::now();
    assert!(params.clients > 0 && params.edges > 0, "empty fleet");
    assert!(
        !params.verify_content,
        "the benchmark verifies content itself"
    );
    let clocks = Rc::new(RoleClocks::default());
    let mut setup = SetupSplit::default();
    let mut sim = Simulator::new(params.seed);

    let hid_server = Xid::new_random(Principal::Hid, 1_000);
    let nid_server = Xid::new_random(Principal::Nid, 1_000);
    let mut origin_cfg = HostConfig::new(hid_server);
    origin_cfg.cache_capacity = usize::MAX;
    let mut origin_host = Host::new(origin_cfg);
    origin_host.set_attachment(Some(nid_server), None);
    let object_bytes = params.chunks_per_object * params.chunk_size;
    let mut object_dags: Vec<Vec<(Xid, Dag)>> = Vec::with_capacity(params.catalog_objects);
    for obj in 0..params.catalog_objects {
        let t = Instant::now();
        let bytes = content(object_bytes, fleet_object_seed(params.seed, obj));
        setup.content_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let manifest = origin_host.publish_content(&bytes, params.chunk_size);
        setup.publish_s += t.elapsed().as_secs_f64();
        object_dags.push(
            manifest
                .chunks
                .iter()
                .map(|cid| (*cid, Dag::cid_with_fallback(*cid, nid_server, hid_server)))
                .collect(),
        );
    }
    let origin = sim.add_node(timed(EndHost::new(origin_host), Role::Origin, &clocks));

    let hid_core = Xid::new_random(Principal::Hid, 2_000);
    let nid_core = Xid::new_random(Principal::Nid, 2_000);
    let core = sim.add_node(timed(
        RouterNode::new(nid_core, Host::new(HostConfig::new(hid_core))),
        Role::Core,
        &clocks,
    ));

    let mut edges = Vec::with_capacity(params.edges);
    let mut edge_ids = Vec::with_capacity(params.edges);
    for e in 0..params.edges {
        let hid = Xid::new_random(Principal::Hid, 4_000 + e as u64);
        let nid = Xid::new_random(Principal::Nid, 4_000 + e as u64);
        let mut cfg = HostConfig::new(hid);
        cfg.cache_capacity = params.edge_cache_bytes;
        let mut host = Host::new(cfg);
        let vnf_dag = if params.staging {
            let sid = Xid::new_random(Principal::Sid, 4_000 + e as u64);
            let vnf = StagingVnf::with_config(
                sid,
                VnfConfig {
                    chunk_bytes_hint: params.chunk_size as u64,
                    admission: Box::new(DeadlineAware),
                    ..VnfConfig::default()
                },
            );
            let dag = vnf.service_dag(nid, hid);
            host.add_app(Box::new(vnf));
            Some(dag)
        } else {
            None
        };
        let mut beacon = BeaconApp::new(nid, hid, params.beacon_interval);
        beacon.staging_vnf = vnf_dag;
        host.add_app(Box::new(beacon));
        edges.push(sim.add_node(timed(RouterNode::new(nid, host), Role::Edge, &clocks)));
        edge_ids.push((nid, hid));
    }

    let catalog = ZipfCatalog::new(params.catalog_objects, params.zipf_skew);
    let mut clients = Vec::with_capacity(params.clients);
    for i in 0..params.clients {
        let objects = client_objects(&catalog, params.seed, i as u32, params.objects_per_client);
        let chunk_dags: Vec<(Xid, Dag)> = objects
            .iter()
            .flat_map(|&o| object_dags[o].iter().cloned())
            .collect();
        let config = SoftStageConfig {
            client_id: i as u32,
            ..if params.staging {
                SoftStageConfig::default()
            } else {
                SoftStageConfig::baseline()
            }
        };
        let mut app = SoftStageClient::new(chunk_dags, config);
        app.roamer.sensor.beacon_timeout = params.beacon_interval * 3;
        let hid = Xid::new_random(Principal::Hid, 10_000 + i as u64);
        let mut host = Host::new(HostConfig::new(hid));
        host.add_app(Box::new(app));
        clients.push(sim.add_node(timed(EndHost::new(host), Role::Client, &clocks)));
    }

    let l_origin = sim.add_link(
        origin,
        core,
        LinkConfig::wired(params.origin_bw_bps, params.origin_rtt / 2),
    );
    end_host(&mut sim, origin)
        .host_mut()
        .set_attachment(Some(nid_server), Some(l_origin));
    router(&mut sim, core)
        .routes_mut()
        .add_route(nid_server, l_origin);
    router(&mut sim, core)
        .routes_mut()
        .add_route(hid_server, l_origin);
    for (e, &edge) in edges.iter().enumerate() {
        let l_backhaul = sim.add_link(
            edge,
            core,
            LinkConfig::wired(params.backhaul_bw_bps, SimDuration::from_millis(1)),
        );
        router(&mut sim, edge).routes_mut().set_default(l_backhaul);
        let (nid_e, hid_e) = edge_ids[e];
        router(&mut sim, core)
            .routes_mut()
            .add_route(nid_e, l_backhaul);
        router(&mut sim, core)
            .routes_mut()
            .add_route(hid_e, l_backhaul);
    }
    let mut up_times = Vec::with_capacity(params.clients);
    for (i, &client) in clients.iter().enumerate() {
        let edge = edges[i % params.edges];
        let l_radio = sim.add_link(
            client,
            edge,
            LinkConfig::wireless(params.wireless_bw_bps, SimDuration::from_millis(2), 0.0)
                .starting_down(),
        );
        let beacon_app = usize::from(params.staging);
        router(&mut sim, edge)
            .host_mut()
            .app_mut::<BeaconApp>(beacon_app)
            .expect("beacon app")
            .radio_links
            .push(l_radio);
        let up = SimTime::ZERO
            + SimDuration::from_micros(
                params.arrival_window.as_micros() * i as u64 / params.clients as u64,
            );
        sim.schedule_link_state(up, l_radio, true);
        up_times.push(up);
    }

    setup.wire_s = started.elapsed().as_secs_f64() - setup.content_s - setup.publish_s;
    TracedFleet {
        sim,
        clients,
        edges,
        core,
        clocks,
        setup,
        up_times,
        horizon: SimTime::ZERO + params.horizon,
    }
}

impl TracedFleet {
    /// Client `i`'s app.
    pub fn client(&self, i: usize) -> &SoftStageClient {
        traced_client_app(&self.sim, self.clients[i])
    }

    /// Clients that have arrived and not yet finished.
    pub fn active_clients(&self) -> usize {
        let now = self.sim.now();
        (0..self.clients.len())
            .filter(|&i| self.up_times[i] <= now && !self.client(i).is_done())
            .count()
    }

    /// Runs exactly as `FleetWorld::run` does — one-second slices until
    /// every client is done or the horizon passes — calling `each_slice`
    /// after every slice.
    pub fn run(&mut self, mut each_slice: impl FnMut(&TracedFleet)) {
        let slice = SimDuration::from_secs(1);
        let mut next = SimTime::ZERO + slice;
        let mut first_unfinished = 0usize;
        loop {
            let stop = if next < self.horizon {
                next
            } else {
                self.horizon
            };
            self.sim.run_until(stop);
            each_slice(self);
            while first_unfinished < self.clients.len() && self.client(first_unfinished).is_done() {
                first_unfinished += 1;
            }
            let all_done = first_unfinished == self.clients.len()
                && (0..self.clients.len()).all(|i| self.client(i).is_done());
            if all_done || stop >= self.horizon {
                break;
            }
            next += slice;
        }
    }
}

/// A traced testbed: `testbed::build` with every node timed.
pub struct TracedTestbed {
    /// The simulator.
    pub sim: Simulator<XiaPacket>,
    /// The mobile client node.
    pub client: NodeId,
    /// The core router node.
    pub core: NodeId,
    /// Edge router nodes.
    pub edges: Vec<NodeId>,
    /// Client radio links, one per edge network.
    pub radio_links: Vec<LinkId>,
    /// How long each build phase took.
    pub setup: SetupSplit,
    content_digest: [u8; 20],
}

/// Builds the traced twin of `experiments::testbed::build(params,
/// schedule, client_config)`, charging busy time to `clocks`.
pub fn traced_testbed(
    params: &ExperimentParams,
    schedule: &CoverageSchedule,
    client_config: SoftStageConfig,
    clocks: &Rc<RoleClocks>,
) -> TracedTestbed {
    let started = Instant::now();
    let mut setup = SetupSplit::default();
    let nets = params.edge_networks.max(schedule.networks).max(1);
    let mut sim = Simulator::new(params.seed);

    let hid_server = Xid::new_random(Principal::Hid, 1_000);
    let nid_server = Xid::new_random(Principal::Nid, 1_000);
    let hid_core = Xid::new_random(Principal::Hid, 2_000);
    let nid_core = Xid::new_random(Principal::Nid, 2_000);
    let hid_client = Xid::new_random(Principal::Hid, 3_000);

    let t = Instant::now();
    let bytes = content(params.file_size, params.seed);
    setup.content_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let content_digest = sha1::sha1(&bytes);
    let (server_host, _manifest, chunk_dags) = build_origin(
        hid_server,
        nid_server,
        &bytes,
        params.chunk_size,
        xia_transport::TransportConfig::xia(),
    );
    drop(bytes);
    setup.publish_s = t.elapsed().as_secs_f64();
    let server = sim.add_node(timed(EndHost::new(server_host), Role::Origin, clocks));

    let core_host = Host::new(HostConfig::new(hid_core));
    let core = sim.add_node(timed(
        RouterNode::new(nid_core, core_host),
        Role::Core,
        clocks,
    ));

    let mut edges = Vec::new();
    let mut edge_ids = Vec::new();
    for i in 0..nets {
        let hid = Xid::new_random(Principal::Hid, 4_000 + i as u64);
        let nid = Xid::new_random(Principal::Nid, 4_000 + i as u64);
        let sid = Xid::new_random(Principal::Sid, 4_000 + i as u64);
        let mut host = Host::new(HostConfig::new(hid));
        let vnf_dag = if params.vnf_deployed {
            let vnf = StagingVnf::with_config(sid, VnfConfig::default());
            let dag = vnf.service_dag(nid, hid);
            host.add_app(Box::new(vnf));
            Some(dag)
        } else {
            None
        };
        let mut beacon = BeaconApp::new(nid, hid, SimDuration::from_millis(100));
        beacon.staging_vnf = vnf_dag;
        beacon.rss_model = Some((schedule.clone(), i));
        host.add_app(Box::new(beacon));
        edges.push(sim.add_node(timed(RouterNode::new(nid, host), Role::Edge, clocks)));
        edge_ids.push((nid, hid));
    }

    let client_app = SoftStageClient::new(chunk_dags, client_config);
    let mut client_host = Host::new(HostConfig::new(hid_client));
    client_host.add_app(Box::new(client_app));
    let client = sim.add_node(timed(EndHost::new(client_host), Role::Client, clocks));

    let l_server = sim.add_link(
        server,
        core,
        LinkConfig::wired(100_000_000, params.internet_rtt / 2).with_loss(internet_loss(params)),
    );
    end_host(&mut sim, server)
        .host_mut()
        .set_attachment(Some(nid_server), Some(l_server));

    let mut radio_links = Vec::new();
    for (i, &edge) in edges.iter().enumerate() {
        let l_backhaul = sim.add_link(
            edge,
            core,
            LinkConfig::wired(1_000_000_000, SimDuration::from_millis(1)),
        );
        let l_radio = sim.add_link(
            client,
            edge,
            LinkConfig::wireless(
                params.wireless_bw_bps,
                SimDuration::from_millis(2),
                params.wireless_loss,
            )
            .starting_down(),
        );
        radio_links.push(l_radio);
        let edge_router = router(&mut sim, edge);
        edge_router.routes_mut().set_default(l_backhaul);
        edge_router
            .host_mut()
            .app_mut::<BeaconApp>(usize::from(params.vnf_deployed))
            .expect("beacon app present")
            .radio_links
            .push(l_radio);
        let (nid_i, hid_i) = edge_ids[i];
        let core_router = router(&mut sim, core);
        core_router.routes_mut().add_route(nid_i, l_backhaul);
        core_router.routes_mut().add_route(hid_i, l_backhaul);
    }
    let core_router = router(&mut sim, core);
    core_router.routes_mut().add_route(nid_server, l_server);
    core_router.routes_mut().add_route(hid_server, l_server);

    for (t, net, up) in schedule.link_transitions() {
        if net < radio_links.len() {
            sim.schedule_link_state(t, radio_links[net], up);
        }
    }

    setup.wire_s = started.elapsed().as_secs_f64() - setup.content_s - setup.publish_s;
    TracedTestbed {
        sim,
        client,
        core,
        edges,
        radio_links,
        setup,
        content_digest,
    }
}

impl TracedTestbed {
    /// The client's app.
    pub fn client_app(&self) -> &SoftStageClient {
        traced_client_app(&self.sim, self.client)
    }

    /// Runs exactly as `Testbed::run` does: until the client finishes or
    /// `deadline` passes. Returns whether the delivered content matches
    /// the published file.
    pub fn run(&mut self, deadline: SimTime) -> bool {
        let client = self.client;
        self.sim.run_while(deadline, |sim| {
            sim.node::<Timed<EndHost>>(client)
                .and_then(|h| h.inner().host().app::<SoftStageClient>(0))
                .is_some_and(SoftStageClient::is_done)
        });
        let app = self.client_app();
        app.is_done() && app.content_digest() == self.content_digest
    }
}

/// What a client observably did: the equivalence guard's unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Completion time.
    pub finished: Option<SimTime>,
    /// Chunks fetched from edge caches.
    pub from_staged: u64,
    /// Chunks fetched from the origin.
    pub from_origin: u64,
    /// Staging request messages sent.
    pub stage_requests: u64,
    /// Staging requests rejected.
    pub stage_rejects: u64,
    /// Payload bytes downloaded.
    pub bytes_fetched: u64,
    /// SHA-1 over the delivered content.
    pub digest: [u8; 20],
}

impl ClientOutcome {
    /// The outcome of `app` as it stands.
    pub fn of(app: &SoftStageClient) -> Self {
        let s = app.stats();
        ClientOutcome {
            finished: s.finished,
            from_staged: s.from_staged,
            from_origin: s.from_origin,
            stage_requests: s.stage_requests,
            stage_rejects: s.stage_rejects,
            bytes_fetched: s.bytes_fetched,
            digest: app.content_digest(),
        }
    }
}

/// The equivalence guard: a traced world must reproduce its untraced
/// twin's scheduler and link counters and every client outcome exactly.
pub fn equivalent(
    untraced: &SimStats,
    traced: &SimStats,
    untraced_clients: &[ClientOutcome],
    traced_clients: &[ClientOutcome],
) -> Result<(), String> {
    let counters = |s: &SimStats| (s.events, s.timers, s.packets, s.faults);
    if counters(untraced) != counters(traced) {
        return Err(format!(
            "(events, timers, packets, faults) differ: untraced {:?}, traced {:?}",
            counters(untraced),
            counters(traced)
        ));
    }
    if untraced.links != traced.links {
        let at = untraced
            .links
            .iter()
            .zip(&traced.links)
            .position(|(a, b)| a != b)
            .unwrap_or(untraced.links.len().min(traced.links.len()));
        return Err(format!("link stats differ first at link {at}"));
    }
    if untraced_clients.len() != traced_clients.len() {
        return Err(format!(
            "{} untraced clients vs {} traced",
            untraced_clients.len(),
            traced_clients.len()
        ));
    }
    if let Some(i) = (0..untraced_clients.len()).find(|&i| untraced_clients[i] != traced_clients[i])
    {
        return Err(format!(
            "client {i} differs: untraced {:?}, traced {:?}",
            untraced_clients[i], traced_clients[i]
        ));
    }
    Ok(())
}
