//! End-to-end chunk fetches between two host stacks over simulated links.

use simnet::{Context, LinkConfig, LinkId, Node, SimDuration, SimTime, Simulator};
use util::bytes::Bytes;
use xcache::Manifest;
use xia_addr::{Dag, Principal, Xid};
use xia_host::{App, EndHost, FetchResult, Host, HostConfig, HostCtx};
use xia_wire::{ConnId, XiaPacket, L4};

/// Fetches a list of chunk DAGs sequentially, recording results.
struct SeqFetcher {
    dags: Vec<Dag>,
    next: usize,
    completions: Vec<(Xid, FetchResult, SimTime)>,
}

impl SeqFetcher {
    fn new(dags: Vec<Dag>) -> Self {
        SeqFetcher {
            dags,
            next: 0,
            completions: Vec::new(),
        }
    }

    fn fetch_next(&mut self, ctx: &mut HostCtx<'_, '_>) {
        if self.next < self.dags.len() {
            let dag = self.dags[self.next].clone();
            self.next += 1;
            ctx.xfetch_chunk(dag);
        }
    }
}

impl App for SeqFetcher {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.fetch_next(ctx);
    }

    fn on_fetch_complete(
        &mut self,
        ctx: &mut HostCtx<'_, '_>,
        _handle: u64,
        cid: Xid,
        result: FetchResult,
    ) {
        self.completions.push((cid, result, ctx.now()));
        self.fetch_next(ctx);
    }
}

struct World {
    sim: Simulator<XiaPacket>,
    client: simnet::NodeId,
    server: simnet::NodeId,
    link: simnet::LinkId,
    manifest: Manifest,
    content: Bytes,
}

fn build_world(content_len: usize, chunk_size: usize, link: LinkConfig) -> World {
    let mut sim = Simulator::new(11);
    let server_hid = Xid::new_random(Principal::Hid, 1);
    let client_hid = Xid::new_random(Principal::Hid, 2);
    let nid = Xid::new_random(Principal::Nid, 9);

    let mut server_host = Host::new(HostConfig::new(server_hid));
    let content = Bytes::from(
        (0..content_len)
            .map(|i| (i % 249) as u8)
            .collect::<Vec<u8>>(),
    );
    let manifest = server_host.publish_content(&content, chunk_size);

    let dags: Vec<Dag> = manifest
        .chunks
        .iter()
        .map(|cid| Dag::cid_with_fallback(*cid, nid, server_hid))
        .collect();

    let mut client_host = Host::new(HostConfig::new(client_hid));
    client_host.add_app(Box::new(SeqFetcher::new(dags)));

    let server = sim.add_node(Box::new(EndHost::new(server_host)));
    let client = sim.add_node(Box::new(EndHost::new(client_host)));
    let l = sim.add_link(client, server, link);
    sim.node_mut::<EndHost>(server)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));
    sim.node_mut::<EndHost>(client)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));
    World {
        sim,
        client,
        server,
        link: l,
        manifest,
        content,
    }
}

fn completions(
    world: &Simulator<XiaPacket>,
    node: simnet::NodeId,
) -> &[(Xid, FetchResult, SimTime)] {
    &world
        .node::<EndHost>(node)
        .unwrap()
        .host()
        .app::<SeqFetcher>(0)
        .unwrap()
        .completions
}

#[test]
fn fetches_all_chunks_and_reassembles() {
    let mut w = build_world(
        1_000_000,
        200_000,
        LinkConfig::wired(100_000_000, SimDuration::from_millis(5)),
    );
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 5);
    let mut body = Vec::new();
    for (i, (cid, result, _)) in done.iter().enumerate() {
        assert_eq!(*cid, w.manifest.chunks[i], "in manifest order");
        match result {
            FetchResult::Complete(bytes) => body.extend_from_slice(bytes),
            other => panic!("chunk {i} failed: {other:?}"),
        }
    }
    assert_eq!(Bytes::from(body), w.content);
    // Server served every chunk.
    let server = w.sim.node::<EndHost>(w.server).unwrap().host();
    assert_eq!(server.server().served(), 5);
    // All connections torn down.
    assert_eq!(server.active_connections(), 0);
    assert_eq!(
        w.sim
            .node::<EndHost>(w.client)
            .unwrap()
            .host()
            .active_connections(),
        0
    );
}

#[test]
fn fetch_over_lossy_wireless_link_completes() {
    let mut w = build_world(
        400_000,
        100_000,
        LinkConfig::wireless(30_000_000, SimDuration::from_millis(2), 0.27),
    );
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 4);
    assert!(done
        .iter()
        .all(|(_, r, _)| matches!(r, FetchResult::Complete(_))));
}

#[test]
fn missing_chunk_reports_not_found() {
    let mut sim = Simulator::new(3);
    let server_hid = Xid::new_random(Principal::Hid, 1);
    let client_hid = Xid::new_random(Principal::Hid, 2);
    let nid = Xid::new_random(Principal::Nid, 9);
    let server_host = Host::new(HostConfig::new(server_hid));
    let missing = Xid::for_content(b"never published");
    let dag = Dag::cid_with_fallback(missing, nid, server_hid);
    let mut client_host = Host::new(HostConfig::new(client_hid));
    client_host.add_app(Box::new(SeqFetcher::new(vec![dag])));
    let server = sim.add_node(Box::new(EndHost::new(server_host)));
    let client = sim.add_node(Box::new(EndHost::new(client_host)));
    let l = sim.add_link(
        client,
        server,
        LinkConfig::wired(10_000_000, SimDuration::from_millis(1)),
    );
    sim.node_mut::<EndHost>(server)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));
    sim.node_mut::<EndHost>(client)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));
    sim.run();
    let done = completions(&sim, client);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1, FetchResult::NotFound);
}

#[test]
fn client_side_caching_stores_fetched_chunks() {
    let mut sim = Simulator::new(5);
    let server_hid = Xid::new_random(Principal::Hid, 1);
    let client_hid = Xid::new_random(Principal::Hid, 2);
    let nid = Xid::new_random(Principal::Nid, 9);
    let mut server_host = Host::new(HostConfig::new(server_hid));
    let content = Bytes::from(vec![42u8; 50_000]);
    let manifest = server_host.publish_content(&content, 25_000);
    let dags: Vec<Dag> = manifest
        .chunks
        .iter()
        .map(|c| Dag::cid_with_fallback(*c, nid, server_hid))
        .collect();
    let mut config = HostConfig::new(client_hid);
    config.cache_fetched = true;
    let mut client_host = Host::new(config);
    client_host.add_app(Box::new(SeqFetcher::new(dags)));
    let server = sim.add_node(Box::new(EndHost::new(server_host)));
    let client = sim.add_node(Box::new(EndHost::new(client_host)));
    let l = sim.add_link(
        client,
        server,
        LinkConfig::wired(10_000_000, SimDuration::from_millis(1)),
    );
    sim.node_mut::<EndHost>(server)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));
    sim.node_mut::<EndHost>(client)
        .unwrap()
        .host_mut()
        .set_attachment(Some(nid), Some(l));
    sim.run();
    let client_store = sim.node::<EndHost>(client).unwrap().host().store();
    for cid in &manifest.chunks {
        assert!(client_store.contains(cid), "fetched chunk cached locally");
    }
}

/// A fetch across a link that dies mid-transfer eventually completes after
/// the link comes back (transport RTO recovery), exercising the vehicular
/// disconnection path.
#[test]
fn fetch_survives_link_outage() {
    let mut w = build_world(
        600_000,
        600_000,
        LinkConfig::wired(20_000_000, SimDuration::from_millis(2)),
    );
    // Kill the only link at 100 ms for 3 seconds.
    let link = w.link;
    w.sim
        .schedule_link_state(SimTime::from_micros(100_000), link, false);
    w.sim
        .schedule_link_state(SimTime::from_micros(3_100_000), link, true);
    w.sim.run();
    let done = completions(&w.sim, w.client);
    assert_eq!(done.len(), 1);
    assert!(matches!(done[0].1, FetchResult::Complete(_)));
    // Completion happened after the outage ended.
    assert!(done[0].2 > SimTime::from_micros(3_100_000));
}

/// Records the source address and kind of every packet it receives.
#[derive(Default)]
struct Recorder {
    seen: Vec<(SimTime, Dag, Sent)>,
}

/// What a recorded packet was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sent {
    Syn(ConnId),
    Control,
    Other,
}

impl Node<XiaPacket> for Recorder {
    fn on_packet(&mut self, ctx: &mut Context<'_, XiaPacket>, _link: LinkId, pkt: XiaPacket) {
        let sent = match &pkt.l4 {
            L4::Segment(seg) if seg.flags.syn => Sent::Syn(seg.conn),
            L4::Control { .. } => Sent::Control,
            _ => Sent::Other,
        };
        self.seen.push((ctx.now(), pkt.src, sent));
    }
}

/// Opens a connection and sends a control datagram on every timer; on
/// the first timer it re-attaches to `roam_to` first and migrates its
/// connections.
struct Roamer {
    peer: Dag,
    roam_to: Xid,
    conns: Vec<ConnId>,
}

impl App for Roamer {
    fn on_start(&mut self, ctx: &mut HostCtx<'_, '_>) {
        self.conns.push(ctx.connect(self.peer.clone()));
        ctx.send_control(self.peer.clone(), self.peer.intent(), Bytes::new());
        ctx.set_app_timer(SimDuration::from_millis(10), 1);
        ctx.set_app_timer(SimDuration::from_millis(30), 2);
    }

    fn on_timer(&mut self, ctx: &mut HostCtx<'_, '_>, key: u64) {
        if key == 1 {
            ctx.set_attachment(Some(self.roam_to), ctx.primary_link());
            ctx.migrate_connections(SimDuration::from_millis(1));
        }
        self.conns.push(ctx.connect(self.peer.clone()));
        ctx.send_control(self.peer.clone(), self.peer.intent(), Bytes::new());
    }
}

/// The host caches its `NID : HID` locator; a re-attachment, through
/// either [`HostCtx::set_attachment`] or [`Host::set_attachment`], must
/// re-source new connections, control datagrams and migrated connections
/// from the new network at once.
#[test]
fn reattachment_resources_every_sender_from_the_new_nid() {
    let mut sim = Simulator::new(5);
    let hid = Xid::new_random(Principal::Hid, 1);
    let peer_hid = Xid::new_random(Principal::Hid, 2);
    let [nid1, nid2, nid3] = [10, 11, 12].map(|n| Xid::new_random(Principal::Nid, n));
    let mut host = Host::new(HostConfig::new(hid));
    host.add_app(Box::new(Roamer {
        peer: Dag::host(nid1, peer_hid),
        roam_to: nid2,
        conns: Vec::new(),
    }));
    let node = sim.add_node(Box::new(EndHost::new(host)));
    let recorder = sim.add_node(Box::new(Recorder::default()));
    let link = sim.add_link(
        node,
        recorder,
        LinkConfig::wired(100_000_000, SimDuration::from_micros(100)),
    );
    let attach = |sim: &mut Simulator<XiaPacket>, nid| {
        let end_host = sim.node_mut::<EndHost>(node).unwrap();
        end_host.host_mut().set_attachment(Some(nid), Some(link));
    };
    attach(&mut sim, nid1);
    sim.run_until(SimTime::from_micros(20_000));
    attach(&mut sim, nid3);
    sim.run_until(SimTime::from_micros(40_000));

    let conns = &sim
        .node::<EndHost>(node)
        .unwrap()
        .host()
        .app::<Roamer>(0)
        .unwrap()
        .conns;
    let seen = &sim.node::<Recorder>(recorder).unwrap().seen;
    let sources = |from_ms: u64, to_ms: u64, what: Sent| -> Vec<Dag> {
        seen.iter()
            .filter(|(at, _, sent)| {
                (from_ms * 1000..to_ms * 1000).contains(&at.as_micros()) && *sent == what
            })
            .map(|(_, src, _)| src.clone())
            .collect()
    };
    let phases = [
        (0, 10, nid1, conns[0]),
        (10, 20, nid2, conns[1]),
        (30, 40, nid3, conns[2]),
    ];
    for (from, to, nid, conn) in phases {
        let want = Dag::host(nid, hid);
        for what in [Sent::Syn(conn), Sent::Control] {
            let srcs = sources(from, to, what);
            assert!(!srcs.is_empty(), "no {what:?} sent in {from}..{to} ms");
            assert!(
                srcs.iter().all(|s| *s == want),
                "{what:?} sourced from a stale locator"
            );
        }
    }
    // The first connection's handshake never completed; migrating it
    // re-fires its SYN from the new locator.
    let migrated = sources(10, 20, Sent::Syn(conns[0]));
    assert!(!migrated.is_empty(), "migration did not re-fire the SYN");
    assert!(migrated.iter().all(|s| *s == Dag::host(nid2, hid)));
}
