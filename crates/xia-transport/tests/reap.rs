//! Finished connections are reaped by the very call that finished them.
//!
//! The mux removes a connection only when a call on that connection's own
//! uid finishes it, so the per-segment path never scans the other live
//! connections. These tests pin the observable half of that contract:
//! with many connections open on one mux, the packet (or API call) that
//! resets or cleanly closes one of them leaves `has_connection` false and
//! `active_connections()` one lower before anything else runs.

use simnet::{SimDuration, SimTime};
use xia_addr::{Dag, Principal, Xid};
use xia_transport::{CloseReason, TransportConfig, TransportEnv, TransportEvent, TransportMux};
use xia_wire::{ConnId, XiaPacket};

/// Live connections held open on the mux under test.
const LIVE: usize = 64;

/// Records emissions and events. Timers never fire: nothing is lost and
/// the unpaced `linux_tcp` stack sends without waiting on one.
#[derive(Default)]
struct Env {
    out: Vec<XiaPacket>,
    events: Vec<TransportEvent>,
}

impl TransportEnv for Env {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn emit(&mut self, pkt: XiaPacket) {
        self.out.push(pkt);
    }
    fn set_timer(&mut self, _delay: SimDuration, _key: u64) {}
    fn deliver(&mut self, event: TransportEvent) {
        self.events.push(event);
    }
}

struct Side {
    mux: TransportMux,
    env: Env,
    addr: Dag,
}

impl Side {
    fn new(hid_seed: u64) -> Self {
        let hid = Xid::new_random(Principal::Hid, hid_seed);
        let nid = Xid::new_random(Principal::Nid, 1);
        Side {
            mux: TransportMux::new(TransportConfig::linux_tcp(), hid),
            env: Env::default(),
            addr: Dag::host(nid, hid),
        }
    }
}

/// Delivers every packet `from` has queued to `to`, one at a time. After
/// each packet, a connection the packet finished must already be gone,
/// and no other connection may have been dropped.
fn deliver(from: &mut Side, to: &mut Side) {
    for pkt in std::mem::take(&mut from.env.out) {
        let live_before = to.mux.active_connections();
        let seen = to.env.events.len();
        to.mux.on_packet(&mut to.env, pkt, to.addr.clone());
        let mut expected = live_before;
        for event in &to.env.events[seen..] {
            match event {
                TransportEvent::Incoming { .. } => expected += 1,
                TransportEvent::Closed { conn } | TransportEvent::Failed { conn, .. } => {
                    assert!(
                        !to.mux.has_connection(*conn),
                        "finished connection outlived the packet that finished it"
                    );
                    expected -= 1;
                }
                _ => {}
            }
        }
        assert_eq!(to.mux.active_connections(), expected);
    }
}

/// Opens [`LIVE`] connections from `a` to `b` and completes every
/// handshake.
fn established() -> (Side, Side, Vec<ConnId>) {
    let (mut a, mut b) = (Side::new(100), Side::new(200));
    let conns: Vec<ConnId> = (0..LIVE)
        .map(|_| a.mux.connect(&mut a.env, b.addr.clone(), a.addr.clone()))
        .collect();
    deliver(&mut a, &mut b); // SYNs
    deliver(&mut b, &mut a); // SYN-ACKs
    deliver(&mut a, &mut b); // handshake ACKs
    assert_eq!(a.mux.active_connections(), LIVE);
    assert_eq!(b.mux.active_connections(), LIVE);
    let connected = a
        .env
        .events
        .iter()
        .filter(|e| matches!(e, TransportEvent::Connected { .. }))
        .count();
    assert_eq!(connected, LIVE);
    (a, b, conns)
}

fn finished(env: &Env, conn: ConnId) -> bool {
    env.events.iter().any(|e| {
        matches!(e, TransportEvent::Closed { conn: c } | TransportEvent::Failed { conn: c, .. } if *c == conn)
    })
}

#[test]
fn reset_reaps_only_the_reset_connection() {
    let (mut a, mut b, conns) = established();
    let victim = conns[LIVE / 2];

    // The aborting side reaps inside `abort`.
    a.mux.abort(&mut a.env, victim);
    assert!(!a.mux.has_connection(victim));
    assert_eq!(a.mux.active_connections(), LIVE - 1);

    // The peer reaps on the RST itself.
    deliver(&mut a, &mut b);
    assert!(b.env.events.iter().any(|e| matches!(
        e,
        TransportEvent::Failed { conn, reason: CloseReason::Reset } if *conn == victim
    )));
    assert!(!b.mux.has_connection(victim));
    assert_eq!(b.mux.active_connections(), LIVE - 1);
    for &conn in conns.iter().filter(|&&c| c != victim) {
        assert!(a.mux.has_connection(conn) && b.mux.has_connection(conn));
    }
}

#[test]
fn clean_close_reaps_on_the_finishing_packet() {
    let (mut a, mut b, conns) = established();
    let victim = conns[7];

    a.mux.close(&mut a.env, victim).expect("live connection");
    deliver(&mut a, &mut b); // A's FIN
    deliver(&mut b, &mut a); // B's ACK of it
    b.mux.close(&mut b.env, victim).expect("live connection");
    assert!(a.mux.has_connection(victim) && b.mux.has_connection(victim));

    deliver(&mut b, &mut a); // B's FIN: finishes A's side
    assert!(finished(&a.env, victim));
    assert!(!a.mux.has_connection(victim));
    assert_eq!(a.mux.active_connections(), LIVE - 1);

    deliver(&mut a, &mut b); // A's final ACK: finishes B's side
    assert!(finished(&b.env, victim));
    assert!(!b.mux.has_connection(victim));
    assert_eq!(b.mux.active_connections(), LIVE - 1);
}
