//! Connection multiplexer: demultiplexes segments, owns timer keys, and
//! provides the host-facing transport API.

use std::collections::{BTreeMap, VecDeque};

use simnet::SimDuration;
use util::bytes::Bytes;
use xia_addr::{Dag, Xid};
use xia_wire::{ConnId, SegFlags, Segment, XiaPacket, L4};

use crate::config::TransportConfig;
use crate::conn::{ConnState, ConnStats, Connection, TimerKind, TransportEnv};

/// Tag in the upper 16 bits marking a host timer key as belonging to the
/// transport. Hosts route any timer whose key carries this tag to
/// [`TransportMux::on_timer`].
pub const TIMER_TAG: u64 = 0x5452 << 48;

const KIND_SHIFT: u32 = 44;
const GEN_SHIFT: u32 = 24;
const GEN_MASK: u64 = 0xF_FFFF;
const UID_MASK: u64 = 0xFF_FFFF;

fn pack_key(uid: u64, kind: TimerKind, gen: u32) -> u64 {
    let kind_bits = match kind {
        TimerKind::Rto => 0u64,
        TimerKind::Pace => 1,
        TimerKind::Migrate => 2,
    };
    TIMER_TAG
        | (kind_bits << KIND_SHIFT)
        | ((u64::from(gen) & GEN_MASK) << GEN_SHIFT)
        | (uid & UID_MASK)
}

/// Errors returned by the mux's host-facing API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The connection id is unknown (never existed or already reaped).
    UnknownConnection,
    /// The operation is invalid in the connection's current state.
    InvalidState,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            TransportError::UnknownConnection => "unknown connection",
            TransportError::InvalidState => "operation invalid in current connection state",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TransportError {}

/// The host-side transport endpoint: a set of connections sharing one
/// local identity.
///
/// All methods take a [`TransportEnv`] through which the mux reads the
/// clock, emits packets, arms timers and delivers [`crate::TransportEvent`]s.
pub struct TransportMux {
    config: TransportConfig,
    local_hid: Xid,
    next_port: u64,
    next_uid: u64,
    conns: BTreeMap<u64, Connection>,
    by_id: BTreeMap<ConnId, u64>,
    /// TIME_WAIT-style memory of recently closed connections so a lost
    /// final ACK does not strand the peer: maps the connection to the final
    /// ack value and the local source address for the replayed ACK.
    time_wait: VecDeque<(ConnId, u64, Dag)>,
}

impl TransportMux {
    /// Maximum remembered recently-closed connections.
    const TIME_WAIT_CAP: usize = 256;

    /// Creates a mux for a host identified by `local_hid`.
    pub fn new(config: TransportConfig, local_hid: Xid) -> Self {
        TransportMux {
            config,
            local_hid,
            next_port: 1,
            next_uid: 1,
            conns: BTreeMap::new(),
            by_id: BTreeMap::new(),
            time_wait: VecDeque::new(),
        }
    }

    /// Drops every connection and all transient transport state without
    /// notifying peers — the fault-injection "crash". Peers discover the
    /// loss through retransmission timeouts, exactly as after a real
    /// process crash.
    pub fn reset(&mut self) {
        self.conns.clear();
        self.by_id.clear();
        self.time_wait.clear();
    }

    /// The transport configuration in use.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Number of live connections.
    pub fn active_connections(&self) -> usize {
        self.conns.len()
    }

    /// Whether `conn` refers to a live connection on this mux.
    pub fn has_connection(&self, conn: ConnId) -> bool {
        self.by_id.contains_key(&conn)
    }

    /// Opens a connection to `dst`, sourcing packets from `src`.
    /// Completion is signalled by [`crate::TransportEvent::Connected`].
    pub fn connect(&mut self, env: &mut dyn TransportEnv, dst: Dag, src: Dag) -> ConnId {
        let id = ConnId {
            initiator: self.local_hid,
            port: self.next_port,
        };
        self.next_port += 1;
        let uid = self.next_uid;
        self.next_uid += 1;
        let mut conn = Connection::new_initiator(id, dst, src, self.config.clone());
        let key = move |kind, gen| pack_key(uid, kind, gen);
        conn.start(env, &key);
        self.conns.insert(uid, conn);
        self.by_id.insert(id, uid);
        self.debug_assert_reaped();
        id
    }

    /// Queues `data` on `conn`.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown or already closing.
    pub fn send(
        &mut self,
        env: &mut dyn TransportEnv,
        conn: ConnId,
        data: Bytes,
    ) -> Result<(), TransportError> {
        let uid = *self
            .by_id
            .get(&conn)
            .ok_or(TransportError::UnknownConnection)?;
        let c = self
            .conns
            .get_mut(&uid)
            .ok_or(TransportError::UnknownConnection)?;
        if matches!(c.state, ConnState::Closed | ConnState::Failed) {
            return Err(TransportError::InvalidState);
        }
        let key = move |kind, gen| pack_key(uid, kind, gen);
        c.send(env, &key, data);
        self.debug_assert_reaped();
        Ok(())
    }

    /// Closes the send direction of `conn` after queued data drains.
    ///
    /// # Errors
    ///
    /// Fails if the connection is unknown.
    pub fn close(
        &mut self,
        env: &mut dyn TransportEnv,
        conn: ConnId,
    ) -> Result<(), TransportError> {
        let uid = *self
            .by_id
            .get(&conn)
            .ok_or(TransportError::UnknownConnection)?;
        let c = self
            .conns
            .get_mut(&uid)
            .ok_or(TransportError::UnknownConnection)?;
        let key = move |kind, gen| pack_key(uid, kind, gen);
        c.close(env, &key);
        self.reap(uid);
        self.debug_assert_reaped();
        Ok(())
    }

    /// Aborts `conn` with a RST. Unknown connections are ignored.
    pub fn abort(&mut self, env: &mut dyn TransportEnv, conn: ConnId) {
        if let Some(&uid) = self.by_id.get(&conn) {
            if let Some(c) = self.conns.get_mut(&uid) {
                c.abort(env);
            }
            self.reap(uid);
        }
        self.debug_assert_reaped();
    }

    /// Migrates every live connection to a new local source address after
    /// an `pause`-long active-session-migration outage (layer-3 handoff).
    pub fn migrate_all(&mut self, env: &mut dyn TransportEnv, new_src: Dag, pause: SimDuration) {
        for (&uid, c) in &mut self.conns {
            let key = move |kind, gen| pack_key(uid, kind, gen);
            c.migrate(env, &key, new_src.clone(), pause);
        }
        self.debug_assert_reaped();
    }

    /// Live connection count in migrating state (for tests/diagnostics).
    pub fn migrating_connections(&self) -> usize {
        self.conns
            .values()
            .filter(|c| c.state == ConnState::Migrating)
            .count()
    }

    /// Per-connection statistics, if the connection is still live.
    pub fn stats(&self, conn: ConnId) -> Option<ConnStats> {
        let uid = self.by_id.get(&conn)?;
        Some(self.conns.get(uid)?.stats())
    }

    /// Smoothed RTT of a live connection.
    pub fn srtt(&self, conn: ConnId) -> Option<SimDuration> {
        let uid = self.by_id.get(&conn)?;
        self.conns.get(uid)?.srtt()
    }

    /// Handles a transport packet addressed to this host.
    ///
    /// SYNs for unknown connections create responder connections and raise
    /// [`crate::TransportEvent::Incoming`]; `local_src` is the address the
    /// new connection answers from (e.g. this host's `NID : HID`, or a
    /// router cache's own address when intercepting a CID request).
    pub fn on_packet(&mut self, env: &mut dyn TransportEnv, pkt: XiaPacket, local_src: Dag) {
        self.demux(env, pkt, local_src);
        self.debug_assert_reaped();
    }

    fn demux(&mut self, env: &mut dyn TransportEnv, pkt: XiaPacket, local_src: Dag) {
        let L4::Segment(seg) = pkt.l4 else {
            return;
        };
        if let Some(&uid) = self.by_id.get(&seg.conn) {
            if let Some(c) = self.conns.get_mut(&uid) {
                let key = move |kind, gen| pack_key(uid, kind, gen);
                c.on_segment(env, &key, seg, &pkt.src);
            }
            self.reap(uid);
            return;
        }
        // TIME_WAIT replay: a retransmitted FIN for a reaped connection
        // means our final ACK was lost; replay it.
        if seg.flags.fin {
            if let Some((_, final_ack, src)) =
                self.time_wait.iter().find(|(id, _, _)| *id == seg.conn)
            {
                let ack = Segment {
                    conn: seg.conn,
                    seq: 0,
                    ack: *final_ack,
                    flags: SegFlags::ACK,
                    window: self.config.receive_window,
                    payload: Bytes::new(),
                };
                env.emit(XiaPacket::new(pkt.src, src.clone(), L4::Segment(ack)));
                return;
            }
        }
        if seg.flags.syn && !seg.flags.ack {
            // New inbound connection.
            let uid = self.next_uid;
            self.next_uid += 1;
            let mut conn = Connection::new_responder(
                seg.conn,
                pkt.src.clone(),
                local_src,
                self.config.clone(),
            );
            let key = move |kind, gen| pack_key(uid, kind, gen);
            conn.on_syn(env, &key);
            self.by_id.insert(seg.conn, uid);
            self.conns.insert(uid, conn);
            env.deliver(crate::TransportEvent::Incoming {
                conn: seg.conn,
                requested: pkt.dst,
                peer: pkt.src,
            });
            return;
        }
        if !seg.flags.rst {
            // Unknown connection: reset the peer so it fails fast instead
            // of retransmitting into the void.
            let rst = Segment {
                conn: seg.conn,
                seq: seg.ack,
                ack: 0,
                flags: SegFlags::RST,
                window: 0,
                payload: Bytes::new(),
            };
            env.emit(XiaPacket::new(pkt.src, local_src, L4::Segment(rst)));
        }
    }

    /// Routes a host timer back to the owning connection. Returns `true`
    /// if the key belonged to the transport (even if stale).
    pub fn on_timer(&mut self, env: &mut dyn TransportEnv, timer_key: u64) -> bool {
        if timer_key & (0xFFFF << 48) != TIMER_TAG {
            return false;
        }
        let uid = timer_key & UID_MASK;
        let gen = ((timer_key >> GEN_SHIFT) & GEN_MASK) as u32;
        let kind = (timer_key >> KIND_SHIFT) & 0xF;
        if let Some(c) = self.conns.get_mut(&uid) {
            let key = move |kind, gen| pack_key(uid, kind, gen);
            match kind {
                0 => c.on_rto(env, &key, gen),
                1 => c.on_pace(env, &key),
                2 => c.on_migrate_done(env, &key, gen),
                _ => {}
            }
            self.reap(uid);
        }
        self.debug_assert_reaped();
        true
    }

    /// Removes `uid` if its connection has finished. A connection finishes
    /// only in `on_segment`, `on_rto` or `abort`, and each public call
    /// that runs one of them reaps its own uid here, so no call ever
    /// scans the other live connections.
    fn reap(&mut self, uid: u64) {
        if !self.conns.get(&uid).is_some_and(|c| c.finished) {
            return;
        }
        let Some(c) = self.conns.remove(&uid) else {
            return;
        };
        self.by_id.remove(&c.id);
        if c.state == ConnState::Closed {
            if self.time_wait.len() >= Self::TIME_WAIT_CAP {
                self.time_wait.pop_front();
            }
            self.time_wait
                .push_back((c.id, c.final_ack(), c.src_dag.clone()));
        }
    }

    /// Checks the invariant that makes the per-uid [`Self::reap`] enough:
    /// a connection only finishes inside a call on its own uid, and that
    /// call reaps it before returning, so no live connection is finished
    /// when a public call returns. Debug builds only — it walks every
    /// connection.
    fn debug_assert_reaped(&self) {
        debug_assert!(
            self.conns.values().all(|c| !c.finished),
            "a finished connection outlived the call that finished it"
        );
    }
}

impl std::fmt::Debug for TransportMux {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportMux")
            .field("local_hid", &self.local_hid)
            .field("connections", &self.conns.len())
            .finish()
    }
}
