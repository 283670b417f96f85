//! The per-role timing decorator.
//!
//! [`Timed`] wraps any [`Node`] and times each of its five callbacks
//! with the host clock, charging the time to the node's [`Role`] in a
//! shared [`RoleClocks`]. Clocks are aggregated per role, never stored
//! per callback: a 1000-client fleet world dispatches ~6M events.
//! Everything the simulator does between callbacks (the scheduler, the
//! link model, applying a callback's actions, the run loop's checks) is
//! not charged to any role; it is the `simnet` residual.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use simnet::{Context, LinkId, Message, Node, NodeFault, TimerKey};

/// What a node is in the topology; busy time is aggregated per role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The content origin (an `EndHost`).
    Origin,
    /// The core router.
    Core,
    /// An edge router, including its XCache, Staging VNF and beacon.
    Edge,
    /// A SoftStage or Xftp client (an `EndHost`).
    Client,
}

impl Role {
    /// Every role, in report order.
    pub const ALL: [Role; 4] = [Role::Origin, Role::Core, Role::Edge, Role::Client];

    /// The role's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Role::Origin => "origin",
            Role::Core => "core",
            Role::Edge => "edge",
            Role::Client => "client",
        }
    }
}

/// The five [`Node`] callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// [`Node::on_start`].
    Start,
    /// [`Node::on_packet`].
    Packet,
    /// [`Node::on_timer`].
    Timer,
    /// [`Node::on_link_event`].
    LinkEvent,
    /// [`Node::on_fault`].
    Fault,
}

/// Busy time and call counts per role, shared by every [`Timed`] node
/// of one world.
#[derive(Debug, Default)]
pub struct RoleClocks {
    busy_ns: [Cell<u64>; 4],
    calls: [[Cell<u64>; 5]; 4],
}

impl RoleClocks {
    fn record(&self, role: Role, callback: Callback, ns: u64) {
        let busy = &self.busy_ns[role as usize];
        busy.set(busy.get() + ns);
        let calls = &self.calls[role as usize][callback as usize];
        calls.set(calls.get() + 1);
    }

    /// Host nanoseconds spent inside `role`'s callbacks.
    pub fn busy_ns(&self, role: Role) -> u64 {
        self.busy_ns[role as usize].get()
    }

    /// Callbacks of kind `callback` delivered to `role`.
    pub fn calls_of(&self, role: Role, callback: Callback) -> u64 {
        self.calls[role as usize][callback as usize].get()
    }

    /// Callbacks of every kind delivered to `role`.
    pub fn calls(&self, role: Role) -> u64 {
        self.calls[role as usize].iter().map(Cell::get).sum()
    }
}

/// A node whose callbacks are timed and charged to its role.
pub struct Timed<N> {
    inner: N,
    role: Role,
    clocks: Rc<RoleClocks>,
}

impl<N> Timed<N> {
    /// Wraps `inner` as a node of `role`, charging to `clocks`.
    pub fn new(inner: N, role: Role, clocks: Rc<RoleClocks>) -> Self {
        Timed {
            inner,
            role,
            clocks,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// The wrapped node, mutably.
    pub fn inner_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    fn charge(&self, callback: Callback, since: Instant) {
        let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.clocks.record(self.role, callback, ns);
    }
}

impl<M: Message, N: Node<M>> Node<M> for Timed<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.charge(Callback::Start, t);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_, M>, link: LinkId, msg: M) {
        let t = Instant::now();
        self.inner.on_packet(ctx, link, msg);
        self.charge(Callback::Packet, t);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, key: TimerKey) {
        let t = Instant::now();
        self.inner.on_timer(ctx, key);
        self.charge(Callback::Timer, t);
    }

    fn on_link_event(&mut self, ctx: &mut Context<'_, M>, link: LinkId, up: bool) {
        let t = Instant::now();
        self.inner.on_link_event(ctx, link, up);
        self.charge(Callback::LinkEvent, t);
    }

    fn on_fault(&mut self, ctx: &mut Context<'_, M>, fault: NodeFault) {
        let t = Instant::now();
        self.inner.on_fault(ctx, fault);
        self.charge(Callback::Fault, t);
    }
}
