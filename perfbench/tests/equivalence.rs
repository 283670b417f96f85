//! The equivalence guard's own tests: each traced twin must reproduce
//! its untraced original exactly — scheduler counters, every link
//! counter and every client outcome — including under injected faults,
//! and the guard must notice when it does not.

use std::rc::Rc;

use perfbench::timed::{Callback, Role, RoleClocks};
use perfbench::worlds::{self, ClientOutcome};
use simnet::{FaultPlan, SimDuration, SimTime};
use softstage::SoftStageConfig;
use softstage_experiments::fleet::{self, FleetParams};
use softstage_experiments::workload::ZipfCatalog;
use softstage_experiments::{testbed, ExperimentParams, MB};
use xia_addr::sha1::Sha1;

fn deadline() -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(2000)
}

/// A small download: six 1 MB chunks over the Table III defaults.
fn small(seed: u64) -> ExperimentParams {
    ExperimentParams {
        file_size: 6 * MB,
        chunk_size: MB,
        seed,
        ..ExperimentParams::default()
    }
}

/// A fleet small enough for a debug build, still several clients per
/// edge so caches and VNFs are contended.
fn tiny_fleet(staging: bool) -> FleetParams {
    FleetParams {
        clients: 24,
        edges: 2,
        catalog_objects: 8,
        chunk_size: 8 * 1024,
        zipf_skew: 1.0,
        edge_cache_bytes: 64 * 1024,
        arrival_window: SimDuration::from_secs(2),
        horizon: SimDuration::from_secs(120),
        staging,
        ..FleetParams::default()
    }
    .with_seed(11)
}

/// Crashes and restarts an edge mid-download, wipes and squeezes the
/// other edge's cache, slows it, and flaps a radio link: every kind of
/// node fault, so `on_fault` must reach the wrapped node.
fn faults(edges: &[simnet::NodeId], radio: simnet::LinkId) -> FaultPlan {
    let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let mut plan = FaultPlan::new();
    plan.crash(edges[0], at(3), Some(SimDuration::from_secs(4)))
        .cache_wipe(edges[1], at(9))
        .cache_squeeze(edges[1], at(10), 2 * MB)
        .slow_edge(
            edges[1],
            at(11),
            SimDuration::from_secs(3),
            SimDuration::from_millis(50),
        )
        .flap(radio, at(14), SimDuration::from_secs(1));
    plan
}

#[test]
fn testbed_twin_matches_under_faults() {
    let params = small(7);
    let schedule = params.alternating_schedule(SimDuration::from_secs(2000));

    let mut tb = testbed::build(&params, &schedule, SoftStageConfig::default());
    faults(&tb.edges, tb.radio_links[0]).apply(&mut tb.sim);
    let result = tb.run(deadline());
    assert!(result.content_ok, "untraced faulted download: {result:?}");

    let clocks = Rc::new(RoleClocks::default());
    let mut tw = worlds::traced_testbed(&params, &schedule, SoftStageConfig::default(), &clocks);
    assert_eq!(
        (tw.edges.clone(), tw.radio_links.clone()),
        (tb.edges.clone(), tb.radio_links.clone())
    );
    faults(&tw.edges, tw.radio_links[0]).apply(&mut tw.sim);
    assert!(tw.run(deadline()), "traced faulted download");

    let stats = tw.sim.stats();
    assert!(
        stats.faults >= 6,
        "every fault dispatched: {}",
        stats.faults
    );
    worlds::equivalent(
        tb.sim.stats(),
        stats,
        &[ClientOutcome::of(tb.client_app())],
        &[ClientOutcome::of(tw.client_app())],
    )
    .expect("traced twin equals its original under faults");

    let total = |cb| {
        Role::ALL
            .iter()
            .map(|&r| clocks.calls_of(r, cb))
            .sum::<u64>()
    };
    assert_eq!(
        total(Callback::Fault),
        stats.faults,
        "on_fault is forwarded"
    );
    assert_eq!(
        total(Callback::Packet),
        stats.packets,
        "on_packet is forwarded"
    );
    assert_eq!(
        total(Callback::Timer),
        stats.timers,
        "on_timer is forwarded"
    );
    assert_eq!(total(Callback::Start), tw.sim.node_count() as u64);
    assert!(total(Callback::LinkEvent) > 0, "on_link_event is forwarded");
    assert_eq!(clocks.calls_of(Role::Origin, Callback::Fault), 0);
    assert!(clocks.calls_of(Role::Edge, Callback::Fault) >= 6);
    assert!(clocks.busy_ns(Role::Client) > 0 && clocks.busy_ns(Role::Edge) > 0);
}

#[test]
fn fleet_twins_match_with_and_without_staging() {
    for staging in [true, false] {
        let params = tiny_fleet(staging);
        let mut world = fleet::build(&params);
        let summary = world.run();
        assert_eq!(summary.completed, params.clients, "{summary:?}");
        let untraced: Vec<_> = world
            .clients
            .iter()
            .map(|&id| ClientOutcome::of(worlds::client_app(&world.sim, id)))
            .collect();

        let mut tw = worlds::traced_fleet(&params);
        let mut slices = 0;
        tw.run(|_| slices += 1);
        let traced: Vec<_> = (0..tw.clients.len())
            .map(|i| ClientOutcome::of(tw.client(i)))
            .collect();
        worlds::equivalent(world.sim.stats(), tw.sim.stats(), &untraced, &traced)
            .unwrap_or_else(|e| panic!("staging={staging}: {e}"));
        assert!(slices > 0 && tw.active_clients() == 0);
        assert!(tw.clocks.calls(Role::Origin) > 0 && tw.clocks.calls(Role::Edge) > 0);
    }
}

#[test]
fn guard_rejects_a_different_world() {
    let params = small(7);
    let schedule = params.alternating_schedule(SimDuration::from_secs(2000));
    let mut tb = testbed::build(&params, &schedule, SoftStageConfig::default());
    tb.run(deadline());

    let other = small(8);
    let clocks = Rc::new(RoleClocks::default());
    let mut tw = worlds::traced_testbed(&other, &schedule, SoftStageConfig::default(), &clocks);
    tw.run(deadline());
    let verdict = worlds::equivalent(
        tb.sim.stats(),
        tw.sim.stats(),
        &[ClientOutcome::of(tb.client_app())],
        &[ClientOutcome::of(tw.client_app())],
    );
    assert!(verdict.is_err(), "a re-seeded world passed the guard");
}

#[test]
fn restated_helpers_match_the_experiments_crate() {
    // The fleet's per-client working sets feed the benchmark's content
    // check; a drift here would fail every fleet world.
    let params = tiny_fleet(true);
    let mut world = fleet::build(&params);
    world.run();
    let catalog = ZipfCatalog::new(params.catalog_objects, params.zipf_skew);
    for (i, &id) in world.clients.iter().enumerate() {
        let mut h = Sha1::new();
        for o in worlds::client_objects(&catalog, params.seed, i as u32, params.objects_per_client)
        {
            let seed = worlds::fleet_object_seed(params.seed, o);
            h.update(&worlds::content(
                params.chunks_per_object * params.chunk_size,
                seed,
            ));
        }
        assert_eq!(
            worlds::client_app(&world.sim, id).content_digest(),
            h.finalize(),
            "client {i}"
        );
    }
}
