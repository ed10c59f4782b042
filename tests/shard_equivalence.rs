//! Parallel-simulation equivalence gates.
//!
//! Two claims keep the sharded executor honest (DESIGN.md §12):
//!
//! 1. **Bit-identity at `shards = 1`** — one shard thread running the
//!    workload reproduces a plain `block_on` exactly: same task ids, same
//!    timer order, same RNG stream, same trace ids. The full chaos
//!    workload must produce the same order-sensitive digest both ways.
//! 2. **Placement independence at `shards > 1`** — a multi-group chaos
//!    topology must produce identical acked/consumed record sets and
//!    identical canonical trace digests whether the groups share one
//!    virtual clock (`shards = 1`) or each advances its own clock on its
//!    own shard thread (`shards = 4`).

mod common;

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use kafkadirect::shardsim::{run_sharded_groups, scoped, GroupCtx, LocalFuture};
use kafkadirect::{ClusterOptions, SimCluster, SystemKind};
use kdclient::{Admin, RdmaConsumer, RdmaProducer};
use kdstorage::Record;

#[test]
fn one_shard_run_bit_identical_to_block_on() {
    for seed in [3u64, 42, 9001] {
        let legacy = common::run_seed(seed);
        let sharded = common::run_seed_sharded(seed);
        assert_eq!(legacy.acked, sharded.acked, "seed {seed}: acked diverged");
        assert_eq!(
            legacy.digest(),
            sharded.digest(),
            "seed {seed}: sharded 1-shard run is not bit-identical to block_on"
        );
    }
}

const GROUP_ATTEMPTS: u64 = 40;
const GROUP_HORIZON_NS: u64 = 15_000_000;

/// One group's chaos run: a 3-broker RF=2 cluster beaten by a seeded fault
/// plan (crash/restart/failover — no torn writes, whose garbling draws
/// ambient randomness and is therefore layout-dependent) under a tagged
/// produce workload, then a full drain of the committed stream.
fn chaos_group(ctx: &GroupCtx, seed: u64) -> LocalFuture<(Vec<u64>, Vec<u64>)> {
    let opts = ctx.opts.clone();
    let group = ctx.group as u64;
    let registry = ctx.registry.clone();
    let injector = ctx.injector.clone();
    Box::pin(async move {
        let cluster = SimCluster::start_with(SystemKind::KafkaDirect, 3, opts);
        cluster.create_topic("chaos", 1, 2).await;

        let mut cfg = kdfault::PlanConfig::new(3, GROUP_HORIZON_NS);
        cfg.failover_topic = Some("chaos".to_string());
        cfg.max_faults = 6;
        let plan_seed = seed ^ group.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plan = kdfault::FaultPlan::random(plan_seed, &cfg);

        let acked: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let done = Rc::new(Cell::new(false));
        let pnode = cluster.add_client_node("chaos-producer");
        let bootstrap = cluster.bootstrap();
        {
            let acked = Rc::clone(&acked);
            let done = Rc::clone(&done);
            // Spawned group tasks need the group's registry/injector made
            // ambient per poll — a bare sim::spawn would report into the
            // shard's default registry.
            sim::spawn(scoped(&registry, &injector, async move {
                let mut producer = loop {
                    match RdmaProducer::connect(&pnode, bootstrap, "chaos", 0, false).await {
                        Ok(p) => break p,
                        Err(_) => sim::time::sleep(Duration::from_millis(1)).await,
                    }
                };
                for attempt in 0..GROUP_ATTEMPTS {
                    let rec = Record::value(common::payload(attempt));
                    match sim::time::timeout(Duration::from_millis(40), producer.send(&rec)).await
                    {
                        Ok(Ok(_off)) => acked.borrow_mut().push(attempt),
                        _ => {
                            let _ = producer.reconnect().await;
                        }
                    }
                    sim::time::sleep(Duration::from_micros(50)).await;
                }
                done.set(true);
            }));
        }

        kafkadirect::chaos::run_plan(&cluster, &plan).await;
        while !done.get() {
            sim::time::sleep(Duration::from_millis(1)).await;
        }

        let cnode = cluster.add_client_node("chaos-observer");
        let leader = cluster.leader_of("chaos", 0).await;
        let admin = Admin::connect(&cnode, leader).await.expect("admin");
        let mut hw = 0u64;
        let mut stable = 0;
        for _ in 0..2000 {
            let (_, h) = admin.list_offsets("chaos", 0).await.expect("offsets");
            if h == hw {
                stable += 1;
                if stable >= 20 {
                    break;
                }
            } else {
                stable = 0;
                hw = h;
            }
            sim::time::sleep(Duration::from_micros(500)).await;
        }

        let mut consumer = RdmaConsumer::connect(&cnode, leader, "chaos", 0, 0)
            .await
            .expect("consumer");
        let mut consumed = Vec::new();
        while (consumed.len() as u64) < hw {
            for rv in consumer.next_records().await.expect("fetch") {
                consumed.push(common::attempt_of(&rv.record.value));
            }
        }
        let acked = acked.borrow().clone();
        (acked, consumed)
    })
}

/// One group's identity under the determinism contract: `(group, acked,
/// consumed, canonical trace digest, faults injected)`.
type GroupFingerprint = (usize, Vec<u64>, Vec<u64>, u64, u64);

/// Per-group fingerprint of a sharded run: results plus canonical trace
/// digests (raw trace ids are layout-dependent; canonical ones are not).
fn fingerprint(shards: usize, groups: usize, seed: u64) -> Vec<GroupFingerprint> {
    let run = run_sharded_groups(
        shards,
        groups,
        seed,
        &ClusterOptions::default(),
        |ctx: &GroupCtx| chaos_group(ctx, seed),
    );
    assert_eq!(run.stats.len(), shards);
    run.groups
        .into_iter()
        .map(|g| {
            let digest = kdtelem::canonical_trace_digest(&g.events);
            (g.group, g.result.0, g.result.1, digest, g.injected)
        })
        .collect()
}

#[test]
fn chaos_groups_equivalent_across_shard_counts() {
    for seed in common::seeds_under_test(&[3, 7, 11, 19]) {
        let one = fingerprint(1, 4, seed);
        let four = fingerprint(4, 4, seed);
        for (a, b) in one.iter().zip(four.iter()) {
            assert_eq!(a.0, b.0);
            assert_eq!(
                a.1, b.1,
                "seed {seed} group {}: acked set diverged between shards=1 and shards=4",
                a.0
            );
            assert_eq!(
                a.2, b.2,
                "seed {seed} group {}: consumed stream diverged between shards=1 and shards=4",
                a.0
            );
            assert_eq!(
                a.3, b.3,
                "seed {seed} group {}: canonical trace digest diverged between shards=1 and shards=4",
                a.0
            );
        }
        // The runs did real work: every group acked and consumed records.
        assert!(one.iter().all(|g| !g.1.is_empty() && !g.2.is_empty()));
    }
}
