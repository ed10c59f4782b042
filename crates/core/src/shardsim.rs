//! Sharded parallel simulation of many partition groups.
//!
//! One [`SimCluster`](crate::SimCluster) is a single-threaded world: its
//! fabric, brokers, and clients all share `Rc` state on one runtime. To
//! scale past what one core can simulate, a sharded run partitions the
//! topology into **groups** — each a complete cluster plus its client
//! machines — and places group `g` on worker shard `g % shards`. Groups
//! share nothing, so each shard is a plain `block_on` of its groups'
//! workloads on its own thread (see [`sim::shard`]).
//!
//! # Determinism contract
//!
//! The simulated history of each group is a function of `(seed, group)`
//! only — not of the shard count. Raw trace ids and ambient RNG draws *do*
//! differ across shard layouts (both come from per-thread/per-runtime
//! allocators shared with co-resident groups), which is why equivalence is
//! judged on [`kdtelem::canonical_trace_digest`] — lifelines renumbered by
//! first appearance — and on acked/consumed record sets, neither of which
//! embeds a raw id. `tests/shard_equivalence.rs` enforces this across shard
//! counts for every CI seed.
//!
//! Each group gets its own [`kdtelem::Registry`] and [`kdfault::Injector`].
//! Instrumented components capture these at construction time, so the
//! harness makes them ambient around every poll of the group's workload
//! (a scoped-future wrapper — a guard held across `.await` would leak into
//! co-resident groups' polls).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use sim::shard::{run_sharded, ShardStats};

use crate::cluster::ClusterOptions;

/// A boxed `!Send` future, the workload type group bodies return.
pub type LocalFuture<T> = Pin<Box<dyn Future<Output = T> + 'static>>;

/// Everything a group workload needs to build and drive its world.
pub struct GroupCtx {
    /// Group index in `0..groups`.
    pub group: usize,
    /// Cluster options with [`ClusterOptions::group`] filled in; pass to
    /// [`SimCluster::start_with`](crate::SimCluster::start_with).
    pub opts: ClusterOptions,
    /// This group's telemetry registry — ambient during every poll of the
    /// workload, so components the workload constructs report here.
    pub registry: kdtelem::Registry,
    /// This group's fault injector, ambient like the registry.
    pub injector: kdfault::Injector,
}

/// One group's completed run.
pub struct GroupOutcome<T> {
    pub group: usize,
    pub shard: usize,
    pub result: T,
    /// The group's full drained trace-event stream, in emission order.
    /// Digest with [`kdtelem::canonical_trace_digest`] for cross-layout
    /// comparison.
    pub events: Vec<kdtelem::TraceEvent>,
    /// Faults the group's injector delivered.
    pub injected: u64,
}

/// A completed sharded run: per-group outcomes (sorted by group index) and
/// per-shard execution statistics (polls, final virtual time).
pub struct ShardedRun<T> {
    pub groups: Vec<GroupOutcome<T>>,
    pub stats: Vec<ShardStats>,
}

/// Makes `registry`/`injector` ambient around every poll of `fut`.
struct Scoped<F> {
    registry: kdtelem::Registry,
    injector: kdfault::Injector,
    fut: F,
}

impl<F: Future> Future for Scoped<F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        // Safety: structural projection to `fut`; we never move out of it.
        let this = unsafe { self.get_unchecked_mut() };
        let _t = kdtelem::enter(&this.registry);
        let _i = kdfault::enter(&this.injector);
        unsafe { Pin::new_unchecked(&mut this.fut) }.poll(cx)
    }
}

/// Runs `fut` with the group's registry and injector ambient at every poll.
/// Group workloads that spawn their own tasks (`sim::spawn`) must wrap each
/// spawned future with this, or the task's constructions fall through to
/// the shard's default registry.
pub fn scoped<F: Future>(
    registry: &kdtelem::Registry,
    injector: &kdfault::Injector,
    fut: F,
) -> impl Future<Output = F::Output> {
    Scoped {
        registry: registry.clone(),
        injector: injector.clone(),
        fut,
    }
}

/// Simulates `groups` partition groups across `shards` worker threads.
///
/// `body` is called once per group (on that group's shard thread) and
/// returns the group's workload future; the harness polls every co-resident
/// group's workload concurrently on the shard runtime, with that group's
/// registry and injector ambient. The caller's `opts` are cloned per group
/// with [`ClusterOptions::group`] filled in — the body is expected to
/// start its cluster with `SimCluster::start_with(system, n, ctx.opts)`.
/// A shard that owns no group (`shards > groups`) returns at once.
///
/// `shards = 1` degenerates to the classic single-runtime simulation (all
/// groups interleaved on one virtual clock) and is the reference
/// configuration the equivalence tests compare against.
pub fn run_sharded_groups<T, F>(
    shards: usize,
    groups: usize,
    seed: u64,
    opts: &ClusterOptions,
    body: F,
) -> ShardedRun<T>
where
    T: Send + 'static,
    F: Fn(&GroupCtx) -> LocalFuture<T> + Sync,
{
    assert!(shards >= 1 && groups >= 1);
    let run = run_sharded(shards, seed, |shard| {
        // Build each group's ambient state and workload future up front, in
        // group order, so the construction sequence on a shard is a pure
        // function of which groups it owns. The futures are lazy — the
        // world itself is built on first poll, inside the scoped wrapper.
        let worlds: Vec<(usize, kdtelem::Registry, kdfault::Injector, LocalFuture<T>)> = (0
            ..groups)
            .filter(|g| g % shards == shard)
            .map(|g| {
                let registry = kdtelem::Registry::new();
                let _t = kdtelem::enter(&registry);
                let injector = kdfault::Injector::new();
                let gctx = GroupCtx {
                    group: g,
                    opts: ClusterOptions {
                        group: Some(g),
                        ..opts.clone()
                    },
                    registry: registry.clone(),
                    injector: injector.clone(),
                };
                let fut = body(&gctx);
                (g, registry, injector, fut)
            })
            .collect();
        async move {
            let mut handles = Vec::new();
            for (g, registry, injector, fut) in worlds {
                let handle = sim::spawn(scoped(&registry, &injector, fut));
                handles.push((g, registry, injector, handle));
            }
            let mut out = Vec::new();
            for (g, registry, injector, handle) in handles {
                let result = handle.await.expect("group workload panicked");
                out.push(GroupOutcome {
                    group: g,
                    shard,
                    result,
                    events: registry.drain_trace_events(),
                    injected: injector.injected_total(),
                });
            }
            out
        }
    });
    let mut all: Vec<GroupOutcome<T>> = run.results.into_iter().flatten().collect();
    all.sort_by_key(|o| o.group);
    ShardedRun {
        groups: all,
        stats: run.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemKind;
    use kdstorage::Record;

    fn produce_group(ctx: &GroupCtx, records: u64) -> LocalFuture<Vec<u64>> {
        let opts = ctx.opts.clone();
        let group = ctx.group;
        Box::pin(async move {
            let cluster = crate::SimCluster::start_with(SystemKind::KafkaDirect, 1, opts);
            cluster.create_topic("t", 1, 1).await;
            let node = cluster.add_client_node("prod");
            let mut p =
                kdclient::RdmaProducer::connect(&node, cluster.bootstrap(), "t", 0, false)
                    .await
                    .unwrap();
            let mut offs = Vec::new();
            for i in 0..records {
                let rec = Record::value(format!("g{group}r{i}").into_bytes());
                offs.push(p.send(&rec).await.unwrap());
            }
            offs
        })
    }

    #[test]
    fn groups_run_identically_on_any_shard_count() {
        // shards = 4 leaves shard 3 without a group: it must finish at once
        // with an empty result, never touching the virtual clock.
        let digests: Vec<Vec<(Vec<u64>, u64)>> = [1usize, 2, 3, 4]
            .iter()
            .map(|&shards| {
                let run = run_sharded_groups(
                    shards,
                    3,
                    7,
                    &ClusterOptions::default(),
                    |ctx: &GroupCtx| produce_group(ctx, 8),
                );
                assert_eq!(run.stats.len(), shards);
                for idle in run.stats.iter().skip(3) {
                    assert_eq!((idle.polls, idle.end_ns), (1, 0), "shard {}", idle.shard);
                }
                run.groups
                    .iter()
                    .map(|g| {
                        (
                            g.result.clone(),
                            kdtelem::canonical_trace_digest(&g.events),
                        )
                    })
                    .collect()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
        assert_eq!(digests[0], digests[3]);
        assert!(!digests[0].is_empty());
    }
}
