//! Share-nothing parallel execution: `N` worker shards, each an OS thread
//! driving its own single-threaded [`Runtime`] (own timer wheel, ready
//! queue, task arena, and RNG stream) with a plain [`Runtime::block_on`].
//!
//! Shards never exchange events: a caller places whole, independent
//! simulated worlds on a shard, so every shard's virtual clock advances on
//! its own and no synchronization is needed between them.
//!
//! # Determinism
//!
//! * Each shard's runtime is seeded independently ([`shard_seed`]); shard 0
//!   receives the caller's seed unchanged, so a 1-shard run is bit-identical
//!   to a [`Runtime::block_on`] of the same program.
//! * A shard's history is a function of its seed and of the future its body
//!   builds, never of wall-clock scheduling across threads.

use std::future::Future;

use crate::executor::Runtime;

/// Per-shard RNG stream: shard 0 keeps the caller's seed unchanged (so one
/// shard reproduces the single-runtime execution bit-for-bit); higher
/// shards get a splitmix64-derived stream.
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        return seed;
    }
    let mut z = seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-shard execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    pub shard: usize,
    /// Task polls executed by this shard's runtime.
    pub polls: u64,
    /// Final virtual time of the shard's clock.
    pub end_ns: u64,
}

/// Output of [`run_sharded`]: per-shard body results and execution stats,
/// indexed by shard id.
pub struct ShardRun<T> {
    pub results: Vec<T>,
    pub stats: Vec<ShardStats>,
}

/// Runs `body` once per shard on its own OS thread (named `shard-<i>`).
/// The body receives the shard id and builds that shard's root future on
/// the thread (simulation state is `!Send` by design); a fresh runtime
/// seeded with [`shard_seed`] drives it to completion.
///
/// # Panics
/// Re-raises the first panicking shard's payload (a deadlocked root
/// included) once every shard has finished.
pub fn run_sharded<T, Fut, F>(shards: usize, seed: u64, body: F) -> ShardRun<T>
where
    T: Send + 'static,
    Fut: Future<Output = T> + 'static,
    F: Fn(usize) -> Fut + Sync,
{
    assert!(shards >= 1, "need at least one shard");
    let body = &body;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("shard-{i}"))
                    .spawn_scoped(scope, move || {
                        let rt = Runtime::with_seed(shard_seed(seed, i));
                        let out = rt.block_on(body(i));
                        let stats = ShardStats {
                            shard: i,
                            polls: rt.poll_count(),
                            end_ns: rt.now().as_nanos(),
                        };
                        (out, stats)
                    })
                    .expect("spawn shard thread")
            })
            .collect();
        let mut results = Vec::with_capacity(shards);
        let mut stats = Vec::with_capacity(shards);
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok((out, st)) => {
                    results.push(out);
                    stats.push(st);
                }
                Err(e) => {
                    panic.get_or_insert(e);
                }
            }
        }
        if let Some(e) = panic {
            std::panic::resume_unwind(e);
        }
        ShardRun { results, stats }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::sleep;
    use std::time::Duration;

    #[test]
    fn one_shard_matches_block_on() {
        // The same program, same seed, run on a plain runtime and sharded:
        // identical virtual timestamps and RNG draws.
        async fn program() -> Vec<u64> {
            let mut out = Vec::new();
            for _ in 0..16 {
                let d = crate::rng::range_u64(1..500);
                sleep(Duration::from_nanos(d)).await;
                out.push(crate::now().as_nanos());
            }
            out
        }
        let rt = Runtime::with_seed(42);
        let legacy = rt.block_on(program());
        let sharded = run_sharded(1, 42, |_| program());
        assert_eq!(legacy, sharded.results[0]);
        assert_eq!(sharded.stats[0].end_ns, *legacy.last().unwrap());
    }

    #[test]
    fn clocks_advance_independently() {
        // Shards sleep different amounts; each clock lands exactly on its
        // own deadline, not on a global one.
        let run = run_sharded(4, 7, |shard| async move {
            sleep(Duration::from_nanos(1_000 * (shard as u64 + 1))).await;
            crate::now().as_nanos()
        });
        assert_eq!(run.results, vec![1_000, 2_000, 3_000, 4_000]);
        let ends: Vec<u64> = run.stats.iter().map(|s| s.end_ns).collect();
        assert_eq!(ends, vec![1_000, 2_000, 3_000, 4_000]);
    }

    #[test]
    fn peer_panic_does_not_hang_the_pool() {
        let r = std::panic::catch_unwind(|| {
            run_sharded(2, 3, |shard| async move {
                if shard == 1 {
                    panic!("boom");
                }
                sleep(Duration::from_millis(1)).await;
            });
        });
        let e = r.unwrap_err();
        assert_eq!(e.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn deadlock_panics_with_shard_id() {
        // The deadlock surfaces as a panic from the caller; the default
        // panic hook names the shard through its thread name.
        let r = std::panic::catch_unwind(|| {
            run_sharded(2, 3, |shard| async move {
                if shard == 1 {
                    assert_eq!(std::thread::current().name(), Some("shard-1"));
                    let (_tx, rx) = crate::sync::oneshot::channel::<()>();
                    let _ = rx.await; // never resolves
                }
            });
        });
        let e = r.unwrap_err();
        let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
    }
}
