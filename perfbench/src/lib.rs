//! `perfbench` — one seeded benchmark for both performance surfaces of the
//! KafkaDirect simulation: the **modeled system** (goodput and latency in
//! virtual time) and the **simulator** (what producing those numbers costs
//! the host: CPU time, executor polls, allocations, memory, set-up time).
//!
//! A run takes a workload name and a seed. The seed builds every input
//! (record sizes, payload bytes, open-loop schedules); the workload drives
//! them through the public `kafkadirect` / `kdclient` APIs inside one
//! `sim::Runtime::with_seed(seed)` on one OS thread; every acked record is
//! checked on the consume side; the metrics are printed by name with their
//! unit. See `perfbench/README.md` for the metric → layer → workload map.
//!
//! Modules:
//! * [`workload`] — the three workload definitions, seeded input
//!   generation and the configuration fingerprint;
//! * [`drive`] — the load generator (closed and open loop), the tailing and
//!   catch-up consumers, and the exactly-once output check;
//! * [`rep`] — one repetition: set-up, measured phase, catch-up phase, and
//!   the raw numbers each produces;
//! * [`layers`] — per-layer metrics, trace analysis, artifacts, and the
//!   isolated `kdstorage` / `kdwire` replay;
//! * [`host`] — host-cost probes (counting allocator, CPU clock, peak RSS);
//! * [`stats`] — percentiles, medians and the JSON result line.

pub mod drive;
pub mod host;
pub mod layers;
pub mod rep;
pub mod stats;
pub mod workload;
