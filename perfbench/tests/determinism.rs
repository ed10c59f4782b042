//! Determinism and checker self-tests at reduced size.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use kdtelem::{EventKind, TraceCtx, TraceEvent};
use perfbench::layers;
use perfbench::rep::{self, RepOpts};
use perfbench::workload::{Inputs, Workload, NAMES};

fn small(name: &str) -> Workload {
    Workload::by_name(name).expect("workload").scaled_down(8)
}

fn work_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

#[test]
fn one_seed_replays_bit_identically() {
    let dir = work_dir();
    for name in NAMES {
        let w = small(name);
        let inputs = Inputs::generate(&w, 7);
        let opts = RepOpts {
            seed: 7,
            traced: false,
            work_dir: &dir,
        };
        let a = rep::run(&w, &inputs, &opts);
        let b = rep::run(&w, &inputs, &opts);
        assert_eq!(a.failed, 0, "{name}: {:?}", a.failures);
        assert!(a.modeled.records > 0, "{name}: nothing acked");
        // Virtual-time metrics, polls and the consumed-record digest.
        assert_eq!(a.modeled, b.modeled, "{name}: replay diverged");
        assert_eq!(a.fingerprint, b.fingerprint, "{name}: fingerprint moved");
    }
}

#[test]
fn another_seed_changes_the_inputs() {
    for name in NAMES {
        let w = small(name);
        let (a, b) = (Inputs::generate(&w, 1), Inputs::generate(&w, 2));
        assert_eq!(a.digest, Inputs::generate(&w, 1).digest, "{name}");
        assert_ne!(a.digest, b.digest, "{name}: seed does not reach the inputs");
        assert_ne!(a.records[0][0].value, b.records[0][0].value, "{name}");
    }
}

#[test]
fn traced_run_reconciles_and_checks_clean() {
    let dir = work_dir();
    let w = small("produce_small");
    let inputs = Inputs::generate(&w, 3);
    let opts = RepOpts {
        seed: 3,
        traced: true,
        work_dir: &dir,
    };
    let r = rep::run(&w, &inputs, &opts);
    assert_eq!(r.failed, 0, "{:?}", r.failures);
    let raw = r.layers.expect("traced repetition collects layers");
    assert_eq!(raw.dropped, 0);
    let analysis = layers::analyze(&raw.events);
    assert!(analysis.critpath.ok(), "{:?}", analysis.critpath.errors);
    assert!(analysis.violations.is_empty(), "{:?}", analysis.violations);
}

fn ev(ctx: TraceCtx, ts_ns: u64, kind: EventKind) -> TraceEvent {
    TraceEvent {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        ts_ns,
        kind,
    }
}

/// The piecewise check must reach the verdict of one `check` call over the
/// whole log, including for the two invariants that span lifelines.
#[test]
fn chunked_check_matches_whole_log_check() {
    let dir = work_dir();
    let w = small("iot_fanin");
    let inputs = Inputs::generate(&w, 5);
    let opts = RepOpts {
        seed: 5,
        traced: true,
        work_dir: &dir,
    };
    let mut events = rep::run(&w, &inputs, &opts).layers.expect("layers").events;
    assert!(!events.is_empty());
    let whole = |e: &[TraceEvent]| kdtelem::check::check(e).violations.len();
    assert_eq!(layers::check_chunked(&events, 64).len(), whole(&events));

    // A fetch served past every commit of its stream, on a lifeline of its
    // own, and a completion that overtakes an earlier ticket on another
    // lifeline: both are violations only visible across lifelines.
    let stream = events
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Commit { stream, .. } => Some(stream),
            _ => None,
        })
        .expect("a commit");
    let t_end = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    events.push(ev(
        TraceCtx::root(),
        t_end + 1,
        EventKind::FetchServed {
            stream,
            start_offset: 1 << 40,
            next_offset: (1 << 40) + 1,
            bytes: 64,
        },
    ));
    events.push(ev(
        TraceCtx::root(),
        t_end + 2,
        EventKind::Completion {
            qpn: 1 << 30,
            ticket: 9,
            opcode: "Send",
            ok: true,
        },
    ));
    events.push(ev(
        TraceCtx::root(),
        t_end + 3,
        EventKind::Completion {
            qpn: 1 << 30,
            ticket: 3,
            opcode: "Send",
            ok: true,
        },
    ));
    let expected = whole(&events);
    assert!(expected >= 2, "injected violations not flagged by check");
    assert_eq!(layers::check_chunked(&events, 64).len(), expected);
}
