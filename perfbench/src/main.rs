//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload with one seed for about `--seconds` of wall time,
//! repeating the seeded simulation as often as fits (each repetition is a
//! fresh runtime that replays bit-identically). Virtual-time metrics come
//! from the first repetition and must agree with every other one; host
//! metrics are medians over the repetitions.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced repetitions and prints the per-layer metrics, after
//! writing the traced-run artifacts under `perfbench/out/traces/`. The last
//! line of standard output is always the JSON result.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::host::{self, CountingAlloc};
use perfbench::layers;
use perfbench::rep::{self, RepOpts, RepOut};
use perfbench::stats::{median, result_line, Metric};
use perfbench::workload::{Inputs, Workload, NAMES};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Fewest repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Outcome of a run before it is printed.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    fingerprint: u64,
    reps: usize,
}

/// Folds every repetition's attempts and failures, and checks that the
/// virtual-time results and the config fingerprint replayed identically.
fn tally(reps: &[&RepOut], o: &mut Outcome) {
    let first = reps[0];
    for (i, r) in reps.iter().enumerate() {
        o.attempted += r.attempted;
        o.failed += r.failed;
        o.failures.extend(r.failures.iter().cloned());
        o.attempted += 1;
        if r.modeled != first.modeled || r.fingerprint != first.fingerprint {
            o.failed += 1;
            o.failures.push(format!(
                "repetition {i} diverged from repetition 0: {:?} vs {:?}",
                r.modeled, first.modeled
            ));
        }
    }
}

fn end_to_end(args: &Args, inputs: &Inputs, work_dir: &Path) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let opts = RepOpts {
        seed: args.seed,
        traced: false,
        work_dir,
    };
    let mut reps = Vec::new();
    // The memory one repetition needs, inputs included; later repetitions
    // would make it depend on how many fit in the run.
    let mut peak_rss = 0;
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let r = rep::run(&args.workload, inputs, &opts);
        eprintln!(
            "perfbench: repetition {}: set-up {:.3}s, {:.0} records/s of CPU",
            reps.len(),
            r.setup_s,
            r.records_per_cpu_s()
        );
        reps.push(r);
        if reps.len() == 1 {
            peak_rss = host::peak_rss_bytes();
        }
    }
    let m = &reps[0].modeled;
    let per_rep = |f: &dyn Fn(&RepOut) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new("goodput_mib_s", m.goodput_mib_s, "MiB/s"),
        Metric::new("ack_p50_us", m.ack_p50_us, "us"),
        Metric::new("ack_p99_us", m.ack_p99_us, "us"),
        Metric::new("deliver_p50_us", m.deliver_p50_us, "us"),
        Metric::new("deliver_p99_us", m.deliver_p99_us, "us"),
        Metric::new("catchup_mib_s", m.catchup_mib_s, "MiB/s"),
        Metric::new("polls_per_record", m.polls_per_record(), "count"),
        Metric::new(
            "allocs_per_record",
            per_rep(&|r| r.allocs as f64 / r.modeled.records.max(1) as f64),
            "count",
        ),
        Metric::new("peak_rss_mib", peak_rss as f64 / (1024.0 * 1024.0), "MiB"),
        Metric::new("setup_s", per_rep(&|r| r.setup_s), "s"),
    ];
    let mut o = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics,
        fingerprint: reps[0].fingerprint,
        reps: reps.len(),
    };
    tally(&reps.iter().collect::<Vec<_>>(), &mut o);
    o
}

fn per_layer(args: &Args, inputs: &Inputs, work_dir: &Path, out_dir: &Path) -> Outcome {
    let w = &args.workload;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while traced.is_empty() || Instant::now() < deadline {
        for on in [false, true] {
            let opts = RepOpts {
                seed: args.seed,
                traced: on,
                work_dir,
            };
            let r = rep::run(w, inputs, &opts);
            if on {
                traced.push(r)
            } else {
                plain.push(r)
            }
        }
    }
    let rate = |v: &[RepOut]| median(&v.iter().map(RepOut::records_per_cpu_s).collect::<Vec<_>>());
    let rates = (rate(&plain), rate(&traced));

    let mut o = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        fingerprint: plain[0].fingerprint,
        reps: plain.len() + traced.len(),
    };
    tally(&plain.iter().collect::<Vec<_>>(), &mut o);
    tally(&traced.iter().collect::<Vec<_>>(), &mut o);

    let raw = traced[0]
        .layers
        .as_ref()
        .expect("traced repetition collects layers");
    let t = Instant::now();
    let analysis = layers::analyze(&raw.events);
    eprintln!(
        "perfbench: analysed {} trace events in {:.2}s",
        raw.events.len(),
        t.elapsed().as_secs_f64()
    );
    o.attempted += 3;
    if raw.dropped > 0 {
        o.failed += 1;
        o.failures
            .push(format!("{} trace events dropped", raw.dropped));
    }
    if !analysis.violations.is_empty() {
        o.failed += 1;
        o.failures
            .extend(analysis.violations.iter().take(8).cloned());
    }
    if !analysis.critpath.ok() {
        o.failed += 1;
        o.failures
            .extend(analysis.critpath.errors.iter().take(8).cloned());
    }
    let replay = layers::replay(w, inputs, work_dir);
    let error_rate = o.failed as f64 / o.attempted.max(1) as f64;
    o.metrics = layers::metrics(w, raw, &analysis, &replay, rates, error_rate, o.fingerprint);
    let dir = out_dir
        .join("traces")
        .join(format!("{}-seed{}", w.name, args.seed));
    if let Err(e) = layers::write_artifacts(&dir, w, raw, &analysis, &o.metrics, o.fingerprint) {
        o.failed += 1;
        o.failures
            .push(format!("cannot write artifacts to {}: {e}", dir.display()));
    }
    o
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir =
        PathBuf::from(std::env::var("PERFBENCH_OUT").unwrap_or_else(|_| "perfbench/out".into()));
    let work_dir = out_dir.join("work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let inputs = Inputs::generate(&args.workload, args.seed);
    let outcome = if args.trace {
        per_layer(&args, &inputs, &work_dir, &out_dir)
    } else {
        end_to_end(&args, &inputs, &work_dir)
    };
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let line = result_line(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        &outcome.metrics,
    );
    let results = out_dir.join("results");
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"repetitions\": {}, \
         \"fingerprint\": \"{:016x}\", \"hw_threads\": {}, \"inputs_digest\": \"{:016x}\", \"result\": {line}}}\n",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        outcome.reps,
        outcome.fingerprint,
        host::hw_threads(),
        inputs.digest,
    );
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&file, record)) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    println!(
        "# perfbench {} seed={} trace={} repetitions={} fingerprint={:016x} hw_threads={}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        outcome.reps,
        outcome.fingerprint,
        host::hw_threads()
    );
    println!("{line}");
    ExitCode::SUCCESS
}
