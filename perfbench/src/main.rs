//! The repository's benchmark: WFE on library defaults under three
//! closed-loop map workloads.
//!
//! ```text
//! perfbench --workload <hashmap-write50|bst-read90|kv-pool-stall> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets up the workload several times, measures one untraced
//! window of `--seconds`, checks the outputs and prints the end-to-end
//! metrics. `--trace 1` measures an untraced and a traced window of half
//! that length each, on fresh set-ups, and prints the per-layer metrics
//! with the tracing overhead. Either way the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod hist;
mod keys;
mod report;
mod run;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wfe_core::Wfe;
use wfe_ds::ConcurrentMap;
use wfe_reclaim::{Reclaimer, SmrStats};

use report::{ratio, Report, END_TO_END, PER_LAYER};
use run::{Window, Workload};
use trace::Kind;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;

const USAGE: &str = "usage: perfbench --workload <hashmap-write50|bst-read90|kv-pool-stall> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected a number in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(value) = std::env::var_os("WFE_BLOCK_CACHE") {
        eprintln!(
            "perfbench: WFE_BLOCK_CACHE={value:?} is set; it switches the block cache that \
             several metrics depend on, so the benchmark refuses to run"
        );
        return ExitCode::from(2);
    }
    println!("{}", fingerprint(&args));
    let line = match args.workload {
        Workload::HashmapWrite50 | Workload::KvPoolStall => bench::<run::HashMap>(&args),
        Workload::BstRead90 => bench::<run::Bst>(&args),
    };
    match line {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn bench<M: ConcurrentMap<Wfe>>(args: &Args) -> std::io::Result<String> {
    let (workload, seed) = (args.workload, args.seed);
    let window = Duration::from_secs_f64(args.seconds);
    let describe = |setup: &run::Setup<M>| {
        let domain = setup.domain();
        println!(
            "config {:?} registry_shards={}",
            domain.config(),
            domain.registry().shard_count()
        );
    };
    if args.trace {
        let base_setup = run::setup::<M>(workload, seed);
        describe(&base_setup);
        let base = run::run_window(workload, seed, base_setup, window / 2, false);
        let mut traced = run::run_window(
            workload,
            seed,
            run::setup::<M>(workload, seed),
            window / 2,
            true,
        );
        let tracer = traced
            .tracer
            .as_mut()
            .expect("the traced window has a tracer");
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.tsv", workload.name()));
        tracer.write_tsv(&path)?;
        let (kept, dropped) = tracer.kept_and_dropped();
        println!(
            "trace {kept} spans written to {}, {dropped} over the cap",
            path.display()
        );
        let report = layers(&base, &traced);
        report.print();
        let failures = [base.failures, traced.failures];
        print_failures(&failures);
        let failed = failures.iter().map(|f| f.total()).sum();
        Ok(report.json(
            &PER_LAYER,
            failed == 0,
            base.attempted + traced.attempted,
            failed,
        ))
    } else {
        let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
        let mut kept = None;
        for _ in 0..SETUP_REPEATS {
            drop(kept.take());
            let start = Instant::now();
            kept = Some(run::setup::<M>(workload, seed));
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let setup = kept.expect("at least one set-up");
        describe(&setup);
        let w = run::run_window(workload, seed, setup, window, false);
        let failed = w.failures.total();
        let mut report = Report::default();
        report.put("throughput_mops", w.throughput_mops());
        report.put("op_p50_ns", w.latency.quantile(0.50));
        report.put("op_p99_ns", w.latency.quantile(0.99));
        report.put("peak_rss_mib", peak_rss_mib()?);
        report.put("setup_s", median(&setup_s));
        report.put("unreclaimed_avg_blocks", w.unreclaimed.avg());
        report.put("unreclaimed_peak_blocks", w.unreclaimed.peak as f64);
        report.put("failed_ops", failed as f64);
        report.put("attempted_ops", w.attempted as f64);
        report.print();
        println!(
            "samples: latency {} (1 op in {}); unreclaimed {} (every {:?}); set-up {}",
            w.latency.count(),
            run::LATENCY_EVERY,
            w.unreclaimed.samples(),
            run::SAMPLE_INTERVAL,
            SETUP_REPEATS
        );
        print_failures(&[w.failures]);
        Ok(report.json(&END_TO_END, failed == 0, w.attempted, failed))
    }
}

fn print_failures(windows: &[run::Failures]) {
    for f in windows {
        println!(
            "checks: bad_keys={} wrong_reads={} refused={} undrained_blocks={}",
            f.bad_keys, f.wrong_reads, f.refused, f.undrained
        );
    }
}

/// The per-layer metrics of the traced window `t`, against the untraced
/// window `base` of the same length.
fn layers(base: &Window, t: &Window) -> Report {
    let tracer = t.tracer.as_ref().expect("the traced window has a tracer");
    let q = |kind: Kind, q: f64| tracer.hist(kind).quantile(q);
    let (open, close) = &t.stats;
    let delta = |f: fn(&SmrStats) -> u64| f(close).saturating_sub(f(open)) as f64;
    let c = &t.counts;
    let ops = t.ops as f64;
    let allocs = delta(|s| s.allocated) - c.probe_allocs as f64;
    let retires = delta(|s| s.retired) - c.probe_retires as f64;
    let cache_hits = delta(|s| s.cache_hits);
    let (pool_checkouts, pool_hits) = t
        .pool
        .map(|(a, b)| ((b.checkouts - a.checkouts) as f64, (b.hits - a.hits) as f64))
        .unwrap_or_default();

    let mut r = Report::default();
    for (kind, name) in [
        (Kind::Insert, "insert"),
        (Kind::Remove, "remove"),
        (Kind::Get, "get"),
    ] {
        r.put(&format!("ds.{name}_ns.p50"), q(kind, 0.50));
        r.put(&format!("ds.{name}_ns.p99"), q(kind, 0.99));
    }
    r.put(
        "ds.insert_success_ratio",
        ratio(c.hits[0] as f64, c.calls[0] as f64),
    );
    r.put(
        "ds.remove_success_ratio",
        ratio(c.hits[1] as f64, c.calls[1] as f64),
    );
    r.put(
        "ds.allocs_per_insert",
        ratio(allocs, c.workload_inserts as f64),
    );
    r.put("guard.shield_lease_ns", q(Kind::ShieldLease, 0.5));
    r.put("guard.enter_ns", q(Kind::Enter, 0.5));
    r.put("guard.protect_ns", q(Kind::Protect, 0.5));
    r.put("reclaim.alloc_ns", q(Kind::Alloc, 0.5));
    r.put("reclaim.retire_ns", q(Kind::Retire, 0.5));
    r.put("reclaim.allocs_per_op", ratio(allocs, ops));
    r.put("reclaim.retires_per_op", ratio(retires, ops));
    r.put(
        "reclaim.freed_per_retire",
        ratio(delta(|s| s.freed), delta(|s| s.retired)),
    );
    r.put("reclaim.cleanup_ns", q(Kind::Cleanup, 0.5));
    r.put(
        "reclaim.cleanup_freed",
        ratio(c.cleanup_freed as f64, c.cleanup_passes as f64),
    );
    r.put("reclaim.unreclaimed_avg_blocks", t.unreclaimed.avg());
    r.put("reclaim.unreclaimed_peak_blocks", t.unreclaimed.peak as f64);
    r.put(
        "cache.hit_ratio",
        ratio(cache_hits, cache_hits + delta(|s| s.cache_misses)),
    );
    r.put("cache.cached_bytes", t.cached_bytes.avg());
    r.put(
        "wfe.slow_path_per_mop",
        ratio(delta(|s| s.slow_path) * 1e6, ops),
    );
    r.put("wfe.helps_per_mop", ratio(delta(|s| s.helps) * 1e6, ops));
    r.put("pool.checkout_ns", q(Kind::Checkout, 0.5));
    r.put("pool.checkin_ns", q(Kind::Checkin, 0.5));
    r.put("pool.hit_ratio", ratio(pool_hits, pool_checkouts));
    r.put("registry.register_ns", q(Kind::Register, 0.5));
    r.put("registry.occupied_shards_avg", t.occupied_shards.avg());
    r.put("stats.snapshot_ns", q(Kind::Snapshot, 0.5));
    r.put("trace.throughput_mops", t.throughput_mops());
    r.put("trace.untraced_throughput_mops", base.throughput_mops());
    r.put(
        "trace.overhead_ratio",
        ratio(t.throughput_mops(), base.throughput_mops()),
    );
    r
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Machine, toolchain, commit and seed, printed with every result.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "fingerprint workload={} seed={} seconds={} trace={} nproc={nproc} cpu={cpu:?} rustc={:?} git={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC_VERSION"),
        git_sha().unwrap_or_else(|| "unknown".to_owned()),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a plain export has no `.git`: `None`).
fn git_sha() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_kv_pool_stall_run_pins_blocks_and_passes_its_checks() {
        let setup = run::setup::<run::HashMap>(Workload::KvPoolStall, 3);
        let w = run::run_window(
            Workload::KvPoolStall,
            3,
            setup,
            Duration::from_millis(300),
            false,
        );
        assert!(w.unreclaimed.peak > 0, "the stalled reader must pin blocks");
        assert_eq!(w.failures.total(), 0, "{:?}", w.failures);
        assert!(w.ops > 0);
    }

    #[test]
    fn traced_window_reports_every_layer_metric() {
        let w = Workload::HashmapWrite50;
        let base = run::run_window(
            w,
            5,
            run::setup::<run::HashMap>(w, 5),
            Duration::from_millis(200),
            false,
        );
        let traced = run::run_window(
            w,
            5,
            run::setup::<run::HashMap>(w, 5),
            Duration::from_millis(200),
            true,
        );
        assert_eq!(traced.failures.total(), 0, "{:?}", traced.failures);
        let line = layers(&base, &traced).json(&PER_LAYER, true, 1, 0);
        assert!(line.contains("\"guard.protect_ns\""));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let ok = parse("--workload bst-read90 --seed 4 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::BstRead90, 4, true)
        );
        assert!(parse("--workload nope --seed 4 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload bst-read90 --seed -4 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload bst-read90 --seed 4 --seconds 0 --trace 1").is_err());
        assert!(parse("--workload bst-read90 --seed 4 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload bst-read90 --seed 4 --seconds 10").is_err());
    }
}
