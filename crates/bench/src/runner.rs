//! The measurement loop and its runners.
//!
//! One data point = one (scheme, structure, workload, thread-count)
//! combination, measured for `BenchParams::duration` and repeated
//! `BenchParams::repeats` times. Throughput is the total number of completed
//! operations divided by the run duration (reported in Mops/s, as in the
//! paper); the reclamation metric is the time-average of the number of
//! retired-but-not-yet-freed blocks, sampled every few milliseconds while the
//! run is in flight. The sampler also records how many registry shards are
//! occupied at each tick — the scan width after shard-skip.
//!
//! Every duration-based runner ([`run_map`], [`run_kv_service`],
//! [`run_pooled_map`], [`run_queue`]) is the same closed loop, `measure`:
//! each worker registers its state, waits on a barrier and then calls its
//! per-thread step until the window closes. Only the step differs — one map
//! or queue operation, or (for [`run_pooled_map`], the `kv-pool` figure) one
//! pooled task: check a handle out of a [`HandlePool`], perform
//! [`POOL_TASK_OPS`] operations, check it back in. [`run_async_kv`] is
//! completion-driven instead and shares only the sampler.
//!
//! Every run reports the same base metrics (see [`DataPoint`]); a runner may
//! append its own, and repeats are averaged by metric name.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wfe_sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wfe_reclaim::{
    Atomic, BlockCacheConfig, Handle, HandlePool, RawHandle, Reclaimer, ReclaimerConfig,
};
use wfe_task::TaskHandle;

use crate::params::BenchParams;
use crate::workload::{MapOp, MapWorkload, OpGenerator, ServiceOpGenerator, ServiceWorkload};
use wfe_ds::{ConcurrentMap, ConcurrentQueue};

/// How often the sampler reads the unreclaimed-object counter.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(5);

/// Operations one pooled "task" performs between check-out and check-in of
/// its handle (the task-churn grain of the `kv-pool` and `kv-async` figures).
pub const POOL_TASK_OPS: usize = 64;

/// How often an async task yields back to the executor (ops between
/// `yield_now().await` suspension points in the `kv-async` figure).
const ASYNC_YIELD_EVERY: usize = 16;

/// Join-wave size of the `kv-async` runner: at most this many tasks are live
/// at once, which bounds handle concurrency (and registry size) while the
/// task-count axis sweeps into the hundreds of thousands.
const ASYNC_WAVE: usize = 256;

/// Named measurements of one run or one averaged point.
type Metrics = Vec<(&'static str, f64)>;

/// Warm-up time before the measured window: a fraction of the run duration,
/// capped so short smoke runs stay short.
fn warmup_duration(params: &BenchParams) -> Duration {
    (params.duration / 5)
        .min(Duration::from_millis(200))
        .max(Duration::from_millis(20))
}

/// One-time process warm-up: spin every core and churn the allocator for a
/// moment so the first measured configuration is not penalised by CPU
/// frequency ramp-up and cold allocator arenas (with short run durations that
/// penalty is large enough to distort the first series of a sweep).
fn process_warm_up() {
    static WARM: std::sync::Once = std::sync::Once::new();
    WARM.call_once(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let deadline = Instant::now() + Duration::from_millis(700);
        // Run a real (throwaway) map workload so the allocator arenas used by
        // worker threads are grown and faulted in before anything is measured.
        let domain = wfe_reclaim::He::with_config(ReclaimerConfig::with_max_threads(cores.min(8)));
        let map = wfe_ds::MichaelHashMap::<u64, wfe_reclaim::He>::with_domain(Arc::clone(&domain));
        std::thread::scope(|scope| {
            for thread in 0..cores.min(8) {
                let domain = Arc::clone(&domain);
                let map = &map;
                scope.spawn(move || {
                    let mut handle = domain.register();
                    let mut key = thread as u64;
                    let mut sink = 0u64;
                    while Instant::now() < deadline {
                        key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = key % 100_000;
                        // High bit, not `key & 1`: the LCG's low bit simply
                        // alternates and equals `k & 1`, which would starve
                        // the remove path of present keys.
                        if (key >> 32) & 1 == 0 {
                            map.insert(&mut handle, k, k);
                        } else {
                            map.remove(&mut handle, k);
                        }
                        sink = sink.wrapping_add(k);
                        std::hint::black_box(&sink);
                    }
                });
            }
        });
    });
}

/// One measured point of a figure: the key columns, the two metrics every
/// figure plots, and a sparse list of named metrics.
///
/// Every runner records the base metrics `shards` (registry shard count),
/// `avg_occupied_shards` (time-averaged occupied shards, the scan width
/// after shard-skip), `adopted_batches` and `freed_via_adoption` (orphaned
/// batches adopted from exited threads and the blocks freed from them),
/// `cache_hits`, `cache_misses` and `cached_bytes` (the per-shard block
/// cache). [`run_pooled_map`] and [`run_async_kv`] add `pool_hit_rate`;
/// [`run_async_kv`] adds `tasks` and `unreclaimed_bytes`; [`run_kv_service`]
/// adds `load_factor`, `resizes` and `migrated_buckets`. Counters are
/// end-of-run totals; everything is averaged over repeats.
#[derive(Debug, Clone)]
pub struct DataPoint {
    /// Scheme name as used in the paper's legends.
    pub scheme: &'static str,
    /// Data-structure name.
    pub structure: &'static str,
    /// Workload label (`write50`, `read90`, `queue50`, `pool-churn`, ...).
    pub workload: &'static str,
    /// Number of worker threads.
    pub threads: usize,
    /// Millions of completed operations per second.
    pub mops: f64,
    /// Time-averaged number of retired-but-unreclaimed blocks.
    pub avg_unreclaimed: f64,
    /// The remaining metrics by name, in the order the runner recorded them.
    pub metrics: Vec<(&'static str, f64)>,
}

impl DataPoint {
    /// CSV header matching [`DataPoint::to_csv_row`].
    pub const CSV_HEADER: &'static str =
        "structure,workload,scheme,threads,mops,avg_unreclaimed,metrics";

    /// The metric called `name`, or 0 when this point does not carry it.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(metric, _)| *metric == name)
            .map_or(0.0, |&(_, value)| value)
    }

    /// Renders the point as one CSV row; the last column holds the metrics
    /// as `name=value` pairs joined by `;`.
    pub fn to_csv_row(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                if value.fract() == 0.0 {
                    format!("{name}={value:.0}")
                } else {
                    format!("{name}={value:.3}")
                }
            })
            .collect();
        format!(
            "{},{},{},{},{:.4},{:.1},{}",
            self.structure,
            self.workload,
            self.scheme,
            self.threads,
            self.mops,
            self.avg_unreclaimed,
            metrics.join(";")
        )
    }
}

fn domain_config(threads: usize, required_slots: usize, params: &BenchParams) -> ReclaimerConfig {
    let block_cache = match params.block_cache {
        Some(enabled) => BlockCacheConfig {
            enabled,
            ..BlockCacheConfig::default()
        },
        None => BlockCacheConfig::default(),
    };
    ReclaimerConfig {
        max_threads: threads,
        slots_per_thread: required_slots.max(2),
        era_freq: params.era_freq,
        cleanup_freq: params.cleanup_freq,
        fast_path_attempts: params.fast_path_attempts,
        shards: params.shards,
        block_cache,
    }
}

/// Samples the unreclaimed and occupied-shard gauges of `domain` every
/// [`SAMPLE_INTERVAL`] until `done` returns true; returns their time
/// averages (0 when no sample was taken).
fn sample_gauges<R: Reclaimer>(domain: &R, done: impl Fn() -> bool) -> (f64, f64) {
    let (mut unreclaimed, mut occupied, mut samples) = (0.0, 0.0, 0u32);
    while !done() {
        std::thread::sleep(SAMPLE_INTERVAL);
        unreclaimed += domain.stats().unreclaimed as f64;
        occupied += domain.registry().occupied_shards() as f64;
        samples += 1;
    }
    let samples = f64::from(samples.max(1));
    (unreclaimed / samples, occupied / samples)
}

/// The metrics every run reports, read from `domain` once the run is over.
fn base_metrics<R: Reclaimer>(
    domain: &R,
    ops: u64,
    elapsed: Duration,
    (avg_unreclaimed, avg_occupied_shards): (f64, f64),
) -> Metrics {
    let stats = domain.stats();
    vec![
        ("mops", ops as f64 / elapsed.as_secs_f64() / 1e6),
        ("avg_unreclaimed", avg_unreclaimed),
        ("shards", domain.registry().shard_count() as f64),
        ("avg_occupied_shards", avg_occupied_shards),
        ("adopted_batches", stats.adopted_batches as f64),
        ("freed_via_adoption", stats.freed_via_adoption as f64),
        ("cache_hits", stats.cache_hits as f64),
        ("cache_misses", stats.cache_misses as f64),
        ("cached_bytes", stats.cached_bytes as f64),
    ]
}

/// The closed measurement loop every duration-based runner shares.
///
/// Spawns `threads` workers; worker `t` builds its step with `worker(t)`
/// (registering handles there, before the barrier) and then calls it until
/// the window closes, counting the operations each call reports. The main
/// thread warms up for [`warmup_duration`], opens the measured window and
/// samples `domain`'s gauges for `params.duration`.
fn measure<R, W>(
    domain: &R,
    threads: usize,
    params: &BenchParams,
    worker: impl Fn(usize) -> W + Sync,
) -> Metrics
where
    R: Reclaimer,
    W: FnMut() -> u64,
{
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let (elapsed, gauges) = std::thread::scope(|scope| {
        for thread in 0..threads {
            let (worker, stop, measuring) = (&worker, &stop, &measuring);
            let (total_ops, barrier) = (&total_ops, &barrier);
            scope.spawn(move || {
                let mut step = worker(thread);
                barrier.wait();
                let mut ops = 0u64;
                // ORDER: benchmark control flag; no data is ordered by it.
                while !stop.load(Ordering::Relaxed) {
                    // ORDER: benchmark control flag; no data is ordered by it.
                    if !measuring.load(Ordering::Relaxed) {
                        ops = 0;
                    }
                    ops += step();
                }
                total_ops.fetch_add(ops, Ordering::Relaxed); // ORDER: throughput counter, aggregated after the threads join.
            });
        }
        barrier.wait();
        // Warm-up: let the workers fault in the working set and ramp the CPU
        // before the measured window opens (the first scheme measured in a
        // process would otherwise be penalised).
        std::thread::sleep(warmup_duration(params));
        measuring.store(true, Ordering::SeqCst);
        let start = Instant::now();
        let gauges = sample_gauges(domain, || start.elapsed() >= params.duration);
        stop.store(true, Ordering::Relaxed); // ORDER: benchmark control flag; no data is ordered by it.
        (start.elapsed(), gauges)
    });
    base_metrics(domain, total_ops.into_inner(), elapsed, gauges)
}

/// Averages `repeats` runs of `run` into one data point, metric by metric.
fn average_point(
    scheme: &'static str,
    structure: &'static str,
    workload: &'static str,
    threads: usize,
    params: &BenchParams,
    mut run: impl FnMut(u64) -> Metrics,
) -> DataPoint {
    process_warm_up();
    let repeats = params.repeats.max(1);
    let mut metrics: Metrics = Vec::new();
    for repeat in 0..repeats {
        for (name, value) in run(repeat as u64) {
            match metrics.iter_mut().find(|(metric, _)| *metric == name) {
                Some((_, sum)) => *sum += value,
                None => metrics.push((name, value)),
            }
        }
    }
    metrics
        .iter_mut()
        .for_each(|(_, sum)| *sum /= repeats as f64);
    let mut take = |name: &str| {
        let index = metrics.iter().position(|(metric, _)| *metric == name);
        index.map_or(0.0, |index| metrics.remove(index).1)
    };
    DataPoint {
        scheme,
        structure,
        workload,
        threads,
        mops: take("mops"),
        avg_unreclaimed: take("avg_unreclaimed"),
        metrics,
    }
}

/// Pre-inserts `prefill` distinct keys before the measured window opens.
fn prefill_map<R, M>(
    domain: &Arc<R>,
    map: &M,
    workload: MapWorkload,
    params: &BenchParams,
    seed: u64,
) where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    let mut handle = domain.register();
    let mut generator = OpGenerator::new(workload, params.key_range, seed, usize::MAX >> 1);
    let mut inserted = 0usize;
    while inserted < params.prefill.min(params.key_range as usize) {
        if map.insert(&mut handle, generator.next_key(), 0) {
            inserted += 1;
        }
    }
}

/// Applies one generated operation to `map`.
#[inline]
fn apply_map_op<R, M>(map: &M, handle: &mut R::Handle, op: MapOp)
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    match op {
        MapOp::Insert(key) => {
            map.insert(handle, key, key);
        }
        MapOp::Remove(key) => {
            map.remove(handle, key);
        }
        MapOp::Get(key) => {
            map.get(handle, key);
        }
    }
}

/// Measures one map data point (averaged over `params.repeats` runs): every
/// worker owns a handle and performs one generated operation per step.
pub fn run_map<R, M>(
    scheme: &'static str,
    structure: &'static str,
    workload: MapWorkload,
    threads: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    average_point(
        scheme,
        structure,
        workload.label(),
        threads,
        params,
        |repeat| {
            let seed = 0xC0FFEE + repeat;
            let domain = R::with_config(domain_config(threads, M::required_slots(), params));
            let map = &M::with_domain(Arc::clone(&domain));
            prefill_map(&domain, map, workload, params, seed);
            measure(&*domain, threads, params, |thread| {
                let mut handle = domain.register();
                let mut generator = OpGenerator::new(workload, params.key_range, seed, thread);
                move || {
                    apply_map_op(map, &mut handle, generator.next_op());
                    1
                }
            })
        },
    )
}

/// Measures one kv-service data point (averaged over `params.repeats` runs):
/// the service-shaped map workload — Zipfian key popularity, TTL expiry or
/// resize-storm churn depending on the leg — with the map's end-of-run
/// resize statistics appended. Only the zipf legs prefill; the TTL and storm
/// legs measure the map growing from its initial directory. The seed is
/// derived from the leg so every leg's key stream is distinct but
/// replayable.
pub fn run_kv_service<R, M>(
    scheme: &'static str,
    structure: &'static str,
    workload: ServiceWorkload,
    threads: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    average_point(
        scheme,
        structure,
        workload.label(),
        threads,
        params,
        |repeat| {
            let seed = 0x5E41_1CE0 + workload as u64 * 97 + repeat;
            let domain = R::with_config(domain_config(threads, M::required_slots(), params));
            let map = &M::with_domain(Arc::clone(&domain));
            if workload.prefills() {
                prefill_map(&domain, map, MapWorkload::WriteDominated, params, seed);
            }
            let mut metrics = measure(&*domain, threads, params, |thread| {
                let mut handle = domain.register();
                let mut generator =
                    ServiceOpGenerator::new(workload, params.key_range, seed, thread);
                move || {
                    apply_map_op(map, &mut handle, generator.next_op());
                    1
                }
            });
            let service = map.service_stats();
            metrics.push(("load_factor", service.load_factor));
            metrics.push(("resizes", service.resizes as f64));
            metrics.push(("migrated_buckets", service.migrated_buckets as f64));
            metrics
        },
    )
}

/// Measures one pooled-handle map data point (the `kv-pool` figure; averaged
/// over `params.repeats` runs) at task-churn grain: each step checks a handle
/// out of the shared [`HandlePool`], performs [`POOL_TASK_OPS`] operations
/// and checks it back in.
pub fn run_pooled_map<R, M>(
    scheme: &'static str,
    structure: &'static str,
    workload: MapWorkload,
    threads: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    average_point(scheme, structure, "pool-churn", threads, params, |repeat| {
        let seed = 0x9001 + repeat;
        let domain = R::with_config(domain_config(threads, M::required_slots(), params));
        let map = &M::with_domain(Arc::clone(&domain));
        prefill_map(&domain, map, workload, params, seed);
        let pool = &HandlePool::new(Arc::clone(&domain));
        let mut metrics = measure(&*domain, threads, params, |thread| {
            let mut generator = OpGenerator::new(workload, params.key_range, seed, thread);
            move || {
                let mut handle = loop {
                    match pool.check_out() {
                        Some(handle) => break handle,
                        None => std::thread::yield_now(),
                    }
                };
                for _ in 0..POOL_TASK_OPS {
                    apply_map_op(map, &mut handle, generator.next_op());
                }
                POOL_TASK_OPS as u64
            }
        });
        metrics.push(("pool_hit_rate", pool.stats().hit_rate()));
        metrics
    })
}

/// Measures one queue data point (50% enqueue / 50% dequeue; averaged over
/// `params.repeats` runs).
pub fn run_queue<R, Q>(
    scheme: &'static str,
    structure: &'static str,
    threads: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    Q: ConcurrentQueue<R>,
{
    let workload = MapWorkload::WriteDominated;
    average_point(scheme, structure, "queue50", threads, params, |repeat| {
        let seed = 0xBADC0DE + repeat;
        let domain = R::with_config(domain_config(threads, Q::required_slots(), params));
        let queue = &Q::with_domain(Arc::clone(&domain));
        {
            let mut handle = domain.register();
            let mut generator = OpGenerator::new(workload, params.key_range, seed, usize::MAX >> 1);
            for _ in 0..params.prefill {
                queue.enqueue(&mut handle, generator.next_key());
            }
        }
        measure(&*domain, threads, params, |thread| {
            let mut handle = domain.register();
            let mut generator = OpGenerator::new(workload, params.key_range, seed, thread);
            move || {
                if generator.next_bool() {
                    queue.enqueue(&mut handle, generator.next_key());
                } else {
                    queue.dequeue(&mut handle);
                }
                1
            }
        })
    })
}

/// Measures one async-task data point (the `kv-async` figure; averaged over
/// `params.repeats` runs). `threads` in the resulting row is the executor
/// worker count; the swept axis is `tasks`.
pub fn run_async_kv<R, M>(
    scheme: &'static str,
    structure: &'static str,
    tasks: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    let workers = params.async_workers.max(1);
    average_point(
        scheme,
        structure,
        "async-tasks",
        workers,
        params,
        |repeat| run_async_kv_once::<R, M>(tasks, params, 0xA57C + repeat),
    )
}

/// Runs the map workload once at *async task* grain (the `kv-async` figure):
/// `tasks` short-lived futures on a `params.async_workers`-thread `mini-rt`
/// executor, each checking a `Send`-able [`TaskHandle`] out of a prewarmed
/// [`HandlePool`], performing [`POOL_TASK_OPS`] operations with a
/// `yield_now().await` every [`ASYNC_YIELD_EVERY`] ops, and parking the
/// handle on completion. The run is completion-driven — it ends when every
/// task has finished — so `elapsed` is the makespan, not a fixed duration.
///
/// One *stalled reader* is injected for the whole run through the raw SPI: a
/// registered handle that calls `begin_op` + `protect` and never `end_op`
/// until the run ends. This models exactly the misuse the `AsyncGuard`
/// poll-bracket discipline forbids at compile time — a task holding its
/// operation bracket across suspension points indefinitely. Under EBR the
/// stalled bracket pins the epoch, so *everything* retired during the run
/// stays unreclaimed (growing with the task count); under WFE/HE only blocks
/// whose lifetime overlaps the stalled era reservation stay pinned, so the
/// unreclaimed gauge remains bounded.
fn run_async_kv_once<R, M>(tasks: usize, params: &BenchParams, seed: u64) -> Metrics
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    let workload = MapWorkload::WriteDominated;
    let wave = ASYNC_WAVE.min(tasks.max(1));
    // Registry sizing: at most `wave` live tasks plus the prefill handle and
    // the stalled reader.
    let domain = R::with_config(domain_config(wave + 2, M::required_slots(), params));
    let map = Arc::new(M::with_domain(Arc::clone(&domain)));
    prefill_map(&domain, &*map, workload, params, seed);
    let pool = HandlePool::new(Arc::clone(&domain));
    pool.prewarm(wave);
    pool.reset_stats();

    // The injected stalled reader (see the function docs). The protected
    // block is the handle's own — the pinning comes from the open bracket
    // and the published reservation, not from which block is protected.
    let mut stall = domain.register();
    let stall_node = stall.alloc(seed);
    let stall_root: Atomic<u64> = Atomic::new(stall_node);
    stall.begin_op();
    stall.protect(&stall_root, 0, core::ptr::null_mut());

    let rt = mini_rt::Runtime::new(params.async_workers.max(1));
    // The executor is driven from a scoped thread while this thread samples
    // the gauges until that thread finishes.
    let ((completed, elapsed), gauges) = std::thread::scope(|scope| {
        let executor = scope.spawn(|| {
            let start = Instant::now();
            let completed = rt.block_on(async {
                let mut completed = 0usize;
                let mut pending = Vec::with_capacity(wave);
                let key_range = params.key_range;
                for task_index in 0..tasks {
                    let map = Arc::clone(&map);
                    let pool = Arc::clone(&pool);
                    pending.push(rt.spawn(async move {
                        let mut task = TaskHandle::acquire(&pool).await;
                        let mut generator = OpGenerator::new(workload, key_range, seed, task_index);
                        for op in 0..POOL_TASK_OPS {
                            apply_map_op(&*map, task.raw(), generator.next_op());
                            if op % ASYNC_YIELD_EVERY == ASYNC_YIELD_EVERY - 1 {
                                // Nothing is protected here: every map
                                // operation opened and closed its own bracket.
                                mini_rt::yield_now().await;
                            }
                        }
                    })); // drop parks the handle for the next task
                    if pending.len() == wave {
                        for handle in pending.drain(..) {
                            handle.await;
                            completed += 1;
                        }
                    }
                }
                for handle in pending {
                    handle.await;
                    completed += 1;
                }
                completed
            });
            (completed, start.elapsed())
        });
        let gauges = sample_gauges(&*domain, || executor.is_finished());
        (executor.join().expect("executor thread"), gauges)
    });
    assert_eq!(completed, tasks, "every spawned task must complete");

    // Withdraw the stalled reservation only after the measured window.
    stall.end_op();
    // SAFETY: the stall block was never shared with another handle and is
    // unreachable now that the local `stall_root` is abandoned; retired once.
    unsafe { stall.retire(stall_node) };
    stall.force_cleanup();

    let mut metrics = base_metrics(&*domain, (tasks * POOL_TASK_OPS) as u64, elapsed, gauges);
    metrics.push(("pool_hit_rate", pool.stats().hit_rate()));
    metrics.push(("tasks", tasks as f64));
    metrics.push(("unreclaimed_bytes", gauges.0 * M::node_bytes() as f64));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{Figure, Scheme};
    use wfe_core::Wfe;
    use wfe_ds::{MichaelHashMap, MichaelScottQueue, ResizableHashMap};
    use wfe_reclaim::He;

    #[test]
    fn map_runner_produces_sane_numbers() {
        let params = BenchParams::smoke();
        let point = run_map::<Wfe, MichaelHashMap<u64, Wfe>>(
            "WFE",
            "hashmap",
            MapWorkload::WriteDominated,
            2,
            &params,
        );
        assert_eq!(point.threads, 2);
        assert!(point.mops > 0.0, "some operations completed");
        assert!(point.avg_unreclaimed >= 0.0);
        assert!(point.metric("shards") >= 1.0);
        assert!(point.metric("avg_occupied_shards") <= point.metric("shards"));
        assert_eq!(
            point.metric("pool_hit_rate"),
            0.0,
            "no pool in the per-thread runner"
        );
        assert!(point.to_csv_row().starts_with("hashmap,write50,WFE,2,"));
    }

    #[test]
    fn kv_service_runner_reports_resize_stats() {
        let params = BenchParams::smoke();
        let point = run_kv_service::<Wfe, ResizableHashMap<u64, Wfe>>(
            "WFE",
            "resizable",
            ServiceWorkload::ResizeStorm,
            2,
            &params,
        );
        assert_eq!(point.workload, "kv-resize-storm");
        assert!(point.mops > 0.0, "some operations completed");
        assert!(
            point.metric("resizes") > 0.0,
            "a storm of fresh keys must double the directory (resizes {})",
            point.metric("resizes")
        );
        assert!(point.metric("migrated_buckets") > 0.0);
        assert!(point.metric("load_factor") > 0.0);
        let row = point.to_csv_row();
        assert_eq!(
            row.matches(',').count(),
            DataPoint::CSV_HEADER.matches(',').count(),
            "row column count matches the header: {row}"
        );
    }

    #[test]
    fn fixed_capacity_runner_reports_zero_service_stats() {
        let params = BenchParams::smoke();
        let point = run_map::<He, MichaelHashMap<u64, He>>(
            "HE",
            "hashmap",
            MapWorkload::WriteDominated,
            1,
            &params,
        );
        assert_eq!(point.metric("load_factor"), 0.0);
        assert_eq!(point.metric("resizes"), 0.0);
        assert_eq!(point.metric("migrated_buckets"), 0.0);
    }

    #[test]
    fn queue_runner_produces_sane_numbers() {
        let params = BenchParams::smoke();
        let point = run_queue::<He, MichaelScottQueue<u64, He>>("HE", "msqueue", 2, &params);
        assert!(point.mops > 0.0);
        assert_eq!(point.workload, "queue50");
    }

    #[test]
    fn churn_runner_reports_cache_counters() {
        let mut params = BenchParams::smoke();
        params.block_cache = Some(true);
        params.threads = vec![2];
        let points = Figure::CrossShardChurn.run(&params, &[Scheme::Wfe]);
        let point = &points[0];
        assert_eq!(point.workload, "churn-cache-on");
        assert!(point.mops > 0.0);
        assert!(
            point.metric("cache_hits") + point.metric("cache_misses") > 0.0,
            "churn produces cacheable allocation traffic"
        );
        let row = point.to_csv_row();
        assert_eq!(
            row.matches(',').count(),
            DataPoint::CSV_HEADER.matches(',').count(),
            "row column count matches the header: {row}"
        );
    }

    #[test]
    fn pooled_runner_reports_hit_rate_and_occupancy() {
        let params = BenchParams::smoke();
        let point = run_pooled_map::<He, MichaelHashMap<u64, He>>(
            "HE",
            "hashmap",
            MapWorkload::WriteDominated,
            2,
            &params,
        );
        assert_eq!(point.workload, "pool-churn");
        assert!(point.mops > 0.0, "tasks completed through the pool");
        assert!(
            point.metric("pool_hit_rate") > 0.5,
            "steady-state churn is served from the pool (hit rate {})",
            point.metric("pool_hit_rate")
        );
        assert!(point.metric("avg_occupied_shards") >= 0.0);
        let row = point.to_csv_row();
        assert!(row.starts_with("hashmap,pool-churn,HE,2,"), "row: {row}");
    }
}
