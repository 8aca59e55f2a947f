//! The closed-loop workloads: set-up, one measured window, and the checks
//! that follow it.
//!
//! Every workload runs [`WORKERS`] threads, each issuing its next operation
//! only after the previous one returned. The main thread samples
//! `Reclaimer::stats()` while they run. After the window it releases the
//! stalled reader, scans every key, and drains every handle.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wfe_core::{HandlePool, PooledHandle, Wfe, WfeHandle};
use wfe_ds::{ConcurrentMap, MichaelHashMap, NatarajanBst};
use wfe_reclaim::{Atomic, Handle, PoolStats, RawHandle, Reclaimer, ReclaimerConfig, SmrStats};

use crate::check::bad_keys;
use crate::hist::Hist;
use crate::keys::{Mix, Op, OpStream, KEY_RANGE};
use crate::trace::{Kind, Tracer};

/// Worker threads (the 2 cores of the reference machine).
const WORKERS: usize = 2;
/// Distinct keys inserted before the window opens (the paper's §5 setting).
const PREFILL: usize = 50_000;
/// Operations per task. Pooled workers check a handle out per task (the
/// grain of the `kv-pool` figure); every worker reads the control flags
/// once per task.
const TASK_OPS: u64 = 64;
/// One operation in this many is timed for the end-to-end latency.
pub const LATENCY_EVERY: u64 = 16;
/// In the traced window, one operation in this many runs the layer probes.
const PROBE_EVERY: u64 = 128;
/// The spans of one probed operation in this many are kept for the trace
/// file, so the kept spans cover the whole traced window.
const KEEP_EVERY: u64 = 16;
/// One probe in this many also times a cleanup pass: a pass rescans every
/// pinned block, so probing it more often would change `kv-pool-stall`.
const CLEANUP_PROBE_EVERY: u64 = 32;
/// `try_register` calls timed during the traced set-up.
const REGISTER_PROBES: usize = 64;
/// Registry capacity: room for the workers, the pooled and probe handles
/// and the stalled reader, with headroom so no registration is refused.
const MAX_HANDLES: usize = 8;
/// How often the main thread samples `Reclaimer::stats()`.
pub const SAMPLE_INTERVAL: Duration = Duration::from_millis(5);
/// Lets threads start and caches warm before the window opens.
const WARMUP: Duration = Duration::from_millis(250);
/// Registrations or check-outs refused in a row before a run gives up.
const MAX_REFUSALS: u64 = 1_000_000;
/// Key stream of the prefill; workers use streams `0..WORKERS`.
const PREFILL_STREAM: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HashmapWrite50,
    BstRead90,
    KvPoolStall,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HashmapWrite50,
        Workload::BstRead90,
        Workload::KvPoolStall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HashmapWrite50 => "hashmap-write50",
            Workload::BstRead90 => "bst-read90",
            Workload::KvPoolStall => "kv-pool-stall",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mix(self) -> Mix {
        match self {
            Workload::HashmapWrite50 | Workload::KvPoolStall => Mix {
                insert: 50,
                remove: 50,
            },
            Workload::BstRead90 => Mix {
                insert: 10,
                remove: 0,
            },
        }
    }

    /// Workers check a handle out of a `HandlePool` per task, and one extra
    /// handle holds a bracket open for the whole window.
    fn pooled_and_stalled(self) -> bool {
        self == Workload::KvPoolStall
    }
}

pub type HashMap = MichaelHashMap<u64, Wfe>;
pub type Bst = NatarajanBst<u64, Wfe>;

/// The domain every workload runs on: library defaults, with only the
/// registry size and the structure's slot count set.
pub fn domain_config<M: ConcurrentMap<Wfe>>() -> ReclaimerConfig {
    ReclaimerConfig {
        max_threads: MAX_HANDLES,
        slots_per_thread: M::required_slots(),
        ..ReclaimerConfig::default()
    }
}

/// Retries `f` until it yields, counting each refusal.
fn acquire<T>(refused: &mut u64, mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..MAX_REFUSALS {
        if let Some(t) = f() {
            return t;
        }
        *refused += 1;
        std::thread::yield_now();
    }
    panic!("the registry refused {MAX_REFUSALS} handles in a row");
}

/// A prefilled structure, ready for one window.
pub struct Setup<M> {
    domain: Arc<Wfe>,
    map: M,
    prefilled: Vec<bool>,
    pool: Option<Arc<HandlePool<Wfe>>>,
    refused: u64,
}

impl<M> Setup<M> {
    pub fn domain(&self) -> &Arc<Wfe> {
        &self.domain
    }
}

/// Builds the domain and structure and inserts [`PREFILL`] distinct keys
/// (and, for pooled workloads, parks one handle per worker).
pub fn setup<M: ConcurrentMap<Wfe>>(workload: Workload, seed: u64) -> Setup<M> {
    let domain = Wfe::with_config(domain_config::<M>());
    let map = M::with_domain(Arc::clone(&domain));
    let mut refused = 0;
    let mut handle = acquire(&mut refused, || domain.try_register());
    let mut keys = OpStream::new(seed, PREFILL_STREAM);
    let mut prefilled = vec![false; KEY_RANGE as usize];
    let mut inserted = 0;
    while inserted < PREFILL {
        let key = keys.next_key();
        if map.insert(&mut handle, key, key) {
            assert!(!prefilled[key as usize], "prefill inserted key {key} twice");
            prefilled[key as usize] = true;
            inserted += 1;
        }
    }
    drop(handle);
    let pool = workload.pooled_and_stalled().then(|| {
        let pool = HandlePool::new(Arc::clone(&domain));
        refused += (WORKERS - pool.prewarm(WORKERS)) as u64;
        pool
    });
    Setup {
        domain,
        map,
        prefilled,
        pool,
        refused,
    }
}

/// Time average and maximum of a sampled gauge.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gauge {
    sum: f64,
    samples: u64,
    pub peak: u64,
}

impl Gauge {
    fn record(&mut self, value: u64) {
        self.sum += value as f64;
        self.samples += 1;
        self.peak = self.peak.max(value);
    }

    pub fn avg(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum / self.samples as f64
        }
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Everything a failed check counts.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Keys whose final presence breaks conservation.
    pub bad_keys: u64,
    /// Reads that returned a value never written for their key.
    pub wrong_reads: u64,
    /// Refused `try_register` and `check_out` calls.
    pub refused: u64,
    /// Blocks still unreclaimed after every handle ran a cleanup pass.
    pub undrained: u64,
}

impl Failures {
    /// Failed checks: a check that failed counts at least once.
    pub fn total(&self) -> u64 {
        self.bad_keys + self.wrong_reads + self.refused + self.undrained.min(1)
    }
}

/// Calls and counts the traced window adds up per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    /// Workload insert calls (the base of `ds.allocs_per_insert`).
    pub workload_inserts: u64,
    /// Timed `insert`, `remove` and `get` calls, and how many succeeded.
    pub calls: [u64; 3],
    pub hits: [u64; 3],
    pub probe_allocs: u64,
    pub probe_retires: u64,
    pub cleanup_passes: u64,
    pub cleanup_freed: u64,
}

impl LayerCounts {
    fn add(&mut self, other: &LayerCounts) {
        self.workload_inserts += other.workload_inserts;
        for i in 0..3 {
            self.calls[i] += other.calls[i];
            self.hits[i] += other.hits[i];
        }
        self.probe_allocs += other.probe_allocs;
        self.probe_retires += other.probe_retires;
        self.cleanup_passes += other.cleanup_passes;
        self.cleanup_freed += other.cleanup_freed;
    }
}

/// The outcome of one window.
pub struct Window {
    /// Operations run, warm-up included: every one is covered by the checks.
    pub attempted: u64,
    /// Operations completed inside the measured window.
    pub ops: u64,
    pub elapsed: Duration,
    /// Latency of one operation in [`LATENCY_EVERY`].
    pub latency: Hist,
    pub unreclaimed: Gauge,
    pub occupied_shards: Gauge,
    pub cached_bytes: Gauge,
    /// Domain stats when the window opened and when it closed.
    pub stats: (SmrStats, SmrStats),
    /// Stats of the pool whose calls were timed, at open and close.
    pub pool: Option<(PoolStats, PoolStats)>,
    pub failures: Failures,
    pub tracer: Option<Tracer>,
    pub counts: LayerCounts,
}

impl Window {
    pub fn throughput_mops(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }
}

/// What every worker shares.
struct Shared<'a, M> {
    map: &'a M,
    domain: &'a Arc<Wfe>,
    mix: Mix,
    /// The workload's pool: workers check a handle out per task.
    pool: Option<&'a Arc<HandlePool<Wfe>>>,
    /// The pool the traced window probes when the workload has none.
    probe_pool: Option<&'a Arc<HandlePool<Wfe>>>,
    stop: &'a AtomicBool,
    measuring: &'a AtomicBool,
    barrier: &'a Barrier,
    epoch: Instant,
    traced: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    Miss,
    /// A get returned a value that was never stored under its key.
    Corrupt,
}

fn apply<M: ConcurrentMap<Wfe>>(map: &M, handle: &mut WfeHandle, op: Op) -> Outcome {
    let hit = match op {
        Op::Insert(key) => map.insert(handle, key, key),
        Op::Remove(key) => map.remove(handle, key),
        Op::Get(key) => match map.get(handle, key) {
            Some(value) if value != key => return Outcome::Corrupt,
            found => found.is_some(),
        },
    };
    if hit {
        Outcome::Hit
    } else {
        Outcome::Miss
    }
}

/// One worker's state; returned to the main thread when the window closes.
struct Worker {
    id: u64,
    stream: OpStream,
    /// Successful inserts minus successful removes, per key.
    tally: Vec<i32>,
    latency: Hist,
    attempted: u64,
    ops: u64,
    wrong_reads: u64,
    refused: u64,
    tracer: Option<Tracer>,
    counts: LayerCounts,
    /// The benchmark-owned root that `guard.protect` probes. Its block is
    /// shared with no other thread.
    probe_root: Option<Atomic<u64>>,
}

impl Worker {
    fn new(id: usize, seed: u64, epoch: Instant, traced: bool) -> Self {
        Self {
            id: id as u64,
            stream: OpStream::new(seed, id as u64),
            tally: vec![0; KEY_RANGE as usize],
            latency: Hist::default(),
            attempted: 0,
            ops: 0,
            wrong_reads: 0,
            refused: 0,
            tracer: traced.then(|| Tracer::new(epoch)),
            counts: LayerCounts::default(),
            probe_root: None,
        }
    }

    fn run<M: ConcurrentMap<Wfe>>(
        &mut self,
        sh: &Shared<'_, M>,
        mut own: Option<WfeHandle>,
    ) -> Option<WfeHandle> {
        sh.barrier.wait();
        // ORDER: benchmark control flags; they order no data.
        while !sh.stop.load(Ordering::Relaxed) {
            let measured = sh.measuring.load(Ordering::Relaxed);
            let traced = measured && sh.traced;
            let mut pooled = sh.pool.map(|pool| self.check_out(pool, traced));
            let handle: &mut WfeHandle = match pooled.as_mut() {
                Some(pooled) => pooled,
                None => own.as_mut().expect("unpooled workers own a handle"),
            };
            for _ in 0..TASK_OPS {
                if traced {
                    self.traced_step(sh, handle);
                } else {
                    self.step(sh.map, handle, sh.mix, measured);
                }
            }
            if measured {
                self.ops += TASK_OPS;
            }
            if let Some(pooled) = pooled {
                let start = Instant::now();
                drop(pooled);
                if let Some(tracer) = self.tracer.as_mut().filter(|_| traced) {
                    tracer.record(Kind::Checkin, None, start, start.elapsed());
                }
            }
        }
        if let Some(root) = self.probe_root.take() {
            let mut pooled = sh.pool.map(|pool| self.check_out(pool, false));
            let handle: &mut WfeHandle = match pooled.as_mut() {
                Some(pooled) => pooled,
                None => own.as_mut().expect("unpooled workers own a handle"),
            };
            // ORDER: the root never left this thread.
            let node = root.load(Ordering::Relaxed);
            // SAFETY: the probe block was reachable only through this
            // worker's root, which is not read again; it is retired once.
            unsafe { handle.retire(node) };
        }
        own
    }

    fn check_out(&mut self, pool: &Arc<HandlePool<Wfe>>, traced: bool) -> PooledHandle<Wfe> {
        let start = Instant::now();
        let handle = acquire(&mut self.refused, || pool.check_out());
        if let Some(tracer) = self.tracer.as_mut().filter(|_| traced) {
            tracer.record(Kind::Checkout, None, start, start.elapsed());
        }
        handle
    }

    fn settle(&mut self, op: Op, outcome: Outcome) {
        match (op, outcome) {
            (_, Outcome::Corrupt) => self.wrong_reads += 1,
            (Op::Insert(key), Outcome::Hit) => self.tally[key as usize] += 1,
            (Op::Remove(key), Outcome::Hit) => self.tally[key as usize] -= 1,
            _ => {}
        }
    }

    /// One untraced operation.
    #[inline]
    fn step<M: ConcurrentMap<Wfe>>(
        &mut self,
        map: &M,
        handle: &mut WfeHandle,
        mix: Mix,
        measured: bool,
    ) {
        let timed = measured && self.attempted.is_multiple_of(LATENCY_EVERY);
        self.attempted += 1;
        let op = self.stream.next_op(mix);
        let start = timed.then(Instant::now);
        let outcome = apply(map, handle, op);
        if let Some(start) = start {
            self.latency.record_since(start);
        }
        self.settle(op, outcome);
    }

    /// One traced operation: a span around the structure call, plus the
    /// layer probes every [`PROBE_EVERY`] operations. A kept operation's
    /// spans share its op id.
    fn traced_step<M: ConcurrentMap<Wfe>>(&mut self, sh: &Shared<'_, M>, handle: &mut WfeHandle) {
        let seq = self.attempted;
        self.attempted += 1;
        let op = self.stream.next_op(sh.mix);
        let probe = seq.is_multiple_of(PROBE_EVERY).then_some(seq / PROBE_EVERY);
        let id = probe
            .filter(|p| p.is_multiple_of(KEEP_EVERY))
            .map(|_| self.id << 48 | seq);
        let start = Instant::now();
        let (kind, slot) = match op {
            Op::Insert(_) => (Kind::Insert, 0),
            Op::Remove(_) => (Kind::Remove, 1),
            Op::Get(_) => (Kind::Get, 2),
        };
        let mut tracer = self.tracer.take().expect("traced workers have a tracer");
        let outcome = tracer.time(kind, id, || apply(sh.map, handle, op));
        self.counts.calls[slot] += 1;
        self.counts.hits[slot] += u64::from(outcome == Outcome::Hit);
        self.counts.workload_inserts += u64::from(slot == 0);
        self.settle(op, outcome);
        if let Some(probe) = probe {
            self.probe(sh, handle, &mut tracer, id, probe);
            tracer.record(Kind::Op, id, start, start.elapsed());
        }
        self.tracer = Some(tracer);
    }

    /// Times one call into each layer's public functions.
    fn probe<M: ConcurrentMap<Wfe>>(
        &mut self,
        sh: &Shared<'_, M>,
        handle: &mut WfeHandle,
        tracer: &mut Tracer,
        op: Option<u64>,
        probe: u64,
    ) {
        tracer.time(Kind::ShieldLease, op, || {
            drop(
                handle
                    .shield::<u64>()
                    .expect("no shield is leased between operations"),
            )
        });
        tracer.time(Kind::Enter, op, || drop(handle.enter()));

        let root = self
            .probe_root
            .get_or_insert_with(|| Atomic::new(handle.alloc(0u64)));
        let mut shield = handle
            .shield::<u64>()
            .expect("no shield is leased between operations");
        let guard = handle.enter();
        tracer.time(Kind::Protect, op, || {
            black_box(shield.protect(&guard, root, None).as_raw())
        });
        drop(guard);
        drop(shield);

        let block = tracer.time(Kind::Alloc, op, || handle.alloc(probe));
        // SAFETY: `block` was never published, so no other thread can reach
        // it, and it is retired exactly once.
        tracer.time(Kind::Retire, op, || unsafe { handle.retire(block) });
        self.counts.probe_allocs += 1;
        self.counts.probe_retires += 1;

        // A call kind the workload never issues is probed, so its layer
        // metric still has samples: a read of a uniform key, or a remove of
        // a key outside the key range, which fails without changing the map.
        let key = probe.wrapping_mul(7919) % KEY_RANGE;
        if sh.mix.insert + sh.mix.remove == 100 {
            let outcome = tracer.time(Kind::Get, op, || apply(sh.map, handle, Op::Get(key)));
            self.counts.calls[2] += 1;
            self.counts.hits[2] += u64::from(outcome == Outcome::Hit);
            self.wrong_reads += u64::from(outcome == Outcome::Corrupt);
        }
        if sh.mix.remove == 0 {
            let removed = tracer.time(Kind::Remove, op, || sh.map.remove(handle, KEY_RANGE + key));
            self.counts.calls[1] += 1;
            // Removing a key that was never inserted is a wrong read.
            self.wrong_reads += u64::from(removed);
        }

        if let Some(pool) = sh.probe_pool {
            match tracer.time(Kind::Checkout, op, || pool.check_out()) {
                Some(pooled) => tracer.time(Kind::Checkin, op, || drop(pooled)),
                None => self.refused += 1,
            }
        }

        if probe.is_multiple_of(CLEANUP_PROBE_EVERY) {
            let before = tracer.time(Kind::Snapshot, op, || sh.domain.stats()).freed;
            tracer.time(Kind::Cleanup, op, || handle.force_cleanup());
            let after = tracer.time(Kind::Snapshot, op, || sh.domain.stats()).freed;
            self.counts.cleanup_passes += 1;
            self.counts.cleanup_freed += after.saturating_sub(before);
        }
    }
}

/// Runs one window of `measure` on a fresh set-up, then checks it.
pub fn run_window<M: ConcurrentMap<Wfe>>(
    workload: Workload,
    seed: u64,
    setup: Setup<M>,
    measure: Duration,
    traced: bool,
) -> Window {
    let Setup {
        domain,
        map,
        prefilled,
        pool,
        mut refused,
    } = setup;
    let epoch = Instant::now();
    let mut main_tracer = traced.then(|| Tracer::new(epoch));
    let probe_pool = (traced && pool.is_none()).then(|| {
        let probe_pool = HandlePool::new(Arc::clone(&domain));
        refused += (WORKERS - probe_pool.prewarm(WORKERS)) as u64;
        probe_pool
    });
    if let Some(tracer) = main_tracer.as_mut() {
        for _ in 0..REGISTER_PROBES {
            let handle = tracer.time(Kind::Register, None, || domain.try_register());
            refused += u64::from(handle.is_none());
        }
    }

    // The stalled reader: a registered handle whose bracket stays open, with
    // a block protected, for the whole window. Every block alive when it
    // entered (the prefill) stays pinned once it is retired.
    let mut stall = workload
        .pooled_and_stalled()
        .then(|| acquire(&mut refused, || domain.try_register()));
    let stall_node = stall.as_mut().map(|h| h.alloc(seed));
    let stall_root = Atomic::new(stall_node.unwrap_or(core::ptr::null_mut()));
    let mut stall_shield = stall
        .as_ref()
        .map(|h| h.shield::<u64>().expect("a fresh handle has free slots"));
    let stall_guard = stall.as_mut().map(|h| h.enter());
    if let (Some(guard), Some(shield)) = (&stall_guard, &mut stall_shield) {
        shield.protect(guard, &stall_root, None);
    }

    let own: Vec<Option<WfeHandle>> = (0..WORKERS)
        .map(|_| {
            pool.is_none()
                .then(|| acquire(&mut refused, || domain.try_register()))
        })
        .collect();
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let barrier = Barrier::new(WORKERS + 1);
    let shared = Shared {
        map: &map,
        domain: &domain,
        mix: workload.mix(),
        pool: pool.as_ref(),
        probe_pool: probe_pool.as_ref(),
        stop: &stop,
        measuring: &measuring,
        barrier: &barrier,
        epoch,
        traced,
    };
    let timed_pool = pool.as_ref().or(probe_pool.as_ref());
    let mut unreclaimed = Gauge::default();
    let mut occupied_shards = Gauge::default();
    let mut cached_bytes = Gauge::default();

    let (workers, elapsed, stats, pool_stats) = std::thread::scope(|scope| {
        let joins: Vec<_> = own
            .into_iter()
            .enumerate()
            .map(|(id, handle)| {
                let shared = &shared;
                scope.spawn(move || {
                    let mut worker = Worker::new(id, seed, shared.epoch, shared.traced);
                    let handle = worker.run(shared, handle);
                    (worker, handle)
                })
            })
            .collect();
        barrier.wait();
        std::thread::sleep(WARMUP);
        let open = (domain.stats(), timed_pool.map(|p| p.stats()));
        measuring.store(true, Ordering::Relaxed); // ORDER: benchmark control flag.
        let start = Instant::now();
        while start.elapsed() < measure {
            std::thread::sleep(SAMPLE_INTERVAL);
            let sampled = Instant::now();
            let stats = domain.stats();
            if let Some(tracer) = main_tracer.as_mut() {
                tracer.record(Kind::Snapshot, None, sampled, sampled.elapsed());
            }
            unreclaimed.record(stats.unreclaimed);
            cached_bytes.record(stats.cached_bytes);
            occupied_shards.record(domain.registry().occupied_shards() as u64);
        }
        stop.store(true, Ordering::Relaxed); // ORDER: benchmark control flag.
        let elapsed = start.elapsed();
        let close = (domain.stats(), timed_pool.map(|p| p.stats()));
        let workers: Vec<_> = joins
            .into_iter()
            .map(|join| join.join().expect("worker thread panicked"))
            .collect();
        let pool_stats = open.1.zip(close.1);
        (workers, elapsed, (open.0, close.0), pool_stats)
    });

    // Release the stalled reader.
    drop(stall_guard);
    drop(stall_shield);
    if let (Some(handle), Some(node)) = (stall.as_mut(), stall_node) {
        // SAFETY: the stall block was reachable only through the local
        // `stall_root`, which no other thread saw; it is retired once.
        unsafe { handle.retire(node) };
    }

    let mut failures = Failures::default();
    let mut latency = Hist::default();
    let mut counts = LayerCounts::default();
    let mut net = vec![0i64; KEY_RANGE as usize];
    let mut handles: Vec<WfeHandle> = stall.into_iter().collect();
    let (mut attempted, mut ops) = (0, 0);
    for (worker, handle) in workers {
        attempted += worker.attempted;
        ops += worker.ops;
        failures.wrong_reads += worker.wrong_reads;
        refused += worker.refused;
        latency.merge(&worker.latency);
        counts.add(&worker.counts);
        for (sum, &n) in net.iter_mut().zip(&worker.tally) {
            *sum += i64::from(n);
        }
        if let (Some(main), Some(tracer)) = (main_tracer.as_mut(), worker.tracer) {
            main.merge(tracer);
        }
        handles.extend(handle);
    }
    let mut pooled: Vec<PooledHandle<Wfe>> = Vec::new();
    for pool in pool.iter().chain(&probe_pool) {
        while pool.parked() > 0 {
            pooled.push(acquire(&mut refused, || pool.check_out()));
        }
    }
    let mut all: Vec<&mut WfeHandle> = handles
        .iter_mut()
        .chain(pooled.iter_mut().map(|p| &mut **p))
        .collect();

    let checker = all.first_mut().expect("a window keeps at least one handle");
    let mut present = vec![false; KEY_RANGE as usize];
    for key in 0..KEY_RANGE {
        match apply(&map, checker, Op::Get(key)) {
            Outcome::Hit => present[key as usize] = true,
            Outcome::Miss => {}
            Outcome::Corrupt => failures.wrong_reads += 1,
        }
    }
    failures.bad_keys = bad_keys(&prefilled, &net, &present) as u64;
    for handle in &mut all {
        handle.force_cleanup();
    }
    failures.undrained = domain.stats().unreclaimed;
    failures.refused = refused;

    Window {
        attempted,
        ops,
        elapsed,
        latency,
        unreclaimed,
        occupied_shards,
        cached_bytes,
        stats,
        pool: pool_stats,
        failures,
        tracer: main_tracer,
        counts,
    }
}
