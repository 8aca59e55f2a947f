//! One entry per figure of the paper's evaluation.
//!
//! | Figure | Structure | Workload | Metric(s) |
//! |--------|-----------|----------|-----------|
//! | 5a/5b  | Kogan-Petrank queue | 50% enq / 50% deq | Mops/s, unreclaimed |
//! | 5c/5d  | CRTurn queue | 50/50 | Mops/s, unreclaimed |
//! | 6      | Harris-Michael list | 50% insert / 50% delete | both |
//! | 7      | Michael hash map | 50/50 | both |
//! | 8      | Natarajan-Mittal BST | 50/50 | both |
//! | 9      | Harris-Michael list | 90% get / 10% put | both |
//! | 10     | Michael hash map | 90/10 | both |
//! | 11     | Natarajan-Mittal BST | 90/10 | both |
//!
//! Every runner reports *both* metrics for each point, so the throughput
//! figure and its companion unreclaimed-objects figure come from the same
//! rows (exactly as in the paper, where each experiment produces both plots).
//!
//! Six additions beyond the paper are included:
//!
//! * `ablation-attempts` (`AblationAttempts`): a sweep of WFE fast-path
//!   attempts on the hash map; 1 attempt forces the slow path, 16 is the
//!   default.
//! * `queue-baseline` (`QueueBaseline`): the Michael-Scott lock-free queue,
//!   so the wait-free CRTurn queue can be compared against it in the same
//!   sweep (`figures fig5cd queue-baseline`).
//! * `kv-pool` (`KvPool`): the Michael hash map driven through a
//!   `HandlePool` at high task churn; rows add the pool hit rate.
//! * `kv-async` (`KvAsync`): the same map driven by tens of thousands of
//!   short-lived futures on a `mini-rt` executor through `Send`-able
//!   `wfe-task` handles, with one stalled raw-SPI reader injected for the
//!   whole run. Rows sweep the task count and add the pool hit rate and the
//!   unreclaimed gauge in bytes, showing EBR's unreclaimed memory growing
//!   with the task count while WFE/HE stay bounded.
//! * `cross-shard-churn` (`CrossShardChurn`): the write-dominated hash map on
//!   a sharded registry, once with the per-shard block cache on and once
//!   off, so the retire→free→alloc recycling win shows in the cache
//!   counters (pin one mode with `--block-cache on|off`).
//! * `kv-service` (`KvService`): the resizable hash map as a kv service;
//!   rows add its resize accounting.
//!
//! Every point is measured by one generic runner call; `with_reclaimer!`
//! is the one place a [`Scheme`] is turned into a reclaimer type.

use wfe_core::Wfe;
use wfe_ds::{
    CrTurnQueue, KoganPetrankQueue, MichaelHashMap, MichaelList, MichaelScottQueue, NatarajanBst,
    ResizableHashMap,
};
use wfe_reclaim::{Ebr, He, Hp, Ibr2Ge, Leak, Reclaimer};

use crate::params::BenchParams;
use crate::runner::{run_async_kv, run_kv_service, run_map, run_pooled_map, run_queue, DataPoint};
use crate::workload::{MapWorkload, ServiceWorkload};

/// The reclamation schemes compared in every figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Wait-Free Eras (this paper).
    Wfe,
    /// Epoch-based reclamation.
    Ebr,
    /// Hazard Eras.
    He,
    /// Hazard Pointers.
    Hp,
    /// Interval-based reclamation (2GEIBR).
    Ibr,
    /// No reclamation.
    Leak,
}

impl Scheme {
    /// Every scheme, in the order the paper lists them.
    pub const ALL: [Scheme; 6] = [
        Scheme::Wfe,
        Scheme::Ebr,
        Scheme::He,
        Scheme::Hp,
        Scheme::Ibr,
        Scheme::Leak,
    ];

    /// Legend name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Wfe => "WFE",
            Scheme::Ebr => "EBR",
            Scheme::He => "HE",
            Scheme::Hp => "HP",
            Scheme::Ibr => "2GEIBR",
            Scheme::Leak => "Leak",
        }
    }

    /// Parses a legend name.
    pub fn parse(name: &str) -> Option<Scheme> {
        Self::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// Evaluates `$body` with a type alias `R` bound to the reclaimer of
/// `$scheme` — the one place a [`Scheme`] value becomes a type.
macro_rules! with_reclaimer {
    ($scheme:expr, $body:expr) => {
        match $scheme {
            Scheme::Wfe => {
                type R = Wfe;
                $body
            }
            Scheme::Ebr => {
                type R = Ebr;
                $body
            }
            Scheme::He => {
                type R = He;
                $body
            }
            Scheme::Hp => {
                type R = Hp;
                $body
            }
            Scheme::Ibr => {
                type R = Ibr2Ge;
                $body
            }
            Scheme::Leak => {
                type R = Leak;
                $body
            }
        }
    };
}

/// A figure (or ablation) of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// KP queue, 50/50 (Figure 5a throughput, 5b unreclaimed).
    Fig5ab,
    /// CRTurn queue, 50/50 (Figure 5c throughput, 5d unreclaimed).
    Fig5cd,
    /// Linked list, 50/50 (Figure 6).
    Fig6,
    /// Hash map, 50/50 (Figure 7).
    Fig7,
    /// BST, 50/50 (Figure 8).
    Fig8,
    /// Linked list, 90/10 (Figure 9).
    Fig9,
    /// Hash map, 90/10 (Figure 10).
    Fig10,
    /// BST, 90/10 (Figure 11).
    Fig11,
    /// Ablation: sweep of WFE fast-path attempts {1, 4, 16, 64} on the hash
    /// map; 1 attempt forces the slow path, 16 is the default.
    AblationAttempts,
    /// Beyond the paper: Michael-Scott lock-free queue, 50/50, as a baseline
    /// for the wait-free queues in the same sweep.
    QueueBaseline,
    /// Beyond the paper: Michael hash map 50/50 driven through a
    /// [`wfe_reclaim::HandlePool`] at task-churn grain (executor pattern);
    /// rows carry per-shard occupancy and the pool hit rate.
    KvPool,
    /// Beyond the paper: Michael hash map 50/50 driven by async tasks on a
    /// `mini-rt` executor through `Send`-able `wfe-task` handles, with one
    /// stalled raw-SPI reader injected for the whole run. Sweeps
    /// `BenchParams::task_counts` (not threads); rows carry the pool hit
    /// rate and the unreclaimed gauge in bytes.
    KvAsync,
    /// Beyond the paper: Michael hash map 50/50 on a sharded registry, run
    /// once with the per-shard block cache enabled and once disabled (or a
    /// single pinned mode when `BenchParams::block_cache` is `Some`) — the
    /// retire→free→alloc recycling A/B. Rows carry the cache hit/miss
    /// counters and the bytes left parked in the caches.
    CrossShardChurn,
    /// Beyond the paper: the split-ordered *resizable* hash map as a kv
    /// service — Zipfian read-mostly and write-heavy mixes, a TTL expiry
    /// sweep and a resize storm, all seed-replayable. Rows carry the map's
    /// `load_factor`, `resizes` and `migrated_buckets` columns, showing
    /// superseded bucket arrays flowing through the reclamation scheme
    /// while readers stay pinned.
    KvService,
}

impl Figure {
    /// Every figure, in paper order, followed by the ablation and the
    /// extra baselines.
    pub const ALL: [Figure; 14] = [
        Figure::Fig5ab,
        Figure::Fig5cd,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
        Figure::Fig11,
        Figure::AblationAttempts,
        Figure::QueueBaseline,
        Figure::KvPool,
        Figure::KvAsync,
        Figure::CrossShardChurn,
        Figure::KvService,
    ];

    /// CLI name of the figure.
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig5ab => "fig5ab",
            Figure::Fig5cd => "fig5cd",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
            Figure::Fig9 => "fig9",
            Figure::Fig10 => "fig10",
            Figure::Fig11 => "fig11",
            Figure::AblationAttempts => "ablation-attempts",
            Figure::QueueBaseline => "queue-baseline",
            Figure::KvPool => "kv-pool",
            Figure::KvAsync => "kv-async",
            Figure::CrossShardChurn => "cross-shard-churn",
            Figure::KvService => "kv-service",
        }
    }

    /// Parses a CLI name (accepts `fig5a`..`fig5d` as aliases of the combined
    /// runs).
    pub fn parse(name: &str) -> Option<Figure> {
        let name = name.to_ascii_lowercase();
        match name.as_str() {
            "fig5a" | "fig5b" => return Some(Figure::Fig5ab),
            "fig5c" | "fig5d" => return Some(Figure::Fig5cd),
            _ => {}
        }
        Self::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Human-readable description shown in the CSV preamble.
    pub fn description(self) -> &'static str {
        match self {
            Figure::Fig5ab => "Kogan-Petrank wait-free queue, 50% enqueue / 50% dequeue",
            Figure::Fig5cd => "Ramalhete-Correia CRTurn wait-free queue, 50% enqueue / 50% dequeue",
            Figure::Fig6 => "Harris-Michael linked list, 50% insert / 50% delete",
            Figure::Fig7 => "Michael hash map, 50% insert / 50% delete",
            Figure::Fig8 => "Natarajan-Mittal BST, 50% insert / 50% delete",
            Figure::Fig9 => "Harris-Michael linked list, 90% get / 10% put",
            Figure::Fig10 => "Michael hash map, 90% get / 10% put",
            Figure::Fig11 => "Natarajan-Mittal BST, 90% get / 10% put",
            Figure::AblationAttempts => "WFE fast-path attempt sweep, Michael hash map 50/50",
            Figure::QueueBaseline => {
                "Michael-Scott lock-free queue baseline (beyond the paper), 50/50"
            }
            Figure::KvPool => {
                "Michael hash map 50/50 through a HandlePool at task churn (beyond the paper)"
            }
            Figure::KvAsync => {
                "Michael hash map 50/50 via async tasks and Send-able task handles, \
                 one stalled raw-SPI reader injected (beyond the paper)"
            }
            Figure::CrossShardChurn => {
                "Michael hash map 50/50 on a sharded registry, per-shard block \
                 cache on vs off (beyond the paper)"
            }
            Figure::KvService => {
                "Split-ordered resizable hash map as a kv service: Zipfian \
                 read-mostly/write-heavy, TTL expiry and resize storm \
                 (beyond the paper)"
            }
        }
    }

    /// Runs the figure for every scheme and thread count in `params`.
    pub fn run(self, params: &BenchParams, schemes: &[Scheme]) -> Vec<DataPoint> {
        use MapWorkload::WriteDominated;
        let mut points = Vec::new();
        match self {
            Figure::AblationAttempts => {
                for &threads in &params.threads {
                    for (label, attempts) in [
                        ("WFE-attempts-1", 1usize),
                        ("WFE-attempts-4", 4),
                        ("WFE-attempts-16", 16),
                        ("WFE-attempts-64", 64),
                    ] {
                        let mut tweaked = params.clone();
                        tweaked.fast_path_attempts = attempts;
                        points.push(run_map::<Wfe, MichaelHashMap<u64, Wfe>>(
                            label,
                            "hashmap",
                            WriteDominated,
                            threads,
                            &tweaked,
                        ));
                    }
                }
            }
            Figure::KvAsync => {
                for &tasks in &params.task_counts {
                    for &scheme in schemes {
                        points.push(with_reclaimer!(scheme, {
                            run_async_kv::<R, MichaelHashMap<u64, R>>(
                                scheme.name(),
                                "hashmap",
                                tasks,
                                params,
                            )
                        }));
                    }
                }
            }
            Figure::KvService => {
                for workload in ServiceWorkload::ALL {
                    for &threads in &params.threads {
                        for &scheme in schemes {
                            points.push(with_reclaimer!(scheme, {
                                run_kv_service::<R, ResizableHashMap<u64, R>>(
                                    scheme.name(),
                                    "resizable",
                                    workload,
                                    threads,
                                    params,
                                )
                            }));
                        }
                    }
                }
            }
            Figure::CrossShardChurn => {
                let modes: &[(bool, &'static str)] = match params.block_cache {
                    Some(true) => &[(true, "churn-cache-on")],
                    Some(false) => &[(false, "churn-cache-off")],
                    None => &[(true, "churn-cache-on"), (false, "churn-cache-off")],
                };
                // Churn is only "cross-shard" when the registry actually
                // splits: resolve auto-sizing (0) to the host's parallelism
                // and force at least two shards either way. The registry
                // still clamps to `max_threads`, so single-thread points
                // stay single-shard baselines.
                let mut tweaked = params.clone();
                if tweaked.shards == 0 {
                    tweaked.shards = std::thread::available_parallelism().map_or(1, |n| n.get());
                }
                tweaked.shards = tweaked.shards.max(2);
                for &threads in &params.threads {
                    for &scheme in schemes {
                        for &(enabled, label) in modes {
                            tweaked.block_cache = Some(enabled);
                            let mut point = with_reclaimer!(scheme, {
                                run_map::<R, MichaelHashMap<u64, R>>(
                                    scheme.name(),
                                    "hashmap",
                                    WriteDominated,
                                    threads,
                                    &tweaked,
                                )
                            });
                            point.workload = label;
                            points.push(point);
                        }
                    }
                }
            }
            _ => {
                for &threads in &params.threads {
                    for &scheme in schemes {
                        points.push(with_reclaimer!(scheme, {
                            self.thread_point::<R>(scheme.name(), threads, params)
                        }));
                    }
                }
            }
        }
        points
    }

    /// Measures one point of a figure swept over threads × schemes.
    fn thread_point<R: Reclaimer>(self, s: &'static str, t: usize, p: &BenchParams) -> DataPoint {
        use MapWorkload::{ReadMostly, WriteDominated};
        match self {
            Figure::Fig5ab => run_queue::<R, KoganPetrankQueue<u64, R>>(s, "kp-queue", t, p),
            Figure::Fig5cd => run_queue::<R, CrTurnQueue<u64, R>>(s, "crturn", t, p),
            Figure::QueueBaseline => run_queue::<R, MichaelScottQueue<u64, R>>(s, "msqueue", t, p),
            Figure::Fig6 => run_map::<R, MichaelList<u64, R>>(s, "list", WriteDominated, t, p),
            Figure::Fig7 => {
                run_map::<R, MichaelHashMap<u64, R>>(s, "hashmap", WriteDominated, t, p)
            }
            Figure::Fig8 => run_map::<R, NatarajanBst<u64, R>>(s, "bst", WriteDominated, t, p),
            Figure::Fig9 => run_map::<R, MichaelList<u64, R>>(s, "list", ReadMostly, t, p),
            Figure::Fig10 => run_map::<R, MichaelHashMap<u64, R>>(s, "hashmap", ReadMostly, t, p),
            Figure::Fig11 => run_map::<R, NatarajanBst<u64, R>>(s, "bst", ReadMostly, t, p),
            Figure::KvPool => {
                run_pooled_map::<R, MichaelHashMap<u64, R>>(s, "hashmap", WriteDominated, t, p)
            }
            _ => unreachable!("{} has its own sweep", self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_roundtrip() {
        for figure in Figure::ALL {
            assert_eq!(Figure::parse(figure.name()), Some(figure));
        }
        assert_eq!(Figure::parse("fig5a"), Some(Figure::Fig5ab));
        assert_eq!(Figure::parse("fig5d"), Some(Figure::Fig5cd));
        assert_eq!(Figure::parse("nonsense"), None);
    }

    #[test]
    fn scheme_names_roundtrip() {
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::parse(scheme.name()), Some(scheme));
        }
        assert_eq!(Scheme::parse("wfe"), Some(Scheme::Wfe));
        assert_eq!(Scheme::parse("unknown"), None);
    }

    #[test]
    fn smoke_run_of_a_map_figure_produces_all_series() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe, Scheme::He];
        let points = Figure::Fig7.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len() * schemes.len());
        assert!(points.iter().all(|p| p.mops > 0.0));
    }

    #[test]
    fn smoke_run_of_the_queue_figure_produces_all_series() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::Fig5ab.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len());
        assert!(points.iter().all(|p| p.structure == "kp-queue"));
    }

    #[test]
    fn fig5cd_runs_the_real_crturn_queue() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::Fig5cd.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len());
        assert!(points.iter().all(|p| p.structure == "crturn"));
        assert!(points.iter().all(|p| p.mops > 0.0));
    }

    #[test]
    fn queue_baseline_keeps_msqueue_in_the_sweep() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::He];
        let points = Figure::QueueBaseline.run(&params, &schemes);
        assert!(points.iter().all(|p| p.structure == "msqueue"));
    }

    #[test]
    fn kv_async_sweeps_tasks_and_stalled_reader_pins_ebr_but_not_wfe() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe, Scheme::Ebr];
        let points = Figure::KvAsync.run(&params, &schemes);
        assert_eq!(points.len(), params.task_counts.len() * schemes.len());
        assert!(points.iter().all(|p| p.workload == "async-tasks"));
        assert!(points.iter().all(|p| p.threads == params.async_workers));
        assert!(
            points.iter().all(|p| p.metric("pool_hit_rate") > 0.999),
            "prewarmed pool serves every check-out"
        );
        for (index, &tasks) in params.task_counts.iter().enumerate() {
            let wfe = &points[index * schemes.len()];
            let ebr = &points[index * schemes.len() + 1];
            assert_eq!(wfe.metric("tasks"), tasks as f64);
            assert_eq!(ebr.metric("tasks"), tasks as f64);
            // The stalled bracket pins EBR's epoch, so everything retired
            // during the run stays unreclaimed; WFE's era reservation pins
            // only lifetime-overlapping blocks.
            assert!(
                ebr.avg_unreclaimed > wfe.avg_unreclaimed,
                "stalled reader must pin EBR harder than WFE at {tasks} tasks \
                 (EBR {:.1} vs WFE {:.1})",
                ebr.avg_unreclaimed,
                wfe.avg_unreclaimed
            );
            assert!(ebr.metric("unreclaimed_bytes") > wfe.metric("unreclaimed_bytes"));
        }
    }

    #[test]
    fn cross_shard_churn_sweeps_both_cache_modes_and_counts_cache_traffic() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::CrossShardChurn.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len() * 2, "on + off per point");
        assert!(points.iter().all(|p| p.mops > 0.0));
        let on: Vec<_> = points
            .iter()
            .filter(|p| p.workload == "churn-cache-on")
            .collect();
        let off: Vec<_> = points
            .iter()
            .filter(|p| p.workload == "churn-cache-off")
            .collect();
        assert_eq!(on.len(), params.threads.len());
        assert_eq!(off.len(), params.threads.len());
        assert!(
            on.iter().any(|p| p.metric("cache_hits") > 0.0),
            "cache-on churn recycles blocks through the shard cache"
        );
        assert!(
            off.iter()
                .all(|p| p.metric("cache_hits") == 0.0 && p.metric("cached_bytes") == 0.0),
            "cache-off rows must not report cache traffic"
        );
    }

    #[test]
    fn cross_shard_churn_honors_a_pinned_cache_mode() {
        let mut params = BenchParams::smoke();
        params.threads = vec![1];
        params.block_cache = Some(false);
        let points = Figure::CrossShardChurn.run(&params, &[Scheme::He]);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].workload, "churn-cache-off");
    }

    #[test]
    fn kv_service_sweeps_all_legs_and_the_storm_resizes() {
        let mut params = BenchParams::smoke();
        params.threads = vec![2];
        let schemes = [Scheme::Wfe];
        let points = Figure::KvService.run(&params, &schemes);
        assert_eq!(points.len(), ServiceWorkload::ALL.len());
        assert!(points.iter().all(|p| p.structure == "resizable"));
        assert!(points.iter().all(|p| p.mops > 0.0));
        let labels: Vec<_> = points.iter().map(|p| p.workload).collect();
        assert_eq!(
            labels,
            vec![
                "kv-zipf-read90",
                "kv-zipf-write50",
                "kv-ttl",
                "kv-resize-storm"
            ]
        );
        let storm = points
            .iter()
            .find(|p| p.workload == "kv-resize-storm")
            .unwrap();
        assert!(
            storm.metric("resizes") > 0.0 && storm.metric("migrated_buckets") > 0.0,
            "the storm leg must force directory doublings (resizes {})",
            storm.metric("resizes")
        );
    }

    #[test]
    fn every_figure_writes_one_row_format() {
        let mut params = BenchParams::smoke();
        params.threads = vec![1];
        params.duration = std::time::Duration::from_millis(20);
        params.task_counts = vec![500];
        let columns = DataPoint::CSV_HEADER.split(',').count();
        for figure in Figure::ALL {
            let points = figure.run(&params, &[Scheme::Wfe]);
            assert!(!points.is_empty(), "{} produced no rows", figure.name());
            for point in &points {
                let row = point.to_csv_row();
                assert_eq!(row.split(',').count(), columns, "{}: {row}", figure.name());
                let names: Vec<&str> = point.metrics.iter().map(|&(name, _)| name).collect();
                let mut unique = names.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), names.len(), "{}: {row}", figure.name());
                for base in ["shards", "avg_occupied_shards", "adopted_batches"] {
                    assert!(names.contains(&base), "{}: {row}", figure.name());
                }
                assert_eq!(
                    names.contains(&"pool_hit_rate"),
                    matches!(figure, Figure::KvPool | Figure::KvAsync),
                    "{}: {row}",
                    figure.name()
                );
                for resize in ["load_factor", "resizes", "migrated_buckets"] {
                    assert_eq!(
                        names.contains(&resize),
                        figure == Figure::KvService,
                        "{}: {row}",
                        figure.name()
                    );
                }
            }
        }
    }

    #[test]
    fn kv_pool_reports_pool_and_shard_stats() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::KvPool.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len());
        assert!(points.iter().all(|p| p.workload == "pool-churn"));
        assert!(points.iter().all(|p| p.metric("shards") >= 1.0));
        assert!(
            points.iter().all(|p| p.metric("pool_hit_rate") > 0.0),
            "task churn is served from the pool"
        );
    }
}
