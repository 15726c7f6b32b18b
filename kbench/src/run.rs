//! One run: set-up, stream, recover, check — the end-to-end metrics.
//!
//! All four phases run in this process, with the daemon embedded on a
//! thread and driven over TCP through `kiff_serve::Client`. Nothing here
//! records spans: the end-to-end figures come from this path with
//! tracing off, and [`crate::trace`] replays the same inputs afterwards
//! when `--trace 1` asks for the per-layer figures.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use kiff_core::{Kiff, KiffConfig, KiffError, KiffStats};
use kiff_dataset::Dataset;
use kiff_graph::{KnnGraph, Neighbor};
use kiff_online::{OnlineConfig, ReadView};
use kiff_parallel::ViewCell;
use kiff_serve::{recover, Client, EngineHost, Request, ServeView, Server, StoreConfig};
use kiff_similarity::WeightedCosine;
use kiff_telemetry::Registry;
use serde_json::Value;

use crate::oracle::{check_hits_shape, check_row_shape, Oracle};
use crate::stats::{median, peak_rss_mb, percentile, rss_mb, tail_percentile};
use crate::workload::{Inputs, Workload, K, TOP};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Nominal length of the write phase.
    pub seconds: u64,
    /// Replay the inputs traced afterwards and report per-layer metrics.
    pub trace: bool,
    /// Shrink every input (the benchmark's own tests).
    pub tiny: bool,
    /// Directory the run may write in (the checkout root).
    pub root: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Failed checks, kept with their first few messages.
#[derive(Debug, Default)]
pub(crate) struct Checks {
    /// The first messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records `result` when it is an error.
    pub(crate) fn check(&mut self, result: Result<(), String>) {
        if let Err(message) = result {
            self.fail(message);
        }
    }

    /// Records a failed check.
    pub(crate) fn fail(&mut self, message: String) {
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }
}

/// Operations sent to the program, and how many of them failed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Ops {
    /// Attempted.
    pub attempted: u64,
    /// Failed (an error answer or a transport error).
    pub failed: u64,
}

impl Ops {
    /// Counts one operation and passes its result through.
    pub(crate) fn count<T>(&mut self, result: Result<T, KiffError>) -> Result<T, KiffError> {
        self.attempted += 1;
        if result.is_err() {
            self.failed += 1;
        }
        result
    }
}

/// Everything the untraced run measured and kept for the traced replay.
pub(crate) struct Untraced {
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Reference lines to print beside them.
    pub notes: Vec<String>,
    /// Operations and their failures.
    pub ops: Ops,
    /// Failed checks.
    pub checks: Checks,
    /// The inputs.
    pub inputs: Inputs,
    /// The last set-up's graph.
    pub graph: KnnGraph,
    /// Statistics of the last set-up's build.
    pub build_stats: KiffStats,
    /// Resident set size right after the last set-up's build, MB.
    pub rss_after_build_mb: f64,
    /// The daemon's last published view.
    pub last_view: ReadView,
    /// Median durable `update` latency over TCP, ms.
    pub update_p50_ms: f64,
    /// Median `neighbors` latency over TCP, µs.
    pub neighbors_p50_us: f64,
    /// The daemon's own `metrics` export, fetched after the last ack.
    pub daemon_metrics: Value,
    /// Scratch directory of this run.
    pub work: WorkDir,
}

/// A scratch directory under `<root>/.bench_data`, removed on drop.
pub(crate) struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path, workload: Workload) -> Result<Self, String> {
        let path =
            root.join(".bench_data")
                .join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// A fresh, empty subdirectory.
    pub(crate) fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Copies every file of the data dir `from` (WAL segments and
/// snapshots; it has no subdirectories) into the empty dir `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let target = to.join(path.file_name().expect("a directory entry has a name"));
        std::fs::copy(&path, target).map_err(|e| format!("copy {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The online engine configuration every engine of a run uses.
pub(crate) fn online_config(registry: &Registry) -> OnlineConfig {
    OnlineConfig::new(K).with_telemetry(registry.clone())
}

/// KIFF on one worker thread, so the graph, its scan rate and its
/// recall repeat exactly. Returns the graph, its statistics and the
/// seconds `Kiff::run` took.
pub(crate) fn build(dataset: &Dataset) -> (KnnGraph, KiffStats, f64) {
    let kiff = Kiff::new(KiffConfig::new(K).with_threads(1));
    let sim = WeightedCosine::fit(dataset);
    let started = Instant::now();
    let result = kiff.run(dataset, &sim);
    let seconds = started.elapsed().as_secs_f64();
    (result.graph, result.stats, seconds)
}

fn remote(e: KiffError) -> String {
    e.to_string()
}

/// The daemon, serving on its own thread.
struct Daemon {
    views: Arc<ViewCell<ServeView>>,
    thread: JoinHandle<Result<(), KiffError>>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Seeds the online engine by `recover`ing the empty `dir`, binds an
    /// ephemeral port, serves on a thread and waits for the first
    /// answered `ping`. Returns the daemon and the connection that
    /// answered.
    fn start(base: &Dataset, graph: &KnnGraph, dir: &Path) -> Result<(Self, Client), String> {
        let registry = Registry::new();
        let recovered = recover(
            &StoreConfig::new(dir),
            base,
            Some(graph),
            online_config(&registry),
            None,
        )
        .map_err(remote)?;
        let host = EngineHost::new(recovered.engine, Some(recovered.store), registry);
        let server = Server::bind("127.0.0.1:0", host).map_err(remote)?;
        let addr = server.local_addr().to_string();
        let views = server.view_handle();
        let thread = std::thread::spawn(move || server.run());
        // The listener is bound before `run` starts, so the connection
        // is accepted once the serving thread reaches its accept loop.
        let mut client = Client::connect(&addr).map_err(remote)?;
        client.ping().map_err(remote)?;
        let daemon = Self {
            views,
            thread,
            addr,
            dir: dir.to_path_buf(),
        };
        Ok((daemon, client))
    }

    /// Graceful shutdown through `client`; waits for the serving thread.
    fn stop(self, client: &mut Client, ops: &mut Ops) -> Result<(), String> {
        ops.count(client.shutdown()).map_err(remote)?;
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(remote)
    }
}

/// Runs the four phases of `options` with tracing off.
pub(crate) fn run(options: &Options) -> Result<Untraced, String> {
    let shape = options.workload.shape(options.tiny);
    let inputs = Inputs::generate(&shape, options.seed, options.seconds);
    let work = WorkDir::create(&options.root, options.workload)?;
    let mut ops = Ops::default();
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    notes.push(format!(
        "inputs: {} users, {} items, {} ratings; {} batches of {} updates; snapshot {}",
        inputs.base.num_users(),
        inputs.base.num_items(),
        inputs.base.num_ratings(),
        inputs.stream.len(),
        crate::workload::BATCH,
        match inputs.snapshot_after {
            Some(b) => format!("requested after batch {b}"),
            None => "every 10000 updates (daemon default)".to_string(),
        }
    ));

    // Phase 1: set-up, repeated; the last daemon stays up.
    let setups = if options.trace { 1 } else { shape.setups };
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut running = None;
    let mut kept = None;
    let mut rss_after_build_mb = 0.0;
    for i in 0..setups {
        if let Some((daemon, mut client)) = running.take() {
            Daemon::stop(daemon, &mut client, &mut ops)?;
        }
        drop(kept.take());
        let dir = work.fresh(&format!("setup-{i}"))?;
        let started = Instant::now();
        let (graph, stats, seconds) = build(&inputs.base);
        rss_after_build_mb = rss_mb();
        let started_daemon = Daemon::start(&inputs.base, &graph, &dir)?;
        ops.attempted += 1; // the first ping
        setup_s.push(started.elapsed().as_secs_f64());
        build_s.push(seconds);
        running = Some(started_daemon);
        kept = Some((graph, stats));
    }
    let (graph, build_stats) = kept.expect("at least one set-up");
    let (daemon, mut writer) = running.expect("at least one set-up");

    // Phase 2: the write phase, with the reader alongside.
    let stream = stream_phase(&mut writer, &daemon.addr, &inputs, &mut ops, &mut checks)?;
    let crash = work.fresh("crash")?;
    copy_dir(&daemon.dir, &crash)?;

    // The check pass runs on the quiescent daemon, after the last ack.
    let last = daemon.views.load();
    let last_view = last.view.clone();
    if last.version != inputs.stream.len() as u64 {
        checks.fail(format!(
            "last view has version {}, {} batches were acked",
            last.version,
            inputs.stream.len()
        ));
    }
    drop(last);
    let stream_recall = check_pass(&mut writer, &inputs, &last_view, &mut ops, &mut checks);
    let daemon_metrics = ops.count(writer.metrics()).map_err(remote)?;
    notes.push(daemon_telemetry_line(&daemon_metrics));
    Daemon::stop(daemon, &mut writer, &mut ops)?;
    drop(writer);

    // Phase 3: recover the crash image, repeatedly.
    let mut recover_s = Vec::new();
    for r in 0..if options.trace { 1 } else { shape.recovers } {
        let dir = work.fresh(&format!("recover-{r}"))?;
        copy_dir(&crash, &dir)?;
        let registry = Registry::new();
        let started = Instant::now();
        let recovered = recover(
            &StoreConfig::new(&dir),
            &inputs.base,
            Some(&graph),
            online_config(&registry),
            None,
        )
        .map_err(remote)?;
        let host = EngineHost::new(recovered.engine, Some(recovered.store), registry);
        recover_s.push(started.elapsed().as_secs_f64());
        if r == 0 {
            let view = host.view_handle().load();
            checks.check(same_view(&view.view, &last_view).map_err(|e| format!("recovered {e}")));
        }
        drop(host);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Extra builds run last, so the builds' median spans the whole run
    // rather than one stretch of it.
    let extra_builds = if options.trace {
        0
    } else {
        shape.builds.saturating_sub(setups)
    };
    for _ in 0..extra_builds {
        build_s.push(build(&inputs.base).2);
    }

    // Phase 4: the built graph against the oracle.
    let base_oracle = Oracle::new(&inputs.base_profiles);
    for u in 0..graph.num_users() as u32 {
        checks.check(
            base_oracle
                .check_row(u, graph.neighbors(u), K)
                .map_err(|e| format!("built graph: {e}")),
        );
    }
    let build_recall = base_oracle.recall(&inputs.oracle_base_users, K, |u| graph.neighbors(u));
    drop(base_oracle);

    let update_pct = tail_percentile(stream.update_ms.len());
    let all_reads: Vec<f64> = stream.reads.iter().flatten().copied().collect();
    let read_pct = tail_percentile(all_reads.len());
    notes.push(format!(
        "available parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    notes.push(format!(
        "samples: {} updates (tail p{update_pct}), {} reads (tail p{read_pct}: {} neighbors, {} recommend, {} search) over {:.2} s; {} set-ups, {} builds, {} recoveries",
        stream.update_ms.len(),
        all_reads.len(),
        stream.reads[0].len(),
        stream.reads[1].len(),
        stream.reads[2].len(),
        stream.read_seconds,
        setup_s.len(),
        build_s.len(),
        recover_s.len()
    ));
    // Tails are reference output, not metrics: on a shared host they
    // measure interference bursts (see README, Steadiness).
    notes.push(format!(
        "tails (reference): update p{update_pct} {:.3} ms, read p{read_pct} {:.1} us; reader thread: {} involuntary context switches",
        percentile(&stream.update_ms, update_pct),
        percentile(&all_reads, read_pct),
        stream.reader_switches
    ));
    let update_p50_ms = median(&stream.update_ms);
    let neighbors_p50_us = median(&stream.reads[0]);
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(&setup_s),
            unit: "s",
        },
        Metric {
            name: "build_s",
            value: median(&build_s),
            unit: "s",
        },
        Metric {
            name: "build_scan_rate",
            value: build_stats.scan_rate,
            unit: "ratio",
        },
        Metric {
            name: "build_recall",
            value: build_recall,
            unit: "ratio",
        },
        Metric {
            name: "update_p50_ms",
            value: update_p50_ms,
            unit: "ms",
        },
        Metric {
            name: "update_sims",
            value: stream.sims_per_update,
            unit: "count",
        },
        Metric {
            name: "stream_recall",
            value: stream_recall,
            unit: "ratio",
        },
        Metric {
            name: "neighbors_p50_us",
            value: neighbors_p50_us,
            unit: "us",
        },
        Metric {
            name: "recommend_p50_us",
            value: median(&stream.reads[1]),
            unit: "us",
        },
        Metric {
            name: "search_p50_us",
            value: median(&stream.reads[2]),
            unit: "us",
        },
        Metric {
            name: "read_qps",
            value: all_reads.len() as f64 / stream.read_seconds,
            unit: "1/s",
        },
        Metric {
            name: "recover_s",
            value: median(&recover_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ];
    Ok(Untraced {
        metrics,
        notes,
        ops,
        checks,
        inputs,
        graph,
        build_stats,
        rss_after_build_mb,
        last_view,
        update_p50_ms,
        neighbors_p50_us,
        daemon_metrics,
        work,
    })
}

/// What the write phase measured.
struct StreamOutcome {
    /// Durable ack latency of each batch, ms.
    update_ms: Vec<f64>,
    /// Read latencies, µs: `neighbors`, `recommend`, `search`.
    reads: [Vec<f64>; 3],
    /// How long the reader ran.
    read_seconds: f64,
    /// Similarity evaluations per applied update (`stats` deltas).
    sims_per_update: f64,
    /// Involuntary context switches of the reader thread.
    reader_switches: u64,
}

/// Reads `(sim_evals, updates)` from a `stats` answer.
fn stats_counts(stats: &Value) -> (u64, u64) {
    let field = |name| stats.get(name).and_then(Value::as_u64).unwrap_or(0);
    (field("sim_evals"), field("updates"))
}

/// The writer sends the measured stream as 32-update batches in a
/// closed loop; the reader cycles `neighbors`, `recommend`, `search`
/// on its own connection until the last ack.
fn stream_phase(
    writer: &mut Client,
    addr: &str,
    inputs: &Inputs,
    ops: &mut Ops,
    checks: &mut Checks,
) -> Result<StreamOutcome, String> {
    let requests: Vec<Request> = inputs
        .stream
        .iter()
        .map(|batch| Request::Update {
            updates: batch.clone(),
            batch: 0,
        })
        .collect();
    let (sims_before, updates_before) = stats_counts(&ops.count(writer.stats()).map_err(remote)?);
    let stop = AtomicBool::new(false);
    let (ready, started) = mpsc::channel();
    let mut update_ms = Vec::with_capacity(requests.len());
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(addr, inputs, &stop, ready));
        // The first batch goes out once the reader is connected and busy.
        let _ = started.recv();
        let (mut seq, mut view) = (0u64, 0u64);
        for (b, request) in requests.iter().enumerate() {
            let sent = Instant::now();
            let answer = ops.count(writer.request(request));
            let elapsed = sent.elapsed();
            match answer {
                Ok(ack) => {
                    update_ms.push(elapsed.as_secs_f64() * 1e3);
                    let acked_seq = ack.get("seq").and_then(Value::as_u64).unwrap_or(0);
                    let acked_view = ack.get("view").and_then(Value::as_u64).unwrap_or(0);
                    let batch = inputs.stream[b].len() as u64;
                    if acked_seq != seq + batch {
                        checks.fail(format!(
                            "batch {b}: ack seq {acked_seq}, expected {}",
                            seq + batch
                        ));
                    }
                    if acked_view <= view {
                        checks.fail(format!("batch {b}: ack view {acked_view} after {view}"));
                    }
                    seq = acked_seq;
                    view = acked_view;
                }
                Err(e) => checks.fail(format!("batch {b} failed: {e}")),
            }
            if inputs.snapshot_after == Some(b + 1) {
                if let Err(e) = ops.count(writer.snapshot()) {
                    checks.fail(format!("snapshot op failed: {e}"));
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread panicked")
    });
    let (sims_after, updates_after) = stats_counts(&ops.count(writer.stats()).map_err(remote)?);
    let reader = reader?;
    ops.attempted += reader.ops.attempted;
    ops.failed += reader.ops.failed;
    for message in reader.checks.messages {
        checks.fail(message);
    }
    let updates = updates_after.saturating_sub(updates_before).max(1);
    Ok(StreamOutcome {
        update_ms,
        reads: reader.latencies_us,
        read_seconds: reader.seconds,
        sims_per_update: sims_after.saturating_sub(sims_before) as f64 / updates as f64,
        reader_switches: reader.switches,
    })
}

struct ReaderOutcome {
    latencies_us: [Vec<f64>; 3],
    seconds: f64,
    ops: Ops,
    checks: Checks,
    switches: u64,
}

/// The reader connection: whole rounds of `neighbors`, `recommend`,
/// `search` over the read targets, until `stop`.
fn read_loop(
    addr: &str,
    inputs: &Inputs,
    stop: &AtomicBool,
    ready: mpsc::Sender<()>,
) -> Result<ReaderOutcome, String> {
    let mut client = Client::connect(addr).map_err(remote)?;
    let rounds: Vec<[Request; 3]> = inputs
        .reads
        .iter()
        .map(|t| {
            [
                Request::Neighbors { user: t.user },
                Request::Recommend {
                    user: t.user,
                    top: TOP,
                },
                Request::Search {
                    items: t.query.clone(),
                    top: TOP,
                },
            ]
        })
        .collect();
    let num_users = inputs.final_profiles.users.len();
    let num_items = inputs.final_profiles.num_items;
    let switches_before = crate::stats::thread_involuntary_switches();
    let mut outcome = ReaderOutcome {
        latencies_us: [Vec::new(), Vec::new(), Vec::new()],
        seconds: 0.0,
        ops: Ops::default(),
        checks: Checks::default(),
        switches: 0,
    };
    let mut view = 0u64;
    let started = Instant::now();
    let _ = ready.send(());
    'outer: loop {
        for (target, round) in inputs.reads.iter().zip(&rounds) {
            if stop.load(Ordering::SeqCst) {
                break 'outer;
            }
            for (op, request) in round.iter().enumerate() {
                let sent = Instant::now();
                let answer = outcome.ops.count(client.request(request));
                let elapsed = sent.elapsed();
                // A failed read is counted in `ops`; the checks speak of
                // the answers that came back.
                let Ok(answer) = answer else { continue };
                outcome.latencies_us[op].push(elapsed.as_secs_f64() * 1e6);
                let answered = answer.get("view").and_then(Value::as_u64).unwrap_or(0);
                if answered < view {
                    outcome
                        .checks
                        .fail(format!("reader saw view {answered} after {view}"));
                }
                view = answered;
                let shape = match op {
                    0 => parse_neighbors(&answer)
                        .and_then(|row| check_row_shape(target.user, &row, K, num_users)),
                    1 => parse_pairs(&answer, "recommendations", "item", "score")
                        .and_then(|recs| check_hits_shape(&recs, TOP, num_items)),
                    _ => parse_pairs(&answer, "hits", "user", "sim")
                        .and_then(|hits| check_hits_shape(&hits, TOP, num_users)),
                };
                outcome
                    .checks
                    .check(shape.map_err(|e| format!("{} during the stream: {e}", request.op())));
            }
        }
    }
    outcome.seconds = started.elapsed().as_secs_f64();
    outcome.switches = crate::stats::thread_involuntary_switches() - switches_before;
    Ok(outcome)
}

fn parse_neighbors(answer: &Value) -> Result<Vec<Neighbor>, String> {
    Ok(parse_pairs(answer, "neighbors", "id", "sim")?
        .into_iter()
        .map(|(id, sim)| Neighbor { id, sim })
        .collect())
}

fn parse_pairs(
    answer: &Value,
    field: &str,
    key: &str,
    value: &str,
) -> Result<Vec<(u32, f64)>, String> {
    answer
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("answer has no `{field}`"))?
        .iter()
        .map(|entry| {
            let id = entry.get(key).and_then(Value::as_u64);
            let score = entry.get(value).and_then(Value::as_f64);
            match (id, score) {
                (Some(id), Some(score)) => Ok((id as u32, score)),
                _ => Err(format!("malformed `{field}` entry")),
            }
        })
        .collect()
}

/// Read targets whose `search` the check pass verifies.
const CHECKED_SEARCHES: usize = 256;

/// The check pass on the quiescent daemon: the served dataset is the
/// oracle's, every served row holds exact cosines, `neighbors` over TCP
/// returns the published row, `recommend` and `search` agree with the
/// oracle. Returns `stream_recall`.
fn check_pass(
    client: &mut Client,
    inputs: &Inputs,
    view: &ReadView,
    ops: &mut Ops,
    checks: &mut Checks,
) -> f64 {
    let profiles = &inputs.final_profiles;
    checks.check(
        profiles
            .matches(&view.dataset)
            .map_err(|e| format!("served {e}")),
    );
    let oracle = Oracle::new(profiles);
    let graph = &view.graph;
    if graph.num_users() != profiles.users.len() {
        checks.fail(format!(
            "served graph has {} users, oracle {}",
            graph.num_users(),
            profiles.users.len()
        ));
        return 0.0;
    }
    for u in 0..graph.num_users() as u32 {
        checks.check(
            oracle
                .check_row(u, graph.neighbors(u), K)
                .map_err(|e| format!("served graph: {e}")),
        );
    }
    for &u in &inputs.oracle_final_users {
        match ops.count(client.neighbors(u)) {
            Ok(row) if row.as_slice() == graph.neighbors(u) => {}
            Ok(_) => checks.fail(format!("neighbors({u}) differs from the published row")),
            Err(e) => checks.fail(format!("neighbors({u}) failed: {e}")),
        }
        match ops.count(client.recommend(u, TOP)) {
            Ok(recs) => checks.check(oracle.check_recommend(u, graph.neighbors(u), TOP, &recs)),
            Err(e) => checks.fail(format!("recommend({u}) failed: {e}")),
        }
    }
    for target in inputs.reads.iter().take(CHECKED_SEARCHES) {
        match ops.count(client.search(&target.query, TOP)) {
            Ok(hits) => checks.check(oracle.check_search(&target.query, TOP, &hits)),
            Err(e) => checks.fail(format!("search failed: {e}")),
        }
    }
    oracle.recall(&inputs.oracle_final_users, K, |u| graph.neighbors(u))
}

/// Bit-for-bit equality of two views' graphs and datasets.
pub(crate) fn same_view(a: &ReadView, b: &ReadView) -> Result<(), String> {
    if a.graph.num_users() != b.graph.num_users() || a.graph.k() != b.graph.k() {
        return Err("graph differs in size".into());
    }
    for u in 0..a.graph.num_users() as u32 {
        let (x, y) = (a.graph.neighbors(u), b.graph.neighbors(u));
        let same = x.len() == y.len()
            && x.iter()
                .zip(y)
                .all(|(p, q)| p.id == q.id && p.sim.to_bits() == q.sim.to_bits());
        if !same {
            return Err(format!("graph differs at user {u}"));
        }
    }
    let (x, y) = (&a.dataset, &b.dataset);
    if x.num_users() != y.num_users() || x.num_items() != y.num_items() {
        return Err("dataset differs in size".into());
    }
    for u in 0..x.num_users() as u32 {
        let (p, q) = (x.user_profile(u), y.user_profile(u));
        let same = p.items == q.items
            && p.ratings.len() == q.ratings.len()
            && p.ratings
                .iter()
                .zip(q.ratings)
                .all(|(r, s)| r.to_bits() == s.to_bits());
        if !same {
            return Err(format!("dataset differs at user {u}"));
        }
    }
    Ok(())
}

/// `(count, mean)` of one histogram in a `metrics` export.
pub(crate) fn exported(metrics: &Value, name: &str) -> (u64, f64) {
    let h = metrics.get("histograms").and_then(|h| h.get(name));
    let field = |f| {
        h.and_then(|h| h.get(f))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let count = field("count") as u64;
    (
        count,
        if count == 0 {
            0.0
        } else {
            field("sum") / count as f64
        },
    )
}

/// The daemon's own means, for reference beside the benchmark's.
fn daemon_telemetry_line(metrics: &Value) -> String {
    let mut line = String::from("daemon telemetry (means, reference only):");
    for (name, scale, unit) in [
        ("online.apply_ns", 1e6, "ms"),
        ("serve.request_ns.update", 1e6, "ms"),
        ("serve.request_ns.neighbors", 1e3, "us"),
        ("serve.request_ns.recommend", 1e3, "us"),
        ("serve.request_ns.search", 1e3, "us"),
    ] {
        let (count, mean) = exported(metrics, name);
        line.push_str(&format!(" {name} {:.3} {unit} (n={count});", mean / scale));
    }
    line
}
