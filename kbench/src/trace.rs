//! The traced replay: per-layer metrics.
//!
//! After the untraced run, the same seeded inputs are replayed in this
//! process, layer by layer, in the daemon's order — decode,
//! `Store::append`, `apply_batch`, `graph()` and `dataset()`, encode —
//! with a span around each call into a layer. Spans carry a name, start,
//! end, parent and request id; they stay in memory and are written to
//! `.bench_out/` at the end, with self times derived from them. The
//! crash image of the replay is then recovered piece by piece, and the
//! same stream runs once more through `EngineHost::handle`, the
//! daemon's dispatch without its sockets.

use std::path::Path;
use std::time::Instant;

use kiff_apps::{GraphSearcher, ProfileMetric, QueryProfile, Recommender};
use kiff_core::{Kiff, KiffConfig};
use kiff_dataset::Dataset;
use kiff_online::{KnnEngine, OnlineKnn, ReadView, UpdateStats};
use kiff_serve::{latest_snapshot, load_snapshot, recover, EngineHost, Request, StoreConfig, Wal};
use kiff_similarity::{ScoreKind, ScorerWorkspace};
use kiff_telemetry::Registry;
use serde_json::Value;

use crate::run::{exported, online_config, same_view, Checks, Metric, Ops, Untraced};
use crate::stats::{median, rss_mb};
use crate::workload::{derive, Rng, K, TOP};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, named after the repo module it times.
    pub name: &'static str,
    /// Request the call served.
    pub request: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans in memory.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer; times count from now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in `unit` ns.
    pub fn durations(&self, name: &str, unit: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / unit)
            .collect()
    }

    /// Median duration of the spans called `name`, in `unit` ns.
    pub fn median(&self, name: &str, unit: f64) -> f64 {
        median(&self.durations(name, unit))
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Per-name `(count, median ns, total ns, total self ns)`, in first
    /// appearance order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, u64, u64)> {
        let own = self.self_times();
        let mut names: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !names.contains(&span.name) {
                names.push(span.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let (mut total, mut total_self, mut count) = (0, 0, 0);
                for (span, &s) in self.spans.iter().zip(&own) {
                    if span.name == name {
                        total += span.duration_ns();
                        total_self += s;
                        count += 1;
                    }
                }
                (name, count, self.median(name, 1.0), total, total_self)
            })
            .collect()
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let own = self.self_times();
        let mut out = String::from("{\"spans\": [\n");
        for (i, (span, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}{}\n",
                span.name,
                span.request,
                span.start_ns,
                span.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Request ids: updates are their batch index, the reads that follow
/// them this far above, the `EngineHost` replay further still.
const READ_REQUESTS: u64 = 1 << 32;
const HOST_REQUESTS: u64 = 2 << 32;
const RECOVERY_REQUEST: u64 = 3 << 32;
/// RCS rows the similarity sample scores.
const SCORE_ROWS: usize = 200;
/// View loads timed together per host round.
const VIEW_LOADS: u32 = 1_000;

/// What the traced replay produced.
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Reference lines: span summary, reconciliation, cross-check.
    pub notes: Vec<String>,
    /// In-process operations replayed.
    pub ops: Ops,
    /// Failed checks.
    pub checks: Checks,
}

fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// ns per `ScorerWorkspace::prepare` + `score`, over a seeded sample of
/// RCS rows of `base`.
fn score_sample(base: &Dataset, seed: u64) -> f64 {
    let rcs = Kiff::new(KiffConfig::new(K).with_threads(1)).counting_phase(base);
    let mut rng = Rng::new(derive(seed, 5));
    let mut workspace = ScorerWorkspace::new();
    let (mut scores, mut elapsed_ns, mut sink) = (0usize, 0u128, 0.0);
    for _ in 0..SCORE_ROWS {
        let u = rng.below(base.num_users()) as u32;
        let row = rcs.rcs(u);
        let started = Instant::now();
        let scorer = workspace.prepare(ScoreKind::Cosine, base.user_profile(u));
        for &v in row {
            sink += scorer.score(base.user_profile(v));
        }
        elapsed_ns += started.elapsed().as_nanos();
        scores += row.len();
    }
    std::hint::black_box(sink);
    elapsed_ns as f64 / scores.max(1) as f64
}

/// Replays the run's inputs traced. `untraced` supplies the inputs, the
/// built graph, and the untraced medians the transport figures are
/// measured against.
pub fn replay(untraced: &Untraced, seed: u64, out: &Path) -> Result<Traced, String> {
    let inputs = &untraced.inputs;
    let base = &inputs.base;
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit })
    };

    // core and similarity, from the set-up's build.
    let stats = &untraced.build_stats;
    let counting = stats.preprocessing_time().as_secs_f64();
    put("core.counting_s", counting, "s");
    put("core.rcs_candidates", stats.total_rcs as f64, "count");
    put(
        "core.refine_s",
        stats.total_time.as_secs_f64() - counting,
        "s",
    );
    put("core.refine_iterations", stats.iterations as f64, "count");
    put("core.refine_sims", stats.sim_evals as f64, "count");
    put("similarity.score_ns", score_sample(base, seed), "ns");
    put("mem.rss_after_build_mb", untraced.rss_after_build_mb, "MB");

    // online: seeding, timed on its own, then the engine the replay uses.
    let started = Instant::now();
    let seeded = OnlineKnn::from_graph(base, &untraced.graph, online_config(&Registry::new()));
    put("online.seed_s", started.elapsed().as_secs_f64(), "s");
    drop(seeded);
    let dir = untraced.work.fresh("trace")?;
    let registry = Registry::new();
    let recovered = recover(
        &StoreConfig::new(&dir),
        base,
        Some(&untraced.graph),
        online_config(&registry),
        None,
    )
    .map_err(err)?;
    let (mut engine, mut store) = (recovered.engine, recovered.store);
    put("mem.rss_after_seed_mb", rss_mb(), "MB");

    // The stream, stage by stage, each batch followed by one read round
    // through the apps over the view it published.
    let mut totals = UpdateStats::default();
    let mut compactions = 0u64;
    let (mut frame_bytes, mut wal_grown, mut wal_updates) = (0usize, 0u64, 0u64);
    let mut visited = 0usize;
    let mut snapshot_bytes = 0u64;
    for (b, batch) in inputs.stream.iter().enumerate() {
        let req = b as u64;
        let request = Request::Update {
            updates: batch.clone(),
            batch: 0,
        };
        let wal_before = wal_bytes(&dir);
        let mut snapshotted = false;
        let root = tr.begin("serve.update", req);
        let text = tr.time("serve.wire.update_encode", req, || {
            serde_json::to_string(&request.to_value())
        });
        let text = text.map_err(err)?;
        frame_bytes += text.len() + 4;
        let decoded = tr.time("serve.wire.update_decode", req, || {
            serde_json::from_str::<Value>(&text)
                .map_err(err)
                .and_then(|v| Request::from_value(&v).map_err(err))
        });
        let Ok(Request::Update { updates, .. }) = decoded else {
            return Err(format!("batch {b} did not decode as an update"));
        };
        let appended = tr.time("serve.store.append", req, || store.append(&updates, 0));
        ops.count(appended).map_err(err)?;
        let applied = tr.time("online.apply_batch", req, || engine.apply_batch(updates));
        let graph = tr.time("graph.snapshot", req, || engine.graph());
        let dataset = tr.time("dataset.materialize", req, || engine.dataset());
        if store.should_snapshot() {
            let saved = tr.time("serve.snapshot.save", req, || {
                store.snapshot(engine.as_ref())
            });
            snapshot_bytes = file_len(&saved.map_err(err)?);
            snapshotted = true;
        }
        let ack = tr.time("serve.wire.ack_encode", req, || {
            serde_json::to_string(&serde_json::json!({
                "ok": true,
                "applied": applied.updates,
                "seq": store.seq(),
                "sim_evals": applied.sim_evals,
                "repaired_users": applied.repaired_users,
                "view": (b + 1) as u64
            }))
        });
        ack.map_err(err)?;
        tr.end(root);
        if !snapshotted {
            wal_grown += wal_bytes(&dir) - wal_before;
            wal_updates += applied.updates;
        }
        totals.merge(&applied);
        compactions += u64::from(applied.compacted);
        if inputs.snapshot_after == Some(b + 1) {
            let saved = tr.time("serve.snapshot.save", req, || {
                store.snapshot(engine.as_ref())
            });
            snapshot_bytes = file_len(&saved.map_err(err)?);
        }

        let view = ReadView {
            graph,
            dataset,
            k: K,
            stats: *engine.stats(),
        };
        let target = &inputs.reads[b % inputs.reads.len()];
        let req = READ_REQUESTS + b as u64;
        let query = QueryProfile::new(target.query.iter().copied());
        let search = |view: &ReadView| {
            GraphSearcher::from_view(view, ProfileMetric::Cosine).search_with_stats(
                &query,
                TOP,
                (TOP * 4).max(40),
            )
        };
        let root = tr.begin("serve.read", req);
        // The first search on a freshly published dataset builds its
        // item index; the reader's later searches find it built.
        tr.time("apps.search.first_after_publish", req, || search(&view));
        let recs = tr.time("apps.recommend", req, || {
            Recommender::from_view(&view).try_recommend(target.user, TOP)
        });
        ops.count(recs).map_err(err)?;
        let (_, seen) = tr.time("apps.search", req, || search(&view));
        visited += seen;
        let encoded = tr.time("serve.wire.read_encode", req, || {
            let neighbors: Vec<Value> = view
                .graph
                .neighbors(target.user)
                .iter()
                .map(|nb| serde_json::json!({"id": nb.id, "sim": nb.sim}))
                .collect();
            serde_json::to_string(&serde_json::json!({
                "ok": true,
                "neighbors": neighbors,
                "view": (b + 1) as u64
            }))
        });
        encoded.map_err(err)?;
        tr.end(root);
        ops.attempted += 4;
    }
    let batches = inputs.stream.len() as f64;
    let updates = totals.updates.max(1) as f64;
    put(
        "online.apply_ms",
        tr.median("online.apply_batch", 1e6),
        "ms",
    );
    put(
        "online.sims_per_update",
        totals.sim_evals as f64 / updates,
        "count",
    );
    put(
        "online.counter_adjustments_per_update",
        totals.counter_adjustments as f64 / updates,
        "count",
    );
    put(
        "online.repaired_per_update",
        totals.repaired_users as f64 / updates,
        "count",
    );
    put("online.compactions", compactions as f64, "count");
    let counter_entries: usize = engine
        .counters_snapshot()
        .map(|rows| rows.iter().map(Vec::len).sum())
        .unwrap_or(0);
    put("online.counter_entries", counter_entries as f64, "count");
    put("graph.snapshot_ms", tr.median("graph.snapshot", 1e6), "ms");
    put(
        "dataset.materialize_ms",
        tr.median("dataset.materialize", 1e6),
        "ms",
    );
    put("mem.rss_after_stream_mb", rss_mb(), "MB");
    let traced_view = engine.read_view();
    checks.check(
        same_view(&traced_view, &untraced.last_view)
            .map_err(|e| format!("traced replay vs the daemon's last view: {e}")),
    );
    drop((engine, store));

    // Recovery of the replay's crash image, piece by piece.
    let (snapshot_seq, path) = latest_snapshot(&dir)
        .map_err(err)?
        .ok_or("the traced replay left no snapshot")?;
    let req = RECOVERY_REQUEST;
    let loaded = tr.time("serve.snapshot.load", req, || load_snapshot(&path));
    let snapshot = loaded.map_err(err)?;
    let replayed = tr.time("serve.wal.replay", req, || {
        Wal::replay(&dir, snapshot_seq, &Registry::new())
    });
    let replayed = replayed.map_err(err)?;
    let counters = snapshot.counters.ok_or("snapshot without counters")?;
    let restored = tr.time("online.restore", req, || {
        OnlineKnn::from_snapshot(
            &snapshot.dataset,
            &snapshot.graph,
            counters,
            online_config(&Registry::new()),
        )
    });
    let mut restored = restored.map_err(err)?;
    for batch in replayed.batches() {
        restored.apply_batch(batch);
    }
    checks.check(
        same_view(&KnnEngine::read_view(&restored), &traced_view)
            .map_err(|e| format!("piecewise recovery: {e}")),
    );
    drop(restored);
    drop(traced_view);
    put(
        "serve.store.append_ms",
        tr.median("serve.store.append", 1e6),
        "ms",
    );
    put(
        "serve.wal.bytes_per_update",
        wal_grown as f64 / wal_updates.max(1) as f64,
        "B",
    );
    put(
        "serve.snapshot.save_s",
        tr.median("serve.snapshot.save", 1e9),
        "s",
    );
    put("serve.snapshot.bytes", snapshot_bytes as f64, "B");
    put(
        "serve.snapshot.load_s",
        tr.median("serve.snapshot.load", 1e9),
        "s",
    );
    put(
        "serve.wal.replay_s",
        tr.median("serve.wal.replay", 1e9),
        "s",
    );
    put("online.restore_s", tr.median("online.restore", 1e9), "s");
    put(
        "serve.wire.update_encode_us",
        tr.median("serve.wire.update_encode", 1e3),
        "us",
    );
    put(
        "serve.wire.update_decode_us",
        tr.median("serve.wire.update_decode", 1e3),
        "us",
    );
    put(
        "serve.wire.update_frame_bytes",
        frame_bytes as f64 / batches,
        "B",
    );
    put(
        "serve.wire.read_encode_us",
        tr.median("serve.wire.read_encode", 1e3),
        "us",
    );

    // The same stream again through EngineHost::handle — the daemon's
    // dispatch without its sockets — from a fresh seed.
    let registry = Registry::new();
    let recovered = recover(
        &StoreConfig::new(untraced.work.fresh("host")?),
        base,
        Some(&untraced.graph),
        online_config(&registry),
        None,
    )
    .map_err(err)?;
    let mut host = EngineHost::new(recovered.engine, Some(recovered.store), registry);
    let cell = host.view_handle();
    let mut view_load_ns = Vec::new();
    for (b, batch) in inputs.stream.iter().enumerate() {
        let req = HOST_REQUESTS + b as u64;
        let request = Request::Update {
            updates: batch.clone(),
            batch: 0,
        };
        let answer = tr.time("serve.host.update", req, || host.handle(&request));
        ops.count(answer).map_err(err)?;
        if inputs.snapshot_after == Some(b + 1) {
            let answer = tr.time("serve.host.snapshot", req, || {
                host.handle(&Request::Snapshot)
            });
            ops.count(answer).map_err(err)?;
        }
        let target = &inputs.reads[b % inputs.reads.len()];
        let search = Request::Search {
            items: target.query.clone(),
            top: TOP,
        };
        for (name, request) in [
            ("serve.host.search.first_after_publish", &search),
            (
                "serve.host.neighbors",
                &Request::Neighbors { user: target.user },
            ),
            (
                "serve.host.recommend",
                &Request::Recommend {
                    user: target.user,
                    top: TOP,
                },
            ),
            ("serve.host.search", &search),
        ] {
            let answer = tr.time(name, req, || host.handle(request));
            ops.count(answer).map_err(err)?;
        }
        let started = Instant::now();
        for _ in 0..VIEW_LOADS {
            std::hint::black_box(cell.load());
        }
        view_load_ns.push(started.elapsed().as_nanos() as f64 / f64::from(VIEW_LOADS));
    }
    checks.check(
        same_view(&cell.load().view, &untraced.last_view)
            .map_err(|e| format!("EngineHost replay vs the daemon's last view: {e}")),
    );
    drop(host);
    let host_update_ms = tr.median("serve.host.update", 1e6);
    let host_neighbors_us = tr.median("serve.host.neighbors", 1e3);
    put("parallel.view_load_ns", median(&view_load_ns), "ns");
    put("serve.host.update_ms", host_update_ms, "ms");
    put("serve.host.neighbors_us", host_neighbors_us, "us");
    put(
        "serve.host.recommend_us",
        tr.median("serve.host.recommend", 1e3),
        "us",
    );
    put(
        "serve.host.search_us",
        tr.median("serve.host.search", 1e3),
        "us",
    );
    put(
        "serve.transport_update_ms",
        untraced.update_p50_ms - host_update_ms,
        "ms",
    );
    put(
        "serve.transport_read_us",
        untraced.neighbors_p50_us - host_neighbors_us,
        "us",
    );
    put("apps.recommend_us", tr.median("apps.recommend", 1e3), "us");
    put("apps.search_us", tr.median("apps.search", 1e3), "us");
    put("apps.search_visited", visited as f64 / batches, "count");

    notes.extend(reconcile(&tr, untraced));
    notes.push(format!(
        "span summary (name: count, p50 us, total ms, self ms), {} spans:",
        tr.spans().len()
    ));
    for (name, count, p50, total, own) in tr.summary() {
        notes.push(format!(
            "  {name}: {count}, {:.1}, {:.1}, {:.1}",
            p50 / 1e3,
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    tr.write(out)?;
    notes.push(format!("spans written to {}", out.display()));
    Ok(Traced {
        metrics,
        notes,
        ops,
        checks,
    })
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// How the traced stage medians add up against the untraced TCP
/// medians, and the daemon's own exported means beside the traced ones.
fn reconcile(tr: &Tracer, untraced: &Untraced) -> Vec<String> {
    let ms = |name| tr.median(name, 1e6);
    let stages = [
        "serve.wire.update_encode",
        "serve.wire.update_decode",
        "serve.store.append",
        "online.apply_batch",
        "graph.snapshot",
        "dataset.materialize",
        "serve.wire.ack_encode",
    ];
    let sum: f64 = stages.iter().map(|s| ms(s)).sum();
    let parts: Vec<String> = stages.iter().map(|s| format!("{s} {:.3}", ms(s))).collect();
    let host = ms("serve.host.update");
    let tcp = untraced.update_p50_ms;
    let us = |name| tr.median(name, 1e3);
    let metrics = &untraced.daemon_metrics;
    let (_, apply_ns) = exported(metrics, "online.apply_ns");
    let (_, update_ns) = exported(metrics, "serve.request_ns.update");
    let (_, neighbors_ns) = exported(metrics, "serve.request_ns.neighbors");
    let mean = |name| {
        let v = tr.durations(name, 1e6);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    vec![
        format!(
            "update p50s: TCP ack {tcp:.3} ms | EngineHost::handle {host:.3} ms | transport {:.3} ms",
            tcp - host
        ),
        format!(
            "update stage p50s: {} = {sum:.3} ms; serve.update root p50 {:.3} ms; TCP ack minus stages {:.3} ms",
            parts.join(" + "),
            ms("serve.update"),
            tcp - sum
        ),
        format!(
            "read p50s: neighbors TCP {:.1} us vs host {:.1} us; recommend TCP {:.1} vs host {:.1} vs apps {:.1} us; search host {:.1} vs apps {:.1} us; read encode {:.1} us",
            untraced.neighbors_p50_us,
            us("serve.host.neighbors"),
            untraced
                .metrics
                .iter()
                .find(|m| m.name == "recommend_p50_us")
                .map_or(0.0, |m| m.value),
            us("serve.host.recommend"),
            us("apps.recommend"),
            us("serve.host.search"),
            us("apps.search"),
            us("serve.wire.read_encode")
        ),
        format!(
            "cross-check, means: daemon online.apply_ns {:.3} ms vs traced apply_batch {:.3} ms; daemon serve.request_ns.update {:.3} ms vs traced serve.update {:.3} ms; daemon serve.request_ns.neighbors {:.1} us",
            apply_ns / 1e6,
            mean("online.apply_batch"),
            update_ns / 1e6,
            mean("serve.update"),
            neighbors_ns / 1e3
        ),
    ]
}
