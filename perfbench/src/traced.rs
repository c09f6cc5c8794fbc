//! The traced run: one extra run per workload, kept apart from the
//! measured runs, that gives the per-layer numbers.
//!
//! It sets up exactly as the workload does, serves a fixed request
//! sequence through the untraced engine (timing each call), then replays
//! the same sequence single-threaded through the layers twice: spans off,
//! then spans on. Every replayed answer must equal the engine's; the
//! layers' self times must cover at least [`COVERAGE_FLOOR`] of the
//! engine's time on the kiosk and the one-worker batch; the two replay
//! passes give the tracing overhead.

use crate::check::Validator;
use crate::replay::{Counters, Models, Replay, ROOT_SPAN};
use crate::report::{Metric, Outcome};
use crate::setup::{self, Stages, WorkDir};
use crate::trace::{self_times, Recorder};
use crate::workloads::{
    self, assert_accelerated, kiosk_config, permutation, SetupTimes, Workload, ZipfStream,
    BATCH_CHUNK, GENRE_CAP, K,
};
use rm_dataset::ids::UserIdx;
use rm_dataset::interactions::Interactions;
use rm_eval::harness::Harness;
use rm_serve::{ArtifactRegistry, EngineConfig, ServingEngine};
use rm_util::rng::derive_seed_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// Kiosk requests replayed after the warm-up.
pub const TRACE_REQUESTS: usize = 50_000;
/// Batch users replayed (in `BATCH_CHUNK` calls).
pub const TRACE_BATCH_USERS: usize = 8_192;
/// Least share of the engine's time the layers must account for.
pub const COVERAGE_FLOOR: f64 = 0.9;

/// Users per block (at least) when engine and replays take turns.
const BLOCK_USERS: usize = 512;

/// What the engine answered for each request, and how long each took.
struct EnginePass {
    answers: Vec<Vec<Vec<u32>>>,
    ns: Vec<u64>,
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What one replay answered, what it counted and how long it took.
struct ReplayPass {
    answers: Vec<Vec<Vec<u32>>>,
    total_ns: u64,
    missed: Vec<bool>,
    counters: Counters,
    recorder: Recorder,
    rank_row_bytes: u64,
}

/// Serves `requests` (each a chunk of users, one engine call) through the
/// engine, the untraced replay and the traced replay, taking turns in
/// blocks of about [`BLOCK_USERS`] users so that a drift in machine speed falls on
/// all three alike. Each replay first replays `warmup` so that its cache
/// mirrors the engine's.
fn run_interleaved(
    engine: &ServingEngine,
    models: &Models,
    train: &Interactions,
    config: &EngineConfig,
    warmup: &[UserIdx],
    requests: &[Vec<UserIdx>],
) -> (EnginePass, ReplayPass, ReplayPass) {
    let mut pass = EnginePass {
        answers: Vec::with_capacity(requests.len()),
        ns: Vec::with_capacity(requests.len()),
    };
    let mut replays = [false, true].map(|traced| {
        let mut replay = Replay::new(models, train, config, K);
        let mut off = Recorder::new(false);
        for &u in warmup {
            replay.serve(&[u], &mut off, 0);
        }
        replay.reset_counters();
        let pass = ReplayPass {
            answers: Vec::with_capacity(requests.len()),
            total_ns: 0,
            missed: Vec::with_capacity(requests.len()),
            counters: Counters::default(),
            recorder: Recorder::new(traced),
            rank_row_bytes: replay.rank_row_bytes(),
        };
        (replay, pass)
    });
    let per_block = BLOCK_USERS.div_ceil(requests.first().map_or(1, Vec::len).max(1));
    for (b, block) in requests.chunks(per_block).enumerate() {
        for users in block {
            let t0 = Instant::now();
            let answers = if users.len() == 1 {
                vec![engine.recommend(users[0], K)]
            } else {
                engine.recommend_batch(users, K)
            };
            pass.ns.push(elapsed_ns(t0));
            pass.answers.push(answers);
        }
        for (replay, rp) in &mut replays {
            let t0 = Instant::now();
            for (i, users) in block.iter().enumerate() {
                let before = replay.counters.misses;
                let r = (b * per_block + i) as u64;
                rp.answers.push(replay.serve(users, &mut rp.recorder, r));
                rp.missed.push(replay.counters.misses > before);
            }
            rp.total_ns += elapsed_ns(t0);
        }
    }
    let [(off_replay, mut off), (on_replay, mut on)] = replays;
    off.counters = off_replay.counters;
    on.counters = on_replay.counters;
    (pass, off, on)
}

/// Per-layer numbers of a traced replay against the engine's pass.
struct LayerReport {
    metrics: Vec<Metric>,
    extra: Vec<(String, f64)>,
    coverage: f64,
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

fn layer_report(engine: &EnginePass, on: &ReplayPass, off: &ReplayPass) -> LayerReport {
    let spans = on.recorder.spans();
    let self_ns = self_times(spans);
    // Self time per layer (all requests), and layer time on missed requests.
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut layers_on_misses = 0.0f64;
    for (span, &ns) in spans.iter().zip(&self_ns) {
        if span.name == ROOT_SPAN {
            continue;
        }
        *by_name.entry(span.name).or_default() += ns as f64;
        if on.missed[span.request as usize] {
            layers_on_misses += ns as f64;
        }
    }
    let engine_on_misses: f64 = engine
        .ns
        .iter()
        .zip(&on.missed)
        .filter(|(_, &m)| m)
        .map(|(&ns, _)| ns as f64)
        .sum();
    let c = &on.counters;
    let busy = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let coverage = if engine_on_misses > 0.0 {
        layers_on_misses / engine_on_misses
    } else {
        0.0
    };
    let emitted = |name: &str| {
        c.emitted
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, e)| *e)
    };
    let m = |name: &'static str, unit: &'static str, value: f64| Metric::single(name, unit, value);
    let metrics = vec![
        m("serve.cache.get_calls", "count", c.cache_gets as f64),
        m(
            "serve.cache.hit_ratio",
            "ratio",
            per(c.cache_hits as f64, c.cache_gets),
        ),
        m(
            "serve.cache.busy_ns_per_request",
            "ns",
            per(busy("serve.cache.get"), c.cache_gets),
        ),
        m("serve.cache.insert_calls", "count", c.cache_inserts as f64),
        m(
            "serve.cache.insert_busy_ns",
            "ns",
            per(busy("serve.cache.insert"), c.cache_inserts),
        ),
        m("serve.pipeline.sources.cf.users", "count", c.misses as f64),
        m(
            "serve.pipeline.sources.cf.candidates_per_user",
            "count",
            per(emitted("serve.pipeline.sources.cf") as f64, c.misses),
        ),
        m(
            "serve.pipeline.sources.cf.busy_us_per_user",
            "us",
            per(busy("serve.pipeline.sources.cf"), c.misses) / 1e3,
        ),
        m(
            "serve.pipeline.merge.candidates_in_per_user",
            "count",
            per(c.merge_in as f64, c.misses),
        ),
        m(
            "serve.pipeline.merge.pool_per_user",
            "count",
            per(c.pool as f64, c.misses),
        ),
        m(
            "serve.pipeline.merge.busy_us_per_user",
            "us",
            per(busy("serve.pipeline.merge"), c.misses) / 1e3,
        ),
        m(
            "serve.pipeline.rank.scored_per_user",
            "count",
            per(c.scored as f64, c.misses),
        ),
        m(
            "serve.pipeline.rank.bytes_scored_per_user",
            "bytes",
            per((c.scored * on.rank_row_bytes) as f64, c.misses),
        ),
        m(
            "serve.pipeline.rank.busy_us_per_user",
            "us",
            per(busy("serve.pipeline.rank"), c.misses) / 1e3,
        ),
        m(
            "serve.engine.residual_us_per_miss",
            "us",
            per(engine_on_misses - layers_on_misses, c.misses) / 1e3,
        ),
        m("serve.engine.layer_coverage", "ratio", coverage),
        m(
            "serve.engine.fallback_share",
            "ratio",
            per(c.fallbacks as f64, c.misses),
        ),
        m(
            "trace.overhead_share",
            "ratio",
            (on.total_ns as f64 - off.total_ns as f64) / off.total_ns as f64,
        ),
    ];
    let mut extra = Vec::new();
    for (name, _) in &c.emitted {
        if *name == "serve.pipeline.sources.cf" {
            continue;
        }
        extra.push((format!("{name}.users"), c.misses as f64));
        extra.push((
            format!("{name}.candidates_per_user"),
            per(emitted(name) as f64, c.misses),
        ));
        extra.push((
            format!("{name}.busy_us_per_user"),
            per(busy(name), c.misses) / 1e3,
        ));
    }
    for (name, before, kept) in &c.filtered {
        extra.push((
            format!("{name}.dropped_share"),
            per((before - kept) as f64, *before),
        ));
        extra.push((
            format!("{name}.busy_us_per_user"),
            per(busy(name), c.misses) / 1e3,
        ));
    }
    extra.push((
        "serve.pipeline.fallback.busy_us_per_user".into(),
        per(busy("serve.pipeline.fallback"), c.misses) / 1e3,
    ));
    extra.push(("trace.spans".into(), spans.len() as f64));
    extra.push((
        "trace.replay_glue_us_per_request".into(),
        per(
            spans
                .iter()
                .zip(&self_ns)
                .filter(|(s, _)| s.name == ROOT_SPAN)
                .map(|(_, &ns)| ns as f64)
                .sum(),
            engine.ns.len() as u64,
        ) / 1e3,
    ));
    extra.push((
        "serve.engine.us_per_miss".into(),
        per(engine_on_misses, c.misses) / 1e3,
    ));
    LayerReport {
        metrics,
        extra,
        coverage,
    }
}

/// Checks every replayed answer (both passes) against the engine's, and
/// the engine's answers against the contract.
fn compare(
    out: &mut Outcome,
    engine: &EnginePass,
    passes: [&ReplayPass; 2],
    requests: &[Vec<UserIdx>],
    train: &Interactions,
    v: &Validator<'_>,
) {
    for (r, users) in requests.iter().enumerate() {
        for (j, &u) in users.iter().enumerate() {
            out.attempted += 1;
            let expected = &engine.answers[r][j];
            if passes.iter().any(|p| p.answers[r][j] != *expected) {
                out.failed += 1;
                out.fault(format!(
                    "request {r}, user {}: replay differs from the engine",
                    u.0
                ));
            } else if let Err(fault) = v.check(train.seen(u), expected) {
                out.bad_answer(1, format!("request {r}, user {}", u.0), fault);
            }
        }
    }
}

/// Offline per-layer metrics: stage medians, with the derived rates.
fn offline_metrics(
    stages: &SetupTimes,
    interactions: usize,
    payload: usize,
    bytes: u64,
) -> Vec<Metric> {
    let mut metrics = stages.stage_metrics();
    let fit = metrics
        .iter()
        .find(|m| m.name == "core.bpr.fit_s")
        .map_or(f64::NAN, |m| m.value);
    metrics.push(Metric::single(
        "core.bpr.interactions_per_s",
        "1/s",
        interactions as f64 * rm_core::bpr::BprConfig::default().epochs as f64 / fit,
    ));
    metrics.push(Metric::single(
        "core.quant.payload_bytes",
        "bytes",
        payload as f64,
    ));
    metrics.push(Metric::single(
        "serve.registry.bytes",
        "bytes",
        bytes as f64,
    ));
    metrics
}

/// Writes the spans to `perfbench/out/trace-<workload>-seed<seed>.jsonl`.
fn write_spans(workload: Workload, seed: u64, recorder: &Recorder) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        recorder.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)
    });
    if let Err(e) = written {
        eprintln!("spans not written to {}: {e}", path.display());
    }
}

/// Runs engine and replay over `requests`, filling `out`.
#[allow(clippy::too_many_arguments)]
fn trace_requests(
    out: &mut Outcome,
    engine: &ServingEngine,
    registry: &ArtifactRegistry,
    h: &Harness,
    config: &EngineConfig,
    warmup: &[UserIdx],
    requests: &[Vec<UserIdx>],
    v: &Validator<'_>,
) -> (LayerReport, Recorder, u64) {
    let models = Models::load(registry, &h.split.train, config);
    let (pass, off, on) =
        run_interleaved(engine, &models, &h.split.train, config, warmup, requests);
    compare(out, &pass, [&off, &on], requests, &h.split.train, v);
    let mut report = layer_report(&pass, &on, &off);
    report.metrics.push(Metric::single(
        "serve.cache.bytes",
        "bytes",
        engine.cache_bytes_estimate() as f64,
    ));
    (report, on.recorder, pass.ns.iter().sum())
}

pub fn traced(workload: Workload, seed: u64) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let work = WorkDir::create(&format!("{}-traced", workload.name()));
    let (report, recorder, offline, gate) = match workload {
        Workload::ServeZipf | Workload::BatchHetero => {
            let (s, times) = workloads::set_up_serving(workload, seed, &work, |_| {});
            let genres = s.config.pipeline.book_genres.clone();
            let v = Validator {
                n_books: s.h.split.n_books(),
                k: K,
                genre_cap: genres.as_deref().map(|g| (GENRE_CAP, g)),
            };
            let offline = offline_metrics(
                &times,
                s.trained.interactions,
                s.trained.quant_payload_bytes,
                s.artifact_bytes,
            );
            let (report, recorder) = if workload == Workload::ServeZipf {
                let mut stream = ZipfStream::new(seed, s.engine.n_users());
                stream.skip(s.warmup.len());
                let requests: Vec<Vec<UserIdx>> = (0..TRACE_REQUESTS)
                    .map(|_| vec![stream.next_user()])
                    .collect();
                let (report, recorder, _) = trace_requests(
                    &mut out,
                    &s.engine,
                    &s.registry,
                    &s.h,
                    &s.config,
                    &s.warmup,
                    &requests,
                    &v,
                );
                (report, recorder)
            } else {
                let order = permutation(s.engine.n_users(), derive_seed_str(seed, "batch-order"));
                let requests: Vec<Vec<UserIdx>> = order[..TRACE_BATCH_USERS.min(order.len())]
                    .chunks(BATCH_CHUNK)
                    .map(|c| c.iter().copied().map(UserIdx).collect())
                    .collect();
                // The parallel engine first, as the workload runs it.
                let t0 = Instant::now();
                for users in &requests {
                    std::hint::black_box(s.engine.recommend_batch(users, K));
                }
                let parallel = TRACE_BATCH_USERS as f64 / t0.elapsed().as_secs_f64();
                let x1_config = EngineConfig {
                    workers: 1,
                    ..s.config.clone()
                };
                let x1 = ServingEngine::load(&s.registry, &s.h.split.train, x1_config.clone())
                    .expect("one-worker engine loads");
                let (report, recorder, x1_ns) = trace_requests(
                    &mut out,
                    &x1,
                    &s.registry,
                    &s.h,
                    &x1_config,
                    &[],
                    &requests,
                    &v,
                );
                let x1_rate = TRACE_BATCH_USERS as f64 / (x1_ns as f64 * 1e-9);
                out.extra("serve.engine.batch_x1_users_per_s", x1_rate);
                out.extra("serve.engine.batch_users_per_s", parallel);
                out.extra(
                    "serve.engine.parallel_efficiency",
                    parallel / (crate::env::nproc() as f64 * x1_rate),
                );
                (report, recorder)
            };
            (report, recorder, offline, true)
        }
        Workload::TrainPaper => {
            let (h, times) = workloads::set_up_training(seed);
            let mut stages = Stages::default();
            let trained = setup::train(&h, &mut stages);
            let (registry, bytes) =
                setup::save(&trained, &work.join("registry"), true, &mut stages);
            let config = kiosk_config();
            let engine = setup::load(&registry, &h, config.clone(), &mut stages);
            assert_accelerated(&engine, false);
            // Offline stages: datagen and split over the set-ups, the
            // rest from one retrain.
            let cycle = SetupTimes {
                stages: vec![stages],
                ..SetupTimes::default()
            };
            let mut offline = offline_metrics(
                &cycle,
                trained.interactions,
                trained.quant_payload_bytes,
                bytes,
            );
            offline.extend(times.stage_metrics());
            let v = Validator {
                n_books: h.split.n_books(),
                k: K,
                genre_cap: None,
            };
            let requests: Vec<Vec<UserIdx>> =
                h.split.test_users().into_iter().map(|u| vec![u]).collect();
            let (report, recorder, _) = trace_requests(
                &mut out,
                &engine,
                &registry,
                &h,
                &config,
                &[],
                &requests,
                &v,
            );
            (report, recorder, offline, false)
        }
    };
    if gate && report.coverage < COVERAGE_FLOOR {
        out.fault(format!(
            "layer coverage {:.3} below {COVERAGE_FLOOR}",
            report.coverage
        ));
    }
    write_spans(workload, seed, &recorder);
    out.metrics = report.metrics;
    out.metrics.extend(offline);
    out.extra.extend(report.extra);
    out
}
