//! The traced replay: the engine's request path re-run layer by layer
//! through each layer's public functions, with a span around every call.
//!
//! This is the only module that calls stage-level APIs (`LruCache`,
//! the candidate sources' `emit_batch`, `merge_into`, the filters'
//! `retain`, `rank_pool_into`); the end-to-end workloads drive
//! `ServingEngine` alone. The replay builds its layers from the same
//! artifact registry and `EngineConfig` the engine was loaded with, so its
//! answers must equal the engine's, and the traced run checks that they
//! do.

use crate::trace::{Recorder, SpanId};
use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::QuantArtifact;
use rm_core::random::RandomItems;
use rm_core::Recommender;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_embed::AnnArtifact;
use rm_serve::pipeline::{
    merge_into, rank_pool_into, AnnCfNeighboursSource, AnnContentSimilarSource, Candidate,
    CandidateSource, FilterCtx, MostReadSource,
};
use rm_serve::{ArtifactRegistry, EngineConfig, LruCache, ModelSlot};
use rm_util::TopK;

/// The engine's cache key: `(user, k, model_epoch)`.
type CacheKey = (u32, usize, u64);

/// The models of one registry, installed the way `ServingEngine::load`
/// installs them.
pub struct Models {
    bpr: Bpr,
    closest: ClosestItems,
    most_read: MostReadItems,
    random: RandomItems,
    ann: AnnArtifact,
    quant: QuantArtifact,
    epoch: u64,
}

impl Models {
    /// Loads every artifact of an accelerated (IVF + quantized) registry.
    pub fn load(registry: &ArtifactRegistry, train: &Interactions, config: &EngineConfig) -> Self {
        let loaded = registry.load().expect("artifact registry is readable");
        let mut bpr = Bpr::new(BprConfig::default());
        bpr.install(loaded.bpr.expect("BPR artifact loads"), train);
        let mut closest = ClosestItems::from_store(
            loaded.embeddings.expect("embeddings artifact loads"),
            loaded.manifest.fields,
        );
        closest.fit(train);
        let mut most_read = loaded.most_read.expect("most-read artifact loads");
        most_read.install(train);
        let mut random = RandomItems::new(config.random_seed);
        random.fit(train);
        Self {
            bpr,
            closest,
            most_read,
            random,
            ann: loaded.ann.expect("ANN artifact loads"),
            quant: loaded.quant.expect("quantized artifact loads"),
            epoch: loaded.manifest.epoch,
        }
    }

    fn model(&self, slot: ModelSlot) -> &dyn Recommender {
        match slot {
            ModelSlot::Bpr => &self.bpr,
            ModelSlot::ClosestItems => &self.closest,
            ModelSlot::MostRead => &self.most_read,
            ModelSlot::Random => &self.random,
        }
    }
}

/// Span name of each source, keyed by its slot.
fn source_span(slot: ModelSlot) -> &'static str {
    match slot {
        ModelSlot::Bpr => "serve.pipeline.sources.cf",
        ModelSlot::ClosestItems => "serve.pipeline.sources.content",
        ModelSlot::MostRead => "serve.pipeline.sources.most_read",
        ModelSlot::Random => "serve.pipeline.sources.random",
    }
}

/// Span name of each filter, keyed by its `name()`.
fn filter_span(name: &str) -> &'static str {
    match name {
        "already-borrowed" => "serve.pipeline.filters.already_borrowed",
        "diversity-cap" => "serve.pipeline.filters.diversity_cap",
        "genre" => "serve.pipeline.filters.genre",
        _ => "serve.pipeline.filters.other",
    }
}

pub const ROOT_SPAN: &str = "serve.request";

/// Work counts gathered at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub cache_gets: u64,
    pub cache_hits: u64,
    pub cache_inserts: u64,
    /// Requests (users) that missed the cache and ran the pipeline.
    pub misses: u64,
    /// Candidates emitted, per source span name.
    pub emitted: Vec<(&'static str, u64)>,
    pub merge_in: u64,
    pub pool: u64,
    /// `(filter span name, candidates in, candidates kept)`.
    pub filtered: Vec<(&'static str, u64, u64)>,
    pub scored: u64,
    pub fallbacks: u64,
}

/// One engine configuration's layers, with the engine's cache mirrored.
pub struct Replay<'m> {
    models: &'m Models,
    train: &'m Interactions,
    config: &'m EngineConfig,
    sources: Vec<(&'static str, Box<dyn CandidateSource + 'm>)>,
    source_slots: Vec<ModelSlot>,
    cache: LruCache<CacheKey, Vec<u32>>,
    k: usize,
    pool_size: usize,
    emitted: Vec<Vec<Vec<Candidate>>>,
    pool: Vec<Candidate>,
    top: TopK,
    ranked: Vec<u32>,
    pub counters: Counters,
}

impl<'m> Replay<'m> {
    /// The layers `config` installs over `models`, with an empty cache.
    pub fn new(
        models: &'m Models,
        train: &'m Interactions,
        config: &'m EngineConfig,
        k: usize,
    ) -> Self {
        let source_slots: Vec<ModelSlot> = match &config.pipeline.sources {
            Some(slots) => slots.clone(),
            None => config.chain.first().copied().into_iter().collect(),
        };
        let nprobe = config.pipeline.ann_nprobe;
        let sources = source_slots
            .iter()
            .map(|&slot| {
                let source: Box<dyn CandidateSource + 'm> = match slot {
                    ModelSlot::Bpr => {
                        let (qu, qi) = (
                            models.quant.user_factors().expect("quantized user factors"),
                            models.quant.item_factors().expect("quantized item factors"),
                        );
                        let index = models.ann.cf.as_ref().expect("CF IVF index");
                        Box::new(
                            AnnCfNeighboursSource::new(&models.bpr, train, index, nprobe)
                                .with_quant(qu, qi),
                        )
                    }
                    ModelSlot::ClosestItems => {
                        let qe = models.quant.embeddings().expect("quantized embeddings");
                        let index = models.ann.content.as_ref().expect("content IVF index");
                        Box::new(
                            AnnContentSimilarSource::new(&models.closest, train, index, nprobe)
                                .with_quant(qe),
                        )
                    }
                    ModelSlot::MostRead => Box::new(MostReadSource::new(&models.most_read)),
                    ModelSlot::Random => panic!("the replay installs no random source"),
                };
                (source_span(slot), source)
            })
            .collect::<Vec<_>>();
        let counters = Counters {
            emitted: sources.iter().map(|(name, _)| (*name, 0)).collect(),
            filtered: config
                .pipeline
                .filters
                .iter()
                .map(|f| (filter_span(f.name()), 0, 0))
                .collect(),
            ..Counters::default()
        };
        Self {
            models,
            train,
            config,
            emitted: vec![Vec::new(); sources.len()],
            sources,
            source_slots,
            cache: LruCache::new(config.cache_capacity),
            k,
            pool_size: config.pipeline.pool_size.max(k),
            pool: Vec::new(),
            top: TopK::new(1),
            ranked: Vec::new(),
            counters,
        }
    }

    /// Zeroes the counters (after a warm-up that should not count).
    pub fn reset_counters(&mut self) {
        let c = &mut self.counters;
        *c = Counters {
            emitted: c.emitted.iter().map(|(name, _)| (*name, 0)).collect(),
            filtered: c
                .filtered
                .iter()
                .map(|(name, _, _)| (*name, 0, 0))
                .collect(),
            ..Counters::default()
        };
    }

    /// Bytes one rank-stage score reads: one quantized item row (codes
    /// plus its f32 scale), from the row width, not a measurement.
    pub fn rank_row_bytes(&self) -> u64 {
        let qi = self
            .models
            .quant
            .item_factors()
            .expect("quantized item factors");
        (qi.cols() * qi.mode().elem_bytes() + std::mem::size_of::<f32>()) as u64
    }

    /// Serves one request (a chunk of users, as one engine call) through
    /// the layers, recording a span per layer call under one root span.
    pub fn serve(&mut self, users: &[UserIdx], rec: &mut Recorder, request: u64) -> Vec<Vec<u32>> {
        let root = rec.begin(ROOT_SPAN, None, request);
        let (k, epoch) = (self.k, self.models.epoch);
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); users.len()];
        let mut misses: Vec<usize> = Vec::with_capacity(users.len());
        for (i, &u) in users.iter().enumerate() {
            let cache = &mut self.cache;
            let hit = rec.span("serve.cache.get", Some(root), request, || {
                cache.get(&(u.0, k, epoch)).cloned()
            });
            self.counters.cache_gets += 1;
            match hit {
                Some(books) => {
                    self.counters.cache_hits += 1;
                    out[i] = books;
                }
                None => misses.push(i),
            }
        }
        if !misses.is_empty() {
            self.run_pipeline(users, &misses, &mut out, rec, root, request);
            for &i in &misses {
                if !out[i].is_empty() {
                    let (cache, books) = (&mut self.cache, out[i].clone());
                    let key = (users[i].0, k, epoch);
                    rec.span("serve.cache.insert", Some(root), request, || {
                        cache.insert(key, books);
                    });
                    self.counters.cache_inserts += 1;
                }
            }
        }
        rec.end(root);
        out
    }

    fn run_pipeline(
        &mut self,
        users: &[UserIdx],
        misses: &[usize],
        out: &mut [Vec<u32>],
        rec: &mut Recorder,
        root: SpanId,
        request: u64,
    ) {
        self.counters.misses += misses.len() as u64;
        let miss_users: Vec<UserIdx> = misses.iter().map(|&i| users[i]).collect();
        for (s, (name, source)) in self.sources.iter().enumerate() {
            let emitted = &mut self.emitted[s];
            rec.span(name, Some(root), request, || {
                source.emit_batch(&miss_users, self.pool_size, emitted);
            });
            self.counters.emitted[s].1 += emitted.iter().map(|c| c.len() as u64).sum::<u64>();
        }
        let genres = self.config.pipeline.book_genres.as_deref();
        let quant_cf = match self.source_slots[0] {
            ModelSlot::Bpr => Some((
                self.models
                    .quant
                    .user_factors()
                    .expect("quantized user factors"),
                self.models
                    .quant
                    .item_factors()
                    .expect("quantized item factors"),
            )),
            _ => None,
        };
        for (j, &i) in misses.iter().enumerate() {
            let user = users[i];
            let (emitted, pool) = (&self.emitted, &mut self.pool);
            rec.span("serve.pipeline.merge", Some(root), request, || {
                merge_into(emitted.iter().map(|per_user| per_user[j].as_slice()), pool);
            });
            self.counters.merge_in += emitted.iter().map(|e| e[j].len() as u64).sum::<u64>();
            self.counters.pool += self.pool.len() as u64;
            let ctx = FilterCtx {
                user,
                seen: self.train.seen(user),
                genres,
            };
            for (f, filter) in self.config.pipeline.filters.iter().enumerate() {
                let before = self.pool.len() as u64;
                let pool = &mut self.pool;
                rec.span(self.counters.filtered[f].0, Some(root), request, || {
                    filter.retain(&ctx, pool);
                });
                self.counters.filtered[f].1 += before;
                self.counters.filtered[f].2 += self.pool.len() as u64;
            }
            self.counters.scored += self.pool.len() as u64;
            let (pool, top, ranked) = (&self.pool, &mut self.top, &mut self.ranked);
            rec.span(
                "serve.pipeline.rank",
                Some(root),
                request,
                || match quant_cf {
                    Some((qu, qi)) => {
                        let urow = qu.row(user.index());
                        rank_pool_into(
                            pool,
                            self.k,
                            |b| qi.row(b as usize).dot(&urow),
                            top,
                            ranked,
                        );
                    }
                    None => {
                        let model = self.models.model(self.source_slots[0]);
                        rank_pool_into(
                            pool,
                            self.k,
                            |b| model.score(user, BookIdx(b)),
                            top,
                            ranked,
                        );
                    }
                },
            );
            if self.ranked.is_empty() {
                self.counters.fallbacks += 1;
                out[i] = rec.span("serve.pipeline.fallback", Some(root), request, || {
                    self.fallback(user)
                });
            } else {
                out[i] = std::mem::take(&mut self.ranked);
            }
        }
    }

    /// The engine's degraded chain walk for one user: the chain's slots
    /// that did not run as sources, first non-empty answer wins.
    fn fallback(&self, user: UserIdx) -> Vec<u32> {
        self.config
            .chain
            .iter()
            .filter(|slot| !self.source_slots.contains(slot))
            .map(|&slot| self.models.model(slot).recommend(user, self.k))
            .find(|books| !books.is_empty())
            .unwrap_or_default()
    }
}
