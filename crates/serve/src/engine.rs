//! The online serving engine: artifacts in, ranked book lists out.
//!
//! [`ServingEngine::load`] restores the trained models from an
//! [`ArtifactRegistry`] and answers [`ServingEngine::recommend`] /
//! [`ServingEngine::recommend_batch`] requests through the candidate
//! pipeline (sources → merge → filters → rank, see [`crate::pipeline`]):
//! the configured [`CandidateSource`]s emit provenance-stamped
//! candidate pools, the pools are merged and filtered, and the primary
//! source's model re-scores the survivors down to top-k. Users the
//! pipeline could not serve — every source degraded, breaker-open,
//! panicking, or simply empty-handed — fall to the fallback tiers: each
//! chain slot that did not run as a source (default BPR → Closest Items
//! → Most Read Items → Random Items) gets one call to its exact source
//! at `pool = k`, and the first slot that is healthy **and** emits a
//! non-empty list answers. A slot degrades — without failing the load —
//! when its artifact is missing, truncated, checksum-corrupted, or
//! dimensionally incompatible with the training interactions; a healthy
//! slot still falls through when it has nothing to say (e.g. Closest
//! Items for a reader with no history).
//!
//! Runtime failures degrade the same way instead of taking serving down:
//!
//! * every slot call runs under [`std::panic::catch_unwind`], so a
//!   panicking model degrades the affected requests down the chain;
//! * an optional per-slot budget ([`EngineConfig::slot_budget`]) cuts
//!   off slow slot calls — the answers are discarded, a timeout is
//!   recorded, and the chain advances — while an optional whole-request
//!   budget ([`EngineConfig::request_budget`]) stops calling slots once
//!   a request's [`Deadline`] expires;
//! * each slot carries a [`CircuitBreaker`]: repeated failures (panics,
//!   timeouts, injected errors) open it and the slot is skipped without
//!   being attempted until a cooldown admits a half-open probe;
//! * [`ServingEngine::reload_with_retry`] retries a failed artifact
//!   reload with deterministic, seeded-jitter exponential backoff
//!   ([`Backoff`]) and keeps serving the old epoch until a reload
//!   succeeds.
//!
//! All timing flows through the [`Clock`] in [`EngineConfig::clock`], so
//! tests drive deadlines, cooldowns, and backoff with a fake clock.
//!
//! Results are memoised in a bounded LRU keyed `(user, k, model_epoch)`;
//! the epoch comes from the registry manifest, and
//! [`ServingEngine::reload`] both bumps it and explicitly clears the
//! cache, so a retrain can never serve stale lists. Batch requests are
//! fanned out over a `std::thread::scope` worker pool sharing the same
//! cache and [`ServeMetrics`]; a worker that somehow panics outside the
//! per-slot isolation degrades only its own chunk.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker, Transition};
use crate::cache::LruCache;
use crate::metrics::{ChunkStats, MetricsSnapshot, ServeMetrics};
use crate::overload::{
    DegradationLevel, LevelTransition, OverloadConfig, OverloadGovernor, ShedReason,
};
use crate::pipeline::{
    anchor_book, merge::MergeTable, rank_pool_into, AnnCfNeighboursSource, AnnContentSimilarSource,
    BookGenres, Candidate, CandidateFilter, CandidateSource, CfNeighboursSource,
    ContentSimilarSource, Explanation, FallbackSource, FilterCtx, MostReadSource, PipelineConfig,
    QuantCfNeighboursSource, Reason, SourceId,
};
use crate::registry::{ArtifactRegistry, LoadedArtifacts};
use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::{QuantArtifact, QuantMatrix};
use rm_core::random::RandomItems;
use rm_core::Recommender;
use rm_dataset::ids::{BookIdx, UserIdx};
use rm_dataset::interactions::Interactions;
use rm_sparse::vecops;
use rm_util::clock::{Backoff, Clock, Deadline, MonotonicClock};
use rm_util::trace::Tracer;
use rm_util::{RecError, TopK};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// One link of the fallback chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSlot {
    /// Collaborative filtering (the paper's best model).
    Bpr,
    /// Content-based Closest Items.
    ClosestItems,
    /// Global-popularity Most Read Items.
    MostRead,
    /// Uniform-random terminal fallback.
    Random,
}

impl ModelSlot {
    /// Number of slots (sizes the metrics arrays).
    pub const COUNT: usize = 4;

    /// Every slot, in default chain order.
    pub const ALL: [Self; Self::COUNT] =
        [Self::Bpr, Self::ClosestItems, Self::MostRead, Self::Random];

    /// Dense index for metrics arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Self::Bpr => 0,
            Self::ClosestItems => 1,
            Self::MostRead => 2,
            Self::Random => 3,
        }
    }

    /// Display name, matching the recommenders' [`Recommender::name`].
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Bpr => "BPR",
            Self::ClosestItems => "Closest Items",
            Self::MostRead => "Most Read Items",
            Self::Random => "Random Items",
        }
    }

    /// Snake-case identifier used as the `slot` label in Prometheus
    /// exposition and trace events.
    #[must_use]
    pub fn metric_label(self) -> &'static str {
        match self {
            Self::Bpr => "bpr",
            Self::ClosestItems => "closest_items",
            Self::MostRead => "most_read",
            Self::Random => "random",
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Slots tried in order; the first non-empty answer wins. Slots not
    /// listed are never consulted.
    pub chain: Vec<ModelSlot>,
    /// Worker threads for [`ServingEngine::recommend_batch`].
    pub workers: usize,
    /// LRU entries; `0` disables caching entirely.
    pub cache_capacity: usize,
    /// Seed of the terminal Random Items fallback.
    pub random_seed: u64,
    /// Per-slot-call time budget: a call exceeding it is cut off (its
    /// answers discarded, a timeout recorded, the breaker notified) and
    /// the chain advances. `None` disables the check — and its two
    /// clock reads — entirely.
    pub slot_budget: Option<Duration>,
    /// Whole-request budget: each request carries a [`Deadline`] this
    /// far in the future, and once it expires no further slot is called
    /// (the remaining requests answer empty, counted as deadline skips).
    /// `None` disables the check.
    pub request_budget: Option<Duration>,
    /// Per-slot circuit-breaker configuration; `None` disables breakers.
    pub breaker: Option<BreakerConfig>,
    /// The monotonic clock deadlines, breaker cooldowns, and reload
    /// backoff read. Tests substitute a
    /// [`FakeClock`](rm_util::clock::FakeClock).
    pub clock: Arc<dyn Clock>,
    /// Structured trace sink for per-chunk spans, slot-call outcomes,
    /// breaker transitions, and reloads. Disabled by default — a
    /// disabled tracer costs one branch per call site and allocates
    /// nothing.
    pub tracer: Arc<Tracer>,
    /// Candidate-pipeline configuration (sources, pool size, filters,
    /// genre lookup). The default derives a single source from the
    /// chain's head, which reproduces that model's top-k bit-for-bit.
    pub pipeline: PipelineConfig,
    /// Overload control: admission queue, CoDel shedding, and the
    /// brownout degradation ladder. `None` (the default) disables all
    /// of it — the engine serves every request at full service, exactly
    /// as before overload control existed.
    pub overload: Option<OverloadConfig>,
}

impl EngineConfig {
    /// A builder with typed defaults and validation — the preferred way
    /// to construct a config (struct literals keep working for
    /// backwards compatibility, but skip validation).
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            chain: ModelSlot::ALL.to_vec(),
            workers: 4,
            cache_capacity: 4096,
            random_seed: 42,
            slot_budget: None,
            request_budget: None,
            breaker: Some(BreakerConfig::default()),
            clock: Arc::new(MonotonicClock::new()),
            tracer: Arc::new(Tracer::disabled()),
            pipeline: PipelineConfig::default(),
            overload: None,
        }
    }
}

/// Builder for [`EngineConfig`]: every setter consumes and returns the
/// builder, and [`EngineConfigBuilder::build`] validates the result
/// ([`RecError::Config`] on a nonsensical combination) so an invalid
/// config is caught at construction instead of deep inside serving.
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until build() is called"]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the fallback chain (slots tried in order on the degraded
    /// path; the head also seeds the default pipeline source).
    pub fn chain(mut self, chain: Vec<ModelSlot>) -> Self {
        self.config.chain = chain;
        self
    }

    /// Sets the worker-thread count for batch serving.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the LRU capacity; `0` disables caching entirely.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Seeds the terminal Random Items fallback.
    pub fn random_seed(mut self, seed: u64) -> Self {
        self.config.random_seed = seed;
        self
    }

    /// Enables the per-slot-call time budget.
    pub fn slot_budget(mut self, budget: Duration) -> Self {
        self.config.slot_budget = Some(budget);
        self
    }

    /// Enables the whole-request deadline budget.
    pub fn request_budget(mut self, budget: Duration) -> Self {
        self.config.request_budget = Some(budget);
        self
    }

    /// Sets the per-slot circuit-breaker configuration.
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.config.breaker = Some(breaker);
        self
    }

    /// Disables circuit breakers entirely.
    pub fn no_breaker(mut self) -> Self {
        self.config.breaker = None;
        self
    }

    /// Substitutes the engine clock (tests pass a fake).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.config.clock = clock;
        self
    }

    /// Installs a trace sink.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.config.tracer = tracer;
        self
    }

    /// Sets the explicit pipeline source slots (priority order).
    pub fn pipeline_sources(mut self, sources: Vec<ModelSlot>) -> Self {
        self.config.pipeline.sources = Some(sources);
        self
    }

    /// Sets the per-source candidate pool size.
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.config.pipeline.pool_size = pool_size;
        self
    }

    /// Appends one candidate filter (applied in push order).
    pub fn filter(mut self, filter: Arc<dyn CandidateFilter>) -> Self {
        self.config.pipeline.filters.push(filter);
        self
    }

    /// Replaces the whole filter list.
    pub fn filters(mut self, filters: Vec<Arc<dyn CandidateFilter>>) -> Self {
        self.config.pipeline.filters = filters;
        self
    }

    /// Supplies the catalogue genre lookup for genre-aware filters.
    pub fn book_genres(mut self, genres: Arc<BookGenres>) -> Self {
        self.config.pipeline.book_genres = Some(genres);
        self
    }

    /// Sets the posting lists probed per ANN-accelerated source call
    /// (only consulted when the registry carries a valid ANN artifact).
    pub fn ann_nprobe(mut self, nprobe: usize) -> Self {
        self.config.pipeline.ann_nprobe = nprobe;
        self
    }

    /// Enables overload control (admission queue, CoDel shedding, the
    /// brownout ladder) with the given tuning.
    pub fn overload(mut self, overload: OverloadConfig) -> Self {
        self.config.overload = Some(overload);
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// [`RecError::Config`] when `workers == 0`, the chain is empty,
    /// `pool_size == 0`, or an explicit source list is empty.
    pub fn build(self) -> Result<EngineConfig, RecError> {
        let config = self.config;
        if config.workers == 0 {
            return Err(RecError::Config("workers must be >= 1".into()));
        }
        if config.chain.is_empty() {
            return Err(RecError::Config(
                "fallback chain must name at least one slot".into(),
            ));
        }
        if config.pipeline.pool_size == 0 {
            return Err(RecError::Config("pipeline pool_size must be >= 1".into()));
        }
        if config.pipeline.ann_nprobe == 0 {
            return Err(RecError::Config("pipeline ann_nprobe must be >= 1".into()));
        }
        if let Some(sources) = &config.pipeline.sources {
            if sources.is_empty() {
                return Err(RecError::Config(
                    "pipeline sources, when set, must name at least one slot".into(),
                ));
            }
        }
        if let Some(overload) = &config.overload {
            if overload.queue_capacity == 0 {
                return Err(RecError::Config(
                    "overload queue_capacity must be >= 1".into(),
                ));
            }
            if !(overload.ewma_alpha > 0.0 && overload.ewma_alpha <= 1.0) {
                return Err(RecError::Config(
                    "overload ewma_alpha must be in (0, 1]".into(),
                ));
            }
            if overload.step_up > overload.step_down {
                return Err(RecError::Config(
                    "overload step_up must not exceed step_down (the gap is the hysteresis)".into(),
                ));
            }
        }
        Ok(config)
    }
}

type CacheKey = (u32, usize, u64);

/// How one guarded slot call ([`ServingEngine::guarded_emit`]) ended.
enum SlotCall {
    /// The request deadline had expired: nothing ran.
    Expired,
    /// Degraded, breaker-open, failed or too slow: its users fall through.
    Skipped,
    /// One emission per user, best first (an empty one falls through).
    Emitted(Vec<Vec<Candidate>>),
}

/// One request processed off the admission queue by
/// [`ServingEngine::serve_queued`].
#[derive(Debug)]
pub struct QueuedOutcome {
    /// The requesting user.
    pub user: UserIdx,
    /// Requested list length.
    pub k: usize,
    /// The answer, or [`RecError::Shed`] when admission control shed
    /// the request instead of serving it.
    pub result: Result<Vec<u32>, RecError>,
    /// Brownout level the request was served at.
    pub level: DegradationLevel,
    /// Time the request spent in the admission queue.
    pub queue_delay: Duration,
    /// Admission-to-answer time (queueing plus service).
    pub sojourn: Duration,
}

/// The offline-trained / online-serving recommendation engine.
#[derive(Debug)]
pub struct ServingEngine {
    config: EngineConfig,
    train: Interactions,
    epoch: u64,
    bpr: Option<Bpr>,
    closest: Option<ClosestItems>,
    most_read: Option<MostReadItems>,
    random: RandomItems,
    /// Validated IVF indexes accelerating the pipeline's content-similar
    /// and CF-neighbour sources. Not a [`ModelSlot`]: losing ANN loses
    /// only the acceleration — the exact scans keep serving — so it
    /// reports through [`ServingEngine::ann_notes`], not `degraded`.
    ann: Option<rm_embed::AnnArtifact>,
    /// Why each absent ANN half is absent (empty when fully active or
    /// the registry simply has no ANN artifact).
    ann_notes: Vec<String>,
    /// Validated quantized artifact: compact i8/f16 rows the rank stage
    /// and pipeline sources score from. Like ANN, losing it loses only
    /// the memory optimisation — exact f32 scoring keeps serving — so
    /// it reports through [`ServingEngine::quant_notes`], not
    /// `degraded`.
    quant: Option<QuantArtifact>,
    /// True when the factor sections validated against the installed
    /// BPR model (CF scoring reads quantized rows).
    quant_cf_active: bool,
    /// True when the embeddings section validated against the installed
    /// Closest Items store (IVF content probes re-score quantized rows).
    quant_content_active: bool,
    /// Why quantized halves (or the whole artifact) were dropped at
    /// install time; empty when fully active or simply not published.
    quant_notes: Vec<String>,
    degraded: Vec<(ModelSlot, String)>,
    cache: Mutex<LruCache<CacheKey, Vec<u32>>>,
    breakers: Option<Mutex<[CircuitBreaker; ModelSlot::COUNT]>>,
    governor: Option<Mutex<OverloadGovernor>>,
    metrics: ServeMetrics,
    #[cfg(feature = "testing")]
    faults: crate::fault::FaultInjector,
}

impl ServingEngine {
    /// Opens `registry` and builds the engine over `train` (the
    /// interactions the artifacts were fitted on — rebuilt
    /// deterministically from the corpus, they are not part of the
    /// registry). Slot-level artifact failures degrade the chain and are
    /// reported via [`ServingEngine::degraded`]; only a missing or
    /// unparsable manifest fails the load.
    pub fn load(
        registry: &ArtifactRegistry,
        train: &Interactions,
        config: EngineConfig,
    ) -> Result<Self, RecError> {
        let loaded = registry.load()?;
        let cache_capacity = config.cache_capacity;
        let random_seed = config.random_seed;
        let breakers = config
            .breaker
            .map(|cfg| Mutex::new(std::array::from_fn(|_| CircuitBreaker::new(cfg))));
        let mut random = RandomItems::new(random_seed);
        random.fit(train);
        let metrics = ServeMetrics::new(Arc::clone(&config.clock));
        let governor = config.overload.clone().map(|overload| {
            Mutex::new(OverloadGovernor::new(
                overload,
                config.request_budget,
                config.clock.now(),
            ))
        });
        let mut engine = Self {
            config,
            train: train.clone(),
            epoch: 0,
            bpr: None,
            closest: None,
            most_read: None,
            random,
            ann: None,
            ann_notes: Vec::new(),
            quant: None,
            quant_cf_active: false,
            quant_content_active: false,
            quant_notes: Vec::new(),
            degraded: Vec::new(),
            cache: Mutex::new(LruCache::new(cache_capacity)),
            breakers,
            governor,
            metrics,
            #[cfg(feature = "testing")]
            faults: crate::fault::FaultInjector::default(),
        };
        engine.install_artifacts(loaded);
        Ok(engine)
    }

    /// [`ServingEngine::load`], then arms the fault-injection plan —
    /// the chaos harness's entry point.
    #[cfg(feature = "testing")]
    pub fn load_with_faults(
        registry: &ArtifactRegistry,
        train: &Interactions,
        config: EngineConfig,
        plan: crate::fault::FaultPlan,
    ) -> Result<Self, RecError> {
        let mut engine = Self::load(registry, train, config)?;
        engine.inject_faults(plan);
        Ok(engine)
    }

    /// Replaces the active fault plan (and resets its call counters).
    #[cfg(feature = "testing")]
    pub fn inject_faults(&mut self, plan: crate::fault::FaultPlan) {
        self.faults = crate::fault::FaultInjector::new(plan);
    }

    /// The active fault injector (call counts, plan).
    #[cfg(feature = "testing")]
    #[must_use]
    pub fn fault_injector(&self) -> &crate::fault::FaultInjector {
        &self.faults
    }

    /// Swaps in a freshly saved artifact set: re-reads every slot, bumps
    /// the epoch from the manifest, resets the circuit breakers (a new
    /// epoch deserves a clean slate), and explicitly clears the cache
    /// (the epoch in the key already fences stale entries; clearing also
    /// returns their memory). On error the engine is untouched and keeps
    /// serving the old epoch.
    pub fn reload(&mut self, registry: &ArtifactRegistry) -> Result<(), RecError> {
        // The span must borrow a local handle, not `self.config`, so the
        // `&mut self` artifact swap below stays borrowable.
        let tracer = Arc::clone(&self.config.tracer);
        let span = tracer.span("reload");
        let loaded = match registry.load() {
            Ok(loaded) => loaded,
            Err(e) => {
                span.finish(|f| {
                    f.push("ok", false).push("error", e.to_string());
                });
                return Err(e);
            }
        };
        self.install_artifacts(loaded);
        self.cache
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        span.finish(|f| {
            f.push("ok", true)
                .push("epoch", self.epoch)
                .push("degraded_slots", self.degraded.len());
        });
        Ok(())
    }

    /// [`ServingEngine::reload`] with bounded retries: each failed
    /// attempt sleeps the backoff schedule's next deterministic,
    /// seeded-jitter delay (through the engine clock) before trying
    /// again. Returns the number of attempts a successful reload took;
    /// on exhaustion returns the last error with the engine untouched,
    /// still serving the old epoch.
    pub fn reload_with_retry(
        &mut self,
        registry: &ArtifactRegistry,
        backoff: &Backoff,
    ) -> Result<u32, RecError> {
        let attempts = backoff.attempts.max(1);
        let mut attempt = 0;
        loop {
            match self.reload(registry) {
                Ok(()) => return Ok(attempt + 1),
                Err(e) => {
                    attempt += 1;
                    if attempt >= attempts {
                        return Err(e);
                    }
                    self.config.clock.sleep(backoff.delay(attempt - 1));
                }
            }
        }
    }

    fn install_artifacts(&mut self, loaded: LoadedArtifacts) {
        self.epoch = loaded.manifest.epoch;
        self.degraded.clear();
        if let (Some(breakers), Some(cfg)) = (&mut self.breakers, self.config.breaker) {
            for b in breakers
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .iter_mut()
            {
                *b = CircuitBreaker::new(cfg);
            }
        }

        self.bpr = match loaded.bpr {
            Ok(model)
                if model.user_factors.rows() == self.train.n_users()
                    && model.item_factors.rows() == self.train.n_books() =>
            {
                let mut bpr = Bpr::new(BprConfig::default());
                bpr.install(model, &self.train);
                Some(bpr)
            }
            Ok(model) => {
                self.degrade(
                    ModelSlot::Bpr,
                    format!(
                        "dimension mismatch: model {}x{}, train {}x{}",
                        model.user_factors.rows(),
                        model.item_factors.rows(),
                        self.train.n_users(),
                        self.train.n_books()
                    ),
                );
                None
            }
            Err(e) => {
                self.degrade(ModelSlot::Bpr, e.to_string());
                None
            }
        };

        self.closest = match loaded.embeddings {
            Ok(store) if store.len() == self.train.n_books() => {
                let mut ci = ClosestItems::from_store(store, loaded.manifest.fields);
                ci.fit(&self.train);
                Some(ci)
            }
            Ok(store) => {
                self.degrade(
                    ModelSlot::ClosestItems,
                    format!(
                        "dimension mismatch: {} embeddings, {} books",
                        store.len(),
                        self.train.n_books()
                    ),
                );
                None
            }
            Err(e) => {
                self.degrade(ModelSlot::ClosestItems, e.to_string());
                None
            }
        };

        self.most_read = match loaded.most_read {
            Ok(mut mr) if mr.counts().len() == self.train.n_books() => {
                mr.install(&self.train);
                Some(mr)
            }
            Ok(mr) => {
                self.degrade(
                    ModelSlot::MostRead,
                    format!(
                        "dimension mismatch: {} counts, {} books",
                        mr.counts().len(),
                        self.train.n_books()
                    ),
                );
                None
            }
            Err(e) => {
                self.degrade(ModelSlot::MostRead, e.to_string());
                None
            }
        };

        self.install_ann(loaded.ann);
        self.install_quant(loaded.quant);
    }

    /// Validates the ANN artifact against the *installed* models (so a
    /// degraded model slot automatically disables its accelerated
    /// source) and keeps only the halves whose dimensions line up.
    /// Failure here never degrades a slot — the exact scans serve —
    /// it only records a note for the operator.
    fn install_ann(&mut self, ann: crate::registry::SlotResult<rm_embed::AnnArtifact>) {
        self.ann_notes.clear();
        self.ann = None;
        let mut art = match ann {
            Ok(art) => art,
            // No artifact is the normal state for a registry trained
            // without ANN; only a present-but-broken file is noteworthy.
            Err(crate::registry::SlotError::Missing) => return,
            Err(e) => {
                self.ann_notes.push(format!("ann artifact dropped: {e}"));
                return;
            }
        };
        if let Some(idx) = &art.content {
            let ok = self.closest.as_ref().is_some_and(|c| {
                idx.n_items() as usize == c.store().len() && idx.dim() == c.store().dim()
            });
            if !ok {
                self.ann_notes.push(match &self.closest {
                    Some(c) => format!(
                        "ann content index dropped: index {}x{} vs store {}x{}",
                        idx.n_items(),
                        idx.dim(),
                        c.store().len(),
                        c.store().dim()
                    ),
                    None => "ann content index dropped: closest-items slot degraded".into(),
                });
                art.content = None;
            }
        }
        if let Some(idx) = &art.cf {
            let ok = self.bpr.as_ref().and_then(Bpr::model).is_some_and(|m| {
                idx.n_items() as usize == m.item_factors.rows()
                    && idx.dim() == m.item_factors.cols() + 1
            });
            if !ok {
                self.ann_notes
                    .push(match self.bpr.as_ref().and_then(Bpr::model) {
                        Some(m) => format!(
                            "ann cf index dropped: index {}x{} vs factors {}x{}+1",
                            idx.n_items(),
                            idx.dim(),
                            m.item_factors.rows(),
                            m.item_factors.cols()
                        ),
                        None => "ann cf index dropped: bpr slot degraded".into(),
                    });
                art.cf = None;
            }
        }
        if art.content.is_some() || art.cf.is_some() {
            self.ann = Some(art);
        }
    }

    /// True when the content-similar source retrieves through the IVF
    /// index (a valid ANN artifact half is installed).
    #[must_use]
    pub fn ann_content_active(&self) -> bool {
        self.ann.as_ref().is_some_and(|a| a.content.is_some())
    }

    /// True when the CF-neighbours source retrieves through the MIPS
    /// IVF index.
    #[must_use]
    pub fn ann_cf_active(&self) -> bool {
        self.ann.as_ref().is_some_and(|a| a.cf.is_some())
    }

    /// Why ANN halves (or the whole artifact) were dropped at install
    /// time; empty when fully active or simply not published.
    #[must_use]
    pub fn ann_notes(&self) -> &[String] {
        &self.ann_notes
    }

    /// Validates the quantized artifact against the *installed* models
    /// (so a degraded model slot automatically disables its quantized
    /// scoring path) and records which halves are usable. The sections
    /// share one zero-copy buffer, so nothing is dropped from the
    /// artifact itself — the active flags gate every read. Failure here
    /// never degrades a slot: exact f32 scoring serves identically, it
    /// only costs the memory saving.
    fn install_quant(&mut self, quant: crate::registry::SlotResult<QuantArtifact>) {
        self.quant_notes.clear();
        self.quant = None;
        self.quant_cf_active = false;
        self.quant_content_active = false;
        let art = match quant {
            Ok(art) => art,
            // No artifact is the normal state for a registry trained
            // with --quant off; only a present-but-broken file is
            // noteworthy.
            Err(crate::registry::SlotError::Missing) => return,
            Err(e) => {
                self.quant_notes
                    .push(format!("quant artifact dropped: {e}"));
                return;
            }
        };
        let cf_ok = match (
            art.user_factors(),
            art.item_factors(),
            self.bpr.as_ref().and_then(Bpr::model),
        ) {
            (Some(qu), Some(qi), Some(m)) => {
                let ok = qu.rows() == m.user_factors.rows()
                    && qu.cols() == m.user_factors.cols()
                    && qi.rows() == m.item_factors.rows()
                    && qi.cols() == m.item_factors.cols();
                if !ok {
                    self.quant_notes.push(format!(
                        "quant cf sections dropped: quant {}x{}/{}x{} vs factors {}x{}/{}x{}",
                        qu.rows(),
                        qu.cols(),
                        qi.rows(),
                        qi.cols(),
                        m.user_factors.rows(),
                        m.user_factors.cols(),
                        m.item_factors.rows(),
                        m.item_factors.cols()
                    ));
                }
                ok
            }
            (Some(_), Some(_), None) => {
                self.quant_notes
                    .push("quant cf sections dropped: bpr slot degraded".into());
                false
            }
            // A factors-free artifact (quantize_parts) simply has no CF
            // half to activate.
            _ => false,
        };
        let content_ok = match (art.embeddings(), self.closest.as_ref()) {
            (Some(qe), Some(c)) => {
                let ok = qe.rows() == c.store().len() && qe.cols() == c.store().dim();
                if !ok {
                    self.quant_notes.push(format!(
                        "quant embeddings section dropped: quant {}x{} vs store {}x{}",
                        qe.rows(),
                        qe.cols(),
                        c.store().len(),
                        c.store().dim()
                    ));
                }
                ok
            }
            (Some(_), None) => {
                self.quant_notes
                    .push("quant embeddings section dropped: closest-items slot degraded".into());
                false
            }
            _ => false,
        };
        if cf_ok || content_ok {
            self.quant = Some(art);
            self.quant_cf_active = cf_ok;
            self.quant_content_active = content_ok;
        }
    }

    /// True when CF scoring (exact source, IVF re-score, and the rank
    /// stage under a BPR primary) reads quantized factor rows.
    #[must_use]
    pub fn quant_cf_active(&self) -> bool {
        self.quant_cf_active
    }

    /// True when IVF content probes re-score against the quantized
    /// embeddings section.
    #[must_use]
    pub fn quant_content_active(&self) -> bool {
        self.quant_content_active
    }

    /// Why quantized halves (or the whole artifact) were dropped at
    /// install time; empty when fully active or simply not published.
    #[must_use]
    pub fn quant_notes(&self) -> &[String] {
        &self.quant_notes
    }

    /// The quantized factor sections, when validated: `(user, item)`
    /// zero-copy row views.
    fn quant_cf_rows(&self) -> Option<(QuantMatrix<'_>, QuantMatrix<'_>)> {
        if !self.quant_cf_active {
            return None;
        }
        let art = self.quant.as_ref()?;
        Some((art.user_factors()?, art.item_factors()?))
    }

    /// The quantized embeddings section, when validated.
    fn quant_embedding_rows(&self) -> Option<QuantMatrix<'_>> {
        if !self.quant_content_active {
            return None;
        }
        self.quant.as_ref()?.embeddings()
    }

    fn degrade(&mut self, slot: ModelSlot, reason: String) {
        self.degraded.push((slot, reason));
    }

    /// The slots that failed to load, with the reason — the health report
    /// an operator would page on.
    #[must_use]
    pub fn degraded(&self) -> &[(ModelSlot, String)] {
        &self.degraded
    }

    /// True when the slot's model loaded and is servable.
    #[must_use]
    pub fn slot_loaded(&self, slot: ModelSlot) -> bool {
        match slot {
            ModelSlot::Bpr => self.bpr.is_some(),
            ModelSlot::ClosestItems => self.closest.is_some(),
            ModelSlot::MostRead => self.most_read.is_some(),
            ModelSlot::Random => true,
        }
    }

    /// The current artifact epoch (from the registry manifest).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Point-in-time request metrics. With overload control enabled the
    /// snapshot also carries the governor's live ladder state: current
    /// level, transitions into each level, and per-level residency.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        if let Some(governor) = &self.governor {
            let g = governor.lock().unwrap_or_else(PoisonError::into_inner);
            snap.degradation_level = g.level().index() as u8;
            snap.level_entries = g.level_entries();
            snap.level_residency_ns = g.level_residency_ns(self.config.clock.now());
        }
        snap.cache_bytes_estimate = self.cache_bytes_estimate();
        snap
    }

    /// Estimated bytes held by the answer cache: every cached list's
    /// `len × 4` payload plus fixed per-entry bookkeeping (key, `Vec`
    /// header, slab links, map slot). An estimate, not an accounting —
    /// it tracks the real footprint closely enough to alert on.
    #[must_use]
    pub fn cache_bytes_estimate(&self) -> u64 {
        // Key tuple + Vec header + two slab links + map entry.
        const ENTRY_OVERHEAD: usize = std::mem::size_of::<CacheKey>()
            + std::mem::size_of::<Vec<u32>>()
            + 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<(CacheKey, usize)>();
        self.lock_cache()
            .bytes_estimate(|answer| answer.len() * 4 + ENTRY_OVERHEAD) as u64
    }

    /// Point-in-time metrics in Prometheus text exposition format,
    /// including the live breaker state per slot (when breakers are on).
    #[must_use]
    pub fn metrics_prometheus(&self) -> String {
        self.metrics().render_prometheus(self.breaker_states())
    }

    /// The engine's trace sink (drain it for JSONL output).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.config.tracer
    }

    /// Current circuit-breaker state per slot (by [`ModelSlot::index`]);
    /// `None` when breakers are disabled.
    #[must_use]
    pub fn breaker_states(&self) -> Option<[BreakerState; ModelSlot::COUNT]> {
        let breakers = self.breakers.as_ref()?;
        let guard = breakers.lock().unwrap_or_else(PoisonError::into_inner);
        Some(std::array::from_fn(|i| guard[i].state()))
    }

    /// Number of cached recommendation lists.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.lock_cache().len()
    }

    /// Users in the training matrix (the load generator's user universe).
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.train.n_users()
    }

    /// The cache holds plain answer lists; recover a poisoned mutex
    /// rather than letting one isolated panic end serving.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, LruCache<CacheKey, Vec<u32>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn slot_model(&self, slot: ModelSlot) -> Option<&dyn Recommender> {
        match slot {
            ModelSlot::Bpr => self.bpr.as_ref().map(|m| m as &dyn Recommender),
            ModelSlot::ClosestItems => self.closest.as_ref().map(|m| m as &dyn Recommender),
            ModelSlot::MostRead => self.most_read.as_ref().map(|m| m as &dyn Recommender),
            ModelSlot::Random => Some(&self.random),
        }
    }

    /// `slot`'s pipeline candidate source: the IVF- or quantization-
    /// accelerated source when a validated artifact installed one, the
    /// exact source otherwise (`None` when the slot is degraded).
    fn slot_source(&self, slot: ModelSlot) -> Option<Box<dyn CandidateSource + '_>> {
        let nprobe = self.config.pipeline.ann_nprobe;
        let ann = self.ann.as_ref();
        match slot {
            ModelSlot::Bpr => {
                let bpr = self.bpr.as_ref()?;
                if let Some(idx) = ann.and_then(|a| a.cf.as_ref()) {
                    let src = AnnCfNeighboursSource::new(bpr, &self.train, idx, nprobe);
                    return Some(match self.quant_cf_rows() {
                        Some((qu, qi)) => Box::new(src.with_quant(qu, qi)),
                        None => Box::new(src),
                    });
                }
                if let Some(art) = self.quant.as_ref().filter(|_| self.quant_cf_active) {
                    return Some(Box::new(QuantCfNeighboursSource::new(art, &self.train)));
                }
            }
            ModelSlot::ClosestItems => {
                let closest = self.closest.as_ref()?;
                if let Some(idx) = ann.and_then(|a| a.content.as_ref()) {
                    let src = AnnContentSimilarSource::new(closest, &self.train, idx, nprobe);
                    return Some(match self.quant_embedding_rows() {
                        Some(qe) => Box::new(src.with_quant(qe)),
                        None => Box::new(src),
                    });
                }
            }
            ModelSlot::MostRead | ModelSlot::Random => {}
        }
        self.exact_source(slot)
    }

    /// `slot`'s exact f32 source, which wraps the model itself and never
    /// an accelerator: at `pool = k` its emission is the model's own
    /// top-k (`None` when the slot is degraded).
    fn exact_source(&self, slot: ModelSlot) -> Option<Box<dyn CandidateSource + '_>> {
        let source: Box<dyn CandidateSource> = match slot {
            ModelSlot::Bpr => Box::new(CfNeighboursSource::new(self.bpr.as_ref()?)),
            ModelSlot::ClosestItems => Box::new(ContentSimilarSource::new(self.closest.as_ref()?)),
            ModelSlot::MostRead => Box::new(MostReadSource::new(self.most_read.as_ref()?)),
            ModelSlot::Random => Box::new(FallbackSource::new(slot, &self.random)),
        };
        Some(source)
    }

    /// One explanation per answered candidate of `user`, its reason
    /// derived from the serving slot of the candidate's source: CF
    /// neighbours for BPR, the anchor book for Closest Items (computed
    /// at most once per call), the read count for Most Read, and
    /// exploration for Random Items or a slot with nothing to say.
    fn explanations(
        &self,
        user: UserIdx,
        answered: impl Iterator<Item = Candidate>,
    ) -> Vec<Explanation> {
        let mut anchor: Option<Option<u32>> = None;
        answered
            .map(|Candidate { book, source }| {
                let reason = match source.slot() {
                    ModelSlot::Bpr => Reason::CfNeighbours,
                    ModelSlot::ClosestItems => anchor
                        .get_or_insert_with(|| {
                            let closest = self.closest.as_ref()?;
                            anchor_book(closest, self.train.seen(user))
                        })
                        .map_or(Reason::Exploration, |anchor| Reason::SimilarToBorrowed {
                            anchor,
                        }),
                    ModelSlot::MostRead => {
                        self.most_read
                            .as_ref()
                            .map_or(Reason::Exploration, |m| Reason::MostRead {
                                count: m.count(BookIdx(book)),
                            })
                    }
                    ModelSlot::Random => Reason::Exploration,
                };
                Explanation {
                    book,
                    source,
                    reason,
                }
            })
            .collect()
    }

    /// Asks `slot`'s breaker to admit a call, folding any state
    /// transition into the chunk stats. Always true with breakers off.
    fn breaker_admit(&self, slot: ModelSlot, stats: &mut ChunkStats) -> bool {
        let Some(breakers) = &self.breakers else {
            return true;
        };
        let now = self.config.clock.now();
        let (admitted, transition) =
            breakers.lock().unwrap_or_else(PoisonError::into_inner)[slot.index()].admit(now);
        self.count_transition(transition, slot, stats);
        admitted
    }

    /// Reports a successful slot call to its breaker.
    fn breaker_success(&self, slot: ModelSlot, stats: &mut ChunkStats) {
        if let Some(breakers) = &self.breakers {
            let transition = breakers.lock().unwrap_or_else(PoisonError::into_inner)[slot.index()]
                .record_success();
            self.count_transition(transition, slot, stats);
        }
    }

    /// Reports a failed slot call (panic, timeout, injected error) to
    /// its breaker.
    fn breaker_failure(&self, slot: ModelSlot, stats: &mut ChunkStats) {
        if let Some(breakers) = &self.breakers {
            let now = self.config.clock.now();
            let transition = breakers.lock().unwrap_or_else(PoisonError::into_inner)[slot.index()]
                .record_failure(now);
            self.count_transition(transition, slot, stats);
        }
    }

    /// Folds a breaker state transition into the chunk counters and
    /// emits a `breaker_transition` trace event.
    fn count_transition(
        &self,
        transition: Option<Transition>,
        slot: ModelSlot,
        stats: &mut ChunkStats,
    ) {
        let Some(t) = transition else { return };
        match t {
            Transition::Opened => stats.breaker_opened[slot.index()] += 1,
            Transition::HalfOpened => stats.breaker_half_open[slot.index()] += 1,
            Transition::Closed => stats.breaker_closed[slot.index()] += 1,
        }
        self.config.tracer.event("breaker_transition", |f| {
            f.push("slot", slot.metric_label()).push("to", t.label());
        });
    }

    /// Runs one slot call — `source` emitting up to `pool_size`
    /// candidates for each of `users` — inside the fault envelope every
    /// slot call shares. In order: the request deadline, the degraded
    /// slot (`source` is `None`), breaker admission, fault injection,
    /// panic isolation, the slot budget, and breaker success or failure.
    /// Every outcome is counted in `stats` and traced as one `slot_call`
    /// event; a failed call, and each user a healthy call had nothing
    /// for, count as fallbacks of `slot`.
    fn guarded_emit(
        &self,
        slot: ModelSlot,
        source: Option<&dyn CandidateSource>,
        users: &[UserIdx],
        pool_size: usize,
        deadline: Option<Deadline>,
        stats: &mut ChunkStats,
    ) -> SlotCall {
        let tracer = &self.config.tracer;
        let requests = users.len();
        if deadline.is_some_and(|d| d.expired(&*self.config.clock)) {
            stats.deadline_skips += requests as u64;
            tracer.event("deadline_expired", |f| {
                f.push("skipped", requests);
            });
            return SlotCall::Expired;
        }
        let fall_through =
            |stats: &mut ChunkStats, outcome: &'static str, elapsed: Option<Duration>| {
                stats.fallbacks[slot.index()] += requests as u64;
                tracer.event("slot_call", |f| {
                    f.push("slot", slot.metric_label())
                        .push("requests", requests)
                        .push("outcome", outcome);
                    if let Some(elapsed) = elapsed {
                        f.push("elapsed_ns", elapsed.as_nanos() as u64);
                    }
                });
                SlotCall::Skipped
            };
        let Some(source) = source else {
            return fall_through(stats, "degraded", None);
        };
        if !self.breaker_admit(slot, stats) {
            stats.breaker_skips[slot.index()] += 1;
            return fall_through(stats, "breaker_open", None);
        }
        // The budget clock starts before fault injection so injected
        // latency counts against the slot like real slowness would.
        let started = self.config.slot_budget.map(|_| self.config.clock.now());
        #[cfg(feature = "testing")]
        let injected = self.faults.on_call(slot);
        #[cfg(feature = "testing")]
        {
            if let Some(d) = injected.latency {
                self.config.clock.sleep(d);
            }
            if injected.error {
                self.breaker_failure(slot, stats);
                return fall_through(stats, "injected_error", None);
            }
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "testing")]
            if injected.panic {
                panic!("injected fault: {} slot panic", slot.label());
            }
            let mut candidates: Vec<Vec<Candidate>> = Vec::new();
            source.emit_batch(users, pool_size, &mut candidates);
            candidates
        }));
        let Ok(candidates) = outcome else {
            // The source panicked: isolate it and let the breaker see a
            // failure; the users fall through to the next tier.
            stats.panics[slot.index()] += 1;
            self.breaker_failure(slot, stats);
            return fall_through(stats, "panic", None);
        };
        if let (Some(budget), Some(started)) = (self.config.slot_budget, started) {
            let elapsed = self.config.clock.now().saturating_sub(started);
            if elapsed > budget {
                // Too slow: cut the slot off (its candidates are
                // discarded) and move on.
                stats.timeouts[slot.index()] += 1;
                self.breaker_failure(slot, stats);
                return fall_through(stats, "timeout", Some(elapsed));
            }
        }
        self.breaker_success(slot, stats);
        // A user a healthy slot has nothing for (e.g. content similarity
        // on an empty history) falls through too.
        let served = candidates.iter().filter(|c| !c.is_empty()).count();
        stats.fallbacks[slot.index()] += (candidates.len() - served) as u64;
        tracer.event("slot_call", |f| {
            f.push("slot", slot.metric_label())
                .push("requests", requests)
                .push("outcome", "ok")
                .push("served", served);
        });
        SlotCall::Emitted(candidates)
    }

    /// The brownout ladder's current level ([`DegradationLevel::Full`]
    /// whenever overload control is disabled).
    #[must_use]
    pub fn degradation_level(&self) -> DegradationLevel {
        self.current_level()
    }

    /// Admitted-but-unserved requests in the overload queue (`0` when
    /// overload control is disabled).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.governor.as_ref().map_or(0, |g| {
            g.lock().unwrap_or_else(PoisonError::into_inner).queue_len()
        })
    }

    fn current_level(&self) -> DegradationLevel {
        self.governor.as_ref().map_or(DegradationLevel::Full, |g| {
            g.lock().unwrap_or_else(PoisonError::into_inner).level()
        })
    }

    /// Emits a ladder transition as a trace event (the counters live in
    /// the governor and surface through [`ServingEngine::metrics`]).
    fn note_transition(&self, t: LevelTransition) {
        self.config.tracer.event("degradation_transition", |f| {
            f.push("from", t.from.label()).push("to", t.to.label());
        });
    }

    fn note_shed(&self, reason: ShedReason, user: UserIdx) -> RecError {
        self.metrics.record_shed(reason);
        self.config.tracer.event("shed", |f| {
            f.push("reason", reason.metric_label()).push("user", user.0);
        });
        RecError::Shed(format!("{} (user {})", reason.metric_label(), user.0))
    }

    /// Offers a request to admission control. Accepted requests wait in
    /// the bounded queue until [`ServingEngine::serve_queued`] reaches
    /// them; rejected ones are shed up front — queue full, or remaining
    /// deadline budget already below the observed service cost.
    ///
    /// # Errors
    ///
    /// [`RecError::Shed`] when admission control rejects the request;
    /// [`RecError::Config`] when overload control is disabled.
    pub fn offer(&self, user: UserIdx, k: usize) -> Result<(), RecError> {
        let Some(governor) = &self.governor else {
            return Err(RecError::Config(
                "admission control requires EngineConfig::overload".into(),
            ));
        };
        let now = self.config.clock.now();
        let outcome = governor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .offer(user, k, now);
        outcome.map_err(|reason| self.note_shed(reason, user))
    }

    /// Serves (or sheds) exactly one queued request — the head of the
    /// admission queue. Returns `None` when the queue is empty or
    /// overload control is disabled. Shed heads (CoDel episode, hopeless
    /// deadline) answer [`RecError::Shed`] without running any model;
    /// served heads run the pipeline at the governor's current brownout
    /// level, and their observed cost feeds the shedding estimate back.
    pub fn serve_queued(&self) -> Option<QueuedOutcome> {
        let governor = self.governor.as_ref()?;
        let now = self.config.clock.now();
        let (popped, transition) = governor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop(now)?;
        if let Some(t) = transition {
            self.note_transition(t);
        }
        let user = popped.request.user;
        let k = popped.request.k;
        if let Some(reason) = popped.shed {
            return Some(QueuedOutcome {
                user,
                k,
                result: Err(self.note_shed(reason, user)),
                level: self.current_level(),
                queue_delay: popped.delay,
                sojourn: popped.delay,
            });
        }
        let (level, simulated) = {
            let g = governor.lock().unwrap_or_else(PoisonError::into_inner);
            let level = g.level();
            (level, g.simulated_cost(level))
        };
        let t0 = self.config.clock.now();
        if let Some(cost) = simulated {
            self.config.clock.sleep(cost);
        }
        let books = self
            .serve_chunk_with(&[user], k, None, level)
            .pop()
            .unwrap_or_default();
        let served_at = self.config.clock.now();
        governor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_cost(served_at.saturating_sub(t0));
        Some(QueuedOutcome {
            user,
            k,
            result: Ok(books),
            level,
            queue_delay: popped.delay,
            sojourn: served_at.saturating_sub(popped.request.arrival),
        })
    }

    /// [`ServingEngine::recommend`] through admission control: offers
    /// the request, then drains the queue (FIFO, so the final outcome is
    /// this request's). Without overload control configured it degrades
    /// to a plain [`ServingEngine::recommend`].
    ///
    /// # Errors
    ///
    /// [`RecError::Shed`] when admission control rejects or sheds the
    /// request.
    pub fn recommend_governed(&self, user: UserIdx, k: usize) -> Result<Vec<u32>, RecError> {
        if self.governor.is_none() {
            // Same full-pipeline path recommend() takes.
            return Ok(self.serve_chunk(&[user], k).pop().unwrap_or_default());
        }
        self.offer(user, k)?;
        let mut last = None;
        while let Some(outcome) = self.serve_queued() {
            last = Some(outcome);
        }
        // The queue was non-empty after offer(), so `last` is Some; an
        // empty answer degrades the impossible case instead of panicking.
        last.map_or_else(|| Ok(Vec::new()), |outcome| outcome.result)
    }

    /// Top-`k` books for `user`, served by the candidate pipeline with
    /// the fallback tiers behind it. An unknown user (outside
    /// the training matrix) gets an empty list. The call records
    /// latency, cache, and per-slot counters.
    pub fn recommend(&self, user: UserIdx, k: usize) -> Vec<u32> {
        // serve_chunk answers every request; an empty Vec here is
        // unreachable in practice, but the request path degrades to "no
        // recommendations" rather than aborting on an internal bug.
        self.serve_chunk(&[user], k).pop().unwrap_or_default()
    }

    /// [`ServingEngine::recommend`] plus one provenance-backed
    /// [`Explanation`] per recommended book ("because you borrowed X"),
    /// aligned index-for-index with the returned list. Explained
    /// requests bypass the answer cache in both directions — cached
    /// lists carry no provenance — so they always exercise the
    /// pipeline; fault isolation, metrics, and the degraded fallback
    /// behave identically to [`ServingEngine::recommend`].
    #[must_use]
    pub fn recommend_explained(&self, user: UserIdx, k: usize) -> (Vec<u32>, Vec<Explanation>) {
        let mut explanations: Vec<Vec<Explanation>> = Vec::new();
        let books = self
            .serve_chunk_with(&[user], k, Some(&mut explanations), self.current_level())
            .pop()
            .unwrap_or_default();
        (books, explanations.pop().unwrap_or_default())
    }

    /// Serves one worker's share of a batch (or a single request): the
    /// cache is probed once for the whole chunk, the candidate pipeline
    /// runs with the sources' batched entry points (which reuse one
    /// catalogue-sized buffer across the chunk), and the metrics mutex is
    /// taken once.
    fn serve_chunk(&self, users: &[UserIdx], k: usize) -> Vec<Vec<u32>> {
        self.serve_chunk_with(users, k, None, self.current_level())
    }

    /// [`ServingEngine::serve_chunk`] with optional per-user explanation
    /// capture. The chunk runs one path: cache → source tier → merge →
    /// filters → rank → fallback tiers → cache insert → metrics.
    ///
    /// * **Source tier** — each configured source slot gets one guarded
    ///   call ([`ServingEngine::guarded_emit`]) over the whole chunk;
    /// * **Merge → filters → rank** — per user, the emissions are
    ///   pooled (first-source-wins provenance), pruned by the
    ///   configured filters, and re-scored by the primary source's
    ///   model down to top-k;
    /// * **Fallback tiers** — users the pipeline could not serve go down
    ///   the chain slots that did not run as sources. Each tier is one
    ///   guarded call to the slot's exact source at `pool = k`, whose
    ///   emission is the answer as it stands (a single exact source is
    ///   already in its own ranking order, DESIGN.md §15), explained as
    ///   [`SourceId::Fallback`] of that slot.
    ///
    /// When `explain` is `Some`, the cache is bypassed in both
    /// directions (cached answers carry no provenance) and the vector is
    /// filled with one explanation list per user, aligned with the
    /// returned answers; reasons are derived only then
    /// ([`ServingEngine::explanations`]).
    ///
    /// `level` is the brownout rung the chunk serves at
    /// (DESIGN.md §16): [`DegradationLevel::Full`] runs everything
    /// exactly as configured; deeper levels prune expensive sources,
    /// then filters, then the pipeline itself, down to the most-read
    /// list. Degraded answers are never written to the cache — only
    /// full-service lists may outlive the brownout.
    fn serve_chunk_with(
        &self,
        users: &[UserIdx],
        k: usize,
        mut explain: Option<&mut Vec<Vec<Explanation>>>,
        level: DegradationLevel,
    ) -> Vec<Vec<u32>> {
        let tracer = &self.config.tracer;
        let span = tracer.span("serve_chunk");
        let t0 = self.config.clock.now();
        if let Some(ex) = explain.as_deref_mut() {
            ex.clear();
            ex.resize_with(users.len(), Vec::new);
        }
        let mut out: Vec<Option<Vec<u32>>> = vec![None; users.len()];
        let mut stats = ChunkStats::new(users.len() as u64, 0);
        let mut misses: Vec<usize> = Vec::with_capacity(users.len());
        let use_cache = self.config.cache_capacity > 0 && explain.is_none();
        if use_cache {
            let mut cache = self.lock_cache();
            for (i, &u) in users.iter().enumerate() {
                match cache.get(&(u.0, k, self.epoch)) {
                    Some(books) => {
                        out[i] = Some(books.clone());
                        stats.hits += 1;
                    }
                    None => misses.push(i),
                }
            }
        } else {
            misses.extend(0..users.len());
        }
        tracer.event("cache_lookup", |f| {
            f.push("n", users.len())
                .push("hits", stats.hits)
                .push("epoch", self.epoch);
        });

        // Unknown users (outside the training matrix) get empty lists
        // without consulting any model.
        misses.retain(|&i| {
            let known = users[i].index() < self.train.n_users();
            if !known {
                out[i] = Some(Vec::new());
            }
            known
        });

        let deadline = self
            .config
            .request_budget
            .map(|budget| Deadline::after(&*self.config.clock, budget));
        let mut remaining = misses.clone();

        // ---- Source tier: candidate sources fan out --------------------
        // The brownout level prunes the configured pipeline
        // (DESIGN.md §16): CF neighbours and content similarity are the
        // expensive stages, the most-read list is the cheap floor.
        // Only the degraded rungs build a slot list; `Full` borrows the
        // configured ones.
        let cheap_or = |slots: &[ModelSlot], floor: &[ModelSlot]| -> Cow<'static, [ModelSlot]> {
            let cheap: Vec<ModelSlot> = slots
                .iter()
                .copied()
                .filter(|s| !matches!(s, ModelSlot::Bpr | ModelSlot::ClosestItems))
                .collect();
            Cow::Owned(if cheap.is_empty() {
                floor.to_vec()
            } else {
                cheap
            })
        };
        let head = self.config.chain.first().copied();
        let base_sources: &[ModelSlot] = match &self.config.pipeline.sources {
            Some(slots) => slots,
            // Default: the chain's head as the single source, which
            // reproduces that model's own top-k bit-for-bit.
            None => head.as_slice(),
        };
        let source_slots = match level {
            DegradationLevel::Full => Cow::Borrowed(base_sources),
            // When every configured source is expensive, the popularity
            // source substitutes so the pipeline still runs.
            DegradationLevel::DropExpensiveSources | DegradationLevel::SkipFilters => {
                cheap_or(base_sources, &[ModelSlot::MostRead])
            }
            // The deepest levels bypass the pipeline entirely; the
            // fallback tiers below answer everything.
            DegradationLevel::LegacyFallback | DegradationLevel::MostReadOnly => {
                Cow::Borrowed(&[][..])
            }
        };
        let apply_filters = matches!(
            level,
            DegradationLevel::Full | DegradationLevel::DropExpensiveSources
        );
        // The terminal random fallback stays behind most-read as
        // never-empty insurance (degrade, don't go dark).
        let most_read_floor: &'static [ModelSlot] = &[ModelSlot::MostRead, ModelSlot::Random];
        let fallback_chain = match level {
            DegradationLevel::LegacyFallback => cheap_or(&self.config.chain, most_read_floor),
            DegradationLevel::MostReadOnly => Cow::Borrowed(most_read_floor),
            _ => Cow::Borrowed(self.config.chain.as_slice()),
        };
        let pool_size = self.config.pipeline.pool_size.max(k);
        let mut emitted: Vec<(ModelSlot, Vec<Vec<Candidate>>)> = Vec::new();
        let mut deadline_hit = false;
        if !remaining.is_empty() && !source_slots.is_empty() {
            let chunk_users: Vec<UserIdx> = remaining.iter().map(|&i| users[i]).collect();
            for &slot in source_slots.iter() {
                let source = self.slot_source(slot);
                match self.guarded_emit(
                    slot,
                    source.as_deref(),
                    &chunk_users,
                    pool_size,
                    deadline,
                    &mut stats,
                ) {
                    SlotCall::Expired => {
                        deadline_hit = true;
                        break;
                    }
                    SlotCall::Skipped => {}
                    SlotCall::Emitted(candidates) => emitted.push((slot, candidates)),
                }
            }
        }

        // ---- Merge → filters → rank ------------------------------------
        if !deadline_hit && !emitted.is_empty() {
            // The highest-priority source that emitted supplies the
            // rank-stage scoring model; with the default single source
            // this reproduces the source model's own ranking bit-for-bit.
            let primary = emitted[0].0;
            let scorer = self.slot_model(primary);
            // Under a BPR primary with validated quantized factors the
            // rank stage scores from the compact rows; any mismatch or
            // corruption fell back to `scorer` (exact f32) at install.
            let quant_cf = match primary {
                ModelSlot::Bpr => self.quant_cf_rows(),
                _ => None,
            };
            // Under a Closest Items primary the Eq. 1 query is built once
            // per user and dotted with each candidate, exactly as
            // `ClosestItems::score` would per candidate.
            let closest = self
                .closest
                .as_ref()
                .filter(|_| primary == ModelSlot::ClosestItems);
            let mut query: Vec<f32> = Vec::new();
            let genres = self.config.pipeline.book_genres.as_deref();
            let mut table = MergeTable::default();
            let mut pool: Vec<Candidate> = Vec::new();
            let mut top = TopK::new(1);
            let mut ranked: Vec<u32> = Vec::new();
            let mut still_empty = Vec::new();
            for (j, &i) in remaining.iter().enumerate() {
                table.merge_into(
                    emitted.iter().map(|(_, per_user)| per_user[j].as_slice()),
                    &mut pool,
                );
                let user = users[i];
                let ctx = FilterCtx {
                    user,
                    seen: self.train.seen(user),
                    genres,
                };
                if apply_filters {
                    for filter in &self.config.pipeline.filters {
                        filter.retain(&ctx, &mut pool);
                    }
                }
                // `ranked` is empty here: taken by the last served user or
                // cleared by the last empty ranking.
                match (quant_cf, closest, scorer) {
                    (Some((qu, qi)), _, _) => {
                        let urow = qu.row(user.index());
                        let score = |b: u32| qi.row(b as usize).dot(&urow);
                        rank_pool_into(&pool, k, score, &mut top, &mut ranked);
                    }
                    (None, Some(closest), _) => {
                        let store = closest.store();
                        // No history: every score is 0.0.
                        let has_query = closest.query_into(user, &mut query);
                        let score = |b: u32| {
                            if has_query {
                                vecops::dot(&query, store.embedding(b as usize))
                            } else {
                                0.0
                            }
                        };
                        rank_pool_into(&pool, k, score, &mut top, &mut ranked);
                    }
                    (None, None, Some(model)) => {
                        let score = |b: u32| model.score(user, BookIdx(b));
                        rank_pool_into(&pool, k, score, &mut top, &mut ranked);
                    }
                    (None, None, None) => {}
                }
                if ranked.is_empty() {
                    // Empty pool, everything filtered out, or the primary
                    // model vanished: the fallback tiers below get
                    // another shot at this user.
                    still_empty.push(i);
                    continue;
                }
                // Attribute the serve to the slot whose source proposed
                // the winning (top-ranked) book. The merge sorted the
                // pool by book and the filters kept that order.
                let find = |b: u32| {
                    pool.binary_search_by_key(&b, |c| c.book)
                        .ok()
                        .map(|at| pool[at])
                };
                let slot = find(ranked[0]).map_or(primary, |c| c.source.slot());
                stats.served[slot.index()] += 1;
                if let Some(ex) = explain.as_deref_mut() {
                    let answered = ranked.iter().filter_map(|&b| find(b));
                    ex[i] = self.explanations(user, answered);
                }
                out[i] = Some(std::mem::take(&mut ranked));
            }
            remaining = still_empty;
        }

        // ---- Fallback tiers ---------------------------------------------
        // Users the pipeline could not serve go down the chain, skipping
        // the slots that already ran as sources (every slot gets at most
        // one call per chunk).
        if !deadline_hit {
            for &slot in fallback_chain.iter() {
                if remaining.is_empty() {
                    break;
                }
                if source_slots.contains(&slot) {
                    continue;
                }
                let tier_users: Vec<UserIdx> = remaining.iter().map(|&i| users[i]).collect();
                let source = self.exact_source(slot);
                let emissions = match self.guarded_emit(
                    slot,
                    source.as_deref(),
                    &tier_users,
                    k,
                    deadline,
                    &mut stats,
                ) {
                    SlotCall::Expired => break,
                    SlotCall::Skipped => continue,
                    SlotCall::Emitted(emissions) => emissions,
                };
                let mut emissions = emissions.into_iter();
                remaining.retain(|&i| {
                    let emission = emissions.next().unwrap_or_default();
                    if emission.is_empty() {
                        return true;
                    }
                    stats.served[slot.index()] += 1;
                    if let Some(ex) = explain.as_deref_mut() {
                        let answered = emission.iter().map(|c| Candidate {
                            book: c.book,
                            source: SourceId::Fallback(slot),
                        });
                        ex[i] = self.explanations(users[i], answered);
                    }
                    out[i] = Some(emission.iter().map(|c| c.book).collect());
                    false
                });
            }
        }
        // Pipeline and fallback tiers exhausted (or deadline expired): empty
        // answers, not served by any slot.
        for i in remaining {
            out[i] = Some(Vec::new());
        }

        if use_cache && !misses.is_empty() && level == DegradationLevel::Full {
            let mut cache = self.lock_cache();
            for &i in &misses {
                // Every miss index was answered above; skip (rather than
                // abort on) a hole if that invariant is ever broken.
                let Some(books) = out[i].as_ref() else {
                    continue;
                };
                if !books.is_empty() {
                    cache.insert((users[i].0, k, self.epoch), books.clone());
                }
            }
        }

        stats.elapsed = self.config.clock.now().saturating_sub(t0);
        self.metrics.record_chunk(&stats);
        span.finish(|f| {
            f.push("n", users.len())
                .push("hits", stats.hits)
                .push("deadline_skips", stats.deadline_skips);
            // Full service is the steady state; only brownout is news.
            if level != DegradationLevel::Full {
                f.push("level", level.label());
            }
        });
        // All slots are Some by construction; degrade a hole to an empty
        // answer instead of panicking in the serving path.
        out.into_iter().map(Option::unwrap_or_default).collect()
    }

    /// [`ServingEngine::recommend`] for a batch of users, fanned out over
    /// [`EngineConfig::workers`] scoped threads. Answers come back in
    /// request order and are byte-identical to single calls.
    pub fn recommend_batch(&self, users: &[UserIdx], k: usize) -> Vec<Vec<u32>> {
        let workers = self.config.workers.max(1).min(users.len().max(1));
        if workers <= 1 {
            return self.serve_chunk(users, k);
        }
        let chunk = users.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = users
                .chunks(chunk)
                .map(|part| (s.spawn(move || self.serve_chunk(part, k)), part.len()))
                .collect();
            handles
                .into_iter()
                .flat_map(|(h, len)| match h.join() {
                    Ok(answers) => answers,
                    // Slot panics are already isolated inside
                    // serve_chunk, so this is a harness bug — but one
                    // poisoned chunk must degrade to empty answers, not
                    // take the rest of the batch (and the process) down.
                    Err(_) => {
                        self.metrics.record_worker_panic(len as u64);
                        self.config.tracer.event("worker_panic", |f| {
                            f.push("requests", len);
                        });
                        vec![Vec::new(); len]
                    }
                })
                .collect()
        })
    }
}
