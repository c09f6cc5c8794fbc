//! Building real serving artifacts at the paper preset: datagen → prep →
//! fit → index → quantize → write → load, each public call timed.
//!
//! Every workload starts here. The artifacts are the ones
//! `reading-machine train --out DIR --quant i8` writes (BPR, Most Read,
//! the catalogue embeddings, both IVF indexes and the i8 quantization),
//! fitted on `split.train` so the held-out `split.test` can grade the
//! served answers.

use rm_core::bpr::{Bpr, BprConfig};
use rm_core::closest::ClosestItems;
use rm_core::most_read::MostReadItems;
use rm_core::quant::{QuantArtifact, QuantMode};
use rm_core::Recommender;
use rm_datagen::Preset;
use rm_dataset::summary::SummaryFields;
use rm_embed::{AnnArtifact, EncoderConfig, IvfConfig, IvfIndex};
use rm_eval::harness::Harness;
use rm_eval::split::{Split, SplitConfig};
use rm_serve::{ArtifactRegistry, EngineConfig, Manifest, ServingEngine};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Wall-clock seconds of named stages, in the order they ran.
#[derive(Debug, Default, Clone)]
pub struct Stages(pub Vec<(&'static str, f64)>);

impl Stages {
    /// Runs `f`, recording its wall-clock time under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0.push((name, t0.elapsed().as_secs_f64()));
        out
    }

    /// Seconds recorded under `name` (summed if it ran more than once).
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .sum()
    }
}

/// `datagen.generate_s` then `dataset.split_s`: the same corpus and split
/// [`Harness::generate`] builds, with the two stages timed apart.
pub fn generate(seed: u64, stages: &mut Stages) -> Harness {
    let corpus = stages.time("datagen.generate_s", || {
        rm_datagen::generate_corpus(seed, Preset::Paper)
    });
    let split_config = SplitConfig {
        seed: rm_util::rng::derive_seed_str(seed, "split"),
        ..SplitConfig::default()
    };
    let split = stages.time("dataset.split_s", || {
        Split::of_corpus(&corpus, &split_config)
    });
    Harness { corpus, split }
}

/// The fitted offline models and their derived serving artifacts.
pub struct Trained {
    pub bpr: Bpr,
    pub most_read: MostReadItems,
    pub closest: ClosestItems,
    pub ann: AnnArtifact,
    pub quant: QuantArtifact,
    pub quant_payload_bytes: usize,
    /// Training interactions (`split.train`), for the per-second rate.
    pub interactions: usize,
}

/// Fits BPR, Most Read and Closest Items on `split.train`, builds both IVF
/// indexes and quantizes to i8, as `train --out DIR --quant i8` does.
pub fn train(h: &Harness, stages: &mut Stages) -> Trained {
    let train = &h.split.train;
    let mut bpr = Bpr::new(BprConfig::default());
    stages.time("core.bpr.fit_s", || bpr.fit(train));
    let mut most_read = MostReadItems::new();
    stages.time("core.most_read.fit_s", || most_read.fit(train));
    let mut closest = stages.time("embed.encode_s", || {
        ClosestItems::from_corpus(&h.corpus, SummaryFields::BEST, EncoderConfig::default())
    });
    closest.fit(train);
    let model = bpr.model().expect("BPR is fitted");
    let ann = stages.time("embed.ivf.build_s", || {
        let ivf = IvfConfig {
            seed: BprConfig::default().seed,
            ..IvfConfig::for_catalogue(train.n_books())
        };
        AnnArtifact {
            content: Some(IvfIndex::build(closest.store(), &ivf)),
            cf: Some(IvfIndex::build_mips(&model.item_factors, &ivf)),
        }
    });
    let quant = stages.time("core.quant.quantize_s", || {
        QuantArtifact::quantize(QuantMode::I8, model, Some(closest.store()))
    });
    Trained {
        quant_payload_bytes: quant.payload_bytes(),
        interactions: train.nnz(),
        bpr,
        most_read,
        closest,
        ann,
        quant,
    }
}

/// Writes the artifacts to `dir` (`serve.registry.save_s`). With
/// `accelerated = false` the IVF indexes and the quantization are left out,
/// which gives the exact serving path used as a reference. Returns the
/// registry and its size on disk in bytes.
pub fn save(
    t: &Trained,
    dir: &Path,
    accelerated: bool,
    stages: &mut Stages,
) -> (ArtifactRegistry, u64) {
    let registry = ArtifactRegistry::new(dir);
    let manifest = Manifest {
        epoch: 1,
        fields: SummaryFields::BEST,
    };
    let (ann, quant) = if accelerated {
        (Some(&t.ann), Some(&t.quant))
    } else {
        (None, None)
    };
    stages.time("serve.registry.save_s", || {
        registry
            .save(
                &manifest,
                t.bpr.model().expect("BPR is fitted"),
                &t.most_read,
                t.closest.store(),
                ann,
                quant,
            )
            .expect("artifact registry is writable")
    });
    let bytes = dir_bytes(dir);
    (registry, bytes)
}

/// Opens `registry` into an engine, timing the file reads
/// (`serve.registry.load_s`) apart from the whole engine load
/// (`serve.engine.load_s`, which re-reads and installs the models).
pub fn load(
    registry: &ArtifactRegistry,
    h: &Harness,
    config: EngineConfig,
    stages: &mut Stages,
) -> ServingEngine {
    stages.time("serve.registry.load_s", || {
        registry.load().expect("artifact registry is readable")
    });
    stages.time("serve.engine.load_s", || {
        ServingEngine::load(registry, &h.split.train, config).expect("engine loads")
    })
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("artifact directory is listable")
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

/// A scratch directory for this process's artifacts under the working
/// directory; removed again when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `perfbench/work/<label>-<pid>` under the current directory.
    pub fn create(label: &str) -> Self {
        let dir = PathBuf::from("perfbench")
            .join("work")
            .join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("work directory is creatable");
        Self(dir)
    }

    /// A sub-directory path (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory only costs disk space. The
        // shared parent goes too once no other run uses it.
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
