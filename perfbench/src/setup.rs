//! Model set-up shared by every workload: Algorithm-2 selection through
//! `Planner::compile`, the `.antm` artifact round trip, and the
//! selection's type census.

use crate::report::Metrics;
use crate::stats::median;
use ant_core::PrimitiveType;
use ant_nn::model::{NetLayer, Sequential};
use ant_nn::qat::QuantSpec;
use ant_runtime::{CompiledPlan, MappedArtifact, ModelArtifact, Planner};
use ant_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a run keeps its artifacts: a per-process directory under the
/// cargo target directory, removed when the run ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let dir = crate::daemon::target_dir()
            .join("perfbench-work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Weight elements per selected primitive: int, pot, flint, float.
pub type TypeCensus = [u64; 4];

pub const TYPE_NAMES: [&str; 4] = ["int", "pot", "flint", "float"];

fn census_add(census: &mut TypeCensus, prim: PrimitiveType, elems: usize) {
    let i = match prim {
        PrimitiveType::Int => 0,
        PrimitiveType::Pot => 1,
        PrimitiveType::Flint => 2,
        PrimitiveType::Float => 3,
    };
    census[i] += elems as u64;
}

/// Counts the quantized weight elements of `model` by the primitive
/// Algorithm 2 selected for their tensor.
pub fn type_census(model: &Sequential) -> TypeCensus {
    let mut census = [0u64; 4];
    for layer in model.layers() {
        match layer {
            NetLayer::Dense(d) => {
                if let Some(q) = &d.quant.weight {
                    census_add(
                        &mut census,
                        q.dtype().primitive(),
                        d.in_features() * d.out_features(),
                    );
                }
            }
            NetLayer::Attn(a) => {
                for q in a.quant.weights.iter().flatten() {
                    census_add(&mut census, q.dtype().primitive(), a.dim() * a.dim());
                }
            }
            _ => {}
        }
    }
    census
}

/// The set-up phase's own figures.
#[derive(Debug, Clone, Default)]
pub struct SetupFigures {
    /// Set-ups the figures are medians of.
    pub reps: usize,
    pub setup_s: f64,
    pub select_s: f64,
    pub weights: u64,
    pub census: TypeCensus,
    pub save_ms: f64,
    pub open_compile_ms: f64,
}

impl SetupFigures {
    /// Medians over repeated set-ups; the census must agree on every one.
    pub fn median_of(reps: &[SetupFigures]) -> Result<SetupFigures, String> {
        let m = |f: fn(&SetupFigures) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        if reps.iter().any(|r| r.census != reps[0].census) {
            return Err(format!(
                "type selection differs between set-ups: {:?}",
                reps.iter().map(|r| r.census).collect::<Vec<_>>()
            ));
        }
        Ok(SetupFigures {
            reps: reps.len(),
            setup_s: m(|r| r.setup_s),
            select_s: m(|r| r.select_s),
            weights: reps[0].weights,
            census: reps[0].census,
            save_ms: m(|r| r.save_ms),
            open_compile_ms: m(|r| r.open_compile_ms),
        })
    }

    /// The `select.*` and `artifact.*` per-layer rows.
    pub fn put_layers(&self, out: &mut Metrics) {
        let reps = self.reps;
        out.put("select.s", self.select_s, "s", reps);
        out.put(
            "select.weights_per_s",
            self.weights as f64 / self.select_s.max(1e-12),
            "1/s",
            reps,
        );
        for (name, count) in TYPE_NAMES.iter().zip(self.census) {
            out.put(format!("select.types.{name}"), count as f64, "count", 1);
        }
        out.put("artifact.save_ms", self.save_ms, "ms", reps);
        out.put("artifact.open_compile_ms", self.open_compile_ms, "ms", reps);
    }
}

/// Runs Algorithm 2 over `parts` (each a chained sub-model with its
/// calibration batch) through one `Planner`, and saves every layer to
/// `path` as one artifact. Fills `select_s`, `weights`, `census` and
/// `save_ms`.
pub fn select_and_save(
    parts: Vec<(Sequential, Tensor)>,
    path: &Path,
) -> Result<SetupFigures, String> {
    let mut fig = SetupFigures {
        reps: 1,
        ..SetupFigures::default()
    };
    let mut planner = Planner::new().strict();
    let mut all = Sequential::new();
    let t = Instant::now();
    for (mut model, calib) in parts {
        planner
            .compile(&mut model, &calib, QuantSpec::default())
            .map_err(|e| format!("Planner::compile: {e}"))?;
        for layer in model.layers() {
            all = all.push(layer.clone());
        }
    }
    fig.select_s = t.elapsed().as_secs_f64();
    fig.census = type_census(&all);
    fig.weights = fig.census.iter().sum();

    let t = Instant::now();
    ModelArtifact::from_model(&all)
        .map_err(|e| format!("artifact: {e}"))?
        .with_cache(planner.cache())
        .save_path(path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    fig.save_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(fig)
}

/// The quantized model stored in an artifact.
pub fn open_model(path: &Path) -> Result<Sequential, String> {
    MappedArtifact::open(path)
        .and_then(|m| m.artifact().to_model())
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Opens an artifact and strict-compiles it, as `antd` does at load.
pub fn open_compile(path: &Path) -> Result<CompiledPlan, String> {
    MappedArtifact::open(path)
        .and_then(|m| m.compile_strict())
        .map_err(|e| format!("compiling {}: {e}", path.display()))
}

/// Strict-compiles layers `range` of a quantized model into one plan.
pub fn sub_plan(model: &Sequential, range: std::ops::Range<usize>) -> Result<CompiledPlan, String> {
    let mut part = Sequential::new();
    for layer in &model.layers()[range] {
        part = part.push(layer.clone());
    }
    CompiledPlan::from_quantized_strict(&part).map_err(|e| format!("compiling sub-plan: {e}"))
}
