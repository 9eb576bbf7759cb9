//! `ingest`: shared-scan ETL of encoded video segments.
//!
//! Every op is one `Session::ingest_batch()` over one whole, self-contained
//! segment (its own I-frame, GOP = segment length), running K = 4
//! pipelines: detector crops + colour histograms, whole-frame embeddings
//! (both on `deeplens_vision`), and two cheap mean-colour pipelines. Op `i`
//! ingests the `i mod SEGMENTS`-th segment of a seeded order of the pool and
//! republishes slot `i mod SLOTS`; the
//! embedding output of every slot carries a Ball index, so the publish-side
//! carry pass runs on every op. The segment pool holds more frames than the
//! session's frame cache, so cyclic reuse always misses and every op
//! decodes its segment exactly once. The world is fixed, so every seed
//! measures the same work.

use std::sync::Arc;
use std::time::Instant;

use deeplens_codec::video::{encode_video, VideoConfig};
use deeplens_codec::{Image, Quality};
use deeplens_core::etl::{FeaturizeTransformer, TileGenerator, WholeImageGenerator};
use deeplens_core::prelude::*;
use deeplens_core::session::DEFAULT_FRAME_CACHE_FRAMES;
use deeplens_core::types::PatchSchema;
use deeplens_vision::datasets::TrafficDataset;
use deeplens_vision::features::{color_histogram, embed};
use deeplens_vision::{DetectorConfig, ObjectDetector, Scene};

use crate::report::{median, ms_since, Outcome};
use crate::seeded::Rng;
use crate::stages::VisionFeatures;
use crate::{counters, trace, RunConfig};

/// Frames per segment (one GOP).
pub const SEGMENT_FRAMES: u64 = 24;
/// Segments in the pool: 16 × 24 = 384 frames, more than the session's
/// 256-frame cache.
pub const SEGMENTS: usize = 16;
/// Output slots republished round-robin.
pub const SLOTS: usize = 4;
/// Ops per second of requested run time (the schedule is a fixed count).
const OPS_PER_SECOND: f64 = 27.0;
/// Embedding dimension of the indexed output.
const EMBED_DIM: usize = 24;
const EMBED_SEED: u64 = 0xE4BED;
const BALL_INDEX: &str = "by_embedding";

/// Detector crops of one segment, one patch per detection.
struct DetectCrops {
    scene: Arc<Scene>,
    detector: ObjectDetector,
    /// World time of the segment's first frame.
    base_t: u64,
}

impl Generator for DetectCrops {
    fn name(&self) -> &str {
        "detect-crops"
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema::pixels().with_keys(["label", "frameno", "x", "y", "w", "h"])
    }

    fn generate(
        &self,
        img_ref: &ImgRef,
        img: &Image,
        ids: &mut PatchIdRange,
    ) -> deeplens_core::Result<Vec<Patch>> {
        let t = self.base_t + img_ref.frame_no;
        let dets = {
            let _s = trace::span("vision.detect");
            self.detector.detect(&self.scene, t, img)
        };
        Ok(dets
            .into_iter()
            .map(|d| {
                let crop = img.crop(d.bbox.x, d.bbox.y, d.bbox.w, d.bbox.h);
                Patch::pixels(ids.alloc(), img_ref.clone(), crop)
                    .with_meta("label", d.label.as_str())
                    .with_meta("frameno", t as i64)
                    .with_meta("x", d.bbox.x)
                    .with_meta("y", d.bbox.y)
                    .with_meta("w", d.bbox.w as i64)
                    .with_meta("h", d.bbox.h as i64)
            })
            .collect())
    }
}

fn histogram(img: &Image) -> Vec<f32> {
    color_histogram(img, 4)
}

fn embedding(img: &Image) -> Vec<f32> {
    embed(img, EMBED_DIM, EMBED_SEED)
}

fn mean_colour(label: &str) -> Box<dyn Transformer> {
    Box::new(FeaturizeTransformer {
        label: label.into(),
        dim: 3,
        f: Box::new(|img| img.mean_color().to_vec()),
    })
}

/// The workload's inputs: the world, its encoded segments, and the seeded
/// order the schedule cycles through them in.
pub struct World {
    scene: Arc<Scene>,
    segments: Vec<Vec<u8>>,
    order: Vec<usize>,
}

impl World {
    pub fn generate(world_seed: u64, schedule_seed: u64) -> Result<World, String> {
        let frames = SEGMENTS as u64 * SEGMENT_FRAMES;
        // `TrafficDataset` sizes its feed as a fraction of the paper's
        // 35 280 frames; ask for just over the pool's worth.
        let dataset = TrafficDataset::generate((frames + 1) as f64 / 35_280.0, world_seed);
        if dataset.num_frames < frames {
            return Err(format!("world has {} frames", dataset.num_frames));
        }
        let cfg = VideoConfig {
            quality: Quality::High,
            gop: SEGMENT_FRAMES as u32,
            fps: 30.0,
        };
        let segments = (0..SEGMENTS as u64)
            .map(|s| {
                let clip: Vec<Image> = (s * SEGMENT_FRAMES..(s + 1) * SEGMENT_FRAMES)
                    .map(|t| dataset.scene.render_frame(t))
                    .collect();
                encode_video(&clip, cfg).map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(World {
            scene: Arc::new(dataset.scene),
            segments,
            order: Rng(schedule_seed).permutation(SEGMENTS),
        })
    }

    fn pipelines(&self, segment: usize) -> Vec<(&'static str, Pipeline)> {
        let detector = ObjectDetector::new(DetectorConfig::default(), Device::Avx);
        vec![
            (
                "dets",
                Pipeline::new(Box::new(DetectCrops {
                    scene: self.scene.clone(),
                    detector,
                    base_t: segment as u64 * SEGMENT_FRAMES,
                }))
                .then(Box::new(VisionFeatures {
                    label: "colour-histogram",
                    dim: 12,
                    f: histogram,
                })),
            ),
            (
                "embed",
                Pipeline::new(Box::new(WholeImageGenerator)).then(Box::new(VisionFeatures {
                    label: "embedding",
                    dim: EMBED_DIM,
                    f: embedding,
                })),
            ),
            (
                "mean",
                Pipeline::new(Box::new(WholeImageGenerator)).then(mean_colour("frame-mean")),
            ),
            (
                "tiles",
                Pipeline::new(Box::new(TileGenerator { tile: 32 })).then(mean_colour("tile-mean")),
            ),
        ]
    }

    /// The segment op `op` of the schedule ingests (the set-up's ops are
    /// the first `SLOTS`).
    fn segment_of(&self, op: usize) -> usize {
        self.order[op % SEGMENTS]
    }

    /// Enqueue op `segment → slot` on `session` and return the batch.
    fn batch<'s>(
        &self,
        session: &'s Session,
        segment: usize,
        slot: usize,
    ) -> Result<PipelineBatch<'s>, String> {
        let source = format!("segment{segment}");
        let mut batch = session.ingest_batch();
        batch
            .add_encoded_source(&source, self.segments[segment].clone())
            .map_err(|e| e.to_string())?;
        for (output, pipeline) in self.pipelines(segment) {
            batch
                .ingest(
                    pipeline,
                    &source,
                    0..SEGMENT_FRAMES,
                    &output_name(slot, output),
                )
                .map_err(|e| e.to_string())?;
        }
        Ok(batch)
    }
}

fn output_name(slot: usize, output: &str) -> String {
    format!("ingest.slot{slot}.{output}")
}

fn session(cfg: &RunConfig) -> Result<Session, String> {
    Session::attach(
        cfg.session_dir("ingest"),
        Device::ParallelCpu(0),
        Arc::new(SharedCatalog::new()),
    )
    .map_err(|e| e.to_string())
}

/// Set-up: the world, a session, one ingest per slot, and the Ball index
/// on every slot's embedding output.
fn setup(cfg: &RunConfig) -> Result<(World, Session), String> {
    let world = World::generate(deeplens_bench::WORLD_SEED, cfg.seed)?;
    let session = session(cfg)?;
    for slot in 0..SLOTS {
        world
            .batch(&session, world.segment_of(slot), slot)?
            .run()
            .map_err(|e| e.to_string())?;
        session
            .build_ball_index(&output_name(slot, "embed"), BALL_INDEX)
            .map_err(|e| e.to_string())?;
    }
    Ok((world, session))
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    crate::with_setups(
        cfg,
        || setup(cfg),
        |(world, session), out| measure(cfg, &world, &session, out),
    )
}

/// The measured schedule. It continues the seeded segment order where the
/// set-up's `SLOTS` ops stopped.
fn measure(
    cfg: &RunConfig,
    world: &World,
    session: &Session,
    out: &mut Outcome,
) -> Result<(), String> {
    let ops = cfg.ops(OPS_PER_SECOND);
    let before = counters::Snapshot::take(&session.catalog);
    let mut lat = Vec::with_capacity(ops);
    let mut failures = Vec::new();
    let tracing = cfg.tracing();
    let start = Instant::now();
    for op in 0..ops {
        let segment = world.segment_of(SLOTS + op);
        let slot = op % SLOTS;
        let decoded = deeplens_codec::frames_decoded();
        let t = Instant::now();
        let _op = trace::span("op");
        let result = world.batch(session, segment, slot).and_then(|b| {
            let _s = trace::span("etl.run").fan_out();
            b.run().map_err(|e| e.to_string())
        });
        drop(_op);
        lat.push(ms_since(t));
        match result {
            Ok(counts) if counts.iter().all(|&n| n > 0) => {}
            Ok(counts) => failures.push(format!("op {op}: empty output {counts:?}")),
            Err(e) => failures.push(format!("op {op}: {e}")),
        }
        let decoded = deeplens_codec::frames_decoded() - decoded;
        if decoded != SEGMENT_FRAMES {
            failures.push(format!(
                "op {op}: decoded {decoded} frames, expected {SEGMENT_FRAMES}"
            ));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(tracing);
    out.measured_s = elapsed;
    let after = counters::Snapshot::take(&session.catalog);

    out.attempted = ops as u64;
    out.failed = failures.len() as u64;
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    verify(cfg, world, session, ops)?;

    out.e2e("ops_per_s", ops as f64 / elapsed, "1/s");
    out.e2e("op_p50_ms", median(&lat), "ms");
    out.e2e("op_p90_ms", cfg.p90(&lat)?, "ms");
    // Every ingest op is a catalog write (it republishes four collections),
    // so the write class is the op class.
    out.e2e("write_p50_ms", median(&lat), "ms");
    out.e2e("write_p90_ms", cfg.p90(&lat)?, "ms");
    after.since(&before).report(out);
    Ok(())
}

/// Correctness gate, outside the timed region: a sample op through
/// `PipelineBatch::run` and `run_serial` on fresh catalogs must agree
/// byte for byte, must match what the timed run published for the same
/// segment, and every slot's delta-maintained Ball index must answer like
/// a scan.
fn verify(cfg: &RunConfig, world: &World, timed: &Session, ops: usize) -> Result<(), String> {
    // The last op that wrote slot 0, and its segment.
    let last_op = (0..ops).rev().find(|op| op % SLOTS == 0).unwrap_or(0);
    let segment = world.segment_of(SLOTS + last_op);
    let batched = session(cfg)?;
    let serial = session(cfg)?;
    world
        .batch(&batched, segment, 0)?
        .run()
        .map_err(|e| e.to_string())?;
    world
        .batch(&serial, segment, 0)?
        .run_serial()
        .map_err(|e| e.to_string())?;
    for (output, _) in world.pipelines(segment) {
        let name = output_name(0, output);
        let a = batched.catalog.snapshot(&name).map_err(|e| e.to_string())?;
        let b = serial.catalog.snapshot(&name).map_err(|e| e.to_string())?;
        if a.patches != b.patches {
            return Err(format!("{name}: batched run differs from run_serial"));
        }
        if ops > 0 {
            let t = timed.catalog.snapshot(&name).map_err(|e| e.to_string())?;
            let same = t.patches.len() == a.patches.len()
                && t.patches
                    .iter()
                    .zip(&a.patches)
                    .all(|(x, y)| x.data == y.data && x.meta == y.meta && x.img_ref == y.img_ref);
            if !same {
                return Err(format!("{name}: timed output differs from the reference"));
            }
        }
    }
    for slot in 0..SLOTS {
        let col = timed
            .catalog
            .snapshot(&output_name(slot, "embed"))
            .map_err(|e| e.to_string())?;
        // A delta-maintained index must answer exactly like a fresh build.
        let mut rebuilt = (*col).clone();
        rebuilt
            .build_ball_index("rebuilt")
            .map_err(|e| e.to_string())?;
        for probe_row in [0, col.len() / 2] {
            let probe = col.patches[probe_row]
                .data
                .features()
                .ok_or("embedding row without features")?
                .to_vec();
            let carried = col
                .lookup_similar(BALL_INDEX, &probe, 0.5)
                .map_err(|e| e.to_string())?;
            let fresh = rebuilt
                .lookup_similar("rebuilt", &probe, 0.5)
                .map_err(|e| e.to_string())?;
            if carried != fresh || carried.is_empty() {
                return Err(format!(
                    "slot {slot}: carried Ball index disagrees with a rebuild"
                ));
            }
        }
    }
    Ok(())
}

// Cyclic reuse of the pool must miss the session's frame cache.
const _: () = assert!(SEGMENTS * SEGMENT_FRAMES as usize > DEFAULT_FRAME_CACHE_FRAMES);
