//! `paper_q`: the paper's §6.2 queries q1–q6 through `Session`.
//!
//! Set-up ETLs the TrafficCam, PC and Football worlds into one
//! `SharedCatalog` with a `PipelineBatch` (frames already in memory, so the
//! codec stays idle) and builds the columnar physical design. Each op is
//! one round of
//!
//! | q | call |
//! |---|---|
//! | q1 near-duplicate PC images | `Session::join_collections` (self-join) |
//! | q2 frames with a vehicle | `Session::scan`, frame window pushed down |
//! | q3 one player's trajectory | hash-index lookup + `SharedCatalog::backtrace` |
//! | q4 distinct pedestrians | `Session::dedup_collection` |
//! | q5 first image containing a string | `Session::scan`, image window pushed down |
//! | q6 pedestrian pairs, one behind the other | `Session::scan`, frame window pushed down |
//!
//! followed by one write: an unchanged republish of the traffic detections
//! (same ids, so lineage does not grow), which runs the publish-side carry
//! pass. Every round's thresholds and windows are seeded and carry a
//! round-unique offset far below the data's resolution, so no cache key
//! repeats within a run and every lookup takes the miss path without
//! changing the answer's shape.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use deeplens_bench::etl::{
    FootballEtl, PcEtl, TrafficEtl, EMBED_DIM, EMBED_SEED, MATCH_TAU, Q1_TAU,
};
use deeplens_bench::{queries, WORLD_SEED};
use deeplens_codec::Image;
use deeplens_core::prelude::*;
use deeplens_core::scan::ScanStats;
use deeplens_core::types::{DataKind, PatchSchema};
use deeplens_vision::datasets::{FootballDataset, PcDataset, TrafficDataset};
use deeplens_vision::depth::DepthModel;
use deeplens_vision::features::{color_histogram, embed};
use deeplens_vision::ocr::OcrEngine;
use deeplens_vision::scene::BBox;
use deeplens_vision::{ObjectDetector, Scene};

use crate::report::{median, ms_since, Outcome};
use crate::seeded::Rng;
use crate::stages::VisionFeatures;
use crate::{counters, trace, RunConfig};

/// Rounds per second of requested run time.
const ROUNDS_PER_SECOND: f64 = 55.0;
/// World scales (fractions of the paper's corpus sizes).
const TRAFFIC_SCALE: f64 = 0.006;
const PC_SCALE: f64 = 0.5;
const FOOTBALL_SCALE: f64 = 0.04;
/// Fraction of the frames (images, clips) a round's window covers.
const WINDOW: f64 = 0.15;
/// Hash index on the jersey text q3 looks players up by.
const JERSEY_INDEX: &str = "by_text";
/// The q5 search string.
const NEEDLE: &str = "DEEP";

// ---- ETL stages -----------------------------------------------------------

/// Traffic detector crops: label, frame, box, ground-truth id, and a depth
/// estimate on pedestrians.
struct TrafficCrops {
    scene: Arc<Scene>,
    detector: ObjectDetector,
    depth: DepthModel,
}

impl Generator for TrafficCrops {
    fn name(&self) -> &str {
        "traffic-crops"
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
        let t = img_ref.frame_no;
        let mut out = Vec::new();
        for det in self.detector.detect(&self.scene, t, img) {
            let crop = img.crop(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h);
            let mut p = Patch::pixels(ids.alloc(), img_ref.clone(), crop.clone())
                .with_meta("label", det.label.as_str())
                .with_meta("frameno", t as i64)
                .with_meta("score", det.score)
                .with_meta("x", det.bbox.x)
                .with_meta("y", det.bbox.y)
                .with_meta("w", det.bbox.w as i64)
                .with_meta("h", det.bbox.h as i64)
                .with_meta("gt", det.object_id.map_or(-1, |id| id as i64));
            if det.label == "person" {
                if let Some(obj) = det
                    .object_id
                    .and_then(|id| self.scene.objects.iter().find(|o| o.id == id))
                {
                    let d = self.depth.predict(&crop, obj.depth, obj.id, t);
                    p = p.with_meta("depth", d);
                }
            }
            out.push(p);
        }
        Ok(out)
    }
}

/// Football player crops with their jersey read by OCR (`ocr` meta when
/// recognized). Frames of all clips form one source; `per_clip` maps a
/// source frame to `(clip, frame)`.
struct FootballCrops {
    clips: Arc<Vec<Scene>>,
    per_clip: u64,
    detector: ObjectDetector,
    ocr: OcrEngine,
}

impl Generator for FootballCrops {
    fn name(&self) -> &str {
        "football-crops"
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema::pixels().with_keys(["clip", "frameno", "x", "y", "w", "h"])
    }

    fn generate(
        &self,
        img_ref: &ImgRef,
        img: &Image,
        ids: &mut PatchIdRange,
    ) -> deeplens_core::Result<Vec<Patch>> {
        let ci = img_ref.frame_no / self.per_clip;
        let t = img_ref.frame_no % self.per_clip;
        let scene = &self.clips[ci as usize];
        let mut out = Vec::new();
        for det in self.detector.detect(scene, t, img) {
            let crop = img.crop(det.bbox.x, det.bbox.y, det.bbox.w, det.bbox.h);
            let mut p = Patch::pixels(ids.alloc(), img_ref.clone(), crop)
                .with_meta("label", det.label.as_str())
                .with_meta("clip", ci as i64)
                .with_meta("frameno", t as i64)
                .with_meta("x", det.bbox.x)
                .with_meta("y", det.bbox.y)
                .with_meta("w", det.bbox.w as i64)
                .with_meta("h", det.bbox.h as i64);
            let text = det
                .object_id
                .and_then(|id| scene.objects.iter().find(|o| o.id == id))
                .and_then(|obj| {
                    let truth = obj.text.as_ref()?;
                    self.ocr
                        .recognize(img, &det.bbox, truth, ci << 32 | (t << 8) | obj.id)
                })
                .map(|r| r.text);
            if let Some(text) = text {
                p = p.with_meta("ocr", text.as_str());
            }
            out.push(p);
        }
        Ok(out)
    }
}

/// PC images: one whole-image patch per image.
struct PcImages;

impl Generator for PcImages {
    fn name(&self) -> &str {
        "pc-images"
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema::pixels().with_keys(["imgno"])
    }

    fn generate(
        &self,
        img_ref: &ImgRef,
        img: &Image,
        ids: &mut PatchIdRange,
    ) -> deeplens_core::Result<Vec<Patch>> {
        Ok(vec![Patch::pixels(
            ids.alloc(),
            img_ref.clone(),
            img.clone(),
        )
        .with_meta("imgno", img_ref.frame_no as i64)])
    }
}

/// PC strings: one metadata-only patch per recognized text line.
struct PcStrings {
    texts: Arc<Vec<Vec<String>>>,
    ocr: OcrEngine,
}

impl Generator for PcStrings {
    fn name(&self) -> &str {
        "pc-strings"
    }

    fn output_schema(&self) -> PatchSchema {
        PatchSchema {
            data: DataKind::Empty,
            ..PatchSchema::pixels().with_keys(["imgno", "text"])
        }
    }

    fn generate(
        &self,
        img_ref: &ImgRef,
        img: &Image,
        ids: &mut PatchIdRange,
    ) -> deeplens_core::Result<Vec<Patch>> {
        let i = img_ref.frame_no;
        let mut out = Vec::new();
        for (line, truth) in self.texts[i as usize].iter().enumerate() {
            let region = BBox::new(0, line as i64 * 8, img.width(), 12.min(img.height()));
            if let Some(res) = self
                .ocr
                .recognize(img, &region, truth, i << 16 | line as u64)
            {
                out.push(
                    Patch::empty(ids.alloc(), img_ref.clone())
                        .with_meta("text", res.text.as_str())
                        .with_meta("imgno", i as i64)
                        .with_meta("line", line as i64),
                );
            }
        }
        Ok(out)
    }
}

fn colour_histogram() -> Box<dyn Transformer> {
    Box::new(VisionFeatures {
        label: "colour-histogram",
        dim: 12,
        f: |img| color_histogram(img, 4),
    })
}

// ---- set-up ---------------------------------------------------------------

/// The three worlds and the catalog they were ETL'd into.
pub struct Worlds {
    traffic: TrafficDataset,
    pc: PcDataset,
    football: FootballDataset,
    session: Session,
}

fn setup(cfg: &RunConfig) -> Result<Worlds, String> {
    // The worlds are fixed so that every seed measures the same amount of
    // work; the seed picks the rounds.
    let traffic = TrafficDataset::generate(TRAFFIC_SCALE, WORLD_SEED);
    let pc = PcDataset::generate(PC_SCALE, WORLD_SEED);
    let football = FootballDataset::generate(FOOTBALL_SCALE, WORLD_SEED);
    let session = Session::attach(
        cfg.session_dir("paper_q"),
        Device::ParallelCpu(0),
        Arc::new(SharedCatalog::new()),
    )
    .map_err(|e| e.to_string())?;

    let device = Device::Avx;
    let per_clip = football.clips[0].num_frames;
    let mut batch = session.ingest_batch();
    let err = |e: DlError| e.to_string();
    batch
        .add_frames_source("traffic", traffic.render_all())
        .map_err(err)?;
    batch
        .add_frames_source("pc", pc.images.clone())
        .map_err(err)?;
    let football_frames: Vec<Image> = football
        .clips
        .iter()
        .flat_map(|c| (0..c.num_frames).map(|t| c.scene.render_frame(t)))
        .collect();
    let football_len = football_frames.len() as u64;
    batch
        .add_frames_source("football", football_frames)
        .map_err(err)?;
    batch
        .ingest(
            Pipeline::new(Box::new(TrafficCrops {
                scene: Arc::new(traffic.scene.clone()),
                detector: ObjectDetector::default_on(device),
                depth: DepthModel::default_on(device),
            }))
            .then(colour_histogram()),
            "traffic",
            0..traffic.num_frames,
            "traffic_dets",
        )
        .map_err(err)?;
    batch
        .ingest(
            Pipeline::new(Box::new(PcImages)).then(Box::new(VisionFeatures {
                label: "embedding",
                dim: EMBED_DIM,
                f: |img| embed(img, EMBED_DIM, EMBED_SEED),
            })),
            "pc",
            0..pc.images.len() as u64,
            "pc_images",
        )
        .map_err(err)?;
    batch
        .ingest(
            Pipeline::new(Box::new(PcStrings {
                texts: Arc::new(pc.texts.clone()),
                ocr: OcrEngine::default_on(device),
            })),
            "pc",
            0..pc.images.len() as u64,
            "pc_strings",
        )
        .map_err(err)?;
    batch
        .ingest(
            Pipeline::new(Box::new(FootballCrops {
                clips: Arc::new(football.clips.iter().map(|c| c.scene.clone()).collect()),
                per_clip,
                detector: ObjectDetector::default_on(device),
                ocr: OcrEngine::default_on(device),
            }))
            .then(colour_histogram()),
            "football",
            0..football_len,
            "football_dets",
        )
        .map_err(err)?;
    batch.run().map_err(err)?;

    // Derived collections: pedestrians (q4, q6) and jersey reads as
    // children of their detections (q3's lineage).
    let catalog = &session.catalog;
    let people = session
        .scan(
            "traffic_dets",
            &ScanFilter::MetaEq {
                key: "label".into(),
                value: Value::from("person"),
            },
            Projection::Full,
        )
        .map_err(err)?
        .patches;
    catalog.materialize("traffic_people", people);
    let dets = catalog.snapshot("football_dets").map_err(err)?;
    let reads: Vec<&Patch> = dets
        .patches
        .iter()
        .filter(|p| p.get_str("ocr").is_some())
        .collect();
    let mut ids = catalog.reserve_patch_ids(reads.len() as u64);
    let ocr: Vec<Patch> = reads
        .into_iter()
        .map(|p| {
            let text = p.get_str("ocr").unwrap_or_default().to_string();
            p.derive(ids.alloc(), PatchData::Empty)
                .with_meta("text", text)
        })
        .collect();
    catalog.materialize("football_ocr", ocr);
    for name in ["traffic_dets", "traffic_people", "pc_images", "pc_strings"] {
        session.build_columnar(name).map_err(err)?;
    }
    catalog
        .build_hash_index("football_ocr", JERSEY_INDEX, "text")
        .map_err(err)?;
    Ok(Worlds {
        traffic,
        pc,
        football,
        session,
    })
}

// ---- one round ------------------------------------------------------------

/// A round's parameters.
#[derive(Debug, Clone)]
struct Round {
    q1_tau: f32,
    q4_tau: f32,
    /// Traffic frame window `[lo, hi)` as pushed-down bounds.
    frames: (f64, f64),
    /// PC image window.
    images: (f64, f64),
    /// Football clip window.
    clips: (f64, f64),
}

impl Round {
    fn new(seed: u64, r: usize, frames: u64, images: u64, clips: u64) -> Round {
        // A round-unique offset: below any gap in the data (integers for
        // windows, the matching thresholds' margins for taus), so keys
        // differ but answers keep their shape.
        let eps = (r + 1) as f64 * 1e-6;
        let window = |n: u64, salt: u64| {
            let width = ((n as f64 * WINDOW).round() as u64).max(1);
            let lo = Rng(seed ^ (r as u64) << 8 ^ salt).below((n - width + 1) as usize) as u64;
            (lo as f64 - 0.5 + eps, (lo + width) as f64 - 0.5)
        };
        Round {
            q1_tau: Q1_TAU * (1.0 + eps as f32),
            q4_tau: MATCH_TAU * (1.0 + eps as f32),
            frames: window(frames, 1),
            images: window(images, 2),
            clips: window(clips, 3),
        }
    }

    /// The canonical round: the queries' own thresholds over every row.
    fn canonical(frames: u64, images: u64, clips: u64) -> Round {
        Round {
            q1_tau: Q1_TAU,
            q4_tau: MATCH_TAU,
            frames: (-0.5, frames as f64),
            images: (-0.5, images as f64),
            clips: (-0.5, clips as f64),
        }
    }
}

/// A round's answers.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    q1: Vec<(u32, u32)>,
    q2: usize,
    q3: Vec<queries::TrajPoint>,
    q4: usize,
    q5: Option<i64>,
    q6: usize,
}

fn range(key: &str, (lo, hi): (f64, f64)) -> ScanFilter {
    ScanFilter::MetaRange {
        key: key.into(),
        lo,
        hi,
    }
}

fn self_pairs(pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = pairs.into_iter().filter(|(a, b)| a < b).collect();
    out.sort_unstable();
    out.dedup();
    out
}

fn frames_with_vehicle(dets: &[Patch]) -> usize {
    dets.iter()
        .filter(|p| matches!(p.get_str("label"), Some("car") | Some("truck")))
        .filter_map(|p| p.get_int("frameno"))
        .collect::<HashSet<_>>()
        .len()
}

fn first_image_with(strings: &[Patch], needle: &str) -> Option<i64> {
    strings
        .iter()
        .filter(|p| p.get_str("text").is_some_and(|t| t.contains(needle)))
        .filter_map(|p| p.get_int("imgno"))
        .min()
}

fn sort_trajectory(mut points: Vec<queries::TrajPoint>) -> Vec<queries::TrajPoint> {
    points.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)).then(a.2.total_cmp(&b.2)));
    points
}

/// Zone-map work summed over a run's scans.
#[derive(Debug, Default)]
struct ScanWork {
    pruned: usize,
    decoded: usize,
}

impl ScanWork {
    fn add(&mut self, stats: &ScanStats) {
        self.pruned += stats.chunks_pruned;
        self.decoded += stats.chunks_decoded;
    }
}

/// Run one round through the session, adding its scans' work to `scans`.
fn round(
    w: &Worlds,
    q: &Round,
    jersey: &str,
    per_clip: u64,
    scans: &mut ScanWork,
) -> Result<Answers, String> {
    let s = &w.session;
    let err = |e: DlError| e.to_string();
    let q1 = {
        let _s = trace::span("query.q1_join");
        self_pairs(
            s.join_collections("pc_images", "pc_images", q.q1_tau)
                .map_err(err)?,
        )
    };
    let q2 = {
        let _s = trace::span("query.q2_scan");
        let res = s
            .scan(
                "traffic_dets",
                &range("frameno", q.frames),
                Projection::MetaOnly,
            )
            .map_err(err)?;
        let n = frames_with_vehicle(&res.patches);
        scans.add(&res.stats);
        n
    };
    let q3 = {
        let _s = trace::span("query.q3_backtrace");
        let ocr = s.catalog.snapshot("football_ocr").map_err(err)?;
        let mut points = Vec::new();
        for pos in ocr
            .lookup_eq(JERSEY_INDEX, &Value::from(jersey))
            .map_err(err)?
        {
            let hit = &ocr.patches[pos as usize];
            if !in_window(hit, "clip", q.clips) {
                continue;
            }
            let (Some(x), Some(y), Some(bw), Some(bh)) = (
                hit.get_int("x"),
                hit.get_int("y"),
                hit.get_int("w"),
                hit.get_int("h"),
            ) else {
                continue;
            };
            for root in s.catalog.backtrace(hit.id) {
                points.push((
                    (root.frame_no / per_clip) as i64,
                    (root.frame_no % per_clip) as i64,
                    x as f64 + bw as f64 / 2.0,
                    y as f64 + bh as f64 / 2.0,
                ));
            }
        }
        sort_trajectory(points)
    };
    let q4 = {
        let _s = trace::span("query.q4_dedup");
        s.dedup_collection("traffic_people", q.q4_tau)
            .map_err(err)?
            .len()
    };
    let q5 = {
        let _s = trace::span("query.q5_scan");
        let res = s
            .scan(
                "pc_strings",
                &range("imgno", q.images),
                Projection::MetaOnly,
            )
            .map_err(err)?;
        let first = first_image_with(&res.patches, NEEDLE);
        scans.add(&res.stats);
        first
    };
    let q6 = {
        let _s = trace::span("query.q6_scan");
        let res = s
            .scan(
                "traffic_people",
                &range("frameno", q.frames),
                Projection::MetaOnly,
            )
            .map_err(err)?;
        let n = queries::q6_optimized(&res.patches);
        scans.add(&res.stats);
        n
    };
    Ok(Answers {
        q1,
        q2,
        q3,
        q4,
        q5,
        q6,
    })
}

/// The round's write: republish the traffic detections unchanged.
fn write(w: &Worlds) -> Result<(), String> {
    let _root = trace::span("write");
    let _s = trace::span("query.write");
    let c = &w.session.catalog;
    let snap = c.snapshot("traffic_dets").map_err(|e| e.to_string())?;
    c.materialize("traffic_dets", snap.patches.clone());
    Ok(())
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    crate::with_setups(cfg, || setup(cfg), |w, out| measure(cfg, &w, out))
}

fn measure(cfg: &RunConfig, w: &Worlds, out: &mut Outcome) -> Result<(), String> {
    let shape = Shape::of(w);
    let rounds: Vec<Round> = (0..cfg.ops(ROUNDS_PER_SECOND))
        .map(|r| Round::new(cfg.seed, r, shape.frames, shape.images, shape.clips))
        .collect();

    let before = counters::Snapshot::take(&w.session.catalog);
    let mut answers = Vec::with_capacity(rounds.len());
    let mut scans = ScanWork::default();
    let mut lat = Vec::with_capacity(rounds.len());
    let mut write_lat = Vec::with_capacity(rounds.len());
    let mut failures = Vec::new();
    let tracing = cfg.tracing();
    let start = Instant::now();
    for q in &rounds {
        let t = Instant::now();
        let op = trace::span("op");
        let a = round(w, q, &w.football.target_jersey, shape.per_clip, &mut scans);
        drop(op);
        lat.push(ms_since(t));
        let t = Instant::now();
        let written = write(w);
        write_lat.push(ms_since(t));
        match a.and_then(|a| written.map(|()| a)) {
            Ok(a) => answers.push(a),
            Err(e) => failures.push(e),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    drop(tracing);
    out.measured_s = elapsed;
    let after = counters::Snapshot::take(&w.session.catalog);
    out.attempted = rounds.len() as u64;
    out.failed = failures.len() as u64;
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let delta = after.since(&before);
    verify(w, &shape, &rounds, &answers)?;

    out.e2e("ops_per_s", rounds.len() as f64 / elapsed, "1/s");
    out.e2e("op_p50_ms", median(&lat), "ms");
    out.e2e("op_p90_ms", cfg.p90(&lat)?, "ms");
    out.e2e("write_p50_ms", median(&write_lat), "ms");
    out.e2e("write_p90_ms", cfg.p90(&write_lat)?, "ms");
    delta.report(out);
    out.layer("scan.chunks_pruned", scans.pruned as f64, "count");
    out.layer("scan.chunks_decoded", scans.decoded as f64, "count");
    if out.layer_value("cache.hits") != Some(0.0) {
        return Err("a paper_q round hit the result cache".into());
    }
    Ok(())
}

/// Sizes the round windows range over.
struct Shape {
    frames: u64,
    images: u64,
    clips: u64,
    per_clip: u64,
}

impl Shape {
    fn of(w: &Worlds) -> Shape {
        Shape {
            frames: w.traffic.num_frames,
            images: w.pc.images.len() as u64,
            clips: w.football.clips.len() as u64,
            per_clip: w.football.clips[0].num_frames,
        }
    }
}

// ---- correctness gate -----------------------------------------------------

fn in_window(p: &Patch, key: &str, (lo, hi): (f64, f64)) -> bool {
    p.get_float(key).is_some_and(|v| v >= lo && v < hi)
}

/// Row-path reference for one round over the final snapshots, built from
/// the `queries.rs` reference implementations.
fn reference(w: &Worlds, q: &Round, pool: &WorkerPool) -> Result<Answers, String> {
    let c = &w.session.catalog;
    let snap = |n: &str| c.snapshot(n).map_err(|e| e.to_string());
    let images = snap("pc_images")?;
    let strings = snap("pc_strings")?;
    let dets = snap("traffic_dets")?;
    let people = snap("traffic_people")?;
    let fdets = snap("football_dets")?;
    let focr = snap("football_ocr")?;
    let window = |rows: &[Patch], key: &str, win| -> Vec<Patch> {
        rows.iter()
            .filter(|p| in_window(p, key, win))
            .cloned()
            .collect()
    };
    let pc = PcEtl {
        dataset: w.pc.clone(),
        image_patches: images.patches.clone(),
        ocr_patches: window(&strings.patches, "imgno", q.images),
        catalog: Catalog::new(),
    };
    let traffic = TrafficEtl {
        dataset: w.traffic.clone(),
        detections: window(&dets.patches, "frameno", q.frames),
        catalog: Catalog::new(),
    };
    let football = FootballEtl {
        dataset: w.football.clone(),
        detections: fdets.patches.clone(),
        ocr_patches: window(&focr.patches, "clip", q.clips),
        catalog: Catalog::new(),
    };
    let q1 = if q.q1_tau == Q1_TAU {
        queries::q1_optimized(&pc)
    } else {
        self_pairs(ops::similarity_join_nested(
            &images.patches,
            &images.patches,
            q.q1_tau,
        ))
    };
    let q4 = if q.q4_tau == MATCH_TAU {
        queries::q4_optimized(&people.patches)
    } else {
        ops::dedup_similarity(&people.patches, q.q4_tau, pool).len()
    };
    let id_map = queries::q3_build_id_map(&football);
    Ok(Answers {
        q1,
        q2: queries::q2_baseline(&traffic),
        q3: queries::q3_optimized(&football, &id_map, &w.football.target_jersey),
        q4,
        q5: queries::q5_scan(&pc, NEEDLE),
        q6: queries::q6_optimized(&window(&people.patches, "frameno", q.frames)),
    })
}

/// Correctness gate, outside the timed region: a sample of the timed
/// rounds and the canonical round (the queries' own constants over every
/// row) must match the `queries.rs` row-path references exactly.
fn verify(w: &Worlds, shape: &Shape, rounds: &[Round], answers: &[Answers]) -> Result<(), String> {
    let pool = WorkerPool::new(1);
    let step = (rounds.len() / 8).max(1);
    for r in (0..rounds.len()).step_by(step).chain([rounds.len() - 1]) {
        let expect = reference(w, &rounds[r], &pool)?;
        if answers[r] != expect {
            return Err(format!(
                "round {r}: session answers {:?} differ from the reference {:?}",
                answers[r], expect
            ));
        }
    }
    let canonical = Round::canonical(shape.frames, shape.images, shape.clips);
    let got = round(
        w,
        &canonical,
        &w.football.target_jersey,
        shape.per_clip,
        &mut ScanWork::default(),
    )?;
    let expect = reference(w, &canonical, &pool)?;
    if got != expect {
        return Err(format!(
            "canonical round: session answers {got:?} differ from the reference {expect:?}"
        ));
    }
    if got.q1.is_empty() || got.q3.is_empty() || got.q4 == 0 {
        return Err(format!("canonical round found nothing: {got:?}"));
    }
    Ok(())
}
