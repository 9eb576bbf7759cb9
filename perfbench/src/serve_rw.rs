//! `serve_rw`: a loopback `deeplens_serve` server under a closed-loop read
//! and write mix from two connections.
//!
//! Each read is one `Batch` holding the whole dashboard (eight similarity
//! joins and dedups over settled collections no write touches, so they hit
//! the result cache after the set-up's warm-up) and `PROBES` fresh index
//! probes on the hot Ball-indexed collection (seeded, never repeated, so
//! they always miss). Every read touches every dashboard entry, so the
//! probes' cache inserts (at most a few hundred per cache shard between two
//! touches, against 128 entries a shard) never evict one: each member's
//! cache outcome is fixed by construction. Every `WRITE_EVERY`-th request is a `Materialize` of the
//! hot collection with about 2% of its rows changed, which the catalog
//! carries forward by `DeltaBallTree` delta maintenance and merges. The
//! schedule is a fixed list of requests; two client threads pull the next
//! request as soon as their previous one is answered, so `ops_per_s`
//! measures the server. Writes are issued in schedule order, one at a time.
//!
//! The client side speaks the wire protocol through its public pieces
//! (`Request::encode`, `write_frame`, `read_frame`, `Response::decode`), so
//! the traced run can time each of them.

use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use deeplens_core::prelude::*;
use deeplens_core::shared::DEFAULT_SHARDS;
use deeplens_serve::protocol::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
use deeplens_serve::{serve, Request, Response, ServerConfig, ServerHandle};

use crate::report::{median, ms_since, Outcome};
use crate::seeded::Rng;
use crate::{counters, trace, RunConfig};

/// Requests per second of requested run time.
const REQUESTS_PER_SECOND: f64 = 450.0;
/// Client connections (= load threads).
const CONNECTIONS: usize = 2;
const DIM: usize = 12;
/// Rows of each settled dashboard collection.
const DASH_ROWS: usize = 1_500;
/// Rows of the hot collection.
const HOT_ROWS: usize = 4_000;
/// Rows a write changes (2%).
const CHANGED_ROWS: usize = HOT_ROWS / 50;
/// Fresh probes per read.
const PROBES: usize = 128;
const PROBE_TAU: f32 = 0.15;
/// Every `WRITE_EVERY`-th request is a write.
const WRITE_EVERY: usize = 32;
const HOT: &str = "hot";
const HOT_INDEX: &str = "hot_ball";

/// `n` clustered `DIM`-vectors: points scattered tightly around 60 centres.
fn clustered(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = Rng(seed);
    let centres: Vec<Vec<f32>> = (0..60)
        .map(|_| (0..DIM).map(|_| rng.unit()).collect())
        .collect();
    (0..n)
        .map(|_| {
            let c = &centres[rng.below(centres.len())];
            c.iter().map(|x| x + (rng.unit() - 0.5) * 0.06).collect()
        })
        .collect()
}

/// The dashboard: the repeated batch members over settled collections.
fn dashboard() -> Vec<BatchQuery> {
    let mut q = Vec::new();
    for tau in [0.03f32, 0.045] {
        q.push(BatchQuery::SimilarityJoin {
            left: "dash_a".into(),
            right: "dash_b".into(),
            tau,
            predicate: None,
        });
        for c in ["dash_a", "dash_b"] {
            q.push(BatchQuery::Dedup {
                collection: c.into(),
                tau,
            });
        }
    }
    q.push(BatchQuery::SimilarityJoin {
        left: "dash_b".into(),
        right: "dash_a".into(),
        tau: 0.03,
        predicate: None,
    });
    q.push(BatchQuery::SimilarityJoin {
        left: "dash_a".into(),
        right: "dash_a".into(),
        tau: 0.03,
        predicate: None,
    });
    q
}

/// The collections are generated from a fixed world seed, so every run
/// serves the same data; the run's seed picks the probes and the rows each
/// write changes.
const WORLD_SEED: u64 = deeplens_bench::WORLD_SEED;

/// The request schedule: a pure function of the seed.
struct Schedule {
    seed: u64,
    requests: usize,
    hot_base: Vec<Vec<f32>>,
    dashboard: Vec<BatchQuery>,
}

impl Schedule {
    fn is_write(i: usize) -> bool {
        i % WRITE_EVERY == WRITE_EVERY - 1
    }

    fn write_index(i: usize) -> usize {
        i / WRITE_EVERY
    }

    /// Request `i` of the schedule.
    fn request(&self, i: usize) -> Request {
        if Self::is_write(i) {
            return Request::Materialize {
                name: HOT.into(),
                rows: self.hot_version(Self::write_index(i) + 1),
            };
        }
        let mut rng = Rng(self.seed ^ 0x5EED ^ (i as u64) << 20);
        let mut queries = self.dashboard.clone();
        for _ in 0..PROBES {
            let row = &self.hot_base[rng.below(HOT_ROWS)];
            queries.push(BatchQuery::IndexProbe {
                collection: HOT.into(),
                index: HOT_INDEX.into(),
                probe: row.iter().map(|x| x + (rng.unit() - 0.5) * 0.02).collect(),
                tau: PROBE_TAU,
            });
        }
        Request::Batch(queries)
    }

    /// The hot collection's rows after `version` writes (version 0 is the
    /// set-up's): write `k` moves its own seeded 2% of the rows.
    fn hot_version(&self, version: usize) -> Vec<Vec<f32>> {
        let mut rows = self.hot_base.clone();
        if version > 0 {
            let mut rng = Rng(self.seed ^ 0x3417E ^ (version as u64) << 24);
            for _ in 0..CHANGED_ROWS {
                let r = rng.below(HOT_ROWS);
                for x in rows[r].iter_mut() {
                    *x += (rng.unit() - 0.5) * 0.05;
                }
            }
        }
        rows
    }
}

/// What set-up leaves running.
struct Served {
    catalog: Arc<SharedCatalog>,
    server: ServerHandle,
    clients: Vec<TcpStream>,
    schedule: Schedule,
    /// The dashboard's answers, computed in-process at set-up.
    dashboard_answers: Vec<BatchResult>,
}

fn connect(server: &ServerHandle) -> Result<TcpStream, String> {
    let s = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    Ok(s)
}

/// One request → one reply payload, timing the client-side steps as spans.
fn roundtrip(stream: &mut TcpStream, request: &Request, write: bool) -> Result<Vec<u8>, String> {
    let payload = {
        let _s = trace::span("serve.request_encode");
        request.encode().map_err(|e| e.to_string())?
    };
    let _s = trace::span(if write {
        "serve.write_rtt"
    } else {
        "serve.rtt"
    });
    write_frame(stream, &payload).map_err(|e| e.to_string())?;
    read_frame(stream, DEFAULT_MAX_FRAME_BYTES)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".to_string())
}

fn decode(reply: &[u8]) -> Result<Response, String> {
    let _s = trace::span("serve.response_decode");
    Response::decode(reply).map_err(|e| e.to_string())
}

fn setup(cfg: &RunConfig, requests: usize) -> Result<Served, String> {
    let catalog = Arc::new(SharedCatalog::new());
    let schedule = Schedule {
        seed: cfg.seed,
        requests,
        hot_base: clustered(WORLD_SEED ^ 0x407, HOT_ROWS),
        dashboard: dashboard(),
    };
    let dashboard_answers = {
        let session = Session::attach(
            cfg.session_dir("serve_rw"),
            Device::ParallelCpu(0),
            catalog.clone(),
        )
        .map_err(|e| e.to_string())?;
        let mut ids = catalog.reserve_patch_ids((2 * DASH_ROWS + HOT_ROWS) as u64);
        let mut publish = |name: &str, rows: Vec<Vec<f32>>| {
            let patches = rows
                .into_iter()
                .enumerate()
                .map(|(i, f)| Patch::features(ids.alloc(), ImgRef::frame(name, i as u64), f))
                .collect();
            catalog.materialize(name, patches);
        };
        publish("dash_a", clustered(WORLD_SEED ^ 0xA, DASH_ROWS));
        publish("dash_b", clustered(WORLD_SEED ^ 0xB, DASH_ROWS));
        publish(HOT, schedule.hot_base.clone());
        session
            .build_ball_index(HOT, HOT_INDEX)
            .map_err(|e| e.to_string())?;
        let mut batch = session.batch();
        for q in &schedule.dashboard {
            batch.push(q.clone());
        }
        // Running the dashboard in-process also warms the result cache.
        batch.run().map_err(|e| e.to_string())?
    };
    let server = serve(
        catalog.clone(),
        ServerConfig {
            device: Device::ParallelCpu(0),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let clients = (0..CONNECTIONS)
        .map(|_| connect(&server))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Served {
        catalog,
        server,
        clients,
        schedule,
        dashboard_answers,
    })
}

/// One request's outcome on the client.
struct Sample {
    write: bool,
    ms: f64,
    error: Option<String>,
}

/// Check a reply against what request `i` must return during the run:
/// writes ack; reads return one result per member, the dashboard members
/// exactly their set-up answers.
fn check(answers: &[BatchResult], i: usize, reply: &Response) -> Option<String> {
    match (Schedule::is_write(i), reply) {
        (true, Response::Ack) => None,
        (false, Response::Results(results)) => {
            let d = answers.len();
            if results.len() != d + PROBES {
                return Some(format!("request {i}: {} results", results.len()));
            }
            if results[..d] != *answers {
                return Some(format!("request {i}: dashboard answer differs"));
            }
            if results[d..].iter().any(|r| r.hits().is_none()) {
                return Some(format!("request {i}: probe without hits"));
            }
            None
        }
        (_, other) => Some(format!("request {i}: unexpected reply {other:?}")),
    }
}

/// The closed loop: each client pulls the next request index when its
/// previous request has been answered. A write waits until the write
/// before it in the schedule has been answered, so the hot collection's
/// versions follow the schedule exactly.
fn drive(served: &mut Served) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let writes_done = (Mutex::new(0usize), Condvar::new());
    let schedule = &served.schedule;
    let answers = &served.dashboard_answers;
    std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .clients
            .iter_mut()
            .map(|stream| {
                let next = &next;
                let writes_done = &writes_done;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.requests {
                            return samples;
                        }
                        let write = Schedule::is_write(i);
                        let request = schedule.request(i);
                        if write {
                            let (lock, cv) = writes_done;
                            let mut done = lock.lock().unwrap_or_else(|e| e.into_inner());
                            while *done < Schedule::write_index(i) {
                                done = cv.wait(done).unwrap_or_else(|e| e.into_inner());
                            }
                        }
                        let t = Instant::now();
                        let root = trace::span(if write { "write" } else { "op" });
                        let reply = roundtrip(stream, &request, write).and_then(|r| decode(&r));
                        drop(root);
                        let ms = ms_since(t);
                        if write {
                            let (lock, cv) = writes_done;
                            *lock.lock().unwrap_or_else(|e| e.into_inner()) += 1;
                            cv.notify_all();
                        }
                        let error = match reply {
                            Ok(r) => check(answers, i, &r),
                            Err(e) => Some(format!("request {i}: {e}")),
                        };
                        samples.push(Sample { write, ms, error });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_default())
            .collect()
    })
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let requests = cfg.ops(REQUESTS_PER_SECOND);
    crate::with_setups(
        cfg,
        || setup(cfg, requests),
        |mut served, out| measure(cfg, &mut served, requests, out),
    )
}

fn measure(
    cfg: &RunConfig,
    served: &mut Served,
    requests: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let before = counters::Snapshot::take(&served.catalog);
    let (admitted, shed) = (served.server.admitted(), served.server.shed());
    let tracing = cfg.tracing();
    let start = Instant::now();
    let samples = drive(served);
    let elapsed = start.elapsed().as_secs_f64();
    drop(tracing);
    out.measured_s = elapsed;
    let after = counters::Snapshot::take(&served.catalog);
    let admitted = served.server.admitted() - admitted;
    let shed = served.server.shed() - shed;

    out.attempted = requests as u64;
    let errors: Vec<&str> = samples.iter().filter_map(|s| s.error.as_deref()).collect();
    out.failed = (requests - samples.len() + errors.len()) as u64;
    if out.failed > 0 {
        return Err(format!(
            "{} of {requests} requests failed: {}",
            out.failed,
            errors.join("; ")
        ));
    }
    if shed != 0 || admitted != requests as u64 {
        return Err(format!(
            "admission admitted {admitted} and shed {shed} of {requests} requests"
        ));
    }
    verify(cfg, served)?;

    let reads: Vec<f64> = samples.iter().filter(|s| !s.write).map(|s| s.ms).collect();
    let writes: Vec<f64> = samples.iter().filter(|s| s.write).map(|s| s.ms).collect();
    out.e2e("ops_per_s", requests as f64 / elapsed, "1/s");
    out.e2e("op_p50_ms", median(&reads), "ms");
    out.e2e("op_p90_ms", cfg.p90(&reads)?, "ms");
    out.e2e("write_p50_ms", median(&writes), "ms");
    out.e2e("write_p90_ms", cfg.p90(&writes)?, "ms");
    after.since(&before).report(out);
    out.layer("serve.admitted", admitted as f64, "count");
    out.layer("serve.shed", shed as f64, "count");
    served.server.stop();
    Ok(())
}

/// Correctness gate, outside the timed region and with no write in
/// flight: sample reads answered over the wire must be byte-identical to
/// the same batch run in-process by `Session::batch` over the same
/// snapshots, on a catalog with result caching disabled (so the reference
/// never replays a cached answer).
fn verify(cfg: &RunConfig, served: &mut Served) -> Result<(), String> {
    let reference = Arc::new(SharedCatalog::with_shards_and_cache(DEFAULT_SHARDS, 0));
    for name in ["dash_a", "dash_b", HOT] {
        let snap = served.catalog.snapshot(name).map_err(|e| e.to_string())?;
        reference.materialize(name, snap.patches.clone());
    }
    let session = Session::attach(
        cfg.session_dir("serve_rw"),
        Device::ParallelCpu(0),
        reference.clone(),
    )
    .map_err(|e| e.to_string())?;
    session
        .build_ball_index(HOT, HOT_INDEX)
        .map_err(|e| e.to_string())?;
    let s = &served.schedule;
    let reads = (0..s.requests).filter(|&i| !Schedule::is_write(i));
    for i in reads.step_by(97).take(12) {
        let request = s.request(i);
        let Request::Batch(queries) = &request else {
            continue;
        };
        let wire = roundtrip(&mut served.clients[0], &request, false)?;
        let mut batch = session.batch();
        for q in queries {
            batch.push(q.clone());
        }
        let local = Response::Results(batch.run().map_err(|e| e.to_string())?)
            .encode()
            .map_err(|e| e.to_string())?;
        if wire != local {
            return Err(format!(
                "request {i}: served reply differs from in-process Session::batch"
            ));
        }
    }
    Ok(())
}
