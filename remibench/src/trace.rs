//! The traced replay: the timed run's exact request sequence, replayed in
//! one thread through each layer's public functions, with a span around
//! every call. Spans live in memory and are written out when the run
//! ends; per-layer metrics are their self times and counts.
//!
//! The replay mirrors the server's request path: parse the request bytes,
//! probe a response cache of the server's capacity under the live
//! fingerprint, render on a miss (describe: miner construction →
//! enumeration → scoring/sorting → search → rendering), insert, and
//! write the response. `ingest_mixed` feeds a `LiveKb` replica the same
//! batches in stream order and folds the delta whenever the replica asks
//! for compaction (a background fold on the server, so not part of any
//! request's time).

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use remi_core::enumerate::{common_subgraph_expressions, EnumContext};
use remi_core::eval::Evaluator;
use remi_core::search::{build_queue, remi_search};
use remi_core::{CostModel, RemiConfig};
use remi_kb::backend::StoreBackend;
use remi_kb::{CompactionPolicy, KnowledgeBase, LiveKb};
use remi_serve::cache::{CacheKey, ResponseCache};
use remi_serve::http::{write_response, Parsed, RequestParser};

use crate::gen::{Plan, Request, Workload, INVERSE_FRACTION};
use crate::run::{library_body, Expected, Sample, MIXED_COMPACT_MIN_DELTA};

/// Spans of the first this-many replayed requests are kept for the trace
/// file (metrics aggregate every request).
const KEEP_SPANS_OF: usize = 20_000;

/// One span: a timed call at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
    /// Index of the enclosing span in the span list.
    pub parent: Option<u32>,
    /// Stream index of the request the span belongs to.
    pub req: u64,
}

/// Spans that make up a request's replay total: every layer call on the
/// request path, each counted once. `core.stages` (and its four children)
/// re-run the mining `core.describe_body` already did, stage by stage, to
/// split its time; they are not added again.
const PATH_SPANS: [&str; 9] = [
    "serve.parse",
    "serve.cache_get",
    "serve.cache_put",
    "serve.cache_purge",
    "serve.write",
    "core.describe_body",
    "essum.summarize",
    "kb.query",
    "kb.append",
];

/// The core stages, in order.
pub const STAGES: [&str; 4] = [
    "core.miner_init",
    "core.enumerate",
    "core.score_sort",
    "core.search",
];

/// Counts of one mining call.
#[derive(Debug, Default, Clone, Copy)]
pub struct MineCounts {
    /// Common subgraph expressions enumerated.
    pub exprs: u64,
    /// Enumeration hit a cap.
    pub truncated: bool,
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// RE tests.
    pub re_tests: u64,
    /// Binding-cache hits.
    pub hits: u64,
    /// Binding-cache misses.
    pub misses: u64,
}

/// Everything the replay produced.
#[derive(Default)]
pub struct Replay {
    /// Requests replayed.
    pub requests: usize,
    /// Nanoseconds by span name, one value per request the call ran for
    /// (plus the derived `core.render` and `serve.residual`, and the
    /// background `kb.compact`).
    pub times: HashMap<&'static str, Vec<f32>>,
    /// Σ request-path time over all requests, ns.
    pub path_ns: u64,
    /// Σ timed-run round trip of the same requests, ns.
    pub rtt_ns: u64,
    /// Counts of every mining call.
    pub mined: Vec<MineCounts>,
    /// Rows of every evaluated query.
    pub rows: Vec<u64>,
    /// Delta-overlay size each read saw.
    pub delta: Vec<u64>,
    /// Kept spans (see [`KEEP_SPANS_OF`]).
    pub spans: Vec<Span>,
    /// Describe bodies the replay rendered, by stream index (the
    /// library reference for `mine_cold`'s check).
    pub bodies: HashMap<u64, String>,
}

impl Replay {
    /// The recorded values of one span name.
    pub fn values(&self, name: &str) -> &[f32] {
        self.times.get(name).map_or(&[], Vec::as_slice)
    }

    /// Folds the finished request's span times into the per-name series.
    fn finish_request(&mut self, current: &[(&'static str, u64)], rtt_ns: u64) {
        let mut path = 0;
        let (mut stages, mut describe) = (0, None);
        for &(name, ns) in current {
            self.times.entry(name).or_default().push(ns as f32);
            if PATH_SPANS.contains(&name) {
                path += ns;
            }
            if STAGES.contains(&name) {
                stages += ns;
            }
            if name == "core.describe_body" {
                describe = Some(ns);
            }
        }
        if let Some(whole) = describe {
            self.times
                .entry("core.render")
                .or_default()
                .push(whole as f32 - stages as f32);
        }
        self.times
            .entry("serve.residual")
            .or_default()
            .push(rtt_ns as f32 - path as f32);
        self.path_ns += path;
        self.rtt_ns += rtt_ns;
        self.requests += 1;
    }
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    keep: bool,
    req: u64,
    /// Span times of the request being replayed.
    current: Vec<(&'static str, u64)>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as span `name` under `parent`.
    fn span<R>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.current.push((name, end - start));
        if self.keep {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent,
                req: self.req,
            });
        }
        r
    }

    /// Opens a span whose end is patched by [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        if !self.keep {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            req: self.req,
        });
        Some((self.spans.len() - 1) as u32)
    }

    fn close(&mut self, id: Option<u32>) {
        let end = self.now();
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end;
        }
    }
}

/// The describe miss path split into the four core stages, exactly as
/// `Remi::describe` runs them at `threads=1`.
fn mine_stages(
    t: &mut Tracer,
    parent: Option<u32>,
    kb: &KnowledgeBase,
    iri: &str,
) -> Option<MineCounts> {
    let target = kb.node_id_by_iri(iri)?;
    let cfg = RemiConfig::default().with_threads(1);
    let (model, ctx) = t.span(STAGES[0], parent, || {
        (
            CostModel::new(kb, cfg.prominence, cfg.entity_code),
            EnumContext::new(kb, &cfg.enumeration),
        )
    });
    let (common, enum_stats) = t.span(STAGES[1], parent, || {
        common_subgraph_expressions(kb, &[target], &cfg.enumeration, &ctx)
    });
    let queue = t.span(STAGES[2], parent, || build_queue(&model, &common));
    let (result, eval_stats) = t.span(STAGES[3], parent, || {
        let eval = Evaluator::new(kb, cfg.cache_capacity);
        let r = remi_search(&eval, &queue, &[target], None, cfg.incumbent_root_cutoff);
        (r, eval.stats())
    });
    Some(MineCounts {
        exprs: common.len() as u64,
        truncated: enum_stats.truncated,
        nodes: result.counters.nodes_visited,
        re_tests: eval_stats.re_tests,
        hits: eval_stats.cache_hits,
        misses: eval_stats.cache_misses,
    })
}

fn delta_len(kb: &KnowledgeBase) -> u64 {
    match kb.store() {
        StoreBackend::Layered(l) => l.delta_len() as u64,
        _ => 0,
    }
}

/// Replays `samples` (the timed run's requests, in stream order) against
/// a fresh load of the KB file.
pub fn replay(
    plan: &Plan,
    samples: &[Sample],
    path: &Path,
    expected: &Expected,
) -> Result<Replay, String> {
    let kb = remi_kb::load_path(path, INVERSE_FRACTION)
        .map_err(|e| format!("load {}: {e}", path.display()))?;
    let live = LiveKb::with_policy(
        kb,
        CompactionPolicy {
            min_delta: MIXED_COMPACT_MIN_DELTA,
            delta_fraction: 0.0,
        },
    );
    let cache = ResponseCache::new(remi_serve::ServeConfig::default().cache_entries);
    if plan.workload == Workload::ReadHot {
        // The server's warm-up primed every hot key.
        let fp = live.snapshot().fingerprint;
        for req in plan.hot_keys() {
            let key = req.cache_key(&plan.queries).unwrap_or_default();
            if let Some((body, _)) = expected.get(&key) {
                cache.put(
                    CacheKey {
                        request: key,
                        kb: fp,
                    },
                    Arc::from(body.as_str()),
                );
            }
        }
    }
    let mut t = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        keep: true,
        req: 0,
        current: Vec::new(),
    };
    let mut out = Replay::default();
    for (n, sample) in samples.iter().enumerate() {
        t.keep = n < KEEP_SPANS_OF;
        t.req = sample.idx();
        t.current.clear();
        let req = plan.request(sample.idx());
        let wire = req.wire_bytes(&plan.queries);
        let root = t.open("request", None);
        let parsed = t.span("serve.parse", root, || {
            let mut parser = RequestParser::new();
            parser.push(&wire);
            parser.try_parse()
        });
        if !matches!(parsed, Ok(Parsed::Complete(_))) {
            return Err(format!("replay: request {} does not parse", sample.idx()));
        }
        let snap = live.snapshot();
        if let Request::Ingest(batch) = &req {
            let appended = t
                .span("kb.append", root, || live.append_ntriples(batch))
                .map_err(|e| format!("replay: ingest {}: {e}", sample.idx()))?;
            let fp = live.snapshot().fingerprint;
            t.span("serve.cache_purge", root, || cache.purge_stale(fp));
            let body = format!("{{\"appended\":{}}}", appended.appended);
            t.span("serve.write", root, || {
                write_response(200, &[], &body, true)
            });
        } else {
            out.delta.push(delta_len(&snap.kb));
            let key = CacheKey {
                request: req.cache_key(&plan.queries).unwrap_or_default(),
                kb: snap.fingerprint,
            };
            let hit = t.span("serve.cache_get", root, || cache.get(&key));
            let state = if hit.is_some() { "hit" } else { "miss" };
            let body: Arc<str> = match hit {
                Some(body) => body,
                None => {
                    let kb = snap.kb.as_ref();
                    let body = match &req {
                        Request::Describe(e) => {
                            let body = t.span("core.describe_body", root, || {
                                library_body(kb, &req, &plan.queries)
                            });
                            let stages = t.open("core.stages", root);
                            out.mined.extend(mine_stages(&mut t, stages, kb, e));
                            t.close(stages);
                            out.bodies.insert(sample.idx(), body.clone());
                            body
                        }
                        Request::Summarize(_) => t.span("essum.summarize", root, || {
                            library_body(kb, &req, &plan.queries)
                        }),
                        _ => {
                            let body =
                                t.span("kb.query", root, || library_body(kb, &req, &plan.queries));
                            out.rows.extend(crate::check::json_u64(&body, "count"));
                            body
                        }
                    };
                    let body: Arc<str> = Arc::from(body);
                    let put = Arc::clone(&body);
                    t.span("serve.cache_put", root, || cache.put(key, put));
                    body
                }
            };
            t.span("serve.write", root, || {
                write_response(200, &[("X-Remi-Cache", state)], &body, true)
            });
        }
        t.close(root);
        out.finish_request(&t.current, sample.nanos());
        if live.needs_compaction() {
            t.current.clear();
            t.span("kb.compact", None, || live.compact());
            out.times
                .entry("kb.compact")
                .or_default()
                .push(t.current[0].1 as f32);
        }
    }
    out.spans = t.spans;
    Ok(out)
}

/// Writes the kept spans as JSON lines.
pub fn write_spans(spans: &[Span], path: &Path, header: &str) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{header}")?;
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    w.flush()
}
