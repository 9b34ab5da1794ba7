//! Seeded benchmark inputs: the entity population, the per-workload
//! request streams, ingest batches and query payloads.
//!
//! The KB is fixed (scale 8, seed 42); the workload seed drives every
//! sampling decision. Request `i` of a run is a pure function of
//! `(seed, i)` (counter-based hashing), so a closed loop may stop at any
//! index and a replay can regenerate exactly what was sent.

use remi_kb::binfmt::BinFormat;
use remi_kb::{KnowledgeBase, NodeId, PredId, Term};

/// Scale of the generated DBpedia-like KB.
pub const KB_SCALE: f64 = 8.0;
/// Generator seed of the KB (independent of the workload seed).
pub const KB_SEED: u64 = 42;
/// Inverse-predicate fraction used when loading the KB file (the one the
/// `remi` CLI and the profiles use).
pub const INVERSE_FRACTION: f64 = 0.01;
/// The five §4.1 target classes the population is drawn from.
pub const CLASSES: [&str; 5] = ["Person", "Settlement", "Organization", "Album", "Film"];
/// Hot describe keys (`read_hot`, `ingest_mixed`).
pub const HOT_DESCRIBE: usize = 256;
/// Hot summarize keys (`read_hot`).
pub const HOT_SUMMARIZE: usize = 64;
/// Triples per ingest batch (half about hot entities, half new nodes).
pub const INGEST_TRIPLES: usize = 20;
/// Row limit of every query payload.
pub const QUERY_LIMIT: usize = 100;
/// Default `k` of the summarize endpoint.
pub const SUMMARIZE_K: usize = 5;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request is a distinct cold describe.
    MineCold,
    /// Zipf draws over a primed hot set: every request is a cache hit.
    ReadHot,
    /// Describes, queries and ingests beside each other on a live KB.
    IngestMixed,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "mine_cold" => Some(Workload::MineCold),
            "read_hot" => Some(Workload::ReadHot),
            "ingest_mixed" => Some(Workload::IngestMixed),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MineCold => "mine_cold",
            Workload::ReadHot => "read_hot",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Format of the KB file the workload loads: `RKB1` (loads as CSR)
    /// for the read workloads, `RKB2` (succinct base) for `ingest_mixed`.
    pub fn kb_format(self) -> BinFormat {
        match self {
            Workload::IngestMixed => BinFormat::Rkb2,
            _ => BinFormat::Rkb1,
        }
    }
}

/// SplitMix64 finaliser.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of `(seed, stream, index)`: independent streams per decision.
pub fn hash3(seed: u64, stream: u64, index: u64) -> u64 {
    mix(seed ^ mix(stream ^ mix(index)))
}

/// A hash mapped to `[0, 1)`.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A sequential SplitMix64 generator (for shuffles).
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(hash3(seed, stream, 0))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (unit(self.next_u64()) * n as f64) as usize
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i + 1);
        v.swap(i, j);
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n > 0` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank drawn by a uniform `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The entity population: every member of the five classes, in class
/// order, as IRIs (`e:Person_0` …). Sizes follow the profile at
/// [`KB_SCALE`] (Person 3,200, Settlement 2,000, Organization 1,200,
/// Album 800, Film 800).
pub fn population() -> Vec<String> {
    let profile = remi_synth::dbpedia_like();
    CLASSES
        .iter()
        .flat_map(|&c| {
            let n = profile
                .class(c)
                .map_or(0, |spec| spec.scaled_count(KB_SCALE));
            (0..n).map(move |i| format!("e:{c}_{i}"))
        })
        .collect()
}

/// Fixed-pool classes whose members the warm-up of the mining workloads
/// describes: none is in the population, and each mines in a few
/// milliseconds (about the miner-construction floor).
pub const WARMUP_CLASSES: [&str; 6] = [
    "Region",
    "Party",
    "Language",
    "LangFamily",
    "Currency",
    "HistoricalCountry",
];

/// The warm-up entities of `mine_cold` and `ingest_mixed` (129 on the
/// scale-8 KB), in class order.
pub fn warmup_pool() -> Vec<String> {
    let profile = remi_synth::dbpedia_like();
    WARMUP_CLASSES
        .iter()
        .flat_map(|&c| {
            let n = profile
                .class(c)
                .map_or(0, |spec| spec.scaled_count(KB_SCALE));
            (0..n).map(move |i| format!("e:{c}_{i}"))
        })
        .collect()
}

/// A `POST /v1/query` payload and its pattern form (for `query_body`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// The JSON request body.
    pub body: String,
    /// The same patterns as `[s, p, o]` strings.
    pub patterns: Vec<[String; 3]>,
}

/// The query payloads: one full-extent pattern over each of the four
/// fattest predicates plus one 2-pattern chain join over the fattest.
pub fn query_specs(kb: &KnowledgeBase) -> Vec<QuerySpec> {
    let mut preds: Vec<PredId> = kb
        .pred_ids()
        .filter(|&p| !kb.is_inverse(p) && kb.index(p).num_facts() > 0)
        .collect();
    preds.sort_by_key(|&p| (std::cmp::Reverse(kb.index(p).num_facts()), p.0));
    preds.truncate(4);
    let spec = |patterns: Vec<[&str; 3]>| {
        let parts: Vec<String> = patterns
            .iter()
            .map(|[s, p, o]| {
                format!(
                    "{{\"s\":{},\"p\":{},\"o\":{}}}",
                    remi_serve::json::escape(s),
                    remi_serve::json::escape(p),
                    remi_serve::json::escape(o)
                )
            })
            .collect();
        QuerySpec {
            body: format!(
                "{{\"patterns\":[{}],\"limit\":{QUERY_LIMIT}}}",
                parts.join(",")
            ),
            patterns: patterns.iter().map(|t| t.map(str::to_string)).collect(),
        }
    };
    let mut specs: Vec<QuerySpec> = preds
        .iter()
        .map(|&p| spec(vec![["?s", kb.pred_iri(p), "?o"]]))
        .collect();
    if let Some(&p) = preds.first() {
        let p = kb.pred_iri(p);
        specs.push(spec(vec![["?a", p, "?b"], ["?b", p, "?c"]]));
    }
    specs
}

/// One benchmark request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `GET /v1/describe/{e}?threads=1`.
    Describe(String),
    /// `GET /v1/summarize/{e}?method=faces`.
    Summarize(String),
    /// `POST /v1/query` with the payload at this index.
    Query(usize),
    /// `POST /v1/ingest` with this N-Triples batch.
    Ingest(String),
}

/// Request classes the end-to-end latencies are split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Describe and summarize GETs.
    Read,
    /// `POST /v1/query`.
    Query,
    /// `POST /v1/ingest`.
    Ingest,
}

impl Request {
    /// The request's latency class.
    pub fn class(&self) -> Class {
        match self {
            Request::Describe(_) | Request::Summarize(_) => Class::Read,
            Request::Query(_) => Class::Query,
            Request::Ingest(_) => Class::Ingest,
        }
    }

    /// The exact request bytes the client writes (the replay parses these).
    pub fn wire_bytes(&self, queries: &[QuerySpec]) -> Vec<u8> {
        use remi_serve::http::percent_encode;
        let (method, target, body) = match self {
            Request::Describe(e) => (
                "GET",
                format!("/v1/describe/{}?threads=1", percent_encode(e)),
                None,
            ),
            Request::Summarize(e) => (
                "GET",
                format!("/v1/summarize/{}?method=faces", percent_encode(e)),
                None,
            ),
            Request::Query(q) => ("POST", "/v1/query".to_string(), Some(&queries[*q].body)),
            Request::Ingest(batch) => ("POST", "/v1/ingest".to_string(), Some(batch)),
        };
        let mut head = format!("{method} {target} HTTP/1.1\r\nHost: remi\r\n");
        if let Some(body) = body {
            head.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        } else {
            head.push_str("\r\n");
        }
        head.into_bytes()
    }

    /// The response-cache key the server files this request under (the
    /// same canonical descriptor its handlers build), or `None` for
    /// uncached requests.
    pub fn cache_key(&self, queries: &[QuerySpec]) -> Option<String> {
        match self {
            Request::Describe(e) => Some(format!("describe?entity={e}&k=1&threads=1")),
            Request::Summarize(e) => {
                Some(format!("summarize?entity={e}&k={SUMMARIZE_K}&method=faces"))
            }
            Request::Query(q) => {
                let spec: Vec<String> = queries[*q]
                    .patterns
                    .iter()
                    .map(|[s, p, o]| format!("{s} {p} {o}"))
                    .collect();
                Some(format!(
                    "query?limit={QUERY_LIMIT}&patterns={}",
                    spec.join(";")
                ))
            }
            Request::Ingest(_) => None,
        }
    }
}

// Hash streams: one per independent decision.
const STREAM_PERMUTATION: u64 = 1;
const STREAM_HOT_ORDER: u64 = 2;
const STREAM_ZIPF: u64 = 3;
const STREAM_CLASS: u64 = 4;
const STREAM_QUERY: u64 = 5;
const STREAM_BATCH: u64 = 6;
const STREAM_STRATA: u64 = 7;

/// The head stratum: the population's most prominent entities by KB
/// frequency. On the scale-8 KB it holds the whole heavy search tail
/// (every describe above 90 ms; up to 1.8 s each). `mine_cold` requests
/// all of them in every run, early; the hot sets of `read_hot` and
/// `ingest_mixed` are drawn from the rest. A hot-set member from the head
/// would decide a run by itself (re-mined after every purge it is most of
/// `ingest_mixed`'s work, and most of `read_hot`'s warm-up), so which
/// seed drew it would matter more than the code under test.
pub const HEAD: usize = 32;

/// `mine_cold` requests the head as every this-many-th request from the
/// start (the last at index 930; every run gets much further). It is
/// even, so the head falls on one connection's lane (see `run::drive`)
/// while the other mines the light bulk beside it.
const HEAD_EVERY: usize = 30;

/// Share of `ingest_mixed` requests that are describes / queries (the
/// rest, 5%, are ingests).
const MIXED_DESCRIBE: f64 = 0.75;
const MIXED_QUERY: f64 = 0.20;

/// The request stream of one run, fully determined by the workload, the
/// seed and the (fixed) KB.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// The query payloads.
    pub queries: Vec<QuerySpec>,
    /// `mine_cold`: the seeded permutation of the population.
    order: Vec<String>,
    /// `read_hot`: the hot keys in seeded rank order; `ingest_mixed`: the
    /// hot describe keys.
    hot: Vec<Request>,
    zipf: Zipf,
    /// `ingest_mixed`: `(subject, predicate, object)` IRI facts of the hot
    /// entities, the material ingest batches are made from.
    facts: Vec<Vec<(String, String, String)>>,
}

impl Plan {
    /// Builds the plan for `workload` under `seed` over the fixed KB.
    pub fn new(workload: Workload, seed: u64, kb: &KnowledgeBase) -> Plan {
        let (head, rest) = split_head(kb);
        let queries = query_specs(kb);
        let (order, hot, facts) = match workload {
            Workload::MineCold => {
                // The head is a take-all stratum at fixed stream positions
                // (every HEAD_EVERY-th request, in frequency order); the
                // seed orders the rest. Fixed positions on one lane keep
                // what runs beside the heavy requests, and so the
                // contention every other request sees, the same in every
                // run.
                let mut order = rest;
                shuffle(&mut order, &mut Rng::new(seed, STREAM_PERMUTATION));
                for (k, h) in head.into_iter().enumerate() {
                    order.insert(k * HEAD_EVERY, h);
                }
                (order, Vec::new(), Vec::new())
            }
            Workload::ReadHot => {
                // One entity per frequency stratum; every fifth stratum's
                // entity is a summarize key, the others describe keys.
                let picks = stratified(&rest, HOT_DESCRIBE + HOT_SUMMARIZE, seed);
                let mut hot: Vec<Request> = picks
                    .into_iter()
                    .enumerate()
                    .map(|(j, e)| {
                        if j % 5 == 4 {
                            Request::Summarize(e)
                        } else {
                            Request::Describe(e)
                        }
                    })
                    .chain((0..queries.len()).map(Request::Query))
                    .collect();
                shuffle(&mut hot, &mut Rng::new(seed, STREAM_HOT_ORDER));
                (Vec::new(), hot, Vec::new())
            }
            Workload::IngestMixed => {
                let hot_entities = stratified(&rest, HOT_DESCRIBE, seed);
                let facts = hot_entities.iter().map(|e| iri_facts(kb, e)).collect();
                let hot = hot_entities
                    .iter()
                    .map(|e| Request::Describe(e.clone()))
                    .collect();
                (Vec::new(), hot, facts)
            }
        };
        let zipf = Zipf::new(hot.len().max(1), 1.0);
        Plan {
            workload,
            seed,
            queries,
            order,
            hot,
            zipf,
            facts,
        }
    }

    /// Number of requests the stream holds (`mine_cold` requests each
    /// entity once; the other streams are unbounded).
    pub fn limit(&self) -> u64 {
        match self.workload {
            Workload::MineCold => self.order.len() as u64,
            _ => u64::MAX,
        }
    }

    /// The requests of the warm-up that ends every set-up: `read_hot`
    /// primes its hot keys; the mining workloads describe the warm-up pool
    /// once, so the timed window starts on a server (and allocator) that
    /// has mined before.
    pub fn warmup(&self) -> Vec<Request> {
        match self.workload {
            Workload::ReadHot => self.hot.clone(),
            _ => warmup_pool().into_iter().map(Request::Describe).collect(),
        }
    }

    /// The hot keys: primed by `read_hot`'s warm-up, re-checked after
    /// `ingest_mixed` (which adds the query payloads).
    pub fn hot_keys(&self) -> Vec<Request> {
        match self.workload {
            Workload::MineCold => Vec::new(),
            Workload::ReadHot => self.hot.clone(),
            Workload::IngestMixed => self
                .hot
                .iter()
                .cloned()
                .chain((0..self.queries.len()).map(Request::Query))
                .collect(),
        }
    }

    fn zipf_hot(&self, stream: u64, i: u64) -> usize {
        self.zipf.rank(unit(hash3(self.seed, stream, i)))
    }

    /// The class of request `i`, without building the request.
    pub fn class(&self, i: u64) -> Class {
        match self.workload {
            Workload::MineCold => Class::Read,
            Workload::ReadHot => self.hot[self.zipf_hot(STREAM_ZIPF, i)].class(),
            Workload::IngestMixed => {
                let u = unit(hash3(self.seed, STREAM_CLASS, i));
                if u < MIXED_DESCRIBE {
                    Class::Read
                } else if u < MIXED_DESCRIBE + MIXED_QUERY {
                    Class::Query
                } else {
                    Class::Ingest
                }
            }
        }
    }

    /// Request `i` of the stream (`i < limit()`).
    pub fn request(&self, i: u64) -> Request {
        match self.workload {
            Workload::MineCold => Request::Describe(self.order[i as usize].clone()),
            Workload::ReadHot => self.hot[self.zipf_hot(STREAM_ZIPF, i)].clone(),
            Workload::IngestMixed => match self.class(i) {
                Class::Read => self.hot[self.zipf_hot(STREAM_ZIPF, i)].clone(),
                Class::Query => Request::Query(
                    (unit(hash3(self.seed, STREAM_QUERY, i)) * self.queries.len() as f64) as usize,
                ),
                Class::Ingest => Request::Ingest(self.batch(i)),
            },
        }
    }

    /// The unique ingest batch of request `i`: half the triples give a hot
    /// entity a new object under one of its own predicates, half create a
    /// new node copying one of a hot entity's facts.
    fn batch(&self, i: u64) -> String {
        let mut rng = Rng(hash3(self.seed, STREAM_BATCH, i));
        let mut out = String::new();
        for j in 0..INGEST_TRIPLES {
            let h = self.zipf.rank(unit(rng.next_u64()));
            let facts = &self.facts[h];
            if facts.is_empty() {
                continue;
            }
            let (s, p, o) = &facts[rng.below(facts.len())];
            let fresh = format!("e:bench_s{}_r{i}_t{j}", self.seed);
            let line = if j % 2 == 0 {
                format!("{} <{p}> {} .\n", Term::iri(s), Term::iri(&fresh))
            } else {
                format!("{} <{p}> {} .\n", Term::iri(&fresh), Term::iri(o))
            };
            out.push_str(&line);
        }
        out
    }
}

/// Splits the population into the head stratum (the [`HEAD`] entities of
/// highest KB frequency) and the rest, both by descending frequency (ties
/// in population order).
pub fn split_head(kb: &KnowledgeBase) -> (Vec<String>, Vec<String>) {
    let mut ranked: Vec<(u32, usize, String)> = population()
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let freq = kb.node_id_by_iri(&e).map_or(0, |n| kb.node_frequency(n));
            (freq, i, e)
        })
        .collect();
    ranked.sort_by_key(|&(freq, i, _)| (std::cmp::Reverse(freq), i));
    let rest = ranked.split_off(HEAD);
    let name = |v: Vec<(u32, usize, String)>| v.into_iter().map(|(_, _, e)| e).collect();
    (name(ranked), name(rest))
}

/// A stratified sample of `n` entities from `ranked` (ordered by
/// frequency): one seeded pick from each of `n` equal consecutive strata,
/// so every seed's sample spans the frequency range (and with it the
/// mining cost range) the same way.
fn stratified(ranked: &[String], n: usize, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, STREAM_STRATA);
    (0..n)
        .map(|j| {
            let (lo, hi) = (j * ranked.len() / n, (j + 1) * ranked.len() / n);
            ranked[lo + rng.below(hi - lo)].clone()
        })
        .collect()
}

/// The entity's outgoing facts with IRI objects under base (non-inverse)
/// predicates, in store order.
fn iri_facts(kb: &KnowledgeBase, iri: &str) -> Vec<(String, String, String)> {
    let Some(s) = kb.node_id_by_iri(iri) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for p in kb.preds_of_subject(s).iter() {
        let p = PredId(p);
        if kb.is_inverse(p) {
            continue;
        }
        for o in kb.objects(p, s).iter() {
            let o = NodeId(o);
            if let Term::Iri(obj) = kb.node_term(o) {
                out.push((iri.to_string(), kb.pred_iri(p).to_string(), obj.to_string()));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> KnowledgeBase {
        remi_synth::generate(&remi_synth::dbpedia_like(), KB_SCALE, KB_SEED).kb
    }

    fn stream(plan: &Plan, n: u64) -> Vec<Request> {
        (0..n.min(plan.limit())).map(|i| plan.request(i)).collect()
    }

    #[test]
    fn same_seed_gives_identical_request_lists() {
        let kb = kb();
        for w in [Workload::MineCold, Workload::ReadHot, Workload::IngestMixed] {
            let a = Plan::new(w, 7, &kb);
            let b = Plan::new(w, 7, &kb);
            assert_eq!(stream(&a, 2000), stream(&b, 2000), "{}", w.name());
            assert_eq!(a.hot_keys(), b.hot_keys(), "{}", w.name());
            let c = Plan::new(w, 8, &kb);
            assert_ne!(stream(&a, 2000), stream(&c, 2000), "{}", w.name());
        }
    }

    #[test]
    fn mine_cold_requests_each_entity_once() {
        let plan = Plan::new(Workload::MineCold, 3, &kb());
        let mut all: Vec<Request> = stream(&plan, u64::MAX);
        assert_eq!(all.len(), population().len());
        all.sort_by_key(|r| format!("{r:?}"));
        all.dedup();
        assert_eq!(all.len(), population().len());
    }

    #[test]
    fn head_is_spread_early_in_mine_cold_and_absent_from_hot_sets() {
        let kb = kb();
        let (head, rest) = split_head(&kb);
        assert_eq!(head.len(), HEAD);
        assert_eq!(head.len() + rest.len(), population().len());
        assert!(head.contains(&"e:Settlement_8".to_string()));
        let plan = Plan::new(Workload::MineCold, 4, &kb);
        let early = stream(&plan, (HEAD * HEAD_EVERY) as u64);
        for h in &head {
            assert!(early.contains(&Request::Describe(h.clone())), "{h}");
        }
        for w in [Workload::ReadHot, Workload::IngestMixed] {
            for key in Plan::new(w, 4, &kb).hot_keys() {
                if let Request::Describe(e) | Request::Summarize(e) = &key {
                    assert!(!head.contains(e), "{e} in a {} hot set", w.name());
                }
            }
        }
    }

    #[test]
    fn mixed_stream_holds_every_class_and_unique_batches() {
        let plan = Plan::new(Workload::IngestMixed, 5, &kb());
        let reqs = stream(&plan, 4000);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(plan.class(i as u64), r.class());
        }
        let count = |c: Class| reqs.iter().filter(|r| r.class() == c).count() as f64 / 4000.0;
        assert!((count(Class::Read) - 0.75).abs() < 0.03);
        assert!((count(Class::Query) - 0.20).abs() < 0.03);
        assert!((count(Class::Ingest) - 0.05).abs() < 0.02);
        let batches: Vec<&String> = reqs
            .iter()
            .filter_map(|r| match r {
                Request::Ingest(b) => Some(b),
                _ => None,
            })
            .collect();
        for b in &batches {
            assert_eq!(b.lines().count(), INGEST_TRIPLES, "{b}");
        }
        let mut lines: Vec<&str> = batches.iter().flat_map(|b| b.lines()).collect();
        let n = lines.len();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), n, "ingest triples must be unique");
    }

    #[test]
    fn zipf_rank_zero_is_most_likely() {
        let z = Zipf::new(256, 1.0);
        let mut counts = vec![0u32; 256];
        for i in 0..20_000 {
            counts[z.rank(unit(hash3(1, 9, i)))] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert_eq!(z.rank(0.0), 0);
        assert_eq!(z.rank(0.999_999_999), 255);
    }
}
