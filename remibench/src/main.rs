//! `remibench` — the REMI service benchmark.
//!
//! Boots `remi-serve` in-process on the generated scale-8 DBpedia-like KB
//! (seed 42), drives one closed-loop workload over two keep-alive
//! connections, checks every answer, and prints every metric by name with
//! its unit; the last stdout line is one JSON object.
//!
//! ```text
//! remibench --workload mine_cold|read_hot|ingest_mixed --seed N --seconds S --trace 0|1
//! remibench --write-digests [PATH]     # regenerate the committed digest table
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of the timed run. `--trace
//! 1` also replays the run's request sequence through each layer's
//! public functions (see `trace.rs`) and reports the per-layer metrics
//! instead.

mod check;
mod client;
mod gen;
mod run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use remi_kb::binfmt::BinFormat;

use crate::check::{Digests, Tally};
use crate::gen::{Class, Plan, Request, Workload, KB_SCALE, KB_SEED};
use crate::run::Timed;

/// Set-ups per run: `setup_s` is their median.
const SETUPS: usize = 5;

/// The end-to-end metrics `BENCHMARK.json` bounds (`--trace 0`).
const END_TO_END: [&str; 7] = [
    "setup_s",
    "throughput_rps",
    "p50_ms",
    "p99_ms",
    "read_p50_ms",
    "read_p99_ms",
    "peak_rss_mb",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    WriteDigests(PathBuf),
}

const USAGE: &str = "usage: remibench --workload mine_cold|read_hot|ingest_mixed --seed N \
                     --seconds S --trace 0|1\n       remibench --write-digests [PATH]";

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv.first().map(String::as_str) == Some("--write-digests") {
        let path = argv.get(1).map_or("remibench/digests.txt", String::as_str);
        return Ok(Mode::WriteDigests(PathBuf::from(path)));
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| "--seed takes an integer")?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&argv) {
        Ok(Mode::Run(args)) => run_bench(&args),
        Ok(Mode::WriteDigests(path)) => write_digests(&path),
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("remibench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Working space for KB files and span dumps: inside the Cargo target
/// directory, so it stays in the checkout and out of version control.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("remibench/target"), PathBuf::from);
    target.join("remibench-work")
}

/// Removes the generated KB file however the run ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn generate_kb() -> remi_kb::KnowledgeBase {
    remi_synth::generate(&remi_synth::dbpedia_like(), KB_SCALE, KB_SEED).kb
}

fn run_bench(args: &Args) -> Result<(), String> {
    let digests = Digests::committed();
    // KB generation and the reference bodies are set-up of the benchmark,
    // not of the server: both happen before `setup_s` starts.
    let kb = generate_kb();
    let plan = Plan::new(args.workload, args.seed, &kb);
    let work = work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let format = args.workload.kb_format();
    let ext = if format == BinFormat::Rkb2 {
        "rkb2"
    } else {
        "rkb"
    };
    let kb_file = TempFile(work.join(format!(
        "kb-{}-{}.{ext}",
        std::process::id(),
        args.workload.name()
    )));
    remi_kb::binfmt::save_as(&kb, &kb_file.0, format).map_err(|e| format!("save KB: {e}"))?;
    let stamp = format!(
        "# remibench workload={} seed={} seconds={} trace={} {} kb_scale={KB_SCALE} kb_seed={KB_SEED} \
         kb_triples={} kb_nodes={} backend={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run::host_facts(),
        kb.num_triples(),
        kb.num_nodes(),
        if format == BinFormat::Rkb2 { "succinct" } else { "csr" },
    );
    let expected = run::expected_bodies(&kb, &plan.warmup(), &plan.queries, &digests);
    drop(kb);
    println!("{stamp}");
    measure(args, &plan, &kb_file.0, &expected, &digests, &work)
}

/// Per-layer inputs gathered from the timed run.
struct Observed {
    setup_s: Vec<f64>,
    load_ms: Vec<f64>,
    peak_rss_mb: f64,
    stats: [run::ServerStats; 2],
    pool: [[u64; 4]; 2],
}

fn measure(
    args: &Args,
    plan: &Plan,
    path: &Path,
    expected: &run::Expected,
    digests: &Digests,
    work: &Path,
) -> Result<(), String> {
    let mut tally = Tally::default();
    run::reset_peak_rss();
    let mut server = run::boot(path, plan, expected, &mut tally)?;
    let mut obs = Observed {
        setup_s: vec![server.setup_s],
        load_ms: vec![server.load_ms],
        peak_rss_mb: 0.0,
        stats: [run::server_stats(&mut server.clients[0])?; 2],
        pool: [run::pool_counters(); 2],
    };
    let cpu_before = run::cpu_ticks();
    let timed = run::drive(&mut server, plan, args.seconds, expected);
    if let (Some((s0, t0)), Some((s1, t1))) = (cpu_before, run::cpu_ticks()) {
        let stolen = 100.0 * s1.saturating_sub(s0) as f64 / t1.saturating_sub(t0).max(1) as f64;
        println!("# host: {stolen:.1}% of CPU time stolen during the timed window");
    }
    obs.peak_rss_mb = timed.peak_rss_mb;
    obs.pool[1] = run::pool_counters();
    obs.stats[1] = run::server_stats(&mut server.clients[0])?;
    tally.merge(timed.tally);
    if plan.workload == Workload::IngestMixed {
        tally.merge(run::check_live(&mut server, plan, &timed, path)?);
    }
    drop(server);
    for _ in 1..SETUPS {
        let extra = run::boot(path, plan, expected, &mut tally)?;
        obs.setup_s.push(extra.setup_s);
        obs.load_ms.push(extra.load_ms);
    }
    let replay = if args.trace {
        Some(trace::replay(plan, &timed.samples, path, expected)?)
    } else {
        None
    };
    if plan.workload == Workload::MineCold {
        let library = match &replay {
            Some(r) => r.bodies.clone(),
            None => run::library_for_bodies(&timed, plan, path)?,
        };
        tally.merge(run::check_bodies(&timed, plan, &library, digests));
    }
    let metrics = match &replay {
        None => end_to_end(&timed, plan, &obs),
        Some(r) => {
            let spans = work.join(format!(
                "trace-{}-{}.jsonl",
                plan.workload.name(),
                plan.seed
            ));
            let header = format!(
                "{{\"workload\":\"{}\",\"seed\":{},\"requests\":{},\"spans\":{}}}",
                plan.workload.name(),
                plan.seed,
                r.requests,
                r.spans.len()
            );
            trace::write_spans(&r.spans, &spans, &header)
                .map_err(|e| format!("write {}: {e}", spans.display()))?;
            println!("# spans written to {}", spans.display());
            per_layer(&timed, r, &obs)
        }
    };
    for m in &metrics {
        println!("{:<34} {:>14.6} {:<10} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<34} {:>14.6} {:<10} (failed {} of {} checked operations)",
        "error_rate",
        tally.error_rate(),
        "share",
        tally.failed,
        tally.attempted
    );
    // The result carries the metrics `BENCHMARK.json` lists for the mode:
    // every per-layer metric, or the bounded end-to-end ones (the
    // per-class latencies above are informational).
    let listed: Vec<&Metric> = metrics
        .iter()
        .filter(|m| args.trace || END_TO_END.contains(&m.name.as_str()))
        .collect();
    println!("{}", result_json(&listed, tally));
    Ok(())
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Shown in the human-readable lines only.
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: String::new(),
    }
}

/// Median and the given tail percentile of a latency class, in ms, with
/// sample counts. A percentile without ten samples beyond it is left out.
fn latency(out: &mut Vec<Metric>, prefix: &str, ms: Vec<f64>, tail: f64) {
    let sorted = stats::sorted(ms);
    let n = sorted.len();
    for (label, q) in [
        ("p50", 0.5),
        (if tail == 0.99 { "p99" } else { "p90" }, tail),
    ] {
        let name = format!("{prefix}{label}_ms");
        match stats::quantile(&sorted, q).filter(|_| stats::supported(n, q)) {
            Some(v) => out.push(Metric {
                note: format!("(n={n})"),
                ..metric(&name, v, "ms")
            }),
            None => println!(
                "{name:<34} {:>14} {:<10} (n={n}; needs {})",
                "n/a",
                "ms",
                stats::min_samples(q)
            ),
        }
    }
}

fn end_to_end(timed: &Timed, plan: &Plan, obs: &Observed) -> Vec<Metric> {
    let class_ms = |c: Option<Class>| -> Vec<f64> {
        timed
            .samples
            .iter()
            .filter(|s| c.is_none_or(|c| plan.class(s.idx()) == c))
            .map(|s| s.nanos() as f64 / 1e6)
            .collect()
    };
    let mut out = vec![
        Metric {
            note: format!("(median of {} set-ups)", obs.setup_s.len()),
            ..metric("setup_s", stats::median(&obs.setup_s), "s")
        },
        Metric {
            note: format!(
                "({} requests in {:.3} s)",
                timed.samples.len(),
                timed.window_s
            ),
            ..metric(
                "throughput_rps",
                timed.samples.len() as f64 / timed.window_s.max(1e-9),
                "req/s",
            )
        },
    ];
    latency(&mut out, "", class_ms(None), 0.99);
    latency(&mut out, "read_", class_ms(Some(Class::Read)), 0.99);
    let has = |c: Class| timed.samples.iter().any(|s| plan.class(s.idx()) == c);
    if has(Class::Query) {
        latency(&mut out, "query_", class_ms(Some(Class::Query)), 0.99);
    }
    if has(Class::Ingest) {
        latency(&mut out, "ingest_", class_ms(Some(Class::Ingest)), 0.9);
    }
    out.push(metric("peak_rss_mb", obs.peak_rss_mb, "MiB"));
    out
}

/// `<name>.p50` (per request, over the requests the call ran for) and
/// `<name>.sum` (whole run) of a time series.
fn time_pair(out: &mut Vec<Metric>, name: &str, unit: &'static str, values: Vec<f64>) {
    let n = values.len();
    let sum = values.iter().fold(0.0, |a, v| a + v);
    out.push(Metric {
        note: format!("(n={n})"),
        ..metric(&format!("{name}.p50"), stats::median(&values), unit)
    });
    out.push(metric(&format!("{name}.sum"), sum, unit));
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(timed: &Timed, r: &trace::Replay, obs: &Observed) -> Vec<Metric> {
    let mut out = Vec::new();
    let series = |name: &str, per_unit_ns: f64| -> Vec<f64> {
        r.values(name)
            .iter()
            .map(|&ns| f64::from(ns) / per_unit_ns)
            .collect()
    };
    let (us, ms) = (1e3, 1e6);
    time_pair(&mut out, "serve.parse_us", "us", series("serve.parse", us));
    time_pair(
        &mut out,
        "serve.cache_get_us",
        "us",
        series("serve.cache_get", us),
    );
    time_pair(&mut out, "serve.write_us", "us", series("serve.write", us));
    time_pair(
        &mut out,
        "serve.residual_us",
        "us",
        series("serve.residual", us),
    );
    let (hits, misses) = (
        obs.stats[1].hits - obs.stats[0].hits,
        obs.stats[1].misses - obs.stats[0].misses,
    );
    out.push(metric(
        "serve.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    ));
    out.push(metric(
        "serve.cache_purged",
        (obs.stats[1].purged - obs.stats[0].purged) as f64,
        "count",
    ));

    for (stage, name) in trace::STAGES.iter().zip([
        "core.miner_init_ms",
        "core.enumerate_ms",
        "core.score_sort_ms",
        "core.search_ms",
    ]) {
        time_pair(&mut out, name, "ms", series(stage, ms));
    }
    time_pair(&mut out, "core.render_ms", "ms", series("core.render", ms));
    let counts = &r.mined;
    let count_p50 = |f: fn(&trace::MineCounts) -> u64| {
        stats::median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    let total = |f: fn(&trace::MineCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    out.push(metric(
        "core.enumerate_exprs",
        count_p50(|c| c.exprs),
        "count",
    ));
    out.push(metric(
        "core.enumerate_truncated_share",
        ratio(total(|c| u64::from(c.truncated)), counts.len() as f64),
        "share",
    ));
    out.push(metric("core.search_nodes", count_p50(|c| c.nodes), "count"));
    out.push(metric("core.re_tests", count_p50(|c| c.re_tests), "count"));
    let lookups = total(|c| c.hits + c.misses);
    out.push(metric(
        "core.eval_lookups_per_re_test",
        ratio(lookups, total(|c| c.re_tests)),
        "ratio",
    ));
    out.push(metric(
        "core.eval_hit_ratio",
        ratio(total(|c| c.hits), lookups),
        "ratio",
    ));

    time_pair(&mut out, "kb.load_ms", "ms", obs.load_ms.clone());
    time_pair(&mut out, "kb.query_ms", "ms", series("kb.query", ms));
    let as_f64 = |v: &[u64]| v.iter().map(|&n| n as f64).collect::<Vec<_>>();
    out.push(metric(
        "kb.query_rows",
        stats::median(&as_f64(&r.rows)),
        "count",
    ));
    time_pair(&mut out, "kb.append_ms", "ms", series("kb.append", ms));
    time_pair(&mut out, "kb.compact_ms", "ms", series("kb.compact", ms));
    out.push(metric(
        "kb.compactions",
        r.values("kb.compact").len() as f64,
        "count",
    ));
    out.push(metric(
        "kb.delta_triples",
        stats::median(&as_f64(&r.delta)),
        "count",
    ));

    let per_k = 1000.0 / timed.samples.len().max(1) as f64;
    for (i, name) in [
        "pool.steals",
        "pool.parks",
        "pool.revives",
        "pool.help_drains",
    ]
    .iter()
    .enumerate()
    {
        out.push(metric(
            name,
            (obs.pool[1][i] - obs.pool[0][i]) as f64 * per_k,
            "per_1k_req",
        ));
    }
    out.push(Metric {
        note: "(request-path self times / timed round trips; mine_cold tolerance 1 ± 0.10)"
            .to_string(),
        ..metric(
            "attribution.coverage",
            ratio(r.path_ns as f64, r.rtt_ns as f64),
            "ratio",
        )
    });
    out
}

/// The result line: `correct`, `attempted`, `failed`, and the metrics
/// `BENCHMARK.json` lists for this mode.
fn result_json(metrics: &[&Metric], tally: Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                remi_serve::json::escape(&m.name),
                finite(m.value),
                remi_serve::json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}

/// JSON has no NaN or infinities.
fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Regenerates the committed digest table from the library's bodies.
fn write_digests(path: &Path) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let kb = generate_kb();
    let population = gen::population();
    let queries = gen::query_specs(&kb);
    let render = |reqs: Vec<Request>| {
        run::par_map(&reqs, run::CLIENTS, |r| run::library_body(&kb, r, &queries))
    };
    let describe = render(population.iter().cloned().map(Request::Describe).collect());
    let warmup = render(
        gen::warmup_pool()
            .into_iter()
            .map(Request::Describe)
            .collect(),
    );
    let summarize = render(population.iter().cloned().map(Request::Summarize).collect());
    let query_reqs: Vec<Request> = (0..queries.len()).map(Request::Query).collect();
    let query_bodies = render(query_reqs.clone());
    let query_entries: Vec<(String, String)> = query_reqs
        .iter()
        .zip(query_bodies)
        .map(|(r, b)| (r.cache_key(&queries).unwrap_or_default(), b))
        .collect();
    let text = Digests::render(&describe, &summarize, &warmup, &query_entries);
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wrote {} ({} describe, {} summarize, {} warm-up, {} query digests) in {:.1} s",
        path.display(),
        describe.len(),
        summarize.len(),
        warmup.len(),
        query_entries.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the code prints are exactly the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let doc =
            remi_serve::json::parse(include_bytes!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |section: &str| -> Vec<String> {
            doc.get(section)
                .and_then(|v| v.as_array())
                .expect("section")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.map(str::to_string).to_vec());
        let timed = Timed::default();
        let replay = trace::Replay::default();
        let obs = Observed {
            setup_s: vec![1.0],
            load_ms: vec![1.0],
            peak_rss_mb: 1.0,
            stats: [run::ServerStats::default(); 2],
            pool: [[0; 4]; 2],
        };
        let printed: Vec<String> = per_layer(&timed, &replay, &obs)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names("per_layer"), printed);
        let workloads = names("workloads");
        for w in &workloads {
            assert!(Workload::parse(w).is_some(), "{w}");
        }
    }

    #[test]
    fn args_parse_the_documented_form() {
        let argv: Vec<String> = "--workload read_hot --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let Ok(Mode::Run(a)) = parse_args(&argv) else {
            panic!("the documented form must parse")
        };
        assert_eq!(a.workload, Workload::ReadHot);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&["--workload".to_string()]).is_err());
        assert!(parse_args(&["--seed".to_string(), "x".to_string()]).is_err());
    }
}
