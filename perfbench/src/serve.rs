//! `serve_mix`: the real `serve` binary on a copy of a pre-warmed `--cache`
//! file, driven closed-loop by one client over one connection. The script
//! repeats sweeps that are already cached (hits) and sends sweeps on fresh
//! seeds (misses, which simulate and append to the file), in a fixed ratio
//! that puts p50 well inside the hit class and p99 well inside the miss
//! class.

use crate::stats::{flowtimes, guarded_percentile, median, peak_rss_mb};
use crate::timed::{ns_since, timed, Layers};
use crate::{Args, Report};
use mapreduce_experiments::cache::OutcomeCache;
use mapreduce_experiments::{Scenario, SchedulerKind};
use mapreduce_metrics::FlowtimeSummary;
use mapreduce_server::{Request, ResultCache, SweepRequest, SweepResponse, SweepServer};
use mapreduce_support::json::{FromJson, JsonValue, ToJson};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Jobs per cell.
const JOBS: usize = 400;
/// Seeds per sweep; each sweep runs FIFO and SRPTMS+C on each seed.
const SEEDS: u64 = 2;
/// Distinct cached sweeps the hits cycle through; the pre-warmed file
/// holds exactly their cells.
const HIT_SWEEPS: u64 = 48;
/// Requests per cycle of the script: `CYCLE - 1` hits, then one miss.
const CYCLE: usize = 20;
/// Scripted requests per second of `--seconds`. The script length is fixed
/// by the run length, not by how fast the server answers, so the server's
/// cache (and peak RSS) grows by the same cells on every run.
const REQUESTS_PER_SECOND: usize = 300;
/// Servers started per run to time set-up; the last one runs the script.
const SPAWNS: usize = 5;

/// `(mean, weighted mean, p99)` SRPTMS+C flowtime of the cached sweeps at
/// the default seed.
const PINNED: [f64; 3] = [929.5429166666664, 912.0119990566913, 13634.0];

fn lineup() -> Vec<SchedulerKind> {
    vec![SchedulerKind::Fifo, SchedulerKind::paper_default()]
}

/// Sweep number `index` of this run's seed space. Hits use indices below
/// [`HIT_SWEEPS`], misses the ones above, so a miss never hits.
fn sweep(seed: u64, index: u64) -> SweepRequest {
    let first = seed
        .wrapping_mul(1_000_003)
        .wrapping_add(index.wrapping_mul(SEEDS));
    let mut scenario = Scenario::scaled(JOBS, 0);
    scenario.seeds = (0..SEEDS).map(|i| first.wrapping_add(i)).collect();
    SweepRequest::new(scenario, lineup()).with_tenant("perfbench")
}

/// The protocol line of a sweep request.
fn request_line(request: &SweepRequest) -> String {
    match request.to_json() {
        JsonValue::Object(mut map) => {
            map.insert("cmd".into(), JsonValue::String("sweep".into()));
            JsonValue::Object(map).to_compact_string()
        }
        _ => unreachable!("requests serialize to objects"),
    }
}

/// One scripted request: its line, and which cached sweep it repeats
/// (`None` for a miss).
struct Step {
    line: String,
    hit: Option<usize>,
}

fn script(seed: u64, requests: usize) -> Vec<Step> {
    let mut next_hit = 0usize;
    let mut next_miss = HIT_SWEEPS;
    (0..requests)
        .map(|i| {
            if i % CYCLE == CYCLE - 1 {
                next_miss += 1;
                Step {
                    line: request_line(&sweep(seed, next_miss)),
                    hit: None,
                }
            } else {
                let hit = next_hit % HIT_SWEEPS as usize;
                next_hit += 1;
                Step {
                    line: request_line(&sweep(seed, hit as u64)),
                    hit: Some(hit),
                }
            }
        })
        .collect()
}

/// Builds the `serve` binary from the repository and returns its path.
fn serve_binary() -> Result<PathBuf, String> {
    if !Path::new("crates/server/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/server is not here".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let output = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--message-format=json"])
        .args(["-p", "mapreduce-server", "--bin", "serve"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building serve failed: {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| JsonValue::parse(line).ok())
        .filter(|message| {
            message.get("target").and_then(|t| t.get("name"))
                == Some(&JsonValue::String("serve".into()))
        })
        .find_map(|message| message.get("executable")?.as_str().map(PathBuf::from))
        .ok_or_else(|| "cargo reported no serve executable".into())
}

/// A running `serve` process and its line-protocol pipes.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl Server {
    fn spawn(binary: &Path, cache: &Path) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .arg("--cache")
            .arg(cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start serve: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
            line: String::new(),
        })
    }

    /// Sends one request line and waits for its answer line.
    fn call(&mut self, line: &str) -> Result<&str, String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to serve: {e}"))?;
        self.line.clear();
        match self.stdout.read_line(&mut self.line) {
            Ok(0) => Err("serve closed its output".into()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("reading from serve: {e}")),
        }
    }

    /// Sends `shutdown`, checks its acknowledgement and waits for the exit.
    fn shutdown(mut self) -> Result<(), String> {
        let ack = self.call(r#"{"cmd":"shutdown"}"#).map(str::to_owned);
        let status = self.stop(ack.is_err())?;
        let ack = ack?;
        if !status.success() || !ack.contains("\"ok\":true") {
            return Err(format!("serve shutdown: {status}, answer {ack}"));
        }
        Ok(())
    }

    /// Closes the request pipe and reaps the process, killing it first if
    /// `kill` (on an error path, where it may not be listening).
    fn stop(mut self, kill: bool) -> Result<std::process::ExitStatus, String> {
        drop(self.stdin);
        if kill {
            let _ = self.child.kill();
        }
        self.child.wait().map_err(|e| format!("reaping serve: {e}"))
    }
}

/// The sweep response in a protocol answer line, if it passes
/// [`check_answer`].
fn checked_answer(
    line: &str,
    step: &Step,
    cached: &[SweepResponse],
) -> Result<SweepResponse, String> {
    let value = JsonValue::parse(line).map_err(|e| format!("bad answer line: {e}"))?;
    if value.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("error answer: {line}"));
    }
    let response = value.get("response").ok_or("answer has no response")?;
    let response =
        SweepResponse::from_json(response).map_err(|e| format!("bad sweep response: {e}"))?;
    match check_answer(&response, step, cached) {
        Some(problem) => Err(problem),
        None => Ok(response),
    }
}

/// Problems with the answer to one scripted request.
fn check_answer(response: &SweepResponse, step: &Step, cached: &[SweepResponse]) -> Option<String> {
    let cells = response.cells.len();
    if cells != SEEDS as usize * lineup().len() {
        return Some(format!("answer has {cells} cells"));
    }
    if let Some(cell) = response.cells.iter().find(|c| c.summary.jobs != JOBS) {
        return Some(format!(
            "a cell completed {} of {JOBS} jobs",
            cell.summary.jobs
        ));
    }
    match step.hit {
        Some(hit) => {
            let first = &cached[hit];
            let same = response.averages == first.averages
                && response
                    .cells
                    .iter()
                    .zip(&first.cells)
                    .all(|(a, b)| a.summary == b.summary && a.fingerprint == b.fingerprint);
            if response.simulated != 0 || response.cache_hits != cells {
                Some(format!(
                    "repeated sweep {hit} simulated {} cells",
                    response.simulated
                ))
            } else if !same {
                Some(format!(
                    "repeated sweep {hit} answered differently from its first answer"
                ))
            } else {
                None
            }
        }
        None if response.simulated != cells => Some(format!(
            "fresh sweep simulated {} of {cells} cells",
            response.simulated
        )),
        None => None,
    }
}

/// Lines in a file.
fn count_lines(path: &Path) -> Result<usize, String> {
    let text = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.iter().filter(|&&b| b == b'\n').count())
}

fn file_size(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What the untraced mix measured.
struct Mix {
    setups: Vec<f64>,
    latencies: Vec<f64>,
    responses: Vec<SweepResponse>,
    peak_rss_mb: Result<f64, String>,
    wall_s: f64,
}

/// Starts [`SPAWNS`] servers on `cache`, timing spawn to first answer, and
/// runs the script on the last one.
fn mix(
    binary: &Path,
    cache: &Path,
    script: &[Step],
    cached: &[SweepResponse],
    report: &mut Report,
) -> Result<Mix, String> {
    let mut setups = Vec::new();
    let mut server = None;
    for spawn in 0..SPAWNS {
        let start = Instant::now();
        let mut candidate = Server::spawn(binary, cache)?;
        let first = candidate.call(&script[0].line).map(str::to_owned);
        setups.push(ns_since(start) as f64 / 1e9);
        let first = match first {
            Ok(first) => first,
            Err(e) => {
                let _ = candidate.stop(true);
                return Err(e);
            }
        };
        report.op(checked_answer(&first, &script[0], cached).err());
        if spawn + 1 < SPAWNS {
            candidate.shutdown()?;
        } else {
            server = Some(candidate);
        }
    }
    let mut server = server.expect("SPAWNS is at least one");
    let mut latencies = Vec::with_capacity(script.len());
    let mut answers = Vec::with_capacity(script.len());
    let start = Instant::now();
    for step in script {
        let sent = Instant::now();
        match server.call(&step.line) {
            Ok(answer) => {
                latencies.push(ns_since(sent) as f64 / 1e6);
                answers.push(answer.to_owned());
            }
            Err(e) => {
                let _ = server.stop(true);
                return Err(e);
            }
        }
    }
    let wall_s = ns_since(start) as f64 / 1e9;
    let peak = peak_rss_mb(&server.child.id().to_string());
    server.shutdown()?;
    let mut responses = Vec::with_capacity(answers.len());
    for (answer, step) in answers.iter().zip(script) {
        match checked_answer(answer, step, cached) {
            Ok(response) => {
                report.op(None);
                responses.push(response);
            }
            Err(problem) => report.op(Some(problem)),
        }
    }
    Ok(Mix {
        setups,
        latencies,
        responses,
        peak_rss_mb: peak,
        wall_s,
    })
}

/// Every timed slice of the traced pass; `sim.self_ns` is the rest.
const SERVE_PARTS: [&str; 5] = [
    "server.cache_load_ns",
    "server.submit_hit_ns",
    "server.submit_miss_ns",
    "support.json_parse_ns",
    "support.json_encode_ns",
];

/// The script in-process, the way `serve` handles each line, with every
/// call into the server and support crates timed.
fn traced_pass(cache: &Path, script: &[Step]) -> Result<(Vec<SweepResponse>, Layers), String> {
    let mut layers = Layers::default();
    let (mut load_ns, mut parse_ns, mut encode_ns, mut hit_ns, mut miss_ns) = (0, 0, 0, 0, 0);
    let start = Instant::now();
    let store = timed(&mut load_ns, || ResultCache::open(cache))
        .map_err(|e| format!("{}: {e}", cache.display()))?;
    let entries = store.len();
    let server = SweepServer::new(store);
    let mut responses = Vec::with_capacity(script.len());
    for step in script {
        let request = timed(&mut parse_ns, || {
            JsonValue::parse(&step.line)
                .map_err(|e| e.to_string())
                .and_then(|v| Request::from_json(&v).map_err(|e| e.to_string()))
        })?;
        let Request::Sweep(sweep) = request else {
            return Err("scripted line is not a sweep".into());
        };
        let submit_start = Instant::now();
        let response = server.submit(&sweep);
        let submit = ns_since(submit_start);
        if response.simulated == 0 {
            hit_ns += submit;
            layers.add("server.hit_requests", 1.0);
        } else {
            miss_ns += submit;
            layers.add("server.miss_requests", 1.0);
        }
        timed(&mut encode_ns, || {
            std::hint::black_box(
                JsonValue::object([
                    ("ok", true.to_json()),
                    ("cmd", JsonValue::String("sweep".into())),
                    ("response", response.to_json()),
                ])
                .to_compact_string(),
            )
        });
        responses.push(response);
    }
    let wall = ns_since(start) as f64;
    layers.set("server.cache_entries", entries as f64);
    layers.set("server.cache_load_ns", load_ns as f64);
    layers.set("server.submit_hit_ns", hit_ns as f64);
    layers.set("server.submit_miss_ns", miss_ns as f64);
    layers.set("support.json_parse_ns", parse_ns as f64);
    layers.set("support.json_encode_ns", encode_ns as f64);
    layers.set("sim.self_ns", wall - layers.sum(&SERVE_PARTS));
    layers.set("trace.wall_ns", wall);

    // The summaries `submit` folds for every cell, replayed outside the
    // pass (the server does this inside `submit`, out of the benchmark's
    // reach): the metrics crate's share of the answer time.
    let mut summary_ns = 0;
    for cell in responses.iter().flat_map(|r| &r.cells) {
        let outcome = server
            .cache()
            .lookup(cell.fingerprint)
            .ok_or("a cell of the traced pass is not in the cache")?;
        timed(&mut summary_ns, || {
            std::hint::black_box(FlowtimeSummary::from_outcome(&outcome))
        });
    }
    layers.set("metrics.summary_ns", summary_ns as f64);
    Ok((responses, layers))
}

/// Writes the pre-warmed cache: every cached sweep of the script, simulated
/// in-process. Returns each sweep's first answer and the SRPTMS+C flowtime
/// metrics of the cached cells.
fn prewarm(path: &Path, seed: u64) -> Result<(Vec<SweepResponse>, [Option<f64>; 3]), String> {
    let _ = std::fs::remove_file(path);
    let store = ResultCache::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let server = SweepServer::new(store);
    let mut answers = Vec::new();
    let mut outcomes = Vec::new();
    for index in 0..HIT_SWEEPS {
        let response = server.submit(&sweep(seed, index));
        for cell in &response.cells {
            if matches!(cell.scheduler, SchedulerKind::SrptMsC { .. }) {
                let outcome = server.cache().lookup(cell.fingerprint);
                outcomes.push(outcome.ok_or("a pre-warmed cell is not in the cache")?);
            }
        }
        answers.push(response);
    }
    Ok((answers, flowtimes(&outcomes.iter().collect::<Vec<_>>())))
}

/// Runs `serve_mix`; see the module docs. `Err` is a failure that stops the
/// run before it could finish.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let binary = serve_binary()?;
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let work = Path::new(&target).join(format!("perfbench-serve-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(args, report, &binary, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, report: &mut Report, binary: &Path, work: &Path) -> Result<(), String> {
    let warm = work.join("warm.jsonl");
    let (cached, flowtime) = prewarm(&warm, args.seed)?;
    let warm_lines = count_lines(&warm)?;
    let requests = (args.seconds.as_secs() as usize * REQUESTS_PER_SECOND)
        .div_ceil(CYCLE)
        .max(1000usize.div_ceil(CYCLE))
        * CYCLE;
    let script = script(args.seed, requests);

    let live = work.join("live.jsonl");
    std::fs::copy(&warm, &live).map_err(|e| format!("copying the cache: {e}"))?;
    let mix = mix(binary, &live, &script, &cached, report)?;
    let simulated: usize = mix.responses.iter().map(|r| r.simulated).sum();
    let live_lines = count_lines(&live)?;
    report.check(live_lines == warm_lines + simulated, || {
        format!(
            "cache grew from {warm_lines} to {live_lines} lines for {simulated} simulated cells"
        )
    });
    let cells: usize = mix.responses.iter().map(|r| r.cells.len()).sum();
    let hits: usize = mix.responses.iter().map(|r| r.cache_hits).sum();
    let scripted = script.iter().filter(|s| s.hit.is_some()).count() as f64 / script.len() as f64;
    report.check(hits as f64 / cells as f64 == scripted, || {
        format!("hit fraction {hits}/{cells} differs from the scripted {scripted}")
    });
    let p50 = median(&mix.latencies);
    let p99 = guarded_percentile(&mix.latencies, 0.99);
    report.check(p99.is_some(), || "too few requests for a p99".into());
    report.note(format!(
        "{} requests ({} cached sweeps repeated, 1 fresh sweep in {CYCLE}); hit fraction {:.4}; \
         cache {warm_lines} -> {live_lines} lines; req_p99_ms {} (n={})",
        script.len(),
        HIT_SWEEPS,
        hits as f64 / cells as f64,
        p99.map_or("refused".to_string(), |p| format!("{p:.6}")),
        mix.latencies.len(),
    ));

    if args.trace {
        let copy = work.join("traced.jsonl");
        std::fs::copy(&warm, &copy).map_err(|e| format!("copying the cache: {e}"))?;
        let (responses, mut layers) = traced_pass(&copy, &script)?;
        report.check(responses == mix.responses, || {
            "traced answers differ from the serve binary's".into()
        });
        let untraced_wall = (median(&mix.setups) + mix.wall_s) * 1e9;
        let traced_hits: usize = responses.iter().map(|r| r.cache_hits).sum();
        layers.set(
            "server.cells_simulated",
            responses.iter().map(|r| r.simulated).sum::<usize>() as f64,
        );
        layers.set("server.cache_hit_frac", traced_hits as f64 / cells as f64);
        layers.set(
            "server.store_bytes",
            (file_size(&copy)? - file_size(&warm)?) as f64,
        );
        layers.set(
            "server.cache_file_mb",
            file_size(&warm)? as f64 / (1u64 << 20) as f64,
        );
        layers.set("server.req_p50_ms", p50);
        layers.set("server.req_p99_ms", p99.unwrap_or(f64::NAN));
        report.traced(layers, &Layers::default(), untraced_wall, 1);
        return Ok(());
    }

    // Windows of whole cycles, so each holds the scripted hit/miss mix.
    let window = 5 * CYCLE;
    let job_rates: Vec<f64> = mix
        .latencies
        .chunks_exact(window)
        .zip(mix.responses.chunks_exact(window))
        .map(|(latencies, responses)| {
            let jobs: usize = responses.iter().map(|r| r.simulated * JOBS).sum();
            jobs as f64 * 1e3 / latencies.iter().sum::<f64>()
        })
        .collect();
    report.speed(
        &job_rates,
        &mix.latencies,
        window,
        &mix.setups,
        mix.peak_rss_mb,
    );
    let cells = HIT_SWEEPS as usize * SEEDS as usize;
    report.flowtimes(args.seed, flowtime, PINNED, cells, cells * JOBS);
    Ok(())
}
