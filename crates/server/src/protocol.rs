//! Line-delimited JSON protocol: one request per input line, one response
//! per output line.
//!
//! The protocol is transport-agnostic ([`serve_lines`] takes any
//! `BufRead`/`Write` pair); the `serve` binary wires it to stdin/stdout so
//! external tooling can drive sweeps with nothing but a pipe:
//!
//! ```text
//! {"cmd":"sweep","scenario":{...},"schedulers":["Fifo",{"SrptMsC":{"epsilon":0.6,"r":3}}]}
//! → {"ok":true,"cmd":"sweep","response":{"cells":[...],"averages":[...],"cache_hits":0,...}}
//! {"cmd":"stats"}
//! → {"ok":true,"cmd":"stats","cache":{"entries":20,"hits":0,"misses":20,...},
//!    "server":{"uptime_ns":...,"requests_served":2,"cells_simulated_total":20,
//!              "cache_hit_rate":0.5,"metrics":{...}}}
//! {"cmd":"metrics"}
//! → {"ok":true,"cmd":"metrics","metrics":{"counters":{...},"histograms":{...}},
//!    "sketches":{"all":{...},"small":{...},"big":{...}},
//!    "exposition":"mapreduce_server_uptime_ns 42\n..."}
//! {"cmd":"shutdown"}
//! → {"ok":true,"cmd":"shutdown"}
//! ```
//!
//! The `metrics` request is the live observability surface: the lifetime
//! [`mapreduce_metrics::MetricsRegistry`] (per-request latency histograms,
//! per-tenant counters, engine telemetry of every simulated cell) and the
//! lifetime flowtime [`mapreduce_metrics::QuantileSketch`]es as structured
//! JSON, plus the same data flattened into a deterministic plain-text
//! exposition (`name value` lines, sketch quantiles included) for tooling
//! that scrapes text.
//!
//! Malformed lines produce `{"ok":false,"error":"..."}` and the loop keeps
//! serving — a multi-tenant stdin feed must never be taken down by one bad
//! request. Blank lines are ignored; EOF ends the loop like `shutdown`.
//!
//! Two resource guards protect the loop from hostile or accidental abuse
//! (see [`ServeOptions`]): request lines longer than
//! [`ServeOptions::max_line_bytes`] are discarded without being buffered
//! (the reader skips to the next newline in constant memory), and sweep
//! requests expanding to more than [`ServeOptions::max_cells`] cells are
//! rejected before any simulation starts. Both degrade to an error
//! response line, never an OOM or a hang.

use crate::service::{SweepRequest, SweepServer};
use mapreduce_experiments::cache::OutcomeCache;
use mapreduce_support::json::{FromJson, JsonError, JsonValue, ToJson};
use std::io::{BufRead, Read, Write};

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) one sweep.
    Sweep(Box<SweepRequest>),
    /// Report cache statistics.
    Stats,
    /// Report the lifetime metrics registry and flowtime sketches (JSON +
    /// text exposition).
    Metrics,
    /// Stop serving after acknowledging.
    Shutdown,
}

impl FromJson for Request {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        let cmd = value
            .field("cmd")?
            .as_str()
            .ok_or_else(|| JsonError::new("`cmd` must be a string"))?;
        match cmd {
            "sweep" => Ok(Request::Sweep(Box::new(SweepRequest::from_json(value)?))),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(JsonError::new(format!("unknown cmd `{other}`"))),
        }
    }
}

/// Resource guards of one serving session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Maximum cells (`schedulers × seeds`) one sweep request may expand
    /// into; larger requests are answered with an error line.
    pub max_cells: usize,
    /// Maximum bytes of one request line; longer lines are discarded in
    /// constant memory and answered with an error line.
    pub max_line_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_cells: 4096,
            max_line_bytes: 1 << 20,
        }
    }
}

/// What one bounded line read produced.
enum LineRead {
    /// A complete line within the limit (trailing newline stripped).
    Line,
    /// The line exceeded the limit; its remainder was skipped unbuffered.
    Oversized,
    /// End of input.
    Eof,
}

/// Reads one line of at most `max_bytes` bytes into `buf`. An over-long
/// line is *not* buffered: at most `max_bytes + 1` bytes are held while the
/// rest is skipped chunk-by-chunk straight off the reader's internal
/// buffer, so a gigabyte request line costs a gigabyte of I/O but constant
/// memory.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    buf.clear();
    let n = Read::take(&mut *reader, max_bytes as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        return Ok(LineRead::Line);
    }
    if n <= max_bytes {
        // Final line of the stream, no trailing newline.
        return Ok(LineRead::Line);
    }
    // Limit hit with no newline in sight: drop what we buffered and skip
    // to the end of the line.
    buf.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            break;
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = chunk.len();
                reader.consume(len);
            }
        }
    }
    Ok(LineRead::Oversized)
}

/// Accounting of one [`serve_lines`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests served successfully (sweeps and stats).
    pub requests: usize,
    /// Lines rejected with an error response.
    pub errors: usize,
    /// Whether the session ended via an explicit `shutdown` (vs EOF).
    pub shutdown: bool,
}

/// Serializes the `server` body of the `stats` response: lifetime request
/// and simulation counters, uptime, the cache hit-rate, and the engine
/// telemetry registry folded over every simulated cell.
fn server_stats_json(server: &SweepServer) -> JsonValue {
    let stats = server.cache().stats();
    let lookups = stats.hits + stats.misses;
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        stats.hits as f64 / lookups as f64
    };
    JsonValue::object([
        ("uptime_ns", server.uptime_ns().to_json()),
        ("requests_served", server.requests_served().to_json()),
        (
            "cells_simulated_total",
            server.cells_simulated_total().to_json(),
        ),
        ("cache_hit_rate", hit_rate.to_json()),
        ("metrics", server.metrics_snapshot().to_json()),
    ])
}

/// Serializes the `stats` response body for a server's cache.
fn cache_stats_json(server: &SweepServer) -> JsonValue {
    let cache = server.cache();
    let stats = cache.stats();
    JsonValue::object([
        ("entries", cache.len().to_json()),
        ("hits", stats.hits.to_json()),
        ("misses", stats.misses.to_json()),
        ("stores", stats.stores.to_json()),
        ("evicted", cache.evicted().to_json()),
        ("skipped_lines", cache.skipped_lines().to_json()),
        (
            "path",
            match cache.path() {
                Some(path) => JsonValue::String(path.to_string_lossy().into_owned()),
                None => JsonValue::Null,
            },
        ),
    ])
}

/// Flattens the server's lifetime metrics into a deterministic plain-text
/// exposition: one `name value` line per quantity, in fixed order (server
/// gauges, then registry counters and histograms in name order, then the
/// flowtime sketches with their bounded-error quantiles). Every value is a
/// non-negative integer, so the format is trivially scrapeable; only the
/// uptime line varies between back-to-back scrapes of an idle server.
pub fn metrics_exposition(server: &SweepServer) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "mapreduce_server_uptime_ns {}", server.uptime_ns());
    let _ = writeln!(
        out,
        "mapreduce_server_requests_served {}",
        server.requests_served()
    );
    let _ = writeln!(
        out,
        "mapreduce_server_cells_simulated_total {}",
        server.cells_simulated_total()
    );
    let cache_stats = server.cache().stats();
    let _ = writeln!(out, "mapreduce_cache_entries {}", server.cache().len());
    let _ = writeln!(out, "mapreduce_cache_hits {}", cache_stats.hits);
    let _ = writeln!(out, "mapreduce_cache_misses {}", cache_stats.misses);
    let registry = server.metrics_snapshot();
    for (name, value) in registry.counters() {
        let _ = writeln!(out, "mapreduce_counter_{} {value}", sanitize_name(name));
    }
    for (name, histogram) in registry.histograms() {
        let name = sanitize_name(name);
        let _ = writeln!(
            out,
            "mapreduce_histogram_{name}_count {}",
            histogram.count()
        );
        let _ = writeln!(out, "mapreduce_histogram_{name}_sum {}", histogram.sum());
        let _ = writeln!(out, "mapreduce_histogram_{name}_max {}", histogram.max());
    }
    let sketches = server.sketches_snapshot();
    for (label, sketch) in [
        ("all", &sketches.all),
        ("small", &sketches.small),
        ("big", &sketches.big),
    ] {
        let _ = writeln!(out, "mapreduce_flowtime_{label}_count {}", sketch.count());
        let _ = writeln!(out, "mapreduce_flowtime_{label}_min {}", sketch.min());
        let _ = writeln!(out, "mapreduce_flowtime_{label}_max {}", sketch.max());
        for (tag, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
            let _ = writeln!(
                out,
                "mapreduce_flowtime_{label}_{tag} {}",
                sketch.quantile(q).unwrap_or(0)
            );
        }
    }
    out
}

/// Maps a metric name onto the exposition's `[a-z0-9_]` charset (tenant
/// names can carry arbitrary printable characters).
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn write_line<W: Write>(writer: &mut W, value: &JsonValue) -> std::io::Result<()> {
    writeln!(writer, "{}", value.to_compact_string())?;
    writer.flush()
}

/// Serves line-delimited requests from `reader`, writing one response line
/// each to `writer`, until EOF or a `shutdown` request — with the default
/// [`ServeOptions`] resource guards.
///
/// # Errors
/// Returns an error only for transport I/O failures; malformed request
/// content is answered with an `{"ok":false,...}` line instead.
pub fn serve_lines<R: BufRead, W: Write>(
    server: &SweepServer,
    reader: R,
    writer: W,
) -> std::io::Result<ServeStats> {
    serve_lines_with(server, reader, writer, ServeOptions::default())
}

/// [`serve_lines`] with explicit resource guards.
///
/// # Errors
/// Returns an error only for transport I/O failures; malformed request
/// content is answered with an `{"ok":false,...}` line instead.
pub fn serve_lines_with<R: BufRead, W: Write>(
    server: &SweepServer,
    mut reader: R,
    mut writer: W,
    options: ServeOptions,
) -> std::io::Result<ServeStats> {
    let mut stats = ServeStats::default();
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut reader, options.max_line_bytes, &mut buf)? {
            LineRead::Eof => break,
            LineRead::Oversized => {
                stats.errors += 1;
                write_line(
                    &mut writer,
                    &JsonValue::object([
                        ("ok", false.to_json()),
                        (
                            "error",
                            format!(
                                "request line exceeds {} bytes and was dropped",
                                options.max_line_bytes
                            )
                            .to_json(),
                        ),
                    ]),
                )?;
                continue;
            }
            LineRead::Line => {}
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        let request = JsonValue::parse(&line)
            .map_err(|e| e.to_string())
            .and_then(|v| Request::from_json(&v).map_err(|e| e.to_string()));
        match request {
            Err(message) => {
                stats.errors += 1;
                write_line(
                    &mut writer,
                    &JsonValue::object([("ok", false.to_json()), ("error", message.to_json())]),
                )?;
            }
            Ok(Request::Sweep(sweep)) => {
                // Oversized requests are capped and degenerate requests
                // rejected up front; anything that still panics inside the
                // simulation (a stalled scheduler, an invalid generator
                // profile) is caught and answered as an error line — one
                // tenant's bad request must never take the server down.
                let capped = if sweep.num_cells() > options.max_cells {
                    Err(format!(
                        "request expands to {} cells, over the per-request cap of {}",
                        sweep.num_cells(),
                        options.max_cells
                    ))
                } else {
                    Ok(())
                };
                let result = capped.and_then(|()| sweep.validate()).and_then(|()| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.submit(&sweep)))
                        .map_err(|payload| {
                            let message = payload
                                .downcast_ref::<String>()
                                .map(String::as_str)
                                .or_else(|| payload.downcast_ref::<&str>().copied())
                                .unwrap_or("sweep panicked");
                            format!("sweep failed: {message}")
                        })
                });
                match result {
                    Ok(response) => {
                        stats.requests += 1;
                        write_line(
                            &mut writer,
                            &JsonValue::object([
                                ("ok", true.to_json()),
                                ("cmd", JsonValue::String("sweep".into())),
                                ("response", response.to_json()),
                            ]),
                        )?;
                    }
                    Err(message) => {
                        stats.errors += 1;
                        write_line(
                            &mut writer,
                            &JsonValue::object([
                                ("ok", false.to_json()),
                                ("error", message.to_json()),
                            ]),
                        )?;
                    }
                }
            }
            Ok(Request::Stats) => {
                stats.requests += 1;
                write_line(
                    &mut writer,
                    &JsonValue::object([
                        ("ok", true.to_json()),
                        ("cmd", JsonValue::String("stats".into())),
                        ("cache", cache_stats_json(server)),
                        ("server", server_stats_json(server)),
                    ]),
                )?;
            }
            Ok(Request::Metrics) => {
                stats.requests += 1;
                write_line(
                    &mut writer,
                    &JsonValue::object([
                        ("ok", true.to_json()),
                        ("cmd", JsonValue::String("metrics".into())),
                        ("metrics", server.metrics_snapshot().to_json()),
                        ("sketches", server.sketches_snapshot().to_json()),
                        ("exposition", JsonValue::String(metrics_exposition(server))),
                    ]),
                )?;
            }
            Ok(Request::Shutdown) => {
                stats.shutdown = true;
                write_line(
                    &mut writer,
                    &JsonValue::object([
                        ("ok", true.to_json()),
                        ("cmd", JsonValue::String("shutdown".into())),
                    ]),
                )?;
                break;
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::service::SweepResponse;
    use mapreduce_experiments::{Scenario, SchedulerKind};

    fn server() -> SweepServer {
        SweepServer::new(ResultCache::in_memory())
    }

    fn request_line() -> String {
        let request = SweepRequest::new(Scenario::scaled(12, 1), vec![SchedulerKind::Fifo]);
        match request.to_json() {
            JsonValue::Object(mut map) => {
                map.insert("cmd".into(), JsonValue::String("sweep".into()));
                JsonValue::Object(map).to_compact_string()
            }
            _ => unreachable!("requests serialize to objects"),
        }
    }

    /// Runs a scripted session and returns the response lines.
    fn session(server: &SweepServer, input: &str) -> (Vec<JsonValue>, ServeStats) {
        let mut out = Vec::new();
        let stats = serve_lines(server, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines = text
            .lines()
            .map(|l| JsonValue::parse(l).expect("every response line is JSON"))
            .collect();
        (lines, stats)
    }

    #[test]
    fn sweep_stats_and_shutdown_round_trip() {
        let server = server();
        let input = format!(
            "{}\n\n{}\n{{\"cmd\":\"stats\"}}\n{{\"cmd\":\"shutdown\"}}\nignored after shutdown\n",
            request_line(),
            request_line()
        );
        let (lines, stats) = session(&server, &input);
        assert_eq!(lines.len(), 4);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 0);
        assert!(stats.shutdown);

        // Cold sweep simulates, warm sweep is served entirely from cache —
        // with bit-identical cells.
        let cold = SweepResponse::from_json(lines[0].field("response").unwrap()).unwrap();
        let warm = SweepResponse::from_json(lines[1].field("response").unwrap()).unwrap();
        assert_eq!(cold.simulated, 1);
        assert_eq!(warm.simulated, 0);
        assert_eq!(warm.cache_hits, 1);
        assert_eq!(warm.cells[0].summary, cold.cells[0].summary);
        assert!(warm.cells[0].from_cache);
        assert!(!cold.cells[0].from_cache);

        let cache = lines[2].field("cache").unwrap();
        assert_eq!(cache.field("entries").unwrap().as_u64(), Some(1));
        assert_eq!(cache.field("path").unwrap(), &JsonValue::Null);
        assert_eq!(lines[3].field("cmd").unwrap().as_str(), Some("shutdown"));

        // The enriched `server` body: two sweeps served, one cell simulated
        // (the warm rerun hit the cache), a 50 % hit-rate over the two
        // lookups, a ticking uptime, and the engine-telemetry registry
        // carrying the simulated cell's decision count.
        let body = lines[2].field("server").unwrap();
        assert_eq!(body.field("requests_served").unwrap().as_u64(), Some(2));
        assert_eq!(
            body.field("cells_simulated_total").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(body.field("cache_hit_rate").unwrap().as_f64(), Some(0.5));
        assert!(body.field("uptime_ns").unwrap().as_u64().unwrap() > 0);
        let metrics =
            mapreduce_metrics::MetricsRegistry::from_json(body.field("metrics").unwrap()).unwrap();
        assert!(metrics.counter(mapreduce_metrics::telemetry::names::ENGINE_DECISION_INSTANTS) > 0);
    }

    #[test]
    fn metrics_request_exposes_registry_and_sketches() {
        use crate::service::stats_names;
        let server = server();
        let input = format!(
            "{}\n{{\"cmd\":\"metrics\"}}\n{{\"cmd\":\"shutdown\"}}\n",
            request_line()
        );
        let (lines, stats) = session(&server, &input);
        assert_eq!(stats.requests, 2);
        let line = &lines[1];
        assert_eq!(line.field("ok").unwrap().as_bool(), Some(true));
        assert_eq!(line.field("cmd").unwrap().as_str(), Some("metrics"));

        // The structured registry carries the server-side accounting: one
        // sweep latency sample (cold split) and the anonymous tenant's
        // counters.
        let registry =
            mapreduce_metrics::MetricsRegistry::from_json(line.field("metrics").unwrap()).unwrap();
        assert_eq!(
            registry
                .histogram(stats_names::SWEEP_LATENCY_NS)
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            registry
                .histogram(stats_names::SWEEP_COLD_NS)
                .unwrap()
                .count(),
            1
        );
        assert_eq!(
            registry.counter(&stats_names::tenant_counter(
                stats_names::DEFAULT_TENANT,
                stats_names::TENANT_REQUESTS
            )),
            1
        );

        // The lifetime sketches folded every simulated job.
        let sketches =
            mapreduce_metrics::FlowtimeSketches::from_json(line.field("sketches").unwrap())
                .unwrap();
        assert!(sketches.all.count() > 0);

        // The text exposition is strictly `name value` integer lines.
        let text = line.field("exposition").unwrap().as_str().unwrap();
        assert!(text.lines().count() >= 10);
        for row in text.lines() {
            let mut parts = row.split(' ');
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(parts.next().is_none(), "more than two fields in {row:?}");
            assert!(name.starts_with("mapreduce_"), "bad name in {row:?}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad charset in {row:?}"
            );
            value
                .parse::<u128>()
                .expect("exposition values are integers");
        }
        assert!(text.contains("mapreduce_flowtime_all_count "));
        assert!(text.contains("mapreduce_server_requests_served 1"));
    }

    #[test]
    fn cdf_sweeps_ship_series_not_records() {
        let server = server();
        let request = SweepRequest::new(Scenario::scaled(12, 1), vec![SchedulerKind::Fifo])
            .with_tenant("alice")
            .with_cdf(0.0, 300.0, 7);
        let line = match request.to_json() {
            JsonValue::Object(mut map) => {
                map.insert("cmd".into(), JsonValue::String("sweep".into()));
                JsonValue::Object(map).to_compact_string()
            }
            _ => unreachable!(),
        };
        // Cold, then warm: the sketch-backed series must be bit-identical.
        let input = format!("{line}\n{line}\n{{\"cmd\":\"shutdown\"}}\n");
        let (lines, stats) = session(&server, &input);
        assert_eq!(stats.requests, 2);
        let cold = SweepResponse::from_json(lines[0].field("response").unwrap()).unwrap();
        let warm = SweepResponse::from_json(lines[1].field("response").unwrap()).unwrap();
        assert_eq!(cold.simulated, 1);
        assert_eq!(warm.simulated, 0);
        assert_eq!(cold.cdf, warm.cdf, "cold and warm series must be identical");
        let series = cold.cdf.as_ref().unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].scheduler, SchedulerKind::Fifo);
        assert_eq!(series[0].points.len(), 7);
        assert!(series[0].jobs > 0);
        let mut prev = -1.0;
        for &(x, y) in &series[0].points {
            assert!((0.0..=300.0).contains(&x));
            assert!(y >= prev && (0.0..=1.0).contains(&y));
            prev = y;
        }
        // Per-tenant accounting picked up the tag.
        use crate::service::stats_names;
        let registry = server.metrics_snapshot();
        assert_eq!(
            registry.counter(&stats_names::tenant_counter(
                "alice",
                stats_names::TENANT_REQUESTS
            )),
            2
        );
        assert_eq!(
            registry.counter(&stats_names::tenant_counter(
                "alice",
                stats_names::TENANT_CACHE_HITS
            )),
            1
        );
    }

    #[test]
    fn degenerate_cdf_and_tenant_options_are_rejected() {
        let server = server();
        let bad = [
            SweepRequest::new(Scenario::scaled(10, 1), vec![SchedulerKind::Fifo])
                .with_cdf(10.0, 5.0, 4),
            SweepRequest::new(Scenario::scaled(10, 1), vec![SchedulerKind::Fifo])
                .with_cdf(0.0, 300.0, 1),
            SweepRequest::new(Scenario::scaled(10, 1), vec![SchedulerKind::Fifo]).with_cdf(
                0.0,
                300.0,
                crate::service::MAX_CDF_POINTS + 1,
            ),
            SweepRequest::new(Scenario::scaled(10, 1), vec![SchedulerKind::Fifo]).with_tenant(""),
        ];
        let mut input = String::new();
        for request in &bad {
            match request.to_json() {
                JsonValue::Object(mut map) => {
                    map.insert("cmd".into(), JsonValue::String("sweep".into()));
                    input.push_str(&JsonValue::Object(map).to_compact_string());
                    input.push('\n');
                }
                _ => unreachable!(),
            }
        }
        let (lines, stats) = session(&server, &input);
        assert_eq!(stats.errors, bad.len());
        for line in &lines {
            assert_eq!(line.field("ok").unwrap().as_bool(), Some(false));
        }
    }

    #[test]
    fn malformed_lines_get_error_responses_and_serving_continues() {
        let server = server();
        let input = format!(
            "not json\n{{\"cmd\":\"nope\"}}\n{{\"nocmd\":1}}\n{}\n",
            request_line()
        );
        let (lines, stats) = session(&server, &input);
        assert_eq!(lines.len(), 4);
        assert_eq!(stats.errors, 3);
        assert_eq!(stats.requests, 1);
        assert!(!stats.shutdown, "EOF, not shutdown");
        for line in &lines[..3] {
            assert_eq!(line.field("ok").unwrap().as_bool(), Some(false));
            assert!(line.field("error").is_ok());
        }
        assert_eq!(lines[3].field("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn deeply_nested_lines_get_an_error_and_serving_continues() {
        let server = server();
        let input = format!("{}\n{{\"cmd\":\"stats\"}}\n", "[".repeat(200_000));
        let (lines, stats) = session(&server, &input);
        assert_eq!(lines.len(), 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(lines[0].field("ok").unwrap().as_bool(), Some(false));
        assert!(lines[0]
            .field("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("nesting"));
        assert_eq!(lines[1].field("ok").unwrap().as_bool(), Some(true));
        assert_eq!(lines[1].field("cmd").unwrap().as_str(), Some("stats"));
    }

    #[test]
    fn degenerate_sweeps_get_error_lines_not_crashes() {
        let server = server();
        // Empty seeds, empty scheduler list, zero machines: all well-formed
        // JSON, all rejected by validation; the server keeps serving.
        let mut no_seeds = Scenario::scaled(10, 1);
        no_seeds.seeds.clear();
        let mut no_machines = Scenario::scaled(10, 1);
        no_machines.machines = 0;
        let degenerate = [
            SweepRequest::new(no_seeds, vec![SchedulerKind::Fifo]),
            SweepRequest::new(Scenario::scaled(10, 1), Vec::new()),
            SweepRequest::new(no_machines, vec![SchedulerKind::Fifo]),
        ];
        let mut input = String::new();
        for request in &degenerate {
            match request.to_json() {
                JsonValue::Object(mut map) => {
                    map.insert("cmd".into(), JsonValue::String("sweep".into()));
                    input.push_str(&JsonValue::Object(map).to_compact_string());
                    input.push('\n');
                }
                _ => unreachable!(),
            }
        }
        input.push_str(&request_line());
        input.push('\n');
        let (lines, stats) = session(&server, &input);
        assert_eq!(stats.errors, 3);
        assert_eq!(stats.requests, 1);
        for line in &lines[..3] {
            assert_eq!(line.field("ok").unwrap().as_bool(), Some(false));
        }
        assert_eq!(lines[3].field("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn panicking_sweeps_are_answered_not_fatal() {
        // A profile that passes shape validation but panics inside the
        // generator (class fractions summing to zero): the backstop turns
        // the panic into an error line and the next request still works.
        let server = server();
        let mut scenario = Scenario::scaled(10, 1);
        for class in &mut scenario.profile.classes {
            class.fraction = 0.0;
        }
        let bad = match SweepRequest::new(scenario, vec![SchedulerKind::Fifo]).to_json() {
            JsonValue::Object(mut map) => {
                map.insert("cmd".into(), JsonValue::String("sweep".into()));
                JsonValue::Object(map).to_compact_string()
            }
            _ => unreachable!(),
        };
        let input = format!("{bad}\n{}\n", request_line());
        let (lines, stats) = session(&server, &input);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.requests, 1);
        assert_eq!(lines[0].field("ok").unwrap().as_bool(), Some(false));
        let message = lines[0].field("error").unwrap().as_str().unwrap();
        assert!(message.contains("sweep failed"), "got {message}");
        assert_eq!(lines[1].field("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn oversized_lines_are_dropped_with_an_error_and_serving_continues() {
        let server = server();
        let request = request_line();
        let options = ServeOptions {
            max_line_bytes: request.len(),
            ..ServeOptions::default()
        };
        // A hostile line well over the limit (never valid JSON, never
        // buffered whole), then a legitimate request on the same stream.
        let input = format!("{}\n{request}\n", "x".repeat(8 * 1024 + request.len()));
        let mut out = Vec::new();
        let stats = serve_lines_with(&server, input.as_bytes(), &mut out, options).unwrap();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.requests, 1);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert_eq!(lines[0].field("ok").unwrap().as_bool(), Some(false));
        let message = lines[0].field("error").unwrap().as_str().unwrap();
        assert!(message.contains("bytes and was dropped"), "got {message}");
        assert_eq!(lines[1].field("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn line_exactly_at_the_limit_is_served() {
        let server = server();
        let request = request_line();
        let options = ServeOptions {
            max_line_bytes: request.len(),
            ..ServeOptions::default()
        };
        let input = format!("{request}\n");
        let mut out = Vec::new();
        let stats = serve_lines_with(&server, input.as_bytes(), &mut out, options).unwrap();
        assert_eq!((stats.requests, stats.errors), (1, 0));
    }

    #[test]
    fn over_cap_sweeps_are_rejected_before_simulation() {
        let server = server();
        let options = ServeOptions {
            max_cells: 1,
            ..ServeOptions::default()
        };
        // Two schedulers × one seed = two cells: over the cap of one.
        let request = SweepRequest::new(
            Scenario::scaled(12, 1),
            vec![SchedulerKind::Fifo, SchedulerKind::Restart],
        );
        let big = match request.to_json() {
            JsonValue::Object(mut map) => {
                map.insert("cmd".into(), JsonValue::String("sweep".into()));
                JsonValue::Object(map).to_compact_string()
            }
            _ => unreachable!(),
        };
        let input = format!("{big}\n{}\n", request_line());
        let mut out = Vec::new();
        let stats = serve_lines_with(&server, input.as_bytes(), &mut out, options).unwrap();
        assert_eq!((stats.errors, stats.requests), (1, 1));
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        let message = lines[0].field("error").unwrap().as_str().unwrap();
        assert!(message.contains("per-request cap"), "got {message}");
        assert_eq!(lines[1].field("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn request_parsing_rejects_non_object_cmds() {
        assert!(Request::from_json(&JsonValue::Null).is_err());
        let bad_cmd = JsonValue::object([("cmd", 5u64.to_json())]);
        assert!(Request::from_json(&bad_cmd).is_err());
        let stats = JsonValue::object([("cmd", JsonValue::String("stats".into()))]);
        assert_eq!(Request::from_json(&stats).unwrap(), Request::Stats);
    }
}
