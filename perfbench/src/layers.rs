//! The traced run: the workload's operation sequence three ways — over the
//! wire, against an in-process store of the same shape, and against the
//! recommenders driven directly — with a span around every call into a
//! layer, a check that all three return identical results, and the
//! per-layer metrics.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use pkgrec_core::{CoreError, Result};
use pkgrec_serve::{DurabilityConfig, SessionId, SessionStore};

use crate::backends::{InProcess, ProtocolStats, Recommenders};
use crate::checks::{self, SessionTrace};
use crate::drive::{drive, session_of, Backend, Span, Spans};
use crate::e2e::{check_outputs, quantile};
use crate::serving;
use crate::workload::{inputs, Schedule, SessionPlan, Workload, WARMUP_BASE};
use crate::{metric, procfs, Args, Metric, Outcome};

/// Drives every lane of the workload one after another on this thread.
fn drive_lanes<B: Backend>(
    backend: &mut B,
    workload: &Workload,
    plans: &[SessionPlan],
) -> Vec<SessionTrace> {
    let lanes = workload.connections;
    let mut traces = Vec::with_capacity(plans.len());
    for lane in 0..lanes {
        let lane_plans: Vec<&SessionPlan> =
            plans.iter().filter(|p| p.index % lanes == lane).collect();
        traces.extend(drive(backend, &lane_plans, workload.schedule, workload.round_cap).0);
    }
    traces.sort_by_key(|t| t.index);
    traces
}

fn ratio(numerator: f64, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator / denominator as f64
    }
}

fn is_timed(span: &Span) -> bool {
    session_of(span.request) < WARMUP_BASE
}

/// Total milliseconds and count of the timed spans named `name`.
fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name && is_timed(s))
        .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + 1))
}

/// Per-request nanoseconds of the timed spans whose name starts with one of
/// `prefixes`.
fn per_request(spans: &[Span], prefixes: &[&str]) -> HashMap<u64, f64> {
    let mut sums = HashMap::new();
    for span in spans.iter().filter(|s| is_timed(s)) {
        if prefixes.iter().any(|p| span.name.starts_with(p)) {
            *sums.entry(span.request).or_insert(0.0) += (span.end_ns - span.start_ns) as f64;
        }
    }
    sums
}

/// Median over the requests of `outer` of `outer − inner`, in
/// microseconds.  The two sides come from different executions, so a mean
/// would be swamped by the run-to-run noise of the heaviest requests.
fn median_self_us(outer: &HashMap<u64, f64>, inner: &HashMap<u64, f64>) -> f64 {
    let diffs: Vec<f64> = outer
        .iter()
        .map(|(request, ns)| (ns - inner.get(request).copied().unwrap_or(0.0)) / 1e3)
        .collect();
    quantile(&diffs, 0.5)
}

/// Writes every span as one JSON line: name, request, session, start, end
/// and the index of its parent (the wire call for store spans, the store
/// call for recommender spans).
fn write_spans(path: &Path, wire: &[Span], store: &[Span], direct: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut wire_at = HashMap::new();
    let mut store_at = HashMap::new();
    let mut index = 0usize;
    let mut line = |out: &mut dyn Write, span: &Span, parent: Option<usize>| {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {index}, \"name\": \"{}\", \"request\": {}, \"session\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
            span.name,
            span.request,
            session_of(span.request),
            span.start_ns,
            span.end_ns
        )?;
        index += 1;
        Ok::<usize, std::io::Error>(index - 1)
    };
    for span in wire {
        wire_at.insert(span.request, line(&mut out, span, None)?);
    }
    for span in store {
        let at = line(&mut out, span, wire_at.get(&span.request).copied())?;
        if span.name.starts_with("serve.store.") {
            store_at.insert(span.request, at);
        }
    }
    for span in direct {
        line(&mut out, span, store_at.get(&span.request).copied())?;
    }
    out.flush()
}

pub fn run(args: &Args, run_dir: &Path) -> Result<Outcome> {
    let workload = &args.workload;
    let inputs = inputs(workload, args.seed, workload.timed_sessions(args.seconds));
    let timed = inputs.timed.len();
    let origin = Instant::now();

    // 1. Over the wire, exactly as the untraced run serves it, plus frame
    //    re-encoding beside each call and process counters around it all.
    let (mut serving, _) = serving::set_up(workload, &inputs, &run_dir.join("wire"), origin)?;
    for wire in &mut serving.wires {
        wire.protocol = Some(ProtocolStats::default());
    }
    let (rss_before, cpu_before, switches_before) = (
        procfs::status_kb("VmRSS"),
        procfs::cpu_ms(),
        procfs::voluntary_switches(),
    );
    let served = serving::serve_timed(workload, &mut serving, &inputs.timed);
    let (rss_after, cpu_after, switches_after) = (
        procfs::status_kb("VmRSS"),
        procfs::cpu_ms(),
        procfs::voluntary_switches(),
    );
    let mut protocol = ProtocolStats::default();
    for wire in &serving.wires {
        let p = wire.protocol.expect("set above");
        protocol.messages += p.messages;
        protocol.encode_ns += p.encode_ns;
        protocol.decode_ns += p.decode_ns;
        protocol.requests += p.requests;
        protocol.request_bytes += p.request_bytes;
        protocol.response_bytes += p.response_bytes;
    }
    let wire_dir = serving.dir.clone();
    let closing = serving.stop()?;
    let (_, recovered) = serving::recover(workload.store, &wire_dir, Duration::ZERO)?;
    std::mem::forget(recovered);

    // 2. Against an in-process durable store of the same shape, spilling
    //    and rehydrating through explicit `evict` / `restore` calls.
    let store =
        SessionStore::open_with(workload.store, DurabilityConfig::at(run_dir.join("store")))?;
    let mut store_run = InProcess::new(
        store,
        Spans::new(origin),
        Some((workload.store.shards, workload.store.capacity_per_shard)),
    );
    let warmup: Vec<&SessionPlan> = inputs.warmup.iter().collect();
    drive(
        &mut store_run,
        &warmup,
        Schedule::Sequential,
        workload.round_cap,
    );
    let store_traces = drive_lanes(&mut store_run, workload, &inputs.timed);
    let InProcess {
        mut store,
        spans,
        checkpoints,
        ..
    } = store_run;
    let store_spans = spans.list;
    let started = Instant::now();
    store.sync()?;
    let sync_ms = started.elapsed().as_secs_f64() * 1e3;
    std::mem::forget(store);
    let started = Instant::now();
    let mut reopened =
        SessionStore::open_with(workload.store, DurabilityConfig::at(run_dir.join("store")))?;
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    let replays = reopened.stats().recovery_replays;
    let mut first_touch = Vec::with_capacity(timed);
    let mut failure = None;
    for trace in store_traces.iter().filter(|t| !t.failed) {
        let started = Instant::now();
        let after = reopened.recommend(SessionId(trace.id))?;
        first_touch.push(started.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = checks::check_recovered(trace.index, &trace.recommendation, &after) {
            failure.get_or_insert(e);
        }
    }
    let started = Instant::now();
    let compaction = reopened.compact()?;
    let compact_ms = started.elapsed().as_secs_f64() * 1e3;
    drop(reopened);

    // 3. Against the recommenders directly.
    let mut direct = Recommenders::new(Spans::new(origin), checkpoints);
    let direct_traces = drive_lanes(&mut direct, workload, &inputs.timed);

    for (i, wire) in served.traces.iter().enumerate() {
        let checked = checks::check_same("the in-process store", wire, &store_traces[i])
            .and_then(|()| checks::check_same("the direct recommender", wire, &direct_traces[i]));
        if let Err(e) = checked {
            failure.get_or_insert(e);
        }
    }
    if let Err(e) = check_outputs(&inputs.timed, &served.traces).and_then(|()| {
        checks::check_server(
            closing.report.error_responses,
            closing.report.timeouts,
            closing.stats.created,
            inputs.warmup.len() + timed,
        )
    }) {
        failure.get_or_insert(e);
    }

    let spans_path = args
        .workdir
        .join("spans")
        .join(format!("{}-seed{}.jsonl", workload.name, args.seed));
    write_spans(&spans_path, &served.spans, &store_spans, &direct.spans.list)
        .map_err(|e| CoreError::io(e.kind(), format!("write {}: {e}", spans_path.display())))?;

    let d = &direct.spans.list;
    let c = direct.counters;
    let stats = closing.stats;
    let wire_requests = served.counts.attempted();
    let wire_ns = per_request(&served.spans, &["wire."]);
    let store_ns = per_request(&store_spans, &["serve."]);
    let store_op_ns = per_request(&store_spans, &["serve.store."]);
    let direct_ns = per_request(d, &["core.", "baselines."]);
    let live = (inputs.warmup.len() + timed).min(workload.live_capacity());
    let present_ms: Vec<f64> = served
        .spans
        .iter()
        .filter(|s| s.name == "wire.present")
        .map(Span::ms)
        .collect();
    eprintln!(
        "{}: traced wire present p50 {:.4} ms over {} presents, {:.2} sessions/s",
        workload.name,
        quantile(&present_ms, 0.5),
        present_ms.len(),
        timed as f64 / served.elapsed.as_secs_f64()
    );
    let metrics: Vec<Metric> = vec![
        metric(
            "core.sampler.ms_per_session",
            "ms",
            ratio(total(d, "core.sampler").0, c.engine_sessions),
        ),
        metric(
            "core.search.ms_per_present",
            "ms",
            ratio(total(d, "core.search").0, c.engine_presents),
        ),
        metric(
            "core.search.searches_per_present",
            "count",
            ratio(c.searches as f64, c.engine_presents),
        ),
        metric(
            "core.search.candidates_per_present",
            "count",
            ratio(c.candidates_created as f64, c.engine_presents),
        ),
        metric(
            "core.search.sorted_accesses_per_present",
            "count",
            ratio(c.sorted_accesses as f64, c.engine_presents),
        ),
        metric(
            "core.search.kept_ratio",
            "ratio",
            ratio(c.candidates_kept as f64, c.candidates_created),
        ),
        metric(
            "core.scoring.ms_per_present",
            "ms",
            ratio(total(d, "core.scoring").0, c.engine_presents),
        ),
        metric(
            "core.scoring.cells_per_present",
            "count",
            ratio(c.cells as f64, c.engine_presents),
        ),
        metric(
            "core.ranking.ms_per_present",
            "ms",
            ratio(total(d, "core.ranking").0, c.engine_presents),
        ),
        metric(
            "core.maintenance.ms_per_feedback",
            "ms",
            ratio(total(d, "core.maintenance").0, c.engine_feedbacks),
        ),
        metric(
            "core.maintenance.preferences_per_feedback",
            "count",
            ratio(c.preferences as f64, c.engine_feedbacks),
        ),
        metric(
            "core.maintenance.samples_replaced_per_feedback",
            "count",
            ratio(c.samples_replaced as f64, c.engine_feedbacks),
        ),
        metric(
            "core.recommend.ms_per_call",
            "ms",
            ratio(total(d, "core.recommend").0, c.engine_recommends),
        ),
        metric(
            "baselines.ms_per_present",
            "ms",
            ratio(total(d, "baselines.present").0, c.baseline_presents),
        ),
        metric(
            "baselines.ms_per_feedback",
            "ms",
            ratio(total(d, "baselines.feedback").0, c.baseline_feedbacks),
        ),
        metric(
            "serve.store.us_per_op",
            "us",
            median_self_us(&store_op_ns, &direct_ns),
        ),
        metric("serve.store.hits", "count", stats.hits as f64),
        metric(
            "serve.store.journal_events",
            "count",
            stats.journal_events as f64,
        ),
        metric("serve.spill.ms_per_restore", "ms", {
            let (ms, n) = total(&store_spans, "serve.spill.restore");
            ratio(ms, n)
        }),
        metric("serve.spill.ms_per_evict", "ms", {
            let (ms, n) = total(&store_spans, "serve.spill.evict");
            ratio(ms, n)
        }),
        metric("serve.spill.restores", "count", stats.restores as f64),
        metric("serve.spill.evictions", "count", stats.evictions as f64),
        metric(
            "serve.spill.checkpoint_bytes",
            "bytes",
            ratio(c.checkpoint_bytes as f64, c.checkpoints),
        ),
        metric(
            "serve.durable.bytes_appended",
            "bytes",
            stats.bytes_appended as f64,
        ),
        metric(
            "serve.durable.group_commits",
            "count",
            stats.group_commits as f64,
        ),
        metric(
            "serve.durable.segments_written",
            "count",
            stats.segments_written as f64,
        ),
        metric("serve.durable.ms_per_sync", "ms", sync_ms),
        metric("serve.durable.ms_per_compact", "ms", compact_ms),
        metric(
            "serve.durable.bytes_reclaimed",
            "bytes",
            compaction.bytes_reclaimed as f64,
        ),
        metric("serve.recovery.ms_per_open", "ms", open_ms),
        metric(
            "serve.recovery.ms_per_first_touch",
            "ms",
            ratio(first_touch.iter().sum(), first_touch.len()),
        ),
        metric("serve.recovery.replays", "count", replays as f64),
        metric(
            "serve.scoring.batched_presents",
            "count",
            stats.batched_presents as f64,
        ),
        metric(
            "serve.scoring.batched_sessions",
            "count",
            stats.batched_sessions as f64,
        ),
        metric(
            "serve.scoring.admission_fallbacks",
            "count",
            stats.admission_fallbacks as f64,
        ),
        metric(
            "serve.scoring.batch_wait_us",
            "us",
            stats.batch_wait_us as f64,
        ),
        metric(
            "server.protocol.us_per_encode",
            "us",
            ratio(protocol.encode_ns as f64 / 1e3, protocol.messages),
        ),
        metric(
            "server.protocol.us_per_decode",
            "us",
            ratio(protocol.decode_ns as f64 / 1e3, protocol.messages),
        ),
        metric(
            "server.protocol.request_bytes",
            "bytes",
            ratio(protocol.request_bytes as f64, protocol.requests),
        ),
        metric(
            "server.protocol.response_bytes",
            "bytes",
            ratio(protocol.response_bytes as f64, protocol.requests),
        ),
        metric(
            "server.transport.us_per_request",
            "us",
            median_self_us(&wire_ns, &store_ns),
        ),
        metric(
            "server.transport.ctx_switches_per_request",
            "count",
            ratio(
                switches_after.saturating_sub(switches_before) as f64,
                wire_requests,
            ),
        ),
        metric(
            "server.server.error_responses",
            "count",
            closing.report.error_responses as f64,
        ),
        metric(
            "server.server.timeouts",
            "count",
            closing.report.timeouts as f64,
        ),
        metric("server.client.retries", "count", closing.retries as f64),
        metric(
            "process.kb_per_live_session",
            "KiB",
            ratio(rss_after.saturating_sub(rss_before) as f64, live),
        ),
        metric(
            "process.cpu_ms_per_session",
            "ms",
            ratio(cpu_after - cpu_before, timed),
        ),
    ];
    Ok(Outcome {
        metrics,
        counts: served.counts,
        failure,
    })
}
