//! The untraced run: serve the workload through the front door, check every
//! output after the timed phase, and report the end-to-end metrics.

use std::path::Path;
use std::time::{Duration, Instant};

use pkgrec_core::CoreError;
use pkgrec_serve::{SessionId, SessionStore, StoreConfig};

use crate::backends::InProcess;
use crate::checks::{self, SessionTrace};
use crate::drive::{drive, Span, Spans};
use crate::oracle::exact_top_k;
use crate::serving::{self, Closing, Served};
use crate::workload::{inputs, Inputs, Schedule, SessionPlan, Workload};
use crate::{metric, procfs, Args, Metric, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Wall time the reopens of the crashed store add up to; `recovery_s` is
/// their median.
const RECOVERY_BUDGET: Duration = Duration::from_secs(2);

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = position.floor() as usize;
    let above = position.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (position - below as f64)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Latencies in milliseconds of the wire spans named `name`.
fn latencies(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Mean precision of the first shown recommendation and of the final
/// recommendation against the exact top-k, and mean clicks.
pub struct Quality {
    pub first: f64,
    pub last: f64,
    pub clicks: f64,
}

pub fn quality(plans: &[SessionPlan], traces: &[SessionTrace]) -> Quality {
    let mut first = Vec::new();
    let mut last = Vec::new();
    let mut clicks = Vec::new();
    for (plan, trace) in plans.iter().zip(traces) {
        if trace.failed {
            continue;
        }
        let exact: Vec<_> = exact_top_k(&plan.utility, &plan.config.catalog, plan.k)
            .into_iter()
            .map(|(package, _)| package)
            .collect();
        let share = |packages: Vec<&pkgrec_core::Package>| {
            if packages.is_empty() {
                0.0
            } else {
                packages.iter().filter(|p| exact.contains(p)).count() as f64 / packages.len() as f64
            }
        };
        let head = trace.shown.first().map_or(Vec::new(), |shown| {
            shown.iter().take(plan.k).collect::<Vec<_>>()
        });
        first.push(share(head));
        last.push(share(
            trace.recommendation.iter().map(|r| &r.package).collect(),
        ));
        clicks.push(trace.clicks.len() as f64);
    }
    Quality {
        first: mean(first.into_iter()),
        last: mean(last.into_iter()),
        clicks: mean(clicks.into_iter()),
    }
}

/// Shape checks on every shown list and final recommendation.
pub fn check_outputs(plans: &[SessionPlan], traces: &[SessionTrace]) -> Result<(), String> {
    for (plan, trace) in plans.iter().zip(traces) {
        if trace.index != plan.index {
            return Err(format!("session {}: no trace", plan.index));
        }
        if trace.failed {
            continue;
        }
        for shown in &trace.shown {
            checks::check_shown(plan, shown)?;
        }
        checks::check_recommendation(plan, &trace.recommendation)?;
    }
    Ok(())
}

fn check_run(
    workload: &Workload,
    inputs: &Inputs,
    served: &Served,
    closing: &Closing,
    recovered: &mut SessionStore,
    quality: &Quality,
) -> Result<(), String> {
    check_outputs(&inputs.timed, &served.traces)?;
    // The wire results equal a single-threaded replay of the same
    // operations on a memory-only store (every `sample_every`-th session).
    let sampled: Vec<&SessionPlan> = inputs
        .timed
        .iter()
        .filter(|p| p.index % workload.sample_every == 0 && !served.traces[p.index].failed)
        .collect();
    let memory = SessionStore::new(StoreConfig {
        shards: 1,
        capacity_per_shard: sampled.len().max(1),
    })
    .map_err(|e| e.to_string())?;
    let mut replay = InProcess::new(memory, Spans::new(Instant::now()), None);
    let (replayed, _) = drive(
        &mut replay,
        &sampled,
        Schedule::Sequential,
        workload.round_cap,
    );
    for trace in &replayed {
        checks::check_same("the memory-only replay", &served.traces[trace.index], trace)?;
    }
    // After the unclean stop and reopen, sampled sessions recommend what
    // they did before it.
    for plan in &sampled {
        let before = &served.traces[plan.index];
        let after = recovered
            .recommend(SessionId(before.id))
            .map_err(|e| format!("session {}: recommend after recovery: {e}", plan.index))?;
        checks::check_recovered(plan.index, &before.recommendation, &after)?;
    }
    checks::check_server(
        closing.report.error_responses,
        closing.report.timeouts,
        closing.stats.created,
        inputs.warmup.len() + inputs.timed.len(),
    )?;
    if workload.name == "elicit" {
        checks::check_precision_gain(quality.first, quality.last)?;
    }
    Ok(())
}

pub fn run(args: &Args, run_dir: &Path) -> pkgrec_core::Result<Outcome> {
    let workload = &args.workload;
    let inputs = inputs(workload, args.seed, workload.timed_sessions(args.seconds));
    let origin = Instant::now();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for attempt in 0..SETUPS {
        if let Some(previous) = kept.take() {
            serving::Serving::discard(previous)?;
        }
        let dir = run_dir.join(format!("store-{attempt}"));
        let (serving, took) = serving::set_up(workload, &inputs, &dir, origin)?;
        setups.push(took.as_secs_f64());
        kept = Some(serving);
    }
    let mut serving = kept.expect("at least one set-up");

    let served = serving::serve_timed(workload, &mut serving, &inputs.timed);
    let peak_rss_kb = procfs::status_kb("VmHWM");
    let dir = serving.dir.clone();
    let closing = serving.stop()?;
    let (opens, mut recovered) = serving::recover(workload.store, &dir, RECOVERY_BUDGET)?;

    let quality = quality(&inputs.timed, &served.traces);
    let failure = check_run(
        workload,
        &inputs,
        &served,
        &closing,
        &mut recovered,
        &quality,
    )
    .err();
    std::mem::forget(recovered);

    let completed = served.traces.iter().filter(|t| !t.failed).count();
    let spans = &served.spans;
    let opens: Vec<f64> = opens.iter().map(|d| d.as_secs_f64()).collect();
    if closing.sessions == 0 {
        return Err(CoreError::InvalidConfig(
            "the store holds no sessions".into(),
        ));
    }
    let metrics: Vec<Metric> = vec![
        metric("setup_s", "s", quantile(&setups, 0.5)),
        metric(
            "create_p50_ms",
            "ms",
            quantile(&latencies(spans, "wire.create"), 0.5),
        ),
        metric(
            "present_p50_ms",
            "ms",
            quantile(&latencies(spans, "wire.present"), 0.5),
        ),
        metric(
            "present_p99_ms",
            "ms",
            quantile(&latencies(spans, "wire.present"), 0.99),
        ),
        metric(
            "feedback_p50_ms",
            "ms",
            quantile(&latencies(spans, "wire.feedback"), 0.5),
        ),
        metric(
            "recommend_mean_ms",
            "ms",
            mean(latencies(spans, "wire.recommend").into_iter()),
        ),
        metric(
            "sessions_per_s",
            "1/s",
            completed as f64 / served.elapsed.as_secs_f64(),
        ),
        metric("recovery_s", "s", quantile(&opens, 0.5)),
        metric("peak_rss_mb", "MiB", peak_rss_kb as f64 / 1024.0),
        metric(
            "disk_bytes_per_session",
            "bytes",
            closing.durable_bytes as f64 / closing.sessions as f64,
        ),
        metric("precision", "ratio", quality.last),
        metric("clicks_per_session", "count", quality.clicks),
    ];
    eprintln!(
        "{}: {} timed sessions, {} presents, first-round precision {:.4}",
        workload.name,
        inputs.timed.len(),
        latencies(spans, "wire.present").len(),
        quality.first
    );
    Ok(Outcome {
        metrics,
        counts: served.counts,
        failure,
    })
}
