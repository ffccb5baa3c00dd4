//! The traced pass's spans: kept in memory while the pass runs, exported
//! once at the end as Perfetto-loadable Chrome trace-event JSON, and
//! reduced to per-span-name self times (a span's duration minus the part
//! its child spans cover).
//!
//! The benchmark records its own spans around each call into a layer with
//! `seedb_obs::TraceCtx` — the production instrument — and the program's
//! existing spans (`phase`, per-worker `morsels`) land in the same trace
//! because the same context is handed down.

use crate::pass::PassLog;
use seedb_obs::Span;
use seedb_util::Json;
use std::collections::BTreeMap;

/// The parent of `span` among `spans`: the shortest request-lane span
/// that holds it. A request-lane child must lie wholly inside its parent;
/// a worker's span is summed busy time and may outlast the wall-clock span
/// that launched it, so only its start has to fall inside.
fn parent_of<'a>(span: &Span, spans: &'a [Span]) -> Option<&'a Span> {
    let end = span.start_us + span.dur_us;
    spans
        .iter()
        .filter(|p| p.lane == 0 && p.id != span.id)
        .filter(|p| {
            let p_end = p.start_us + p.dur_us;
            let holds_start = p.start_us <= span.start_us && span.start_us <= p_end;
            if span.lane == 0 {
                // Equal intervals nest in allocation order.
                holds_start && end <= p_end && (p.dur_us, span.id) > (span.dur_us, p.id)
            } else {
                holds_start
            }
        })
        .min_by_key(|p| p.dur_us)
}

/// Every span of every operation of the pass as Chrome trace events: one
/// process per client, one thread per lane (0 = the caller, 1 + w = morsel
/// worker w), timestamps in microseconds from the start of the pass.
pub fn chrome_json(log: &PassLog, workload: &str) -> Json {
    let mut events = Vec::new();
    for (client, clog) in log.clients.iter().enumerate() {
        let pid = client as u64 + 1;
        events.push(
            Json::obj()
                .set("name", "process_name")
                .set("ph", "M")
                .set("pid", pid)
                .set("args", Json::obj().set("name", format!("client-{client}"))),
        );
        for (offset, trace) in &clog.traces {
            let base = offset.as_micros() as u64;
            for span in &trace.spans {
                let mut args = Json::obj().set("trace_id", trace.id);
                if let Some(parent) = parent_of(span, &trace.spans) {
                    args = args.set("parent", parent.name);
                }
                for (key, value) in &span.args {
                    args = args.set(key, value.as_str());
                }
                events.push(
                    Json::obj()
                        .set("name", span.name)
                        .set("cat", workload)
                        .set("ph", "X")
                        .set("ts", base + span.start_us)
                        .set("dur", span.dur_us)
                        .set("pid", pid)
                        .set("tid", u64::from(span.lane))
                        .set("args", args),
                );
            }
        }
    }
    Json::obj()
        .set("displayTimeUnit", "ms")
        .set("metadata", Json::obj().set("workload", workload))
        .set("traceEvents", events)
}

/// Totals for one span name across a pass.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_us: u64,
    /// `total_us` minus the time covered by child spans on the same lane.
    pub self_us: u64,
}

/// Per-name totals and self times over the pass.
pub fn self_times(log: &PassLog) -> BTreeMap<&'static str, SpanTotals> {
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (_, trace) in log.clients.iter().flat_map(|c| c.traces.iter()) {
        for span in &trace.spans {
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_us += span.dur_us;
            entry.self_us += span.dur_us;
        }
        for span in trace.spans.iter().filter(|s| s.lane == 0) {
            if let Some(parent) = parent_of(span, &trace.spans) {
                let entry = totals.entry(parent.name).or_default();
                entry.self_us = entry.self_us.saturating_sub(span.dur_us);
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, lane: u32, start_us: u64, dur_us: u64) -> Span {
        Span {
            id,
            name,
            lane,
            start_us,
            dur_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn parents_are_the_innermost_enclosing_request_lane_span() {
        let spans = vec![
            span(0, "recommend", 0, 0, 100),
            span(1, "phase", 0, 10, 40),
            span(2, "phase", 0, 50, 40),
            span(3, "morsels", 1, 12, 70),
            span(4, "check", 0, 100, 5),
        ];
        assert!(parent_of(&spans[0], &spans).is_none());
        assert_eq!(parent_of(&spans[1], &spans).unwrap().id, 0);
        assert_eq!(parent_of(&spans[2], &spans).unwrap().id, 0);
        // The worker span hangs off the phase it started in, even though
        // its summed busy time runs past that phase's end.
        assert_eq!(parent_of(&spans[3], &spans).unwrap().id, 1);
        assert!(parent_of(&spans[4], &spans).is_none());
    }
}
