//! Export sinks: Chrome trace-event JSON, flat metrics JSON, and a
//! human-readable profile table.

use crate::json;
use crate::metrics::MetricsSnapshot;
use crate::span::{ObsRecord, SpanEvent};
use std::collections::BTreeMap;

/// Serialize spans as a Chrome trace-event file (the JSON Object Format),
/// loadable in `chrome://tracing` and <https://ui.perfetto.dev>. Every
/// span becomes one complete (`"ph": "X"`) event carrying the pinned
/// fields `name`/`ph`/`ts`/`dur`/`pid`/`tid` plus `cat` and `args`.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        let mut args = String::from("{");
        for (j, (k, v)) in e.args.iter().enumerate() {
            if j > 0 {
                args.push(',');
            }
            args.push_str(&format!("{}:{}", json::string(k), json::string(v)));
        }
        args.push('}');
        out.push_str(&format!(
            "  {{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}{}\n",
            json::string(&e.name),
            json::string(&e.cat),
            e.ts_us,
            e.dur_us,
            e.tid,
            args,
            if i + 1 < events.len() { "," } else { "" },
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Serialize a metrics snapshot as flat JSON (schema `obskit.metrics.v1`):
/// counters, gauges, and histograms with count/sum/mean/p50/p90/p99
/// summaries plus the canonical sketch they were read from. `meta`
/// key/value pairs (tool name, version, git hash, …) land in a `meta`
/// object so artifacts are attributable to a build.
pub fn metrics_json(snap: &MetricsSnapshot, meta: &[(&str, &str)]) -> String {
    let mut out = String::from("{\n  \"schema\": \"obskit.metrics.v1\",\n");
    out.push_str("  \"meta\": {");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", json::string(k), json::string(v)));
    }
    out.push_str("},\n");

    out.push_str("  \"counters\": {");
    for (i, (k, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {}", json::string(k), v));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"gauges\": {");
    for (i, (k, v)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {}: {}", json::string(k), json::number(*v)));
    }
    out.push_str("\n  },\n");

    out.push_str("  \"histograms\": {");
    for (i, (k, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {}: {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"sketch\": {}}}",
            json::string(k),
            h.count(),
            json::number(h.sum()),
            json::number(h.mean()),
            json::number(h.quantile(0.50)),
            json::number(h.quantile(0.90)),
            json::number(h.quantile(0.99)),
            h.to_json(),
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Per-span-name wall-clock aggregate used by the profile table.
#[derive(Debug, Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    total_us: u64,
    max_us: u64,
}

/// Render a finished record as a human-readable profile: spans aggregated
/// by name (count, total/mean/max wall), then counters, then histogram
/// summaries. This is what `--profile` prints.
pub fn profile_table(rec: &ObsRecord) -> String {
    let mut spans: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for e in &rec.events {
        let a = spans.entry(&e.name).or_default();
        a.count += 1;
        a.total_us += e.dur_us;
        a.max_us = a.max_us.max(e.dur_us);
    }
    let mut rows: Vec<(&str, SpanAgg)> = spans.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));

    let ms = |us: u64| us as f64 / 1_000.0;
    let mut out = String::from("profile: spans\n");
    out.push_str(&format!(
        "  {:<28} {:>7} {:>12} {:>12} {:>12}\n",
        "span", "count", "total ms", "mean ms", "max ms"
    ));
    for (name, a) in &rows {
        out.push_str(&format!(
            "  {:<28} {:>7} {:>12.2} {:>12.3} {:>12.2}\n",
            name,
            a.count,
            ms(a.total_us),
            ms(a.total_us) / a.count.max(1) as f64,
            ms(a.max_us),
        ));
    }

    if !rec.metrics.counters.is_empty() {
        out.push_str("profile: counters\n");
        for (k, v) in &rec.metrics.counters {
            out.push_str(&format!("  {k:<40} {v:>14}\n"));
        }
    }
    if !rec.metrics.gauges.is_empty() {
        out.push_str("profile: gauges\n");
        for (k, v) in &rec.metrics.gauges {
            out.push_str(&format!("  {k:<40} {v:>14.3}\n"));
        }
    }
    if !rec.metrics.histograms.is_empty() {
        out.push_str("profile: histograms\n");
        out.push_str(&format!(
            "  {:<32} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
            "metric", "count", "mean", "p50", "p90", "p99"
        ));
        for (k, h) in &rec.metrics.histograms {
            out.push_str(&format!(
                "  {:<32} {:>8} {:>12.3} {:>10.3} {:>10.3} {:>10.3}\n",
                k,
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Collector;

    fn sample_record() -> ObsRecord {
        let obs = Collector::new();
        {
            let mut d = obs.span("design");
            d.arg("design", "d0");
            obs.span("hls").end();
            obs.span("route").end();
        }
        obs.inc("route.rerouted_conns", 17);
        obs.observe("route.pass_overflow", 2.0);
        obs.set_gauge("dataset.wall_ms", 1.5);
        obs.finish()
    }

    #[test]
    fn chrome_trace_has_pinned_fields_and_balances() {
        let rec = sample_record();
        let t = chrome_trace_json(&rec.events);
        for field in [
            "\"name\":",
            "\"ph\":\"X\"",
            "\"ts\":",
            "\"dur\":",
            "\"pid\":1",
            "\"tid\":",
        ] {
            assert!(t.contains(field), "missing {field} in {t}");
        }
        assert!(t.contains("\"traceEvents\":["));
        assert!(t.contains("\"args\":{\"design\":\"d0\"}"));
        assert_eq!(t.matches('{').count(), t.matches('}').count());
        assert_eq!(t.matches('[').count(), t.matches(']').count());
    }

    #[test]
    fn metrics_json_carries_meta_and_summaries() {
        let rec = sample_record();
        let j = metrics_json(&rec.metrics, &[("tool", "test"), ("version", "0.1.0")]);
        assert!(j.contains("\"schema\": \"obskit.metrics.v1\""));
        assert!(j.contains("\"tool\": \"test\""));
        assert!(j.contains("\"route.rerouted_conns\": 17"));
        assert!(j.contains("\"dataset.wall_ms\": 1.5"));
        assert!(j.contains("\"p99\":"));
        assert!(j.contains("\"sketch\": {\"alpha\":"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn profile_table_lists_spans_and_metrics() {
        let rec = sample_record();
        let p = profile_table(&rec);
        assert!(p.contains("design"));
        assert!(p.contains("hls"));
        assert!(p.contains("route.rerouted_conns"));
        assert!(p.contains("route.pass_overflow"));
    }

    #[test]
    fn empty_record_exports_cleanly() {
        let rec = ObsRecord::new();
        let t = chrome_trace_json(&rec.events);
        assert!(t.contains("\"traceEvents\":["));
        let j = metrics_json(&rec.metrics, &[]);
        assert!(j.contains("\"counters\": {"));
        profile_table(&rec);
    }
}
