//! Telemetry snapshots: one JSONL-serializable observation of a
//! running sketch.
//!
//! A snapshot maps directly onto the paper's structures: one
//! [`LevelGauges`] per non-empty first-level bucket `b` (occupancy of
//! its `r·s` count-signature buckets, decodable singletons,
//! `numSingletons(b)`, `topDestHeap(b)` size), the hot-path event
//! counters, and latency summaries for `update` and top-k queries. The
//! serialized form is one JSON object per line (JSONL) so a periodic
//! exporter can append forever and consumers can stream-parse;
//! [`crate::schema::validate_line`] checks the exact shape documented
//! in DESIGN.md §10.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{LatencyStats, SizeStats};

/// Per-first-level-bucket (level) occupancy gauges.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelGauges {
    /// The first-level bucket index `b`.
    pub level: u32,
    /// Count-signature buckets with any nonzero counter, across all
    /// `r` second-level tables.
    pub occupied_buckets: u64,
    /// Buckets currently decoding to a singleton (screened decode).
    pub decoded_singletons: u64,
    /// `numSingletons(b)` — distinct pairs the tracking layer holds
    /// for this level (0 for a basic sketch).
    pub tracked_singletons: u64,
    /// `topDestHeap(b)` entry count (0 for a basic sketch).
    pub heap_len: u64,
}

impl LevelGauges {
    /// Whether every gauge is zero (such levels are omitted from
    /// snapshots).
    pub fn is_empty(&self) -> bool {
        self.occupied_buckets == 0
            && self.decoded_singletons == 0
            && self.tracked_singletons == 0
            && self.heap_len == 0
    }
}

/// One observation of a running sketch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetrySnapshot {
    /// Where the snapshot came from (experiment id, pipeline stage…).
    pub label: String,
    /// Monotone per-exporter sequence number (set on append).
    pub sequence: u64,
    /// Total updates the observed sketch has processed.
    pub updates_processed: u64,
    /// Net sum of update signs (inserts minus deletes).
    pub net_updates: i64,
    /// Nonzero event counters, keyed by [`crate::Counter::name`] (plus
    /// free-form gauges contributed by wrappers such as the monitor).
    pub counters: BTreeMap<String, u64>,
    /// Per-level gauges, ascending by level, empty levels omitted.
    pub levels: Vec<LevelGauges>,
    /// Latency distribution of `update` calls, if any were timed.
    pub update_latency: Option<LatencyStats>,
    /// Latency distribution of top-k queries, if any were timed.
    pub query_latency: Option<LatencyStats>,
    /// Distribution of `update_batch` call sizes, if any batches were
    /// processed (raw update counts, not microseconds).
    pub batch_size: Option<SizeStats>,
}

impl TelemetrySnapshot {
    /// Creates an empty snapshot with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            ..Self::default()
        }
    }

    /// Sets a counter (used by wrappers layering their own gauges —
    /// e.g. the monitor's evaluation count — onto a sketch snapshot).
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.insert(name.into(), value);
    }

    /// Serializes the snapshot as one JSON object on a single line
    /// (no trailing newline). The shape is pinned by
    /// [`crate::schema::validate_line`] and documented in DESIGN.md
    /// §10.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        let _ = write!(out, "\"label\":{}", json_string(&self.label));
        let _ = write!(out, ",\"sequence\":{}", self.sequence);
        let _ = write!(out, ",\"updates_processed\":{}", self.updates_processed);
        let _ = write!(out, ",\"net_updates\":{}", self.net_updates);
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), value);
        }
        out.push_str("},\"levels\":[");
        for (i, level) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"level\":{},\"occupied_buckets\":{},\"decoded_singletons\":{},\
                 \"tracked_singletons\":{},\"heap_len\":{}}}",
                level.level,
                level.occupied_buckets,
                level.decoded_singletons,
                level.tracked_singletons,
                level.heap_len
            );
        }
        out.push(']');
        for (key, latency) in [
            ("update_latency", &self.update_latency),
            ("query_latency", &self.query_latency),
        ] {
            match latency {
                Some(stats) => {
                    let _ = write!(
                        out,
                        ",\"{key}\":{{\"count\":{},\"p50_micros\":{},\"p95_micros\":{},\
                         \"p99_micros\":{},\"max_micros\":{}}}",
                        stats.count,
                        json_number(stats.p50_micros),
                        json_number(stats.p95_micros),
                        json_number(stats.p99_micros),
                        json_number(stats.max_micros)
                    );
                }
                None => {
                    let _ = write!(out, ",\"{key}\":null");
                }
            }
        }
        match &self.batch_size {
            Some(stats) => {
                let _ = write!(
                    out,
                    ",\"batch_size\":{{\"count\":{},\"p50\":{},\"p95\":{},\
                     \"p99\":{},\"max\":{}}}",
                    stats.count,
                    json_number(stats.p50),
                    json_number(stats.p95),
                    json_number(stats.p99),
                    stats.max
                );
            }
            None => {
                out.push_str(",\"batch_size\":null");
            }
        }
        out.push('}');
        out
    }
}

/// Renders `s` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, control characters take their short escape or
/// `\u00xx`. Shared by the workspace's hand-written JSON emitters
/// (telemetry snapshots, experiment records).
///
/// # Examples
///
/// ```
/// assert_eq!(dcs_telemetry::json_string("a\"b\n"), r#""a\"b\n""#);
/// ```
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number (non-finite values map to 0 —
/// latency summaries are always finite by construction).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::LatencyStats;

    #[test]
    fn empty_snapshot_serializes_minimal_line() {
        let snap = TelemetrySnapshot::new("t");
        let line = snap.to_jsonl();
        assert!(!line.contains('\n'));
        assert_eq!(
            line,
            "{\"label\":\"t\",\"sequence\":0,\"updates_processed\":0,\"net_updates\":0,\
             \"counters\":{},\"levels\":[],\"update_latency\":null,\"query_latency\":null,\
             \"batch_size\":null}"
        );
    }

    #[test]
    fn populated_snapshot_round_trips_fields() {
        let mut snap = TelemetrySnapshot::new("fig9 \"quick\"");
        snap.sequence = 3;
        snap.updates_processed = 1000;
        snap.net_updates = -4;
        snap.set_counter("screen_miss", 7);
        snap.levels.push(LevelGauges {
            level: 2,
            occupied_buckets: 10,
            decoded_singletons: 4,
            tracked_singletons: 4,
            heap_len: 3,
        });
        snap.update_latency = Some(LatencyStats {
            count: 1000,
            p50_micros: 0.192,
            p95_micros: 0.768,
            p99_micros: 1.536,
            max_micros: 98.0,
        });
        snap.batch_size = Some(SizeStats {
            count: 12,
            p50: 1536.0,
            p95: 1536.0,
            p99: 1536.0,
            max: 4096,
        });
        let line = snap.to_jsonl();
        assert!(line.contains("\"label\":\"fig9 \\\"quick\\\"\""));
        assert!(line.contains("\"net_updates\":-4"));
        assert!(line.contains("\"counters\":{\"screen_miss\":7}"));
        assert!(line.contains("\"level\":2,\"occupied_buckets\":10"));
        assert!(line.contains("\"p50_micros\":0.192"));
        assert!(line.contains("\"query_latency\":null"));
        assert!(line.contains("\"batch_size\":{\"count\":12,\"p50\":1536.0"));
        assert!(line.contains("\"max\":4096}"));
    }

    #[test]
    fn empty_gauges_report_empty() {
        assert!(LevelGauges::default().is_empty());
        let touched = LevelGauges {
            level: 1,
            heap_len: 1,
            ..LevelGauges::default()
        };
        assert!(!touched.is_empty());
    }
}
