//! Schema validation for telemetry sidecar lines.
//!
//! [`validate_line`] re-parses one JSONL line with a small
//! dependency-free JSON reader and checks it against the snapshot
//! schema documented in DESIGN.md §10: exact top-level keys, typed
//! counter/gauge objects, and latency summaries that are either `null`
//! or the full five-field quantile record. CI runs this over every
//! sidecar an experiment emits, so serializer drift (a renamed key, a
//! non-finite number, a stray newline) fails loudly instead of rotting
//! the analysis scripts downstream.

use std::collections::BTreeMap;

/// A parsed JSON value (just enough for schema checks).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

/// Validates one sidecar line against the snapshot schema. Returns a
/// human-readable description of the first violation found.
pub fn validate_line(line: &str) -> Result<(), String> {
    if line.contains('\n') {
        return Err("line contains an embedded newline".to_string());
    }
    let value = parse(line)?;
    let Json::Object(fields) = value else {
        return Err("top level is not a JSON object".to_string());
    };

    const REQUIRED: [&str; 9] = [
        "label",
        "sequence",
        "updates_processed",
        "net_updates",
        "counters",
        "levels",
        "update_latency",
        "query_latency",
        "batch_size",
    ];
    for key in REQUIRED {
        if !fields.contains_key(key) {
            return Err(format!("missing required key \"{key}\""));
        }
    }
    for key in fields.keys() {
        if !REQUIRED.contains(&key.as_str()) {
            return Err(format!("unknown top-level key \"{key}\""));
        }
    }

    expect_string(&fields, "label")?;
    expect_count(&fields, "sequence")?;
    expect_count(&fields, "updates_processed")?;
    expect_number(&fields, "net_updates")?;

    let Some(Json::Object(counters)) = fields.get("counters") else {
        return Err("\"counters\" is not an object".to_string());
    };
    for (name, value) in counters {
        let Json::Number(n) = value else {
            return Err(format!("counter \"{name}\" is not a number"));
        };
        if *n < 0.0 || n.fract() != 0.0 {
            return Err(format!("counter \"{name}\" is not a non-negative integer"));
        }
    }

    let Some(Json::Array(levels)) = fields.get("levels") else {
        return Err("\"levels\" is not an array".to_string());
    };
    let mut previous_level: Option<f64> = None;
    for entry in levels {
        let Json::Object(gauges) = entry else {
            return Err("levels entry is not an object".to_string());
        };
        const GAUGES: [&str; 5] = [
            "level",
            "occupied_buckets",
            "decoded_singletons",
            "tracked_singletons",
            "heap_len",
        ];
        for key in GAUGES {
            expect_count(gauges, key).map_err(|e| format!("levels entry: {e}"))?;
        }
        for key in gauges.keys() {
            if !GAUGES.contains(&key.as_str()) {
                return Err(format!("levels entry has unknown key \"{key}\""));
            }
        }
        if let Some(Json::Number(level)) = gauges.get("level") {
            if previous_level.is_some_and(|prev| *level <= prev) {
                return Err("levels are not strictly ascending".to_string());
            }
            previous_level = Some(*level);
        }
    }

    for key in ["update_latency", "query_latency"] {
        match fields.get(key) {
            Some(Json::Null) => {}
            Some(Json::Object(stats)) => {
                const STATS: [&str; 5] = [
                    "count",
                    "p50_micros",
                    "p95_micros",
                    "p99_micros",
                    "max_micros",
                ];
                for stat in STATS {
                    expect_number(stats, stat).map_err(|e| format!("\"{key}\": {e}"))?;
                }
                for stat in stats.keys() {
                    if !STATS.contains(&stat.as_str()) {
                        return Err(format!("\"{key}\" has unknown key \"{stat}\""));
                    }
                }
                expect_count(stats, "count").map_err(|e| format!("\"{key}\": {e}"))?;
            }
            _ => return Err(format!("\"{key}\" is neither null nor a latency object")),
        }
    }

    match fields.get("batch_size") {
        Some(Json::Null) => {}
        Some(Json::Object(stats)) => {
            const STATS: [&str; 5] = ["count", "p50", "p95", "p99", "max"];
            for stat in STATS {
                expect_number(stats, stat).map_err(|e| format!("\"batch_size\": {e}"))?;
            }
            for stat in stats.keys() {
                if !STATS.contains(&stat.as_str()) {
                    return Err(format!("\"batch_size\" has unknown key \"{stat}\""));
                }
            }
            for stat in ["count", "max"] {
                expect_count(stats, stat).map_err(|e| format!("\"batch_size\": {e}"))?;
            }
        }
        _ => return Err("\"batch_size\" is neither null nor a size object".to_string()),
    }
    Ok(())
}

fn expect_string(fields: &BTreeMap<String, Json>, key: &str) -> Result<(), String> {
    match fields.get(key) {
        Some(Json::String(_)) => Ok(()),
        _ => Err(format!("\"{key}\" is not a string")),
    }
}

fn expect_number(fields: &BTreeMap<String, Json>, key: &str) -> Result<(), String> {
    match fields.get(key) {
        Some(Json::Number(_)) => Ok(()),
        _ => Err(format!("\"{key}\" is not a number")),
    }
}

/// A number that must be a non-negative integer (a count).
fn expect_count(fields: &BTreeMap<String, Json>, key: &str) -> Result<(), String> {
    match fields.get(key) {
        Some(Json::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(()),
        Some(Json::Number(_)) => Err(format!("\"{key}\" is not a non-negative integer")),
        _ => Err(format!("\"{key}\" is not a number")),
    }
}

/// Parses a complete JSON document, rejecting trailing garbage.
fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
    {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(other) => Err(format!("unexpected byte {other:#04x} at {pos:?}")),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {pos:?}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-UTF-8 number".to_string())?;
    let n: f64 = text
        .parse()
        .map_err(|_| format!("malformed number \"{text}\""))?;
    if !n.is_finite() {
        return Err(format!("non-finite number \"{text}\""));
    }
    Ok(Json::Number(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string());
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'b') => out.push(0x08),
                    Some(b'f') => out.push(0x0c),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-UTF-8 \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "malformed \\u escape")?;
                        let c = char::from_u32(code).ok_or("\\u escape outside BMP scalar")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        *pos += 4;
                    }
                    _ => return Err("malformed escape".to_string()),
                }
                *pos += 1;
            }
            Some(&b) => {
                out.push(b);
                *pos += 1;
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos:?}"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos:?}"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        if fields.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate key \"{key}\""));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos:?}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{LevelGauges, TelemetrySnapshot};
    use crate::stats::LatencyStats;

    #[test]
    fn serializer_output_always_validates() {
        let mut snap = TelemetrySnapshot::new("schema \"round\\trip\"");
        validate_line(&snap.to_jsonl()).expect("empty snapshot");
        snap.updates_processed = 42;
        snap.net_updates = -3;
        // Every name of the closed counter vocabulary exports and
        // validates, `decode_ill_formed` included.
        for (value, counter) in (1..).zip(crate::counter::ALL_COUNTERS) {
            snap.set_counter(counter.name(), value);
        }
        assert_eq!(snap.counters.get("decode_ill_formed"), Some(&6));
        snap.levels.push(LevelGauges {
            level: 0,
            occupied_buckets: 4,
            decoded_singletons: 2,
            tracked_singletons: 2,
            heap_len: 2,
        });
        snap.levels.push(LevelGauges {
            level: 3,
            occupied_buckets: 1,
            ..LevelGauges::default()
        });
        snap.update_latency = Some(LatencyStats {
            count: 42,
            p50_micros: 0.096,
            p95_micros: 0.768,
            p99_micros: 1.536,
            max_micros: 12.5,
        });
        snap.batch_size = Some(crate::stats::SizeStats {
            count: 3,
            p50: 1536.0,
            p95: 1536.0,
            p99: 1536.0,
            max: 2048,
        });
        validate_line(&snap.to_jsonl()).expect("populated snapshot");
    }

    #[test]
    fn rejects_structural_damage() {
        let good = TelemetrySnapshot::new("x").to_jsonl();
        assert!(validate_line(&good[..good.len() - 1]).is_err(), "truncated");
        assert!(validate_line(&format!("{good}{{}}")).is_err(), "trailing");
        assert!(validate_line("[1,2]").is_err(), "non-object top level");
        assert!(validate_line("{\"label\":\"x\"}").is_err(), "missing keys");
    }

    #[test]
    fn rejects_schema_drift() {
        let base = TelemetrySnapshot::new("x").to_jsonl();
        let renamed = base.replace("\"updates_processed\"", "\"updatesProcessed\"");
        assert!(validate_line(&renamed).is_err(), "renamed key");
        let negative = base.replace("\"sequence\":0", "\"sequence\":-1");
        assert!(validate_line(&negative).is_err(), "negative count");
        let extra = base.replacen('{', "{\"extra\":1,", 1);
        assert!(validate_line(&extra).is_err(), "unknown top-level key");
        let non_integer_counter =
            base.replace("\"counters\":{}", "\"counters\":{\"screen_miss\":1.5}");
        assert!(
            validate_line(&non_integer_counter).is_err(),
            "fractional counter"
        );
    }

    #[test]
    fn rejects_malformed_level_entries() {
        let base = TelemetrySnapshot::new("x").to_jsonl();
        let missing_gauge = base.replace(
            "\"levels\":[]",
            "\"levels\":[{\"level\":0,\"occupied_buckets\":1,\"decoded_singletons\":0,\
             \"tracked_singletons\":0}]",
        );
        assert!(validate_line(&missing_gauge).is_err(), "missing heap_len");
        let out_of_order = base.replace(
            "\"levels\":[]",
            "\"levels\":[\
             {\"level\":2,\"occupied_buckets\":1,\"decoded_singletons\":0,\
              \"tracked_singletons\":0,\"heap_len\":0},\
             {\"level\":1,\"occupied_buckets\":1,\"decoded_singletons\":0,\
              \"tracked_singletons\":0,\"heap_len\":0}]",
        );
        assert!(validate_line(&out_of_order).is_err(), "descending levels");
    }

    #[test]
    fn rejects_malformed_latency_objects() {
        let base = TelemetrySnapshot::new("x").to_jsonl();
        let partial = base.replace(
            "\"update_latency\":null",
            "\"update_latency\":{\"count\":1,\"p50_micros\":0.1}",
        );
        assert!(validate_line(&partial).is_err(), "partial latency object");
        let fractional_count = base.replace(
            "\"query_latency\":null",
            "\"query_latency\":{\"count\":1.5,\"p50_micros\":0.1,\"p95_micros\":0.1,\
             \"p99_micros\":0.1,\"max_micros\":0.1}",
        );
        assert!(
            validate_line(&fractional_count).is_err(),
            "fractional count"
        );
    }

    #[test]
    fn rejects_malformed_batch_size_objects() {
        let base = TelemetrySnapshot::new("x").to_jsonl();
        let missing = base.replace(",\"batch_size\":null", "");
        assert!(validate_line(&missing).is_err(), "missing batch_size");
        let partial = base.replace(
            "\"batch_size\":null",
            "\"batch_size\":{\"count\":1,\"p50\":2.0}",
        );
        assert!(validate_line(&partial).is_err(), "partial size object");
        let micros_named = base.replace(
            "\"batch_size\":null",
            "\"batch_size\":{\"count\":1,\"p50_micros\":2.0,\"p95_micros\":2.0,\
             \"p99_micros\":2.0,\"max_micros\":2.0}",
        );
        assert!(
            validate_line(&micros_named).is_err(),
            "latency-shaped batch_size"
        );
        let fractional_max = base.replace(
            "\"batch_size\":null",
            "\"batch_size\":{\"count\":1,\"p50\":2.0,\"p95\":2.0,\"p99\":2.0,\"max\":2.5}",
        );
        assert!(validate_line(&fractional_max).is_err(), "fractional max");
    }
}
