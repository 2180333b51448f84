//! Minimal JSON parsing and the one comparison behind the regression
//! gate (`pic regress`) and the attribution (`pic diff`).
//!
//! `BENCH_pic.json` is both written (by `experiments::report`) and read
//! (here) by hand — the workspace has no serialization dependency. The
//! parser keeps each number's **raw literal** alongside its parsed value so that
//! byte counts and counters can be compared exactly, while simulated
//! seconds, ratios, errors and utilizations are compared with a relative
//! epsilon — the one band rule of [`compare`], DESIGN.md §9. Keys starting
//! with `host_` carry wall-clock measurements and are skipped entirely.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields keep their file order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number: parsed value plus the raw literal for exact comparison.
    Num(f64, String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object (None for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number's parsed value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The string's contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(..) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Deepest container nesting [`parse`] accepts. `BENCH_pic.json`
/// reaches 7; the bound keeps a hostile file from overflowing the stack
/// of the recursive parser.
pub const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document; trailing garbage and nesting deeper
/// than [`MAX_DEPTH`] are errors.
pub fn parse(src: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(src, &mut pos, 0)?;
    skip_ws(src.as_bytes(), &mut pos);
    if pos != src.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which sits inside `depth` open containers.
fn parse_value(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{' | b'[') => parse_container(src, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(src, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, kw: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(kw.as_bytes()) {
        *pos += kw.len();
        Ok(value)
    } else {
        Err(format!("expected '{kw}' at byte {pos}", pos = *pos))
    }
}

/// Parse the number literal at `pos`. The literal must follow JSON's
/// grammar (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`) and
/// stay finite: `+1`, `01`, `.5`, `1.` and `1e999` are refused with the
/// literal's byte offset.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&b[start..*pos]).expect("digits are ASCII");
    if !is_json_number(raw.as_bytes()) {
        return Err(format!("invalid number '{raw}' at byte {start}"));
    }
    let v: f64 = raw.parse().expect("a JSON number literal is a Rust float");
    if !v.is_finite() {
        return Err(format!("number '{raw}' overflows at byte {start}"));
    }
    Ok(Json::Num(v, raw.to_string()))
}

/// Whether `raw` is exactly one number literal of JSON's grammar.
fn is_json_number(raw: &[u8]) -> bool {
    let mut i = usize::from(raw.first() == Some(&b'-'));
    let digits = |i: &mut usize| {
        let from = *i;
        while raw.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    let int_start = i;
    if !digits(&mut i) || (raw[int_start] == b'0' && i - int_start > 1) {
        return false;
    }
    if raw.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(raw.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(raw.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == raw.len()
}

/// The four hex digits of the `\u` escape whose `u` is at `at`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let bad = || format!("bad \\u escape at byte {}", at - 1);
    let hex = b.get(at + 1..at + 5).ok_or_else(bad)?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(bad());
    }
    let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
}

/// Decode the `\u` escape whose `u` is at `*pos`, joining a surrogate
/// pair; leaves `*pos` on the escape's last hex digit. A lone surrogate
/// is refused.
fn unicode_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let at = *pos - 1;
    let lone = || format!("lone surrogate in \\u escape at byte {at}");
    let high = hex4(b, *pos)?;
    *pos += 4;
    let code = match high {
        0xD800..=0xDBFF => {
            if b.get(*pos + 1..*pos + 3) != Some(b"\\u") {
                return Err(lone());
            }
            let low = hex4(b, *pos + 2)?;
            if !(0xDC00..=0xDFFF).contains(&low) {
                return Err(lone());
            }
            *pos += 6;
            0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
        }
        0xDC00..=0xDFFF => return Err(lone()),
        code => code,
    };
    Ok(char::from_u32(code).expect("a scalar value"))
}

fn parse_string(src: &str, pos: &mut usize) -> Result<String, String> {
    let b = src.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => out.push(unicode_escape(b, pos)?),
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            _ => {
                // `pos` only ever advances past whole characters of the
                // (valid UTF-8) source, so it is a char boundary here and
                // multi-byte sequences pass through untouched.
                let ch = src[*pos..].chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".to_string())
}

/// Parse the array or object whose opening bracket is at `pos`; its
/// members sit inside `depth` open containers.
fn parse_container(src: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = src.as_bytes();
    let close = if b[*pos] == b'{' { b'}' } else { b']' };
    *pos += 1;
    let (mut items, mut fields) = (Vec::new(), Vec::new());
    let expected = |pos| format!("expected ',' or '{}' at byte {pos}", close as char);
    skip_ws(b, pos);
    let mut more = b.get(*pos) != Some(&close);
    while more {
        if close == b']' {
            items.push(parse_value(src, pos, depth)?);
        } else {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected key string at byte {pos}", pos = *pos));
            }
            let key = parse_string(src, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}", pos = *pos));
            }
            *pos += 1;
            fields.push((key, parse_value(src, pos, depth)?));
        }
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(&c) if c == close => more = false,
            _ => return Err(expected(*pos)),
        }
    }
    *pos += 1;
    Ok(match close {
        b']' => Json::Arr(items),
        _ => Json::Obj(fields),
    })
}

/// The relative band `pic regress` and `pic diff` compare with.
pub const EPSILON: f64 = 1e-9;

/// One step of a path into a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<'a> {
    /// An object field.
    Key(&'a str),
    /// An array element.
    Index(usize),
}

/// What [`compare`] found at one path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// A baseline key the fresh document lacks.
    Missing,
    /// A fresh key the baseline lacks.
    Extra,
    /// Arrays of different lengths (their common prefix is still compared).
    Length,
    /// A banded number beyond `eps·max(|a|,|b|,1)`.
    Band,
    /// An unbanded number whose raw literal and value both differ.
    Exact,
    /// Different types, or unequal strings, booleans or nulls.
    Value,
}

/// One difference between two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Difference<'a> {
    /// Where, relative to the compared root.
    pub path: Vec<Step<'a>>,
    /// The key that decides the band: the value's own key, or the nearest
    /// enclosing key when only that one is banded.
    pub key: &'a str,
    /// The baseline's value (none for [`DiffKind::Extra`]).
    pub old: Option<&'a Json>,
    /// The fresh value (none for [`DiffKind::Missing`]).
    pub new: Option<&'a Json>,
    /// What differs.
    pub kind: DiffKind,
}

/// Key suffixes of simulated seconds, ratios, error metrics and
/// utilization fractions — with curve points' `err`, the banded keys.
const BANDED: [&str; 4] = ["_s", "_x", "_err", "_util"];

fn banded(key: &str) -> bool {
    key == "err" || BANDED.iter().any(|s| key.ends_with(s))
}

/// The one comparison behind `pic regress` and `pic diff`: every
/// difference between two values found under `key` (empty at a document's
/// root; array elements sit under their array's key), in document order.
/// Keys starting `host_` (wall clock) are skipped. A number is banded —
/// equal within `eps·max(|a|,|b|,1)` — when its own key, or else the
/// nearest enclosing key, is `banded`; every other number must match by
/// raw literal, then by value. Everything else must match exactly.
pub fn compare<'a>(key: &'a str, old: &'a Json, new: &'a Json, eps: f64) -> Vec<Difference<'a>> {
    let mut walk = Walk {
        path: Vec::new(),
        eps,
        out: Vec::new(),
    };
    walk.visit(key, "", Some(old), Some(new));
    walk.out
}

struct Walk<'a> {
    path: Vec<Step<'a>>,
    eps: f64,
    out: Vec<Difference<'a>>,
}

impl<'a> Walk<'a> {
    fn visit(&mut self, key: &'a str, parent: &'a str, a: Option<&'a Json>, b: Option<&'a Json>) {
        let band = [key, parent].into_iter().find(|k| banded(k));
        let kind = match (a, b) {
            (Some(a @ Json::Obj(af)), Some(b @ Json::Obj(bf))) => {
                let pairs = af.iter().map(|(k, v)| (k, Some(v), b.get(k)));
                let fresh_only = bf.iter().filter(|(k, _)| a.get(k).is_none());
                for (k, av, bv) in pairs.chain(fresh_only.map(|(k, v)| (k, None, Some(v)))) {
                    if !k.starts_with("host_") {
                        self.path.push(Step::Key(k));
                        self.visit(k, key, av, bv);
                        self.path.pop();
                    }
                }
                return;
            }
            (Some(Json::Arr(ai)), Some(Json::Arr(bi))) => {
                if ai.len() != bi.len() {
                    self.found(DiffKind::Length, key, a, b);
                }
                for (i, (av, bv)) in ai.iter().zip(bi).enumerate() {
                    self.path.push(Step::Index(i));
                    self.visit(key, parent, Some(av), Some(bv));
                    self.path.pop();
                }
                return;
            }
            (Some(Json::Num(x, x_raw)), Some(Json::Num(y, y_raw))) => match band {
                Some(_) if (x - y).abs() > self.eps * x.abs().max(y.abs()).max(1.0) => {
                    DiffKind::Band
                }
                None if x_raw != y_raw && x != y => DiffKind::Exact,
                _ => return,
            },
            (Some(x), Some(y)) if x == y => return,
            (Some(_), Some(_)) => DiffKind::Value,
            (Some(_), None) => DiffKind::Missing,
            (None, _) => DiffKind::Extra,
        };
        self.found(kind, band.unwrap_or(key), a, b);
    }

    fn found(&mut self, kind: DiffKind, key: &'a str, a: Option<&'a Json>, b: Option<&'a Json>) {
        let (path, old, new) = (self.path.clone(), a, b);
        self.out.push(Difference {
            path,
            key,
            old,
            new,
            kind,
        });
    }
}

/// [`compare`] two whole documents; one human-readable regression line
/// per difference (empty = pass).
pub fn diff(baseline: &Json, fresh: &Json, epsilon: f64) -> Vec<String> {
    let diffs = compare("", baseline, fresh, epsilon);
    diffs.iter().map(|d| line(d, epsilon)).collect()
}

/// One difference as the gate prints it: its `$`-rooted path, then what
/// moved.
pub(crate) fn line(d: &Difference, eps: f64) -> String {
    let mut path = String::from("$");
    for step in &d.path {
        let _ = match step {
            Step::Key(k) => write!(path, ".{k}"),
            Step::Index(i) => write!(path, "[{i}]"),
        };
    }
    let (a, b) = (d.old.unwrap_or(&Json::Null), d.new.unwrap_or(&Json::Null));
    let what = match (d.kind, a, b) {
        (DiffKind::Missing, ..) => "missing from fresh report".to_string(),
        (DiffKind::Extra, ..) => "not present in baseline".to_string(),
        (DiffKind::Length, Json::Arr(x), Json::Arr(y)) => {
            format!("length {} in baseline vs {} fresh", x.len(), y.len())
        }
        (DiffKind::Band, Json::Num(x, _), Json::Num(y, _)) => {
            let delta = (x - y).abs();
            format!("{x} -> {y} (|Δ| = {delta:e} beyond relative epsilon {eps:e})")
        }
        (DiffKind::Exact, Json::Num(_, x), Json::Num(_, y)) => {
            format!("{x} -> {y} (exact comparison)")
        }
        _ => {
            let (x, y) = (summarize(a), summarize(b));
            let (ta, tb) = (a.type_name(), b.type_name());
            format!("baseline {ta} {x:?} vs fresh {tb} {y:?}")
        }
    };
    format!("{path}: {what}")
}

fn summarize(v: &Json) -> String {
    match v {
        Json::Null => "null".to_string(),
        Json::Bool(x) => x.to_string(),
        Json::Num(_, raw) => raw.clone(),
        Json::Str(s) => s.clone(),
        Json::Arr(items) => format!("[{} items]", items.len()),
        Json::Obj(fields) => format!("{{{} fields}}", fields.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(s: &str) -> Json {
        parse(s).unwrap()
    }

    #[test]
    fn parses_nested_documents() {
        let j = obj(r#"{"a": 1, "b": [1.5, "x", null, true], "c": {"d": -2e3}, "e": "q\"\n"}"#);
        assert_eq!(j.get("a"), Some(&Json::Num(1.0, "1".into())));
        assert_eq!(
            j.get("c").unwrap().get("d").unwrap().as_f64(),
            Some(-2000.0)
        );
        assert_eq!(j.get("e").unwrap().as_str(), Some("q\"\n"));
        match j.get("b").unwrap() {
            Json::Arr(items) => assert_eq!(items.len(), 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("{\"k\" 1}").is_err());
    }

    #[test]
    fn multi_byte_text_passes_through_and_unicode_escapes_decode() {
        let j = obj(r#"{"é→𝛑": "é→𝛑", "esc": "caf\u00e9"}"#);
        assert_eq!(j.get("é→𝛑").unwrap().as_str(), Some("é→𝛑"));
        assert_eq!(j.get("esc").unwrap().as_str(), Some("café"));
        assert_eq!(obj(r#""\ud83d\ude00""#).as_str(), Some("😀"));
        assert_eq!(
            parse(r#""\u+0e9""#).unwrap_err(),
            "bad \\u escape at byte 1"
        );
        assert_eq!(
            parse(r#"["\ud83d"]"#).unwrap_err(),
            "lone surrogate in \\u escape at byte 2"
        );
        assert_eq!(
            parse(r#""\ude00\ud83d""#).unwrap_err(),
            "lone surrogate in \\u escape at byte 1"
        );
    }

    /// Literals outside JSON's number grammar, and literals that
    /// overflow to ±∞, are refused with their byte offset.
    #[test]
    fn numbers_follow_the_json_grammar_and_stay_finite() {
        assert_eq!(parse("+1").unwrap_err(), "invalid number '+1' at byte 0");
        assert_eq!(parse("[01]").unwrap_err(), "invalid number '01' at byte 1");
        assert_eq!(parse(".5").unwrap_err(), "invalid number '.5' at byte 0");
        assert_eq!(parse("1.").unwrap_err(), "invalid number '1.' at byte 0");
        assert_eq!(
            parse("[0, -1e999]").unwrap_err(),
            "number '-1e999' overflows at byte 4"
        );
        for ok in ["0", "-0", "10", "-1.5e-3", "2E+8", "1e308"] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nested(MAX_DEPTH + 1)).unwrap_err(),
            "nesting deeper than 128 at byte 128"
        );
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1);
        let err = parse(&objects).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn identical_documents_pass() {
        let a = obj(r#"{"x_s": 1.5, "bytes": 100, "name": "k"}"#);
        assert!(diff(&a, &a, 1e-9).is_empty());
    }

    #[test]
    fn exact_keys_catch_off_by_one() {
        let a = obj(r#"{"bytes": 100}"#);
        let b = obj(r#"{"bytes": 101}"#);
        let d = diff(&a, &b, 1e-9);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("$.bytes"), "{d:?}");
        assert!(d[0].contains("exact"), "{d:?}");
    }

    #[test]
    fn seconds_use_relative_epsilon() {
        let a = obj(r#"{"time_s": 100.0}"#);
        let within = obj(r#"{"time_s": 100.00000000001}"#);
        assert!(diff(&a, &within, 1e-9).is_empty());
        let beyond = obj(r#"{"time_s": 100.001}"#);
        let d = diff(&a, &beyond, 1e-9);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("epsilon"), "{d:?}");
        // Ratios too.
        let r1 = obj(r#"{"speedup_x": 2.5}"#);
        let r2 = obj(r#"{"speedup_x": 2.5000000000001}"#);
        assert!(diff(&r1, &r2, 1e-9).is_empty());
    }

    #[test]
    fn error_metrics_use_relative_epsilon() {
        // `*_err` keys and curve-point `err` keys sit in the tolerance
        // band; anything else ending in "err" does not.
        let a = obj(r#"{"be_final_err": 0.5, "curve": [{"err": 2.0}]}"#);
        let within =
            obj(r#"{"be_final_err": 0.5000000000001, "curve": [{"err": 2.0000000000001}]}"#);
        assert!(diff(&a, &within, 1e-9).is_empty());
        let beyond = obj(r#"{"be_final_err": 0.51, "curve": [{"err": 2.0}]}"#);
        let d = diff(&a, &beyond, 1e-9);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].contains("$.be_final_err") && d[0].contains("epsilon"),
            "{d:?}"
        );
        let e1 = obj(r#"{"stderr": 1.0}"#);
        let e2 = obj(r#"{"stderr": 1.0000000000001}"#);
        assert_eq!(diff(&e1, &e2, 1e-9).len(), 1, "plain 'stderr' is exact");
    }

    /// One rule for every key: a number is banded when its own key or
    /// else its enclosing key is, so `by_cat_s` / `phase_time_s` children
    /// are seconds too; no key is wider than the rest, so a 5e-8 relative
    /// drift of `recovery_s` / `delta_makespan_s` / `incident_s` is
    /// flagged. Counts stay exact.
    #[test]
    fn one_band_rule_covers_children_and_widens_nothing() {
        let a = obj(
            r#"{"by_cat_s": {"task": 30.503265727999995}, "phase_time_s": {"be": 2.5}, "class_bytes": {"shuffle": 10}}"#,
        );
        let ulp = obj(
            r#"{"by_cat_s": {"task": 30.503265728000001}, "phase_time_s": {"be": 2.5000000000000004}, "class_bytes": {"shuffle": 10}}"#,
        );
        assert!(
            diff(&a, &ulp, EPSILON).is_empty(),
            "an ulp is inside the band"
        );
        let moved = obj(
            r#"{"by_cat_s": {"task": 31.5}, "phase_time_s": {"be": 2.5}, "class_bytes": {"shuffle": 11}}"#,
        );
        let d = compare("", &a, &moved, EPSILON);
        let found: Vec<_> = d.iter().map(|d| (d.path.clone(), d.key, d.kind)).collect();
        assert_eq!(
            found,
            [
                (
                    vec![Step::Key("by_cat_s"), Step::Key("task")],
                    "by_cat_s",
                    DiffKind::Band
                ),
                (
                    vec![Step::Key("class_bytes"), Step::Key("shuffle")],
                    "shuffle",
                    DiffKind::Exact
                ),
            ]
        );

        for key in ["recovery_s", "delta_makespan_s", "incident_s"] {
            let a = obj(&format!(r#"{{"{key}": 100.0, "incidents": 3}}"#));
            let mild = obj(&format!(r#"{{"{key}": 100.000005, "incidents": 3}}"#));
            let d = diff(&a, &mild, EPSILON);
            assert_eq!(d.len(), 1, "{key}: {d:?}");
            assert!(
                d[0].contains(&format!("$.{key}")) && d[0].contains("epsilon"),
                "{d:?}"
            );
        }
        let a = obj(r#"{"incidents": 3, "incident_s": 12.0}"#);
        let count = obj(r#"{"incidents": 4, "incident_s": 12.0}"#);
        let d = diff(&a, &count, EPSILON);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].contains("$.incidents") && d[0].contains("exact"),
            "{d:?}"
        );
    }

    /// The Chrome trace export (spans, instants, counter tracks,
    /// thread-name metadata) must be valid JSON by this crate's own
    /// parser — the same parser the regression gate trusts.
    #[test]
    fn chrome_export_round_trips_through_the_parser() {
        use pic_simnet::trace::CounterTrack;
        use pic_simnet::{Tracer, TrafficClass, TrafficLedger};
        let tracer = Tracer::standalone();
        let ledger = TrafficLedger::traced(tracer.clone());
        let job = tracer.begin_at("job:\"quoted\"", "job", 0.0);
        tracer.span_at_in("map-slot-0", "task-0", "task", 0.0, 1.5, vec![]);
        ledger.add_over(TrafficClass::ShuffleBisection, 4096, 0.5, 2.0);
        tracer.end_at(job, 3.0);
        let tracks = vec![CounterTrack {
            name: "slots:map".to_string(),
            points: vec![(0.0, 0.0), (1.0, 0.75)],
        }];
        let doc = tracer.trace().to_chrome_json_with_counters(&tracks);
        let parsed = parse(&doc).unwrap();
        let events = match parsed.get("traceEvents").unwrap() {
            Json::Arr(a) => a,
            other => panic!("traceEvents not an array: {other:?}"),
        };
        let phase = |e: &Json| e.get("ph").and_then(|p| p.as_str().map(str::to_string));
        assert!(events.iter().any(|e| phase(e).as_deref() == Some("X")));
        assert!(events.iter().any(|e| phase(e).as_deref() == Some("i")));
        let counters: Vec<&Json> = events
            .iter()
            .filter(|e| phase(e).as_deref() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2, "one event per counter point");
        assert_eq!(
            counters[1]
                .get("args")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.75)
        );
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name")));
    }

    #[test]
    fn utilization_keys_use_relative_epsilon() {
        // `*_util` scalars and `*_util` series elements (arrays inherit
        // the array's key) sit in the tolerance band; slot counts under
        // the same object stay exact.
        let a = obj(r#"{"busy_util": 0.8, "series_util": [0.5, 1.0], "slots": 10}"#);
        let within = obj(
            r#"{"busy_util": 0.8000000000001, "series_util": [0.5, 1.0000000000001], "slots": 10}"#,
        );
        assert!(diff(&a, &within, 1e-9).is_empty());
        let beyond = obj(r#"{"busy_util": 0.81, "series_util": [0.5, 1.0], "slots": 10}"#);
        let d = diff(&a, &beyond, 1e-9);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].contains("$.busy_util") && d[0].contains("epsilon"),
            "{d:?}"
        );
        let count_off = obj(r#"{"busy_util": 0.8, "series_util": [0.5, 1.0], "slots": 11}"#);
        assert_eq!(diff(&a, &count_off, 1e-9).len(), 1, "counts stay exact");
    }

    #[test]
    fn equal_value_different_literal_is_not_a_regression() {
        let a = obj(r#"{"count": 1.0}"#);
        let b = obj(r#"{"count": 1}"#);
        assert!(diff(&a, &b, 1e-9).is_empty());
    }

    #[test]
    fn host_keys_are_skipped() {
        let a = obj(r#"{"host_elapsed_s": 10.0, "total_s": 5.0}"#);
        let b = obj(r#"{"host_elapsed_s": 99.0, "total_s": 5.0}"#);
        assert!(diff(&a, &b, 1e-9).is_empty());
        // ... even when the fresh side drops them.
        let c = obj(r#"{"total_s": 5.0}"#);
        assert!(diff(&a, &c, 1e-9).is_empty());
    }

    #[test]
    fn missing_and_extra_keys_are_regressions() {
        let a = obj(r#"{"x": 1, "y": 2}"#);
        let b = obj(r#"{"x": 1, "z": 3}"#);
        let d = diff(&a, &b, 1e-9);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|l| l.contains("$.y") && l.contains("missing")));
        assert!(d
            .iter()
            .any(|l| l.contains("$.z") && l.contains("baseline")));
    }

    #[test]
    fn array_shape_and_elements_are_checked() {
        let a = obj(r#"{"apps": [{"n": 1}, {"n": 2}]}"#);
        let b = obj(r#"{"apps": [{"n": 1}]}"#);
        assert!(diff(&a, &b, 1e-9)[0].contains("length"));
        let c = obj(r#"{"apps": [{"n": 1}, {"n": 3}]}"#);
        let d = diff(&a, &c, 1e-9);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("$.apps[1].n"), "{d:?}");
    }

    #[test]
    fn type_mismatch_is_a_regression() {
        let a = obj(r#"{"v": 1}"#);
        let b = obj(r#"{"v": "1"}"#);
        assert_eq!(diff(&a, &b, 1e-9).len(), 1);
    }

    #[test]
    fn roundtrips_a_report_like_document() {
        // Shape mirrors BENCH_pic.json: nested objects, arrays of
        // objects, negative/exponent-free numbers of both kinds.
        let text = r#"{
  "schema_version": 1,
  "scale": 0.05,
  "apps": [
    {
      "app": "kmeans",
      "speedup_x": 2.5974025974025974,
      "host_elapsed_s": 1.25,
      "ic": {"total_s": 3300.25, "class_bytes": {"map-spill": 123456789}}
    }
  ]
}"#;
        let j = obj(text);
        assert!(diff(&j, &j, 1e-9).is_empty());
        let apps = match j.get("apps").unwrap() {
            Json::Arr(a) => a,
            _ => unreachable!(),
        };
        assert_eq!(apps[0].get("app").unwrap().as_str(), Some("kmeans"));
    }

    #[test]
    fn tenancy_keys_fall_in_the_right_bands() {
        // The schema-v5 tenancy section introduces no new band rules:
        // percentile seconds and packing ratios land in the relative-
        // epsilon band by suffix, counters and flags stay exact.
        for key in [
            "p99_tt_quality_s",
            "p50_queue_delay_s",
            "contention_s",
            "packing_x",
            "makespan_s",
        ] {
            assert!(banded(key), "{key} must be banded");
        }
        for key in ["jobs", "preemption_total", "granted_nodes", "cluster_nodes"] {
            assert!(!banded(key), "{key} must compare exactly");
        }
        // End to end: a within-band drift of a tenancy percentile passes,
        // an exact-gated counter drift does not.
        let a = obj(r#"{"p99_tt_quality_s": 120.0, "preemption_total": 3}"#);
        let near = obj(r#"{"p99_tt_quality_s": 120.00000001, "preemption_total": 3}"#);
        assert!(diff(&a, &near, 1e-9).is_empty());
        let bumped = obj(r#"{"p99_tt_quality_s": 120.0, "preemption_total": 4}"#);
        assert_eq!(diff(&a, &bumped, 1e-9).len(), 1);
    }
}
