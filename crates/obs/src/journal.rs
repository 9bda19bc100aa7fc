//! Structured JSONL search journal.
//!
//! A [`StudyJournal`] appends exactly one JSON object per search
//! generation, so the convergence of a study is replayable post-hoc
//! (plot hypervolume over generations, audit budget use, compare
//! strategies) without rerunning it. The schema is stable and every
//! record is self-contained:
//!
//! ```json
//! {"event":"generation","study":"cardio/prune-cross","strategy":"nsga2",
//!  "gen":3,"asked":24,"fresh":18,"cached":6,"front":9,
//!  "hypervolume":0.8123,"ref":[0.0,12.5,4.0],
//!  "axes":[{"axis":"accuracy","best":0.91,"worst":0.74}],
//!  "wall_ms":41.7}
//! ```
//!
//! - `event` — record type, currently always `"generation"`.
//! - `study` — journal label, typically `model/series`.
//! - `strategy` — the search strategy's name.
//! - `gen` — zero-based generation (ask/tell round) index.
//! - `asked` — candidates the strategy proposed this generation.
//! - `fresh` / `cached` — how many were newly evaluated vs served from
//!   the evaluation cache.
//! - `front` — Pareto-archive size after this generation's `tell`.
//! - `hypervolume` — archive hypervolume against `ref` (`null` until a
//!   reference point exists); with a fixed `ref` it is monotone
//!   non-decreasing over generations.
//! - `ref` — the fixed reference point, in raw units per enabled axis.
//! - `axes` — per-objective best/worst over the current front.
//! - `wall_ms` — wall time this generation spent in ask+evaluate+tell.
//!
//! Journals are opt-in: pass a path explicitly, or set
//! `PAX_OBS_JOURNAL=<path>` and every study in the process appends to
//! that file (see [`StudyJournal::from_env_value`] — the indirection
//! keeps tests from racing on process-global environment mutation).

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

/// Environment variable naming the opt-in journal path.
pub const JOURNAL_ENV: &str = "PAX_OBS_JOURNAL";

/// Per-objective extreme values over the current Pareto front.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisExtreme {
    /// Objective name (e.g. `accuracy`, `area_mm2`).
    pub axis: String,
    /// Best value on the front under the axis's own direction.
    pub best: f64,
    /// Worst value on the front under the axis's own direction.
    pub worst: f64,
}

/// One journal record: the state of a search after one ask/tell
/// generation. See the module docs for the serialized schema.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Journal label, typically `model/series`.
    pub study: String,
    /// Search strategy name.
    pub strategy: String,
    /// Zero-based generation index.
    pub gen: u64,
    /// Candidates proposed this generation.
    pub asked: u64,
    /// Candidates newly evaluated this generation.
    pub fresh: u64,
    /// Candidates served from the evaluation cache this generation.
    pub cached: u64,
    /// Pareto-archive size after `tell`.
    pub front: u64,
    /// Archive hypervolume against `ref_point`, if one exists.
    pub hypervolume: Option<f64>,
    /// Fixed hypervolume reference point, raw units per enabled axis.
    pub ref_point: Vec<f64>,
    /// Per-objective extremes over the current front.
    pub axes: Vec<AxisExtreme>,
    /// Wall time spent in this generation, milliseconds.
    pub wall_ms: f64,
}

/// Formats an `f64` as a JSON number, mapping non-finite values (which
/// JSON cannot express) to `null`.
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
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

impl JournalEvent {
    /// Serializes the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(256);
        let _ = write!(
            line,
            "{{\"event\":\"generation\",\"study\":{},\"strategy\":{},\"gen\":{},\
             \"asked\":{},\"fresh\":{},\"cached\":{},\"front\":{},\"hypervolume\":{},\"ref\":[",
            json_str(&self.study),
            json_str(&self.strategy),
            self.gen,
            self.asked,
            self.fresh,
            self.cached,
            self.front,
            self.hypervolume.map_or_else(|| "null".to_owned(), json_num),
        );
        for (i, r) in self.ref_point.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&json_num(*r));
        }
        line.push_str("],\"axes\":[");
        for (i, a) in self.axes.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(
                line,
                "{{\"axis\":{},\"best\":{},\"worst\":{}}}",
                json_str(&a.axis),
                json_num(a.best),
                json_num(a.worst),
            );
        }
        let _ = write!(line, "],\"wall_ms\":{}}}", json_num(self.wall_ms));
        line
    }

    /// Parses one journal line back into an event. Strict enough to
    /// validate CI output: unknown fields are rejected along with any
    /// JSON syntax error.
    pub fn parse(line: &str) -> Result<JournalEvent, JournalParseError> {
        let value = json::parse(line)?;
        let obj =
            value.as_object().ok_or(JournalParseError::Shape("top level must be an object"))?;
        let get = |key: &'static str| -> Result<&json::Value, JournalParseError> {
            obj.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or(JournalParseError::Missing(key))
        };
        for (key, _) in obj {
            const KNOWN: &[&str] = &[
                "event",
                "study",
                "strategy",
                "gen",
                "asked",
                "fresh",
                "cached",
                "front",
                "hypervolume",
                "ref",
                "axes",
                "wall_ms",
            ];
            if !KNOWN.contains(&key.as_str()) {
                return Err(JournalParseError::Shape("unknown field"));
            }
        }
        if get("event")?.as_str() != Some("generation") {
            return Err(JournalParseError::Shape("event must be \"generation\""));
        }
        let num = |key: &'static str| -> Result<f64, JournalParseError> {
            get(key)?.as_number().ok_or(JournalParseError::Shape("expected a number"))
        };
        let uint = |key: &'static str| -> Result<u64, JournalParseError> {
            let x = num(key)?;
            if x >= 0.0 && x.fract() == 0.0 {
                Ok(x as u64)
            } else {
                Err(JournalParseError::Shape("expected a non-negative integer"))
            }
        };
        let axes = get("axes")?
            .as_array()
            .ok_or(JournalParseError::Shape("axes must be an array"))?
            .iter()
            .map(|a| {
                let a = a.as_object().ok_or(JournalParseError::Shape("axis must be an object"))?;
                let field = |key: &str| {
                    a.iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v)
                        .ok_or(JournalParseError::Shape("axis needs axis/best/worst"))
                };
                Ok(AxisExtreme {
                    axis: field("axis")?
                        .as_str()
                        .ok_or(JournalParseError::Shape("axis name must be a string"))?
                        .to_owned(),
                    best: field("best")?
                        .as_number()
                        .ok_or(JournalParseError::Shape("axis best must be a number"))?,
                    worst: field("worst")?
                        .as_number()
                        .ok_or(JournalParseError::Shape("axis worst must be a number"))?,
                })
            })
            .collect::<Result<Vec<_>, JournalParseError>>()?;
        let ref_point = get("ref")?
            .as_array()
            .ok_or(JournalParseError::Shape("ref must be an array"))?
            .iter()
            .map(|v| v.as_number().ok_or(JournalParseError::Shape("ref entries must be numbers")))
            .collect::<Result<Vec<_>, JournalParseError>>()?;
        Ok(JournalEvent {
            study: get("study")?
                .as_str()
                .ok_or(JournalParseError::Shape("study must be a string"))?
                .to_owned(),
            strategy: get("strategy")?
                .as_str()
                .ok_or(JournalParseError::Shape("strategy must be a string"))?
                .to_owned(),
            gen: uint("gen")?,
            asked: uint("asked")?,
            fresh: uint("fresh")?,
            cached: uint("cached")?,
            front: uint("front")?,
            hypervolume: get("hypervolume")?.as_number(),
            ref_point,
            axes,
            wall_ms: num("wall_ms")?,
        })
    }
}

/// Why a journal line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalParseError {
    /// Not valid JSON: byte offset and description.
    Json(usize, &'static str),
    /// Valid JSON, wrong shape.
    Shape(&'static str),
    /// A required field is absent.
    Missing(&'static str),
}

impl std::fmt::Display for JournalParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalParseError::Json(at, what) => write!(f, "invalid JSON at byte {at}: {what}"),
            JournalParseError::Shape(what) => write!(f, "unexpected shape: {what}"),
            JournalParseError::Missing(field) => write!(f, "missing field `{field}`"),
        }
    }
}

impl std::error::Error for JournalParseError {}

/// Append-only JSONL journal for one process. Writes are line-buffered
/// under a mutex so concurrent studies interleave whole lines, never
/// partial ones.
#[derive(Debug)]
pub struct StudyJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl StudyJournal {
    /// Opens (appending) or creates the journal at `path`.
    pub fn create(path: &Path) -> std::io::Result<StudyJournal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(StudyJournal { path: path.to_path_buf(), file: Mutex::new(file) })
    }

    /// Opens the journal named by the [`JOURNAL_ENV`] environment
    /// variable, or `None` when unset/empty. I/O errors are reported,
    /// not swallowed, so a bad path fails loudly at study start.
    pub fn from_env() -> std::io::Result<Option<StudyJournal>> {
        Self::from_env_value(std::env::var(JOURNAL_ENV).ok().as_deref())
    }

    /// [`StudyJournal::from_env`] with the variable's value injected —
    /// tests use this instead of mutating process-global environment
    /// (which races with parallel test threads).
    pub fn from_env_value(value: Option<&str>) -> std::io::Result<Option<StudyJournal>> {
        match value {
            None | Some("") => Ok(None),
            Some(path) => Self::create(Path::new(path)).map(Some),
        }
    }

    /// Where the journal writes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event as a single line. Errors are returned so the
    /// caller can decide whether a telemetry failure should abort.
    pub fn append(&self, event: &JournalEvent) -> std::io::Result<()> {
        let mut line = event.to_json_line();
        line.push('\n');
        let mut file = self.file.lock();
        file.write_all(line.as_bytes())?;
        file.flush()
    }
}

/// Minimal recursive-descent JSON parser — the vendored `serde` is a
/// marker-trait stub with no serialization, so journal validation
/// carries its own ~150-line reader. Accepts the standard grammar
/// (objects, arrays, strings with escapes, numbers, booleans, null);
/// rejects trailing garbage.
pub mod json {
    use super::JournalParseError;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number, as `f64`.
        Num(f64),
        /// A string, unescaped.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, preserving field order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload, if this is a number.
        pub fn as_number(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// The fields, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(fields) => Some(fields),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// Arrays and objects one document may nest. Journal records nest
    /// three deep (event → `axes` → axis); the bound keeps hostile
    /// input from overflowing the recursive parser's stack.
    pub(super) const MAX_DEPTH: usize = 64;

    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error, and so is nesting more than 64 arrays and objects.
    pub fn parse(text: &str) -> Result<Value, JournalParseError> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at, 0)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(JournalParseError::Json(at, "trailing characters"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], at: &mut usize) {
        while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
            *at += 1;
        }
    }

    fn expect(bytes: &[u8], at: &mut usize, c: u8) -> Result<(), JournalParseError> {
        if bytes.get(*at) == Some(&c) {
            *at += 1;
            Ok(())
        } else {
            Err(JournalParseError::Json(*at, "unexpected character"))
        }
    }

    /// Parses one value inside `depth` enclosing arrays and objects.
    fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Value, JournalParseError> {
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(JournalParseError::Json(*at, "nesting too deep"))
            }
            Some(b'{') => parse_object(bytes, at, depth + 1),
            Some(b'[') => parse_array(bytes, at, depth + 1),
            Some(b'"') => parse_string(bytes, at).map(Value::Str),
            Some(b't') => parse_literal(bytes, at, b"true", Value::Bool(true)),
            Some(b'f') => parse_literal(bytes, at, b"false", Value::Bool(false)),
            Some(b'n') => parse_literal(bytes, at, b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => parse_number(bytes, at),
            _ => Err(JournalParseError::Json(*at, "expected a value")),
        }
    }

    fn parse_literal(
        bytes: &[u8],
        at: &mut usize,
        word: &'static [u8],
        value: Value,
    ) -> Result<Value, JournalParseError> {
        if bytes.len() >= *at + word.len() && &bytes[*at..*at + word.len()] == word {
            *at += word.len();
            Ok(value)
        } else {
            Err(JournalParseError::Json(*at, "invalid literal"))
        }
    }

    fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Value, JournalParseError> {
        let start = *at;
        if bytes.get(*at) == Some(&b'-') {
            *at += 1;
        }
        while matches!(bytes.get(*at), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            *at += 1;
        }
        std::str::from_utf8(&bytes[start..*at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|x| x.is_finite())
            .map(Value::Num)
            .ok_or(JournalParseError::Json(start, "invalid number"))
    }

    fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, JournalParseError> {
        expect(bytes, at, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*at) {
                None => return Err(JournalParseError::Json(*at, "unterminated string")),
                Some(b'"') => {
                    *at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *at += 1;
                    match bytes.get(*at) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*at + 1..*at + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(JournalParseError::Json(*at, "invalid \\u escape"))?;
                            out.push(hex);
                            *at += 4;
                        }
                        _ => return Err(JournalParseError::Json(*at, "invalid escape")),
                    }
                    *at += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar, not one byte.
                    let rest = std::str::from_utf8(&bytes[*at..])
                        .map_err(|_| JournalParseError::Json(*at, "invalid UTF-8"))?;
                    let c = rest.chars().next().expect("nonempty by match arm");
                    out.push(c);
                    *at += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Value, JournalParseError> {
        expect(bytes, at, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, at);
        if bytes.get(*at) == Some(&b']') {
            *at += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, at, depth)?);
            skip_ws(bytes, at);
            match bytes.get(*at) {
                Some(b',') => *at += 1,
                Some(b']') => {
                    *at += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(JournalParseError::Json(*at, "expected `,` or `]`")),
            }
        }
    }

    fn parse_object(
        bytes: &[u8],
        at: &mut usize,
        depth: usize,
    ) -> Result<Value, JournalParseError> {
        expect(bytes, at, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, at);
        if bytes.get(*at) == Some(&b'}') {
            *at += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(bytes, at);
            let key = parse_string(bytes, at)?;
            skip_ws(bytes, at);
            expect(bytes, at, b':')?;
            fields.push((key, parse_value(bytes, at, depth)?));
            skip_ws(bytes, at);
            match bytes.get(*at) {
                Some(b',') => *at += 1,
                Some(b'}') => {
                    *at += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(JournalParseError::Json(*at, "expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> JournalEvent {
        JournalEvent {
            study: "cardio/prune-cross".into(),
            strategy: "nsga2".into(),
            gen: 3,
            asked: 24,
            fresh: 18,
            cached: 6,
            front: 9,
            hypervolume: Some(0.8123),
            ref_point: vec![0.0, 12.5, 4.0],
            axes: vec![
                AxisExtreme { axis: "accuracy".into(), best: 0.91, worst: 0.74 },
                AxisExtreme { axis: "area_mm2".into(), best: 3.25, worst: 11.0 },
            ],
            wall_ms: 41.7,
        }
    }

    #[test]
    fn event_round_trips_through_json() {
        let event = sample_event();
        let line = event.to_json_line();
        assert!(!line.contains('\n'), "one event per line: {line}");
        let parsed = JournalEvent::parse(&line).expect("parse back");
        assert_eq!(parsed, event);
    }

    #[test]
    fn null_hypervolume_round_trips() {
        let mut event = sample_event();
        event.hypervolume = None;
        let parsed = JournalEvent::parse(&event.to_json_line()).expect("parse back");
        assert_eq!(parsed.hypervolume, None);
    }

    #[test]
    fn special_characters_in_names_are_escaped() {
        let mut event = sample_event();
        event.study = "we\"ird\\model\nname".into();
        let parsed = JournalEvent::parse(&event.to_json_line()).expect("parse back");
        assert_eq!(parsed.study, event.study);
    }

    #[test]
    fn parse_rejects_garbage_and_unknown_fields() {
        assert!(JournalEvent::parse("not json").is_err());
        assert!(JournalEvent::parse("{\"event\":\"generation\"}").is_err());
        let spliced = sample_event().to_json_line().replace("\"gen\":", "\"generation\":");
        assert!(JournalEvent::parse(&spliced).is_err(), "unknown field must be rejected");
        let truncated = &sample_event().to_json_line()[..40];
        assert!(JournalEvent::parse(truncated).is_err());
    }

    #[test]
    fn journal_appends_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("pax-obs-journal-test-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let journal = StudyJournal::create(&path).expect("create journal");
        let mut event = sample_event();
        journal.append(&event).expect("append");
        event.gen = 4;
        event.hypervolume = Some(0.9);
        journal.append(&event).expect("append");
        let text = std::fs::read_to_string(&path).expect("read back");
        let events: Vec<JournalEvent> =
            text.lines().map(|l| JournalEvent::parse(l).expect("every line parses")).collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].gen, 3);
        assert_eq!(events[1].gen, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn from_env_value_handles_unset_and_set() {
        assert!(StudyJournal::from_env_value(None).expect("unset is fine").is_none());
        assert!(StudyJournal::from_env_value(Some("")).expect("empty is unset").is_none());
        let path =
            std::env::temp_dir().join(format!("pax-obs-env-journal-{}.jsonl", std::process::id()));
        std::fs::remove_file(&path).ok();
        let journal = StudyJournal::from_env_value(Some(path.to_str().expect("utf-8 path")))
            .expect("valid path opens")
            .expect("journal present");
        assert_eq!(journal.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mini_parser_handles_the_grammar() {
        use json::{parse, Value};
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"a\\u0041b\"").unwrap(), Value::Str("aAb".into()));
        assert_eq!(
            parse("[1, [2], {}]").unwrap(),
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Arr(vec![Value::Num(2.0)]),
                Value::Obj(vec![]),
            ])
        );
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\u{1F980} not json").is_err());
        assert_eq!(parse("\"\u{1F980}\"").unwrap(), Value::Str("\u{1F980}".into()));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        fn too_deep<T>(r: Result<T, JournalParseError>) -> bool {
            matches!(r, Err(JournalParseError::Json(_, "nesting too deep")))
        }
        for doc in ["[".repeat(1_000_000), "{\"a\":".repeat(1_000_000)] {
            assert!(too_deep(json::parse(&doc)), "json::parse");
            assert!(too_deep(JournalEvent::parse(&doc)), "JournalEvent::parse");
        }
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok(), "exactly at the bound");
        assert!(too_deep(json::parse(&nested(json::MAX_DEPTH + 1))));
    }
}
