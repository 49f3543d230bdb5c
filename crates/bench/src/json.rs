//! Minimal JSON reader for telemetry artifacts.
//!
//! The workspace is offline-first and serializes its reports by hand
//! (`RunReport::to_json` in spray-core); this is the matching reader, so
//! the smoke tests and tooling can round-trip those artifacts without an
//! external dependency. It is a strict recursive-descent parser over the
//! JSON subset the harness emits — objects, arrays, strings with the
//! common escapes, f64 numbers, booleans and null.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`, which covers every value the harness
    /// writes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup: `j.get("phases")`, None for absent keys or
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as f64, if it is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as &str, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse failure: a message and the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses `input` as a single JSON value (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        b: input.as_bytes(),
        i: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.into(),
            at: self.i,
        }
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), ParseError> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            m.insert(k, self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = *self.b.get(self.i).ok_or_else(|| self.err("open escape"))?;
                    self.i += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            s.push(char::from_u32(hex).ok_or_else(|| self.err("bad codepoint"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    // Consume one whole UTF-8 scalar (input is a &str, so
                    // byte boundaries are valid char boundaries).
                    let rest = &self.b[self.i..];
                    let ch = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid utf-8"))?
                        .chars()
                        .next()
                        .unwrap();
                    s.push(ch);
                    self.i += ch.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Json::Num(-250.0));
        assert_eq!(
            parse("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".into())
        );
    }

    #[test]
    fn nesting_and_accessors() {
        let j = parse(r#"{"a": [1, {"b": "x"}], "c": false}"#).unwrap();
        assert_eq!(j.get("c"), Some(&Json::Bool(false)));
        let arr = j.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("{\"k\" 1}").is_err());
    }

    /// The top-level keys of every `RunReport::to_json` document: the
    /// report's seven fields and nothing else.
    const REPORT_KEYS: [&str; 7] = [
        "counters",
        "memory_overhead",
        "merge_bandwidth",
        "phases",
        "planned_regions",
        "scratch_bytes",
        "strategy",
    ];

    /// Parses a report document and checks its top-level key set is
    /// exactly [`REPORT_KEYS`].
    fn parse_report(report: &spray::RunReport) -> Json {
        let j = parse(&report.to_json()).expect("RunReport JSON must parse");
        let Json::Obj(fields) = &j else {
            panic!("RunReport JSON is not an object: {j:?}");
        };
        let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
        assert_eq!(keys, REPORT_KEYS, "RunReport top-level keys");
        j
    }

    #[test]
    fn parses_a_real_run_report() {
        // Produced by spray's RunReport::to_json — the exact artifact the
        // telemetry smoke test consumes.
        use spray::{reduce_dyn, Strategy, Sum};
        let pool = ompsim::ThreadPool::new(2);
        let mut out = vec![0i64; 64];
        let report = reduce_dyn::<i64, Sum>(
            Strategy::BlockCas { block_size: 16 },
            &pool,
            &mut out,
            0..640,
            ompsim::Schedule::default(),
            &|v, i| v.apply(i % 64, 1),
        );
        let j = parse_report(&report);
        assert_eq!(j.get("strategy").unwrap().as_str(), Some("block-CAS-16"));
        let totals = j.get("counters").unwrap().get("totals").unwrap();
        assert_eq!(totals.get("applies").unwrap().as_num(), Some(640.0));
        let phases = j.get("phases").unwrap();
        for key in [
            "loop_secs",
            "barrier_secs",
            "epilogue_secs",
            "finish_secs",
            "region_secs",
        ] {
            assert!(phases.get(key).unwrap().as_num().is_some(), "{key}");
        }
        let per_thread = j
            .get("counters")
            .unwrap()
            .get("per_thread")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(per_thread.len(), 2);
        // The merge-bandwidth column is always emitted; a block strategy
        // over a contended pattern merged something, so the figure is a
        // number ≥ 0 (0 only if the epilogue was too fast to time).
        assert!(j.get("merge_bandwidth").unwrap().as_num().unwrap() >= 0.0);
        // The cumulative replay count is always present (zero when the
        // region ran without a caller-supplied region id).
        assert_eq!(j.get("planned_regions").unwrap().as_num(), Some(0.0));
    }

    #[test]
    fn service_run_report_round_trips() {
        // A batched service region: its report carries the region's own
        // fields only; admission totals live on the service's shared
        // state.
        use spray::Sum;
        use spray_service::{Job, ReductionService, ServiceConfig};
        let svc = ReductionService::<i64, Sum>::new(ServiceConfig {
            threads: 2,
            batch_window: 4,
            ..ServiceConfig::default()
        });
        let jobs: Vec<Job<'static, i64>> = (0..4)
            .map(|t| Job {
                tenant: t,
                class: 3,
                out: vec![0i64; 64],
                iters: 256,
                body: Box::new(|view, i| view.apply(i % 64, 1)),
            })
            .collect();
        let results = svc.run_scoped(jobs);
        // run_scoped admits the whole group atomically, so the
        // same-shape window coalesced all four jobs into one batched
        // region.
        assert_eq!(svc.shared().jobs(), 4);
        assert!(svc.shared().batched_regions() >= 1);
        let last = results.last().unwrap();
        assert_eq!(last.batch_size, 4);
        let j = parse_report(&last.report);
        let totals = j.get("counters").unwrap().get("totals").unwrap();
        assert_eq!(totals.get("applies").unwrap().as_num(), Some(1024.0));
    }

    #[test]
    fn planned_run_report_round_trips() {
        // A recording + replay pair through the executor: the replay's
        // report must carry a nonzero planned_regions through the parser.
        use spray::{Kernel, ReducerView, RegionExecutor, Strategy, Sum};
        struct Mod64;
        impl Kernel<i64> for Mod64 {
            fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
                view.apply(i % 64, 1);
            }
        }
        let pool = ompsim::ThreadPool::new(2);
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockPrivate { block_size: 16 });
        let mut last = None;
        for _ in 0..3 {
            let mut out = vec![0i64; 64];
            last = Some(ex.run_planned(
                9,
                &pool,
                &mut out,
                0..640,
                ompsim::Schedule::default(),
                &Mod64,
            ));
        }
        let j = parse_report(&last.unwrap());
        assert_eq!(j.get("planned_regions").unwrap().as_num(), Some(2.0));
        assert!(
            ex.plan_build_secs() > 0.0,
            "plan build time should be recorded and > 0"
        );
    }

    #[test]
    fn migrated_run_report_round_trips() {
        // A migration mid-stream: the report names the new strategy, and
        // the migration telemetry (count, protocol seconds, per-strategy
        // region tally) stays on the executor.
        use spray::{Kernel, ReducerView, RegionExecutor, Strategy, Sum};
        struct Mod64;
        impl Kernel<i64> for Mod64 {
            fn item<V: ReducerView<i64>>(&self, view: &mut V, i: usize) {
                view.apply(i % 64, 1);
            }
        }
        let pool = ompsim::ThreadPool::new(2);
        let mut ex = RegionExecutor::<i64, Sum>::new(Strategy::BlockPrivate { block_size: 16 });
        let mut out = vec![0i64; 64];
        ex.run_planned(
            0,
            &pool,
            &mut out,
            0..640,
            ompsim::Schedule::default(),
            &Mod64,
        );
        ex.migrate_to(Strategy::Atomic);
        out.fill(0);
        let report = ex.run_planned(
            0,
            &pool,
            &mut out,
            0..640,
            ompsim::Schedule::default(),
            &Mod64,
        );

        let j = parse_report(&report);
        assert_eq!(j.get("strategy").unwrap().as_str(), Some("atomic"));
        assert_eq!(ex.migrations(), 1);
        assert!(ex.migration_secs() > 0.0);
        assert_eq!(
            ex.strategy_regions(),
            [
                ("block-private-16".to_string(), 1),
                ("atomic".to_string(), 1)
            ]
        );
    }
}
