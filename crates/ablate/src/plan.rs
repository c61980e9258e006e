//! The declarative [`AblationPlan`] and its on-disk format: a hand-rolled
//! RON subset extending the grammar of `wdr_conformance::corpus` (no `ron`
//! crate is vendored) with strings, lists, maps, negative numbers, and
//! `Option` values:
//!
//! ```text
//! Ablation(
//!     name: "e13-quantum-sweep",
//!     substrate: Quantum,
//!     mode: Grid,
//!     samples: None,
//!     factors: {
//!         "eps": [0.08, 0.2, 0.45],
//!         "max_weight": [1, 8, 4096],
//!     },
//!     fixed: {
//!         "family": "grid",
//!         "n": 18,
//!     },
//!     tolerances: {
//!         "ratio": Tol(min: Some(0.5), max: Some(3.0), abs: None, rel: None),
//!     },
//! )
//! ```
//!
//! Floats are written with Rust's shortest-roundtrip formatting and maps
//! are [`BTreeMap`]s, so `parse(to_ron(plan)) == plan` exactly
//! (property-tested) and [`to_ron`] is a canonical form: the
//! [`plan_hash`] stamped into every runbook is the FNV-1a of these bytes.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wdr_metrics::trajectory::fnv1a_hex;

/// How the factor space is explored.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AblationMode {
    /// Full cartesian product of every factor's levels.
    Grid,
    /// Seeded Latin-hypercube sample of `samples` jobs (each factor's
    /// strata are covered exactly once across the sample).
    Lhs,
}

impl AblationMode {
    /// The stable identifier used in plans and reports.
    pub fn name(self) -> &'static str {
        match self {
            AblationMode::Grid => "Grid",
            AblationMode::Lhs => "Lhs",
        }
    }
}

/// Which existing execution substrate each job maps onto.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Substrate {
    /// A slice of the conformance suite (`runner::run_suite` over
    /// `generate_corpus`).
    Conformance,
    /// One quantum weighted-diameter/radius run per job
    /// (`congest_wdr::algorithm::quantum_weighted`, oracle calibration).
    Quantum,
    /// Pruned sweep extremes on a generated family
    /// (`congest_graph::sweep` via `oracle::SharedSetup`).
    Sweep,
    /// An E8-style round-engine run (BFS tree + converge-cast under an
    /// optional fault plan).
    RoundEngine,
    /// An E10-style serve load mix against the in-process `QueryEngine`
    /// and content-addressed `ResultCache`.
    ServeCache,
}

impl Substrate {
    /// The stable identifier used in plans and reports.
    pub fn name(self) -> &'static str {
        match self {
            Substrate::Conformance => "Conformance",
            Substrate::Quantum => "Quantum",
            Substrate::Sweep => "Sweep",
            Substrate::RoundEngine => "RoundEngine",
            Substrate::ServeCache => "ServeCache",
        }
    }
}

/// Acceptance bounds for one report metric.
///
/// A measured value `v` passes when
/// `min − slack ≤ v ≤ max + slack` with `slack = abs + rel·|v|`
/// (absent bounds are `−∞`/`+∞`; absent slacks are `0`).
#[derive(Copy, Clone, Debug, PartialEq, Default)]
pub struct ToleranceSpec {
    /// Lower bound (inclusive, before slack widening).
    pub min: Option<f64>,
    /// Upper bound (inclusive, before slack widening).
    pub max: Option<f64>,
    /// Absolute slack added on both sides.
    pub abs: Option<f64>,
    /// Relative slack (× |value|) added on both sides.
    pub rel: Option<f64>,
}

impl ToleranceSpec {
    /// Evaluates the spec against a measured value. Returns
    /// `Err(detail)` naming the violated bound on failure.
    pub fn evaluate(&self, value: f64) -> Result<(), String> {
        let slack = self.abs.unwrap_or(0.0) + self.rel.unwrap_or(0.0) * value.abs();
        if !value.is_finite() {
            return Err(format!("value {value} is not finite"));
        }
        if let Some(min) = self.min {
            if value < min - slack {
                return Err(format!("value {value} < min {min} (slack {slack})"));
            }
        }
        if let Some(max) = self.max {
            if value > max + slack {
                return Err(format!("value {value} > max {max} (slack {slack})"));
            }
        }
        Ok(())
    }
}

/// A declarative ablation: factor lists to explore, fixed parameters, and
/// per-metric acceptance tolerances. See the module docs for the on-disk
/// grammar and [`mod@crate::expand`] for job semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationPlan {
    /// Human-readable plan name (stamped into the runbook).
    pub name: String,
    /// Which substrate the jobs run on.
    pub substrate: Substrate,
    /// Grid or Latin-hypercube exploration.
    pub mode: AblationMode,
    /// LHS sample count (`None` for grid plans).
    pub samples: Option<usize>,
    /// Factor name → list of levels to explore.
    pub factors: BTreeMap<String, Vec<Value>>,
    /// Parameters shared by every job.
    pub fixed: BTreeMap<String, Value>,
    /// Metric name → acceptance bounds.
    pub tolerances: BTreeMap<String, ToleranceSpec>,
}

/// The FNV-1a 64 hash of the plan's canonical [`to_ron`] bytes — the
/// provenance identifier stamped into every runbook report.
pub fn plan_hash(plan: &AblationPlan) -> String {
    fnv1a_hex(to_ron(plan).as_bytes())
}

fn write_ron_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out.push('"');
}

fn write_ron_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("None"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(x) => {
            let _ = write!(out, "{x:?}");
        }
        Value::String(s) => write_ron_string(s, out),
        Value::Array(_) | Value::Object(_) => {
            unreachable!("plan values are scalars (enforced by the parser)")
        }
    }
}

fn write_ron_opt(v: Option<f64>, out: &mut String) {
    match v {
        None => out.push_str("None"),
        Some(x) => {
            let _ = write!(out, "Some({x:?})");
        }
    }
}

/// Serializes a plan into its canonical on-disk form (fixed field order,
/// sorted maps, shortest-roundtrip floats).
pub fn to_ron(plan: &AblationPlan) -> String {
    let mut s = String::new();
    s.push_str("Ablation(\n");
    s.push_str("    name: ");
    write_ron_string(&plan.name, &mut s);
    s.push_str(",\n");
    writeln!(s, "    substrate: {},", plan.substrate.name()).unwrap();
    writeln!(s, "    mode: {},", plan.mode.name()).unwrap();
    match plan.samples {
        None => s.push_str("    samples: None,\n"),
        Some(k) => {
            writeln!(s, "    samples: Some({k}),").unwrap();
        }
    }
    s.push_str("    factors: {\n");
    for (name, levels) in &plan.factors {
        s.push_str("        ");
        write_ron_string(name, &mut s);
        s.push_str(": [");
        for (i, level) in levels.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write_ron_value(level, &mut s);
        }
        s.push_str("],\n");
    }
    s.push_str("    },\n");
    s.push_str("    fixed: {\n");
    for (name, value) in &plan.fixed {
        s.push_str("        ");
        write_ron_string(name, &mut s);
        s.push_str(": ");
        write_ron_value(value, &mut s);
        s.push_str(",\n");
    }
    s.push_str("    },\n");
    s.push_str("    tolerances: {\n");
    for (name, tol) in &plan.tolerances {
        s.push_str("        ");
        write_ron_string(name, &mut s);
        s.push_str(": Tol(min: ");
        write_ron_opt(tol.min, &mut s);
        s.push_str(", max: ");
        write_ron_opt(tol.max, &mut s);
        s.push_str(", abs: ");
        write_ron_opt(tol.abs, &mut s);
        s.push_str(", rel: ");
        write_ron_opt(tol.rel, &mut s);
        s.push_str("),\n");
    }
    s.push_str("    },\n");
    s.push_str(")\n");
    s
}

/// A parse failure: what was expected, and the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    UInt(u64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Colon,
    Comma,
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'/' if self.src.get(self.pos + 1) == Some(&b'/') => {
                    while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn string(&mut self) -> Result<Tok, ParseError> {
        // Opening quote already consumed by the caller.
        let mut out = String::new();
        loop {
            let Some(&c) = self.src.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(Tok::Str(out)),
                b'\\' => {
                    let Some(&esc) = self.src.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                other => {
                    // Multi-byte UTF-8 passes through byte by byte; the
                    // source is a &str so the bytes are valid.
                    if other.is_ascii() {
                        out.push(other as char);
                    } else {
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.src.len() && (self.src[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(std::str::from_utf8(&self.src[start..end]).map_err(|_| {
                            ParseError {
                                message: "invalid UTF-8 in string".into(),
                                offset: start,
                            }
                        })?);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        self.skip_ws();
        let Some(&c) = self.src.get(self.pos) else {
            return Ok(Tok::Eof);
        };
        match c {
            b'(' => {
                self.pos += 1;
                Ok(Tok::LParen)
            }
            b')' => {
                self.pos += 1;
                Ok(Tok::RParen)
            }
            b'[' => {
                self.pos += 1;
                Ok(Tok::LBracket)
            }
            b']' => {
                self.pos += 1;
                Ok(Tok::RBracket)
            }
            b'{' => {
                self.pos += 1;
                Ok(Tok::LBrace)
            }
            b'}' => {
                self.pos += 1;
                Ok(Tok::RBrace)
            }
            b':' => {
                self.pos += 1;
                Ok(Tok::Colon)
            }
            b',' => {
                self.pos += 1;
                Ok(Tok::Comma)
            }
            b'"' => {
                self.pos += 1;
                self.string()
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                if c == b'-' {
                    self.pos += 1;
                }
                let digits_start = self.pos;
                let mut is_float = false;
                while self.pos < self.src.len() {
                    match self.src[self.pos] {
                        b'0'..=b'9' => self.pos += 1,
                        b'.' | b'e' | b'E' if self.pos > digits_start => {
                            is_float = true;
                            self.pos += 1;
                        }
                        b'-' | b'+' if is_float => self.pos += 1,
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                if !is_float && c != b'-' {
                    text.parse::<u64>()
                        .map(Tok::UInt)
                        .map_err(|e| self.err(format!("bad integer '{text}': {e}")))
                } else {
                    text.parse::<f64>()
                        .map(Tok::Float)
                        .map_err(|e| self.err(format!("bad number '{text}': {e}")))
                }
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    self.pos += 1;
                }
                Ok(Tok::Ident(
                    std::str::from_utf8(&self.src[start..self.pos])
                        .unwrap()
                        .to_string(),
                ))
            }
            other => Err(self.err(format!("unexpected byte '{}'", other as char))),
        }
    }

    fn peek(&mut self) -> Result<Tok, ParseError> {
        let save = self.pos;
        let tok = self.next();
        self.pos = save;
        tok
    }

    fn expect(&mut self, want: &Tok) -> Result<(), ParseError> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {want:?}, found {got:?}")))
        }
    }

    fn expect_field(&mut self, name: &str) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Ident(id) if id == name => self.expect(&Tok::Colon),
            other => Err(self.err(format!("expected field '{name}', found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(id) => Ok(id),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn string_lit(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Str(s) => Ok(s),
            other => Err(self.err(format!("expected string, found {other:?}"))),
        }
    }

    /// A scalar plan value: number, string, or bool.
    fn value(&mut self) -> Result<Value, ParseError> {
        match self.next()? {
            Tok::UInt(v) => Ok(Value::Number(v as f64)),
            Tok::Float(v) => Ok(Value::Number(v)),
            Tok::Str(s) => Ok(Value::String(s)),
            Tok::Ident(id) if id == "true" => Ok(Value::Bool(true)),
            Tok::Ident(id) if id == "false" => Ok(Value::Bool(false)),
            other => Err(self.err(format!("expected scalar value, found {other:?}"))),
        }
    }

    /// `None` or `Some(<f64>)`.
    fn opt_f64(&mut self) -> Result<Option<f64>, ParseError> {
        match self.next()? {
            Tok::Ident(id) if id == "None" => Ok(None),
            Tok::Ident(id) if id == "Some" => {
                self.expect(&Tok::LParen)?;
                let v = match self.next()? {
                    Tok::UInt(v) => v as f64,
                    Tok::Float(v) => v,
                    other => return Err(self.err(format!("expected number, found {other:?}"))),
                };
                self.expect(&Tok::RParen)?;
                Ok(Some(v))
            }
            other => Err(self.err(format!("expected None/Some, found {other:?}"))),
        }
    }

    /// `None` or `Some(<usize>)`.
    fn opt_usize(&mut self) -> Result<Option<usize>, ParseError> {
        match self.next()? {
            Tok::Ident(id) if id == "None" => Ok(None),
            Tok::Ident(id) if id == "Some" => {
                self.expect(&Tok::LParen)?;
                let v = match self.next()? {
                    Tok::UInt(v) => v as usize,
                    other => return Err(self.err(format!("expected integer, found {other:?}"))),
                };
                self.expect(&Tok::RParen)?;
                Ok(Some(v))
            }
            other => Err(self.err(format!("expected None/Some, found {other:?}"))),
        }
    }
}

fn parse_factor_map(lx: &mut Lexer<'_>) -> Result<BTreeMap<String, Vec<Value>>, ParseError> {
    lx.expect(&Tok::LBrace)?;
    let mut map = BTreeMap::new();
    loop {
        if lx.peek()? == Tok::RBrace {
            lx.expect(&Tok::RBrace)?;
            return Ok(map);
        }
        let key = lx.string_lit()?;
        lx.expect(&Tok::Colon)?;
        lx.expect(&Tok::LBracket)?;
        let mut levels = Vec::new();
        loop {
            if lx.peek()? == Tok::RBracket {
                lx.expect(&Tok::RBracket)?;
                break;
            }
            levels.push(lx.value()?);
            if lx.peek()? == Tok::Comma {
                lx.expect(&Tok::Comma)?;
            }
        }
        if map.insert(key.clone(), levels).is_some() {
            return Err(lx.err(format!("duplicate factor '{key}'")));
        }
        lx.expect(&Tok::Comma)?;
    }
}

fn parse_fixed_map(lx: &mut Lexer<'_>) -> Result<BTreeMap<String, Value>, ParseError> {
    lx.expect(&Tok::LBrace)?;
    let mut map = BTreeMap::new();
    loop {
        if lx.peek()? == Tok::RBrace {
            lx.expect(&Tok::RBrace)?;
            return Ok(map);
        }
        let key = lx.string_lit()?;
        lx.expect(&Tok::Colon)?;
        let value = lx.value()?;
        if map.insert(key.clone(), value).is_some() {
            return Err(lx.err(format!("duplicate fixed param '{key}'")));
        }
        lx.expect(&Tok::Comma)?;
    }
}

fn parse_tolerance_map(lx: &mut Lexer<'_>) -> Result<BTreeMap<String, ToleranceSpec>, ParseError> {
    lx.expect(&Tok::LBrace)?;
    let mut map = BTreeMap::new();
    loop {
        if lx.peek()? == Tok::RBrace {
            lx.expect(&Tok::RBrace)?;
            return Ok(map);
        }
        let key = lx.string_lit()?;
        lx.expect(&Tok::Colon)?;
        match lx.ident()?.as_str() {
            "Tol" => {}
            other => return Err(lx.err(format!("expected 'Tol', found '{other}'"))),
        }
        lx.expect(&Tok::LParen)?;
        lx.expect_field("min")?;
        let min = lx.opt_f64()?;
        lx.expect(&Tok::Comma)?;
        lx.expect_field("max")?;
        let max = lx.opt_f64()?;
        lx.expect(&Tok::Comma)?;
        lx.expect_field("abs")?;
        let abs = lx.opt_f64()?;
        lx.expect(&Tok::Comma)?;
        lx.expect_field("rel")?;
        let rel = lx.opt_f64()?;
        lx.expect(&Tok::RParen)?;
        if map
            .insert(key.clone(), ToleranceSpec { min, max, abs, rel })
            .is_some()
        {
            return Err(lx.err(format!("duplicate tolerance '{key}'")));
        }
        lx.expect(&Tok::Comma)?;
    }
}

/// Parses one plan from the on-disk format. Top-level fields must appear
/// in the canonical [`to_ron`] order (plans are short and machine-diffed;
/// a fixed order keeps the parser and review diffs simple).
pub fn parse(text: &str) -> Result<AblationPlan, ParseError> {
    let mut lx = Lexer::new(text);
    match lx.next()? {
        Tok::Ident(id) if id == "Ablation" => {}
        other => return Err(lx.err(format!("expected 'Ablation', found {other:?}"))),
    }
    lx.expect(&Tok::LParen)?;
    lx.expect_field("name")?;
    let name = lx.string_lit()?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("substrate")?;
    let substrate = match lx.ident()?.as_str() {
        "Conformance" => Substrate::Conformance,
        "Quantum" => Substrate::Quantum,
        "Sweep" => Substrate::Sweep,
        "RoundEngine" => Substrate::RoundEngine,
        "ServeCache" => Substrate::ServeCache,
        other => return Err(lx.err(format!("unknown substrate '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect_field("mode")?;
    let mode = match lx.ident()?.as_str() {
        "Grid" => AblationMode::Grid,
        "Lhs" => AblationMode::Lhs,
        other => return Err(lx.err(format!("unknown mode '{other}'"))),
    };
    lx.expect(&Tok::Comma)?;
    lx.expect_field("samples")?;
    let samples = lx.opt_usize()?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("factors")?;
    let factors = parse_factor_map(&mut lx)?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("fixed")?;
    let fixed = parse_fixed_map(&mut lx)?;
    lx.expect(&Tok::Comma)?;
    lx.expect_field("tolerances")?;
    let tolerances = parse_tolerance_map(&mut lx)?;
    lx.expect(&Tok::Comma)?;
    lx.expect(&Tok::RParen)?;
    match lx.next()? {
        Tok::Eof => Ok(AblationPlan {
            name,
            substrate,
            mode,
            samples,
            factors,
            fixed,
            tolerances,
        }),
        other => Err(lx.err(format!("trailing input: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> AblationPlan {
        let mut factors = BTreeMap::new();
        factors.insert(
            "eps".to_string(),
            vec![Value::Number(0.08), Value::Number(0.45)],
        );
        factors.insert(
            "family".to_string(),
            vec![
                Value::String("grid".to_string()),
                Value::String("cluster_ring".to_string()),
            ],
        );
        let mut fixed = BTreeMap::new();
        fixed.insert("n".to_string(), Value::Number(18.0));
        fixed.insert("quoted \"name\"".to_string(), Value::Bool(true));
        let mut tolerances = BTreeMap::new();
        tolerances.insert(
            "ratio".to_string(),
            ToleranceSpec {
                min: Some(0.5),
                max: Some(3.0),
                abs: Some(1e-6),
                rel: None,
            },
        );
        AblationPlan {
            name: "unit-test".to_string(),
            substrate: Substrate::Quantum,
            mode: AblationMode::Lhs,
            samples: Some(4),
            factors,
            fixed,
            tolerances,
        }
    }

    #[test]
    fn roundtrip_sample_plan() {
        let plan = sample_plan();
        let text = to_ron(&plan);
        assert_eq!(parse(&text).unwrap(), plan, "{text}");
    }

    #[test]
    fn roundtrip_empty_maps() {
        let plan = AblationPlan {
            name: String::new(),
            substrate: Substrate::Sweep,
            mode: AblationMode::Grid,
            samples: None,
            factors: BTreeMap::new(),
            fixed: BTreeMap::new(),
            tolerances: BTreeMap::new(),
        };
        assert_eq!(parse(&to_ron(&plan)).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("Ablation(").is_err());
        assert!(parse("Scenario(seed: 1)").is_err());
        let good = to_ron(&sample_plan());
        assert!(parse(&format!("{good} trailing")).is_err());
        assert!(parse(&good.replace("Quantum", "Banana")).is_err());
    }

    #[test]
    fn parse_reports_offsets() {
        let err = parse("Ablation(name: nope,").unwrap_err();
        assert!(err.offset > 0);
        assert!(err.to_string().contains("at byte"));
    }

    #[test]
    fn negative_numbers_and_comments() {
        let text = to_ron(&sample_plan())
            .replace("0.08", "-0.08")
            .replace("Ablation(", "// leading comment\nAblation(");
        let plan = parse(&text).unwrap();
        assert_eq!(plan.factors["eps"][0], Value::Number(-0.08));
    }

    #[test]
    fn plan_hash_tracks_content() {
        let a = sample_plan();
        let mut b = a.clone();
        assert_eq!(plan_hash(&a), plan_hash(&b));
        b.fixed.insert("extra".to_string(), Value::Number(1.0));
        assert_ne!(plan_hash(&a), plan_hash(&b));
    }

    #[test]
    fn tolerance_semantics() {
        let tol = ToleranceSpec {
            min: Some(1.0),
            max: Some(2.0),
            abs: Some(0.1),
            rel: None,
        };
        assert!(tol.evaluate(0.95).is_ok());
        assert!(tol.evaluate(2.05).is_ok());
        assert!(tol.evaluate(0.85).is_err());
        assert!(tol.evaluate(2.15).is_err());
        assert!(tol.evaluate(f64::NAN).is_err());
        let rel = ToleranceSpec {
            max: Some(100.0),
            rel: Some(0.1),
            ..ToleranceSpec::default()
        };
        assert!(rel.evaluate(109.0).is_ok());
        assert!(rel.evaluate(115.0).is_err());
    }
}
