//! Declarative scenario files: heterogeneous machines and workloads
//! from JSON, with line-accurate diagnostics.
//!
//! A *scenario* is a single JSON document that describes a complete
//! experiment — the machine (processor count, speed classes,
//! secondary-resource pools, calendar, admission, faults, shards), the
//! workload (named linear programs with per-phase granules, cost
//! models, enablement mappings, and resource requirements), an optional
//! open-system arrival stream, and the overlap policy. The full format
//! is specified in `docs/SCENARIO_FORMAT.md`, and the cookbook files
//! under `examples/scenarios/` are each loaded by a test.
//!
//! The loader is deliberately serde-free: a small hand-rolled JSON
//! reader tracks the line of every value so that every error — a syntax
//! slip, a missing field, a wrong type, an unknown key, a reference to
//! an undeclared resource pool — surfaces as a typed [`ScenarioError`]
//! carrying the offending line and a dotted field path
//! (`machine.classes[1].count`), not a panic or a bare string.
//!
//! ```
//! use pax_workloads::scenario::Scenario;
//!
//! let text = r#"{
//!     "machine": { "processors": 4 },
//!     "workload": [ {
//!         "name": "sweep",
//!         "phases": [ { "name": "p0", "granules": 32,
//!                       "cost": { "dist": "constant", "ticks": 10 } } ]
//!     } ]
//! }"#;
//! let scenario = Scenario::parse(text).unwrap();
//! let report = scenario.build().unwrap().run().unwrap();
//! assert_eq!(report.phases.len(), 1);
//! ```

use pax_core::prelude::*;
use pax_sim::faults::ScriptedFault;
use std::fmt;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// What went wrong while reading a scenario document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioErrorKind {
    /// The text is not well-formed JSON.
    Syntax(String),
    /// A required field is absent from an object.
    MissingField(String),
    /// A value has the wrong JSON type.
    WrongType {
        /// The type the field requires.
        expected: &'static str,
        /// The type actually found.
        found: &'static str,
    },
    /// An object contains a key the format does not define (typo guard).
    UnknownField(String),
    /// The value parses but is semantically invalid (bad enum tag, count
    /// mismatch, reference to an undeclared name, ...).
    Invalid(String),
    /// The scenario file could not be read from disk.
    Io(String),
}

/// A scenario loading error: the line it occurred on, the dotted path of
/// the offending field (`machine.classes[0].count`), and the kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line in the source text (0 when no location applies,
    /// e.g. I/O errors or validation of a hand-built [`Scenario`]).
    pub line: usize,
    /// Dotted path of the field, rooted at the document (`machine.processors`).
    pub path: String,
    /// The failure itself.
    pub kind: ScenarioErrorKind,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}: ", self.line, self.path)?;
        match &self.kind {
            ScenarioErrorKind::Syntax(msg) => write!(f, "syntax error: {msg}"),
            ScenarioErrorKind::MissingField(k) => write!(f, "missing required field '{k}'"),
            ScenarioErrorKind::WrongType { expected, found } => {
                write!(f, "expected {expected}, found {found}")
            }
            ScenarioErrorKind::UnknownField(k) => write!(f, "unknown field '{k}'"),
            ScenarioErrorKind::Invalid(msg) => write!(f, "{msg}"),
            ScenarioErrorKind::Io(msg) => write!(f, "cannot read scenario: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn err(line: usize, path: impl Into<String>, kind: ScenarioErrorKind) -> ScenarioError {
    ScenarioError {
        line,
        path: path.into(),
        kind,
    }
}

// ---------------------------------------------------------------------------
// Limits (documented in docs/SCENARIO_FORMAT.md, "Limits")
// ---------------------------------------------------------------------------

/// Deepest nesting the reader follows before it gives up with a syntax
/// error. The deepest value the format defines
/// (`workload[i].phases[j].cost`) sits six levels down; the reader
/// recurses once a level, so an unbounded depth is an unbounded stack.
const MAX_DEPTH: usize = 32;

/// Ceilings on the sizes the engine allocates for before it simulates a
/// tick: per-processor and per-lane state, and one record a job.
const MAX_PROCESSORS: usize = 1 << 16;
const MAX_LANES: usize = 1 << 16;
const MAX_JOBS: usize = 1 << 20;

/// Executive ticks charged to one granule at most (a dispatch, two
/// splits, a completion and two releases at the costed machine's rates
/// come to eight), and to one phase dispatch.
const MANAGEMENT_TICKS_PER_GRANULE: u128 = 16;
const MANAGEMENT_TICKS_PER_PHASE: u128 = 16;

/// An exponential sample is at most `-mean × ln(1e-12)` = 27.7 means.
const EXPONENTIAL_MEANS_AT_MOST: u64 = 28;

// ---------------------------------------------------------------------------
// Minimal line-tracking JSON reader
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Node>),
    Obj(Vec<(String, Node)>),
}

#[derive(Debug, Clone)]
struct Node {
    line: usize,
    v: Json,
}

impl Node {
    fn type_name(&self) -> &'static str {
        match self.v {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    fn wrong(&self, path: &str, expected: &'static str) -> ScenarioError {
        err(
            self.line,
            path,
            ScenarioErrorKind::WrongType {
                expected,
                found: self.type_name(),
            },
        )
    }

    fn obj(&self, path: &str) -> Result<&[(String, Node)], ScenarioError> {
        match &self.v {
            Json::Obj(fields) => Ok(fields),
            _ => Err(self.wrong(path, "object")),
        }
    }

    fn arr(&self, path: &str) -> Result<&[Node], ScenarioError> {
        match &self.v {
            Json::Arr(items) => Ok(items),
            _ => Err(self.wrong(path, "array")),
        }
    }

    fn str_(&self, path: &str) -> Result<&str, ScenarioError> {
        match &self.v {
            Json::Str(s) => Ok(s),
            _ => Err(self.wrong(path, "string")),
        }
    }

    fn bool_(&self, path: &str) -> Result<bool, ScenarioError> {
        match &self.v {
            Json::Bool(b) => Ok(*b),
            _ => Err(self.wrong(path, "boolean")),
        }
    }

    fn f64_(&self, path: &str) -> Result<f64, ScenarioError> {
        match &self.v {
            Json::Num(n) => Ok(*n),
            _ => Err(self.wrong(path, "number")),
        }
    }

    fn u64_(&self, path: &str) -> Result<u64, ScenarioError> {
        let n = self.f64_(path)?;
        if n < 0.0 || n.fract() != 0.0 || n > 9_007_199_254_740_992.0 {
            return Err(err(
                self.line,
                path,
                ScenarioErrorKind::Invalid(format!("expected a non-negative integer, found {n}")),
            ));
        }
        Ok(n as u64)
    }

    fn u32_(&self, path: &str) -> Result<u32, ScenarioError> {
        let n = self.u64_(path)?;
        u32::try_from(n).map_err(|_| {
            err(
                self.line,
                path,
                ScenarioErrorKind::Invalid(format!("{n} does not fit in 32 bits")),
            )
        })
    }

    fn usize_(&self, path: &str) -> Result<usize, ScenarioError> {
        Ok(self.u64_(path)? as usize)
    }
}

/// Field access over a parsed object with missing/unknown-key diagnostics.
struct Obj<'a> {
    line: usize,
    fields: &'a [(String, Node)],
}

impl<'a> Obj<'a> {
    fn of(node: &'a Node, path: &str) -> Result<Obj<'a>, ScenarioError> {
        Ok(Obj {
            line: node.line,
            fields: node.obj(path)?,
        })
    }

    fn get(&self, key: &str) -> Option<&'a Node> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn req(&self, key: &str, path: &str) -> Result<&'a Node, ScenarioError> {
        self.get(key).ok_or_else(|| {
            err(
                self.line,
                format!("{path}.{key}"),
                ScenarioErrorKind::MissingField(key.into()),
            )
        })
    }

    fn check_keys(&self, allowed: &[&str], path: &str) -> Result<(), ScenarioError> {
        for (k, v) in self.fields {
            if !allowed.contains(&k.as_str()) {
                return Err(err(
                    v.line,
                    format!("{path}.{k}"),
                    ScenarioErrorKind::UnknownField(k.clone()),
                ));
            }
        }
        Ok(())
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
            line: 1,
            depth: 0,
        }
    }

    fn syntax(&self, msg: impl Into<String>) -> ScenarioError {
        err(self.line, "$", ScenarioErrorKind::Syntax(msg.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ScenarioError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                Err(self.syntax(format!("expected '{}', found '{}'", b as char, got as char)))
            }
            None => Err(self.syntax(format!("expected '{}', found end of input", b as char))),
        }
    }

    fn parse_document(&mut self) -> Result<Node, ScenarioError> {
        let root = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.syntax("trailing characters after the document"));
        }
        Ok(root)
    }

    fn parse_value(&mut self) -> Result<Node, ScenarioError> {
        self.skip_ws();
        let line = self.line;
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_obj, line),
            Some(b'[') => self.nested(Self::parse_arr, line),
            Some(b'"') => {
                let s = self.parse_string()?;
                Ok(Node {
                    line,
                    v: Json::Str(s),
                })
            }
            Some(b't') => self.parse_word("true", line, Json::Bool(true)),
            Some(b'f') => self.parse_word("false", line, Json::Bool(false)),
            Some(b'n') => self.parse_word("null", line, Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(line),
            Some(c) => Err(self.syntax(format!("unexpected character '{}'", c as char))),
            None => Err(self.syntax("unexpected end of input")),
        }
    }

    /// Parse an array or object one level further down, unless that is
    /// deeper than any scenario goes.
    fn nested(
        &mut self,
        parse: fn(&mut Self, usize) -> Result<Node, ScenarioError>,
        line: usize,
    ) -> Result<Node, ScenarioError> {
        if self.depth == MAX_DEPTH {
            return Err(self.syntax(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let node = parse(self, line);
        self.depth -= 1;
        node
    }

    fn parse_word(&mut self, word: &str, line: usize, v: Json) -> Result<Node, ScenarioError> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Ok(Node { line, v })
    }

    fn parse_number(&mut self, line: usize) -> Result<Node, ScenarioError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.bump();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let n: f64 = text
            .parse()
            .map_err(|_| self.syntax(format!("malformed number '{text}'")))?;
        Ok(Node {
            line,
            v: Json::Num(n),
        })
    }

    fn parse_string(&mut self) -> Result<String, ScenarioError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| (c as char).to_digit(16))
                                .ok_or_else(|| self.syntax("malformed \\u escape"))?;
                            code = code * 16 + d;
                        }
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| self.syntax("\\u escape is not a scalar value"))?,
                        );
                    }
                    _ => return Err(self.syntax("unknown escape sequence")),
                },
                Some(c) if c < 0x20 => {
                    return Err(self.syntax("unescaped control character in string"))
                }
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-assemble the UTF-8 sequence the byte starts.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.syntax("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn parse_obj(&mut self, line: usize) -> Result<Node, ScenarioError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Node {
                line,
                v: Json::Obj(fields),
            });
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => {
                    return Ok(Node {
                        line,
                        v: Json::Obj(fields),
                    })
                }
                _ => return Err(self.syntax("expected ',' or '}' in object")),
            }
        }
    }

    fn parse_arr(&mut self, line: usize) -> Result<Node, ScenarioError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Node {
                line,
                v: Json::Arr(items),
            });
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => {
                    return Ok(Node {
                        line,
                        v: Json::Arr(items),
                    })
                }
                _ => return Err(self.syntax("expected ',' or ']' in array")),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The scenario document model
// ---------------------------------------------------------------------------

/// A parsed scenario: the declarative content of one scenario file.
///
/// Obtain one with [`Scenario::parse`] (or [`Scenario::load_path`]), turn
/// it into a runnable [`Simulation`] with [`Scenario::build`], or write
/// it back out with [`Scenario::to_json`] — `parse(to_json(s)) == s` for
/// every valid scenario (the round-trip property the loader tests hold).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable scenario name (optional in the file, default `""`).
    pub name: String,
    /// Master seed for every derived RNG stream (default 0).
    pub seed: u64,
    /// The machine block.
    pub machine: MachineDoc,
    /// Named programs, each added `count` times at `t = 0`.
    pub workload: Vec<ProgramDoc>,
    /// Optional open-system arrival stream of one named program.
    pub stream: Option<StreamDoc>,
    /// Overlap policy selection.
    pub policy: PolicyDoc,
}

/// The `machine` block of a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineDoc {
    /// Worker processor count.
    pub processors: usize,
    /// `true` selects the idealized machine (zero management costs);
    /// `false` (default) the costed UNIVAC-style machine.
    pub ideal: bool,
    /// Executive service lanes (`None` keeps the config default).
    pub lanes: Option<usize>,
    /// Machine-group shard count (`None` keeps single).
    pub shards: Option<usize>,
    /// Heterogeneous speed classes (empty = homogeneous machine).
    pub classes: Vec<ClassDoc>,
    /// Secondary-resource token pools (empty = processors only).
    pub resources: Vec<PoolDoc>,
    /// Admission policy for arrivals.
    pub admission: AdmissionDoc,
    /// Optional fault-injection plan.
    pub faults: Option<FaultDoc>,
}

/// One `machine.classes[i]` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDoc {
    /// Class name (report label).
    pub name: String,
    /// Workers in the class.
    pub count: usize,
    /// Speed relative to nominal, percent (100 = nominal, 200 = double).
    pub speed_percent: u32,
    /// Queue-segment affinity.
    pub affinity: AffinityDoc,
}

/// Queue affinity of a processor class (`machine.classes[i].affinity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AffinityDoc {
    /// Serve either queue segment (default).
    #[default]
    Any,
    /// Serve only elevated conflict-released work.
    ElevatedOnly,
    /// Serve only normal phase work.
    NormalOnly,
}

/// One `machine.resources[i]` entry: a named token pool.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolDoc {
    /// Pool name, referenced by phase `requires` lists.
    pub name: String,
    /// Concurrent tokens available.
    pub tokens: u32,
}

/// Admission policy (`machine.admission`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionDoc {
    /// Admit everything immediately (default).
    #[default]
    AcceptAll,
    /// Defer arrivals beyond the in-flight bound.
    BoundedDefer(usize),
    /// Reject arrivals beyond the in-flight bound.
    Shed(usize),
}

/// Fault-injection plan (`machine.faults`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDoc {
    /// Crash/repair generation model.
    pub model: FaultModelDoc,
    /// Disposition of work lost to crashes.
    pub retry: RetryDoc,
}

/// Crash/repair model (`machine.faults.model`).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModelDoc {
    /// Independent up/down spans per processor.
    Random {
        /// Distribution of up spans.
        time_to_failure: DistDoc,
        /// Distribution of down spans.
        time_to_repair: DistDoc,
    },
    /// Explicit scripted crash events.
    Scripted(Vec<FaultEventDoc>),
}

/// One scripted crash (`machine.faults.events[i]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEventDoc {
    /// Worker processor index.
    pub processor: usize,
    /// Crash instant in local ticks.
    pub crash_at: u64,
    /// Down span; `None` is permanent.
    pub repair_after: Option<u64>,
}

/// Retry policy for lost work (`machine.faults.retry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetryDoc {
    /// Reissue lost ranges at the queue front, unbounded (default).
    #[default]
    ReissueFront,
    /// Abort the job at the first lost range.
    Abandon,
    /// Reissue up to the given number of attempts, then abort.
    Bounded(u32),
}

/// A duration distribution (phase costs, fault spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistDoc {
    /// Always zero ticks.
    Zero,
    /// Every sample is exactly this many ticks.
    Constant(u64),
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Smallest sample.
        lo: u64,
        /// Largest sample.
        hi: u64,
    },
    /// Exponential with this mean, truncated to ≥ 1 tick.
    Exponential(u64),
}

/// One `workload[i]` entry: a named linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramDoc {
    /// Program name (stream references resolve against it).
    pub name: String,
    /// Copies added at `t = 0` (default 1; 0 = stream-only shape).
    pub count: usize,
    /// The phase chain, in execution order.
    pub phases: Vec<PhaseDoc>,
}

/// One phase of a scenario program (`workload[i].phases[j]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDoc {
    /// Phase name.
    pub name: String,
    /// Granules dispatched per execution.
    pub granules: u32,
    /// Per-granule cost distribution.
    pub cost: DistDoc,
    /// Census line weight (default 0).
    pub lines: u32,
    /// Secondary-resource pools a task must hold one token from.
    pub requires: Vec<String>,
    /// Enablement mapping into the *next* phase (ignored on the last).
    pub mapping: MappingDoc,
}

/// Enablement mapping between consecutive phases
/// (`workload[i].phases[j].mapping`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingDoc {
    /// Serial actions intervene; no overlap possible (default).
    #[default]
    Null,
    /// Granule `i` enables successor granule `i` (equal counts).
    Identity,
    /// Any completion enables every successor granule.
    Universal,
}

/// The `stream` block: an open-system arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDoc {
    /// Name of the workload program to instantiate.
    pub program: String,
    /// Jobs to admit.
    pub count: usize,
    /// The arrival process.
    pub arrivals: ArrivalDoc,
}

/// Arrival process of a stream (`stream.arrivals`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalDoc {
    /// Exponential inter-arrival gaps with this mean.
    Poisson {
        /// Mean gap in ticks.
        mean_gap: u64,
    },
    /// Explicit admission instants.
    Trace(Vec<u64>),
}

/// The `policy` block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyDoc {
    /// `true` enables phase overlap (the paper's treatment machine).
    pub overlap: bool,
    /// Optional task-sizing override.
    pub sizing: Option<SizingDoc>,
}

/// Task sizing override (`policy.sizing`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizingDoc {
    /// Fixed granules per task.
    Fixed(u32),
    /// Size tasks for this many tasks per processor.
    PerProcessor(f64),
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl Scenario {
    /// Parse and validate a scenario document.
    ///
    /// Validation covers both shape (types, required fields, unknown
    /// keys) and semantics (machine-config consistency, resource-pool
    /// references, identity-mapping granule counts, stream program
    /// names), each reported at the offending line.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let root = Reader::new(text).parse_document()?;
        let doc = Obj::of(&root, "$")?;
        doc.check_keys(
            &["name", "seed", "machine", "workload", "stream", "policy"],
            "$",
        )?;
        let name = match doc.get("name") {
            Some(n) => n.str_("name")?.to_string(),
            None => String::new(),
        };
        let seed = match doc.get("seed") {
            Some(n) => n.u64_("seed")?,
            None => 0,
        };
        let machine_node = doc.req("machine", "$")?;
        let machine = parse_machine(machine_node)?;
        let workload_node = doc.req("workload", "$")?;
        let items = workload_node.arr("workload")?;
        if items.is_empty() {
            return Err(err(
                workload_node.line,
                "workload",
                ScenarioErrorKind::Invalid("workload must declare at least one program".into()),
            ));
        }
        let mut workload = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            workload.push(parse_program(item, &format!("workload[{i}]"))?);
        }
        let stream = match doc.get("stream") {
            Some(n) => Some(parse_stream(n)?),
            None => None,
        };
        let policy = match doc.get("policy") {
            Some(n) => parse_policy(n)?,
            None => PolicyDoc::default(),
        };
        let scenario = Scenario {
            name,
            seed,
            machine,
            workload,
            stream,
            policy,
        };
        scenario.check_limits(machine_node, items, doc.get("stream"))?;
        scenario.validate_semantics(&root, machine_node)?;
        Ok(scenario)
    }

    /// Read and parse a scenario file from disk.
    pub fn load_path(path: impl AsRef<std::path::Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            err(
                0,
                path.display().to_string(),
                ScenarioErrorKind::Io(e.to_string()),
            )
        })?;
        Scenario::parse(&text)
    }

    /// Reject a document that asks for more than the loader's limits,
    /// before anything is built from it: a size above its ceiling, or
    /// tick values whose sums over the run can leave `u64`.
    ///
    /// The tick bound is the run's worst case on one processor — every
    /// job's granules at their costliest, on the slowest class, with the
    /// executive's charges, after the last arrival — and no machine takes
    /// longer than one processor does. Processor-time integrals multiply
    /// it by the processor count, and a dispatched task's scheduled end
    /// may lie a task past it; both must still fit. Scripted faults add
    /// their down-spans and one re-executed task each. A random fault
    /// model can lose and redo work without limit, so under one the bound
    /// is necessary, not sufficient.
    fn check_limits(
        &self,
        machine: &Node,
        programs: &[Node],
        stream: Option<&Node>,
    ) -> Result<(), ScenarioError> {
        let line_of = |node: &Node, key: &str| {
            let value = Obj::of(node, "").ok().and_then(|o| o.get(key));
            value.map_or(node.line, |v| v.line)
        };
        // `path` names a field of `node`, whose value `size` is.
        let over = |size: usize, max: usize, node: &Node, path: &str| {
            if size <= max {
                return Ok(());
            }
            let line = line_of(node, path.rsplit('.').next().unwrap_or(path));
            let msg = format!("above the loader's ceiling of {max}");
            Err(err(line, path, ScenarioErrorKind::Invalid(msg)))
        };
        let m = &self.machine;
        over(m.processors, MAX_PROCESSORS, machine, "machine.processors")?;
        over(m.lanes.unwrap_or(0), MAX_LANES, machine, "machine.lanes")?;
        let mut jobs = 0usize;
        for (i, (p, node)) in self.workload.iter().zip(programs).enumerate() {
            jobs = jobs.saturating_add(p.count);
            over(jobs, MAX_JOBS, node, &format!("workload[{i}].count"))?;
        }
        if let (Some(st), Some(node)) = (&self.stream, stream) {
            let jobs = jobs.saturating_add(st.count);
            over(jobs, MAX_JOBS, node, "stream.count")?;
        }

        // Worst-case ticks, term by term; u128 with saturation, so the
        // bound itself cannot wrap.
        let slowest = m.classes.iter().map(|c| c.speed_percent).min();
        let slowdown = u128::from(100u32.div_ceil(slowest.unwrap_or(100).clamp(1, 100)));
        let task = |ph: &PhaseDoc| {
            u128::from(ph.granules)
                * (u128::from(ph.cost.max_ticks()) * slowdown + MANAGEMENT_TICKS_PER_GRANULE)
        };
        let mut terms: Vec<(u128, usize, String)> = Vec::new();
        for (i, (p, node)) in self.workload.iter().zip(programs).enumerate() {
            let streamed = self.stream.as_ref().filter(|st| st.program == p.name);
            let copies = p.count + streamed.map_or(0, |st| st.count);
            let job: u128 = p
                .phases
                .iter()
                .map(|ph| task(ph) + MANAGEMENT_TICKS_PER_PHASE)
                .fold(0, u128::saturating_add);
            let work = job.saturating_mul(copies as u128);
            terms.push((work, node.line, format!("workload[{i}]")));
        }
        if let (Some(st), Some(node)) = (&self.stream, stream) {
            let last = match &st.arrivals {
                ArrivalDoc::Poisson { mean_gap } => {
                    u128::from(*mean_gap) * u128::from(EXPONENTIAL_MEANS_AT_MOST) * st.count as u128
                }
                ArrivalDoc::Trace(instants) => instants.iter().copied().max().unwrap_or(0).into(),
            };
            terms.push((last, line_of(node, "arrivals"), "stream.arrivals".into()));
        }
        if let Some(FaultDoc {
            model: FaultModelDoc::Scripted(events),
            ..
        }) = &m.faults
        {
            let phases = self.workload.iter().flat_map(|p| &p.phases);
            let longest_task = phases.map(task).max().unwrap_or(0);
            let lost = events
                .iter()
                .map(|e| u128::from(e.repair_after.unwrap_or(0)) + longest_task)
                .fold(0, u128::saturating_add);
            terms.push((lost, line_of(machine, "faults"), "machine.faults".into()));
        }
        let horizon = terms.iter().map(|t| t.0).fold(0, u128::saturating_add);
        let needed = horizon.saturating_mul(2 * m.processors.max(1) as u128);
        if needed > u128::from(u64::MAX) {
            let (_, line, path) = terms
                .into_iter()
                .max_by_key(|t| t.0)
                .expect("a workload has at least one program");
            let msg = format!(
                "the run can last {horizon} ticks in the worst case, and {} processors' \
                 worth of twice that does not fit the engine's 64-bit tick arithmetic",
                m.processors
            );
            return Err(err(line, path, ScenarioErrorKind::Invalid(msg)));
        }
        Ok(())
    }

    /// Cross-reference checks that need the whole document, with line
    /// diagnostics recovered from the parse tree.
    fn validate_semantics(&self, root: &Node, machine_node: &Node) -> Result<(), ScenarioError> {
        // Machine-config consistency (class counts, pool names, ...).
        self.machine_config().map_err(|mut e| {
            if e.line == 0 {
                e.line = machine_node.line;
            }
            e
        })?;
        let doc = Obj::of(root, "$").expect("validated");
        // Duplicate program names make stream references ambiguous.
        let workload_items = doc
            .req("workload", "$")
            .expect("validated")
            .arr("workload")
            .expect("validated");
        for (i, p) in self.workload.iter().enumerate() {
            if self.workload[..i].iter().any(|q| q.name == p.name) {
                return Err(err(
                    workload_items[i].line,
                    format!("workload[{i}].name"),
                    ScenarioErrorKind::Invalid(format!("duplicate program name '{}'", p.name)),
                ));
            }
            let phases = Obj::of(&workload_items[i], "")
                .expect("validated")
                .req("phases", "")
                .expect("validated")
                .arr("")
                .expect("validated");
            for (j, ph) in p.phases.iter().enumerate() {
                let ph_path = format!("workload[{i}].phases[{j}]");
                // Identity mappings need equal granule counts.
                if ph.mapping == MappingDoc::Identity {
                    match p.phases.get(j + 1) {
                        Some(next) if next.granules != ph.granules => {
                            return Err(err(
                                phases[j].line,
                                format!("{ph_path}.mapping"),
                                ScenarioErrorKind::Invalid(format!(
                                    "identity mapping requires equal granule counts \
                                     ({} vs {} in '{}')",
                                    ph.granules, next.granules, next.name
                                )),
                            ))
                        }
                        _ => {}
                    }
                }
                // Resource references must name declared pools.
                for (r, req) in ph.requires.iter().enumerate() {
                    if !self.machine.resources.iter().any(|p| &p.name == req) {
                        return Err(err(
                            phases[j].line,
                            format!("{ph_path}.requires[{r}]"),
                            ScenarioErrorKind::Invalid(format!(
                                "phase requires undeclared resource pool '{req}'"
                            )),
                        ));
                    }
                }
            }
            // The builder itself enforces the rest (non-empty chains...).
            build_program(p).map_err(|msg| {
                err(
                    workload_items[i].line,
                    format!("workload[{i}]"),
                    ScenarioErrorKind::Invalid(msg),
                )
            })?;
        }
        if let Some(stream) = &self.stream {
            if !self.workload.iter().any(|p| p.name == stream.program) {
                let node = doc.req("stream", "$").expect("validated");
                return Err(err(
                    node.line,
                    "stream.program",
                    ScenarioErrorKind::Invalid(format!(
                        "stream references unknown program '{}'",
                        stream.program
                    )),
                ));
            }
        }
        Ok(())
    }
}

fn parse_machine(node: &Node) -> Result<MachineDoc, ScenarioError> {
    let path = "machine";
    let m = Obj::of(node, path)?;
    m.check_keys(
        &[
            "processors",
            "ideal",
            "lanes",
            "calendar",
            "shards",
            "classes",
            "resources",
            "admission",
            "faults",
        ],
        path,
    )?;
    let processors = m.req("processors", path)?.usize_("machine.processors")?;
    let ideal = match m.get("ideal") {
        Some(n) => n.bool_("machine.ideal")?,
        None => false,
    };
    let lanes = match m.get("lanes") {
        Some(n) => Some(n.usize_("machine.lanes")?),
        None => None,
    };
    if let Some(n) = m.get("calendar") {
        check_calendar(n)?;
    }
    let shards = match m.get("shards") {
        Some(n) => Some(n.usize_("machine.shards")?),
        None => None,
    };
    let mut classes = Vec::new();
    if let Some(n) = m.get("classes") {
        for (i, c) in n.arr("machine.classes")?.iter().enumerate() {
            classes.push(parse_class(c, &format!("machine.classes[{i}]"))?);
        }
    }
    let mut resources = Vec::new();
    if let Some(n) = m.get("resources") {
        for (i, p) in n.arr("machine.resources")?.iter().enumerate() {
            resources.push(parse_pool(p, &format!("machine.resources[{i}]"))?);
        }
    }
    let admission = match m.get("admission") {
        Some(n) => parse_admission(n)?,
        None => AdmissionDoc::AcceptAll,
    };
    let faults = match m.get("faults") {
        Some(n) => Some(parse_faults(n)?),
        None => None,
    };
    Ok(MachineDoc {
        processors,
        ideal,
        lanes,
        shards,
        classes,
        resources,
        admission,
        faults,
    })
}

fn parse_class(node: &Node, path: &str) -> Result<ClassDoc, ScenarioError> {
    let c = Obj::of(node, path)?;
    c.check_keys(&["name", "count", "speed_percent", "affinity"], path)?;
    let name = c.req("name", path)?.str_(&format!("{path}.name"))?.into();
    let count = c.req("count", path)?.usize_(&format!("{path}.count"))?;
    let speed_percent = match c.get("speed_percent") {
        Some(n) => n.u32_(&format!("{path}.speed_percent"))?,
        None => 100,
    };
    let affinity = match c.get("affinity") {
        Some(n) => {
            let p = format!("{path}.affinity");
            match n.str_(&p)? {
                "any" => AffinityDoc::Any,
                "elevated_only" => AffinityDoc::ElevatedOnly,
                "normal_only" => AffinityDoc::NormalOnly,
                other => {
                    return Err(err(
                        n.line,
                        p,
                        ScenarioErrorKind::Invalid(format!(
                            "unknown affinity '{other}' \
                             (expected 'any', 'elevated_only', or 'normal_only')"
                        )),
                    ))
                }
            }
        }
        None => AffinityDoc::Any,
    };
    Ok(ClassDoc {
        name,
        count,
        speed_percent,
        affinity,
    })
}

fn parse_pool(node: &Node, path: &str) -> Result<PoolDoc, ScenarioError> {
    let p = Obj::of(node, path)?;
    p.check_keys(&["name", "tokens"], path)?;
    Ok(PoolDoc {
        name: p.req("name", path)?.str_(&format!("{path}.name"))?.into(),
        tokens: p.req("tokens", path)?.u32_(&format!("{path}.tokens"))?,
    })
}

/// `machine.calendar` names the future-event list. There is one
/// (`"heap"` is its frozen spelling), so the key is optional and accepts
/// `"heap"` or `{ "kind": "heap" }` only; the removed backends and their
/// geometry keys are rejected by name so an old file fails loudly
/// instead of running on a calendar it did not ask for.
fn check_calendar(node: &Node) -> Result<(), ScenarioError> {
    let path = "machine.calendar";
    let removed = |what: String, line: usize| {
        err(
            line,
            path,
            ScenarioErrorKind::Invalid(format!(
                "{what} was removed in favour of the binary heap; use \"heap\" or drop the key"
            )),
        )
    };
    let named = |name: &str, line: usize| match name {
        "heap" => Ok(()),
        "wheel" | "hier" | "auto" => Err(removed(format!("calendar backend '{name}'"), line)),
        other => Err(err(
            line,
            path,
            ScenarioErrorKind::Invalid(format!("unknown calendar '{other}' (expected 'heap')")),
        )),
    };
    if matches!(node.v, Json::Str(_)) {
        return named(node.str_(path)?, node.line);
    }
    let c = Obj::of(node, path)?;
    for key in ["slots", "bucket_ticks", "levels"] {
        if let Some(n) = c.get(key) {
            return Err(removed(format!("calendar geometry key '{key}'"), n.line));
        }
    }
    c.check_keys(&["kind"], path)?;
    let kind = c.req("kind", path)?;
    named(kind.str_(&format!("{path}.kind"))?, kind.line)
}

fn parse_admission(node: &Node) -> Result<AdmissionDoc, ScenarioError> {
    let path = "machine.admission";
    let a = Obj::of(node, path)?;
    a.check_keys(&["policy", "max_in_flight"], path)?;
    let policy_node = a.req("policy", path)?;
    let policy = policy_node.str_(&format!("{path}.policy"))?;
    let bound = || -> Result<usize, ScenarioError> {
        a.req("max_in_flight", path)?
            .usize_(&format!("{path}.max_in_flight"))
    };
    match policy {
        "accept_all" => Ok(AdmissionDoc::AcceptAll),
        "bounded_defer" => Ok(AdmissionDoc::BoundedDefer(bound()?)),
        "shed" => Ok(AdmissionDoc::Shed(bound()?)),
        other => Err(err(
            policy_node.line,
            format!("{path}.policy"),
            ScenarioErrorKind::Invalid(format!(
                "unknown admission policy '{other}' \
                 (expected 'accept_all', 'bounded_defer', or 'shed')"
            )),
        )),
    }
}

fn parse_faults(node: &Node) -> Result<FaultDoc, ScenarioError> {
    let path = "machine.faults";
    let f = Obj::of(node, path)?;
    f.check_keys(
        &[
            "model",
            "time_to_failure",
            "time_to_repair",
            "events",
            "retry",
        ],
        path,
    )?;
    let model_node = f.req("model", path)?;
    let model = match model_node.str_(&format!("{path}.model"))? {
        "random" => FaultModelDoc::Random {
            time_to_failure: parse_dist(
                f.req("time_to_failure", path)?,
                &format!("{path}.time_to_failure"),
            )?,
            time_to_repair: parse_dist(
                f.req("time_to_repair", path)?,
                &format!("{path}.time_to_repair"),
            )?,
        },
        "scripted" => {
            let events_node = f.req("events", path)?;
            let mut events = Vec::new();
            for (i, e) in events_node
                .arr(&format!("{path}.events"))?
                .iter()
                .enumerate()
            {
                let p = format!("{path}.events[{i}]");
                let o = Obj::of(e, &p)?;
                o.check_keys(&["processor", "crash_at", "repair_after"], &p)?;
                let repair_after = match o.get("repair_after") {
                    None => None,
                    Some(n) if matches!(n.v, Json::Null) => None,
                    Some(n) => Some(n.u64_(&format!("{p}.repair_after"))?),
                };
                events.push(FaultEventDoc {
                    processor: o.req("processor", &p)?.usize_(&format!("{p}.processor"))?,
                    crash_at: o.req("crash_at", &p)?.u64_(&format!("{p}.crash_at"))?,
                    repair_after,
                });
            }
            FaultModelDoc::Scripted(events)
        }
        other => {
            return Err(err(
                model_node.line,
                format!("{path}.model"),
                ScenarioErrorKind::Invalid(format!(
                    "unknown fault model '{other}' (expected 'random' or 'scripted')"
                )),
            ))
        }
    };
    let retry = match f.get("retry") {
        None => RetryDoc::ReissueFront,
        Some(n) => {
            let p = format!("{path}.retry");
            match &n.v {
                Json::Str(s) => match s.as_str() {
                    "reissue_front" => RetryDoc::ReissueFront,
                    "abandon" => RetryDoc::Abandon,
                    other => {
                        return Err(err(
                            n.line,
                            p,
                            ScenarioErrorKind::Invalid(format!(
                                "unknown retry policy '{other}' (expected 'reissue_front', \
                                 'abandon', or {{\"bounded\": N}})"
                            )),
                        ))
                    }
                },
                Json::Obj(_) => {
                    let o = Obj::of(n, &p)?;
                    o.check_keys(&["bounded"], &p)?;
                    RetryDoc::Bounded(o.req("bounded", &p)?.u32_(&format!("{p}.bounded"))?)
                }
                _ => return Err(n.wrong(&p, "string or object")),
            }
        }
    };
    Ok(FaultDoc { model, retry })
}

fn parse_dist(node: &Node, path: &str) -> Result<DistDoc, ScenarioError> {
    let d = Obj::of(node, path)?;
    d.check_keys(&["dist", "ticks", "lo", "hi", "mean"], path)?;
    let tag_node = d.req("dist", path)?;
    match tag_node.str_(&format!("{path}.dist"))? {
        "zero" => Ok(DistDoc::Zero),
        "constant" => Ok(DistDoc::Constant(
            d.req("ticks", path)?.u64_(&format!("{path}.ticks"))?,
        )),
        "uniform" => {
            let lo = d.req("lo", path)?.u64_(&format!("{path}.lo"))?;
            let hi_node = d.req("hi", path)?;
            let hi = hi_node.u64_(&format!("{path}.hi"))?;
            if hi < lo {
                return Err(err(
                    hi_node.line,
                    format!("{path}.hi"),
                    ScenarioErrorKind::Invalid(format!(
                        "a uniform distribution needs lo <= hi, found lo {lo} and hi {hi}"
                    )),
                ));
            }
            Ok(DistDoc::Uniform { lo, hi })
        }
        "exponential" => Ok(DistDoc::Exponential(
            d.req("mean", path)?.u64_(&format!("{path}.mean"))?,
        )),
        other => Err(err(
            tag_node.line,
            format!("{path}.dist"),
            ScenarioErrorKind::Invalid(format!(
                "unknown distribution '{other}' \
                 (expected 'zero', 'constant', 'uniform', or 'exponential')"
            )),
        )),
    }
}

fn parse_program(node: &Node, path: &str) -> Result<ProgramDoc, ScenarioError> {
    let p = Obj::of(node, path)?;
    p.check_keys(&["name", "count", "phases"], path)?;
    let name = p.req("name", path)?.str_(&format!("{path}.name"))?.into();
    let count = match p.get("count") {
        Some(n) => n.usize_(&format!("{path}.count"))?,
        None => 1,
    };
    let phases_node = p.req("phases", path)?;
    let items = phases_node.arr(&format!("{path}.phases"))?;
    if items.is_empty() {
        return Err(err(
            phases_node.line,
            format!("{path}.phases"),
            ScenarioErrorKind::Invalid("a program needs at least one phase".into()),
        ));
    }
    let mut phases = Vec::with_capacity(items.len());
    for (j, item) in items.iter().enumerate() {
        phases.push(parse_phase(item, &format!("{path}.phases[{j}]"))?);
    }
    Ok(ProgramDoc {
        name,
        count,
        phases,
    })
}

fn parse_phase(node: &Node, path: &str) -> Result<PhaseDoc, ScenarioError> {
    let p = Obj::of(node, path)?;
    p.check_keys(
        &["name", "granules", "cost", "lines", "requires", "mapping"],
        path,
    )?;
    let name = p.req("name", path)?.str_(&format!("{path}.name"))?.into();
    let granules_node = p.req("granules", path)?;
    let granules = granules_node.u32_(&format!("{path}.granules"))?;
    if granules == 0 {
        return Err(err(
            granules_node.line,
            format!("{path}.granules"),
            ScenarioErrorKind::Invalid("a phase needs at least one granule".into()),
        ));
    }
    let cost = parse_dist(p.req("cost", path)?, &format!("{path}.cost"))?;
    let lines = match p.get("lines") {
        Some(n) => n.u32_(&format!("{path}.lines"))?,
        None => 0,
    };
    let mut requires = Vec::new();
    if let Some(n) = p.get("requires") {
        for (r, item) in n.arr(&format!("{path}.requires"))?.iter().enumerate() {
            requires.push(item.str_(&format!("{path}.requires[{r}]"))?.to_string());
        }
    }
    let mapping = match p.get("mapping") {
        Some(n) => {
            let mp = format!("{path}.mapping");
            match n.str_(&mp)? {
                "null" => MappingDoc::Null,
                "identity" => MappingDoc::Identity,
                "universal" => MappingDoc::Universal,
                other => {
                    return Err(err(
                        n.line,
                        mp,
                        ScenarioErrorKind::Invalid(format!(
                            "unknown mapping '{other}' \
                             (expected 'null', 'identity', or 'universal')"
                        )),
                    ))
                }
            }
        }
        None => MappingDoc::Null,
    };
    Ok(PhaseDoc {
        name,
        granules,
        cost,
        lines,
        requires,
        mapping,
    })
}

fn parse_stream(node: &Node) -> Result<StreamDoc, ScenarioError> {
    let path = "stream";
    let s = Obj::of(node, path)?;
    s.check_keys(&["program", "count", "arrivals"], path)?;
    let program = s.req("program", path)?.str_("stream.program")?.to_string();
    let count = s.req("count", path)?.usize_("stream.count")?;
    let arrivals_node = s.req("arrivals", path)?;
    let a = Obj::of(arrivals_node, "stream.arrivals")?;
    a.check_keys(&["process", "mean_gap", "instants"], "stream.arrivals")?;
    let process_node = a.req("process", "stream.arrivals")?;
    let arrivals = match process_node.str_("stream.arrivals.process")? {
        "poisson" => ArrivalDoc::Poisson {
            mean_gap: a
                .req("mean_gap", "stream.arrivals")?
                .u64_("stream.arrivals.mean_gap")?,
        },
        "trace" => {
            let instants_node = a.req("instants", "stream.arrivals")?;
            let mut instants = Vec::new();
            for (i, t) in instants_node
                .arr("stream.arrivals.instants")?
                .iter()
                .enumerate()
            {
                instants.push(t.u64_(&format!("stream.arrivals.instants[{i}]"))?);
            }
            ArrivalDoc::Trace(instants)
        }
        other => {
            return Err(err(
                process_node.line,
                "stream.arrivals.process",
                ScenarioErrorKind::Invalid(format!(
                    "unknown arrival process '{other}' (expected 'poisson' or 'trace')"
                )),
            ))
        }
    };
    Ok(StreamDoc {
        program,
        count,
        arrivals,
    })
}

fn parse_policy(node: &Node) -> Result<PolicyDoc, ScenarioError> {
    let path = "policy";
    let p = Obj::of(node, path)?;
    p.check_keys(&["overlap", "sizing"], path)?;
    let overlap = match p.get("overlap") {
        Some(n) => n.bool_("policy.overlap")?,
        None => false,
    };
    let sizing = match p.get("sizing") {
        None => None,
        Some(n) => {
            let sp = "policy.sizing";
            let s = Obj::of(n, sp)?;
            s.check_keys(&["fixed", "per_processor"], sp)?;
            match (s.get("fixed"), s.get("per_processor")) {
                (Some(f), None) => Some(SizingDoc::Fixed(f.u32_("policy.sizing.fixed")?)),
                (None, Some(r)) => Some(SizingDoc::PerProcessor(
                    r.f64_("policy.sizing.per_processor")?,
                )),
                _ => {
                    return Err(err(
                        n.line,
                        sp,
                        ScenarioErrorKind::Invalid(
                            "sizing takes exactly one of 'fixed' or 'per_processor'".into(),
                        ),
                    ))
                }
            }
        }
    };
    Ok(PolicyDoc { overlap, sizing })
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

impl DistDoc {
    /// The most ticks one sample can take.
    fn max_ticks(self) -> u64 {
        match self {
            DistDoc::Zero => 0,
            DistDoc::Constant(t) => t,
            DistDoc::Uniform { hi, .. } => hi,
            DistDoc::Exponential(mean) => mean.saturating_mul(EXPONENTIAL_MEANS_AT_MOST),
        }
    }

    fn to_dist(self) -> DurationDist {
        match self {
            DistDoc::Zero => DurationDist::Zero,
            DistDoc::Constant(t) => DurationDist::constant(t),
            DistDoc::Uniform { lo, hi } => DurationDist::Uniform {
                lo: SimDuration(lo),
                hi: SimDuration(hi),
            },
            DistDoc::Exponential(mean) => DurationDist::exponential(mean),
        }
    }
}

impl MachineDoc {
    /// Translate the machine block into a (not yet validated)
    /// [`MachineConfig`].
    pub fn to_config(&self) -> MachineConfig {
        let mut cfg = if self.ideal {
            MachineConfig::ideal(self.processors)
        } else {
            MachineConfig::new(self.processors)
        };
        if let Some(lanes) = self.lanes {
            cfg = cfg.with_executive_lanes(lanes);
        }
        if let Some(shards) = self.shards {
            cfg = cfg.with_shards(ShardPolicy::new(shards));
        }
        if !self.classes.is_empty() {
            cfg = cfg.with_classes(
                self.classes
                    .iter()
                    .map(|c| {
                        ProcessorClass::new(c.name.clone(), c.count, c.speed_percent).with_affinity(
                            match c.affinity {
                                AffinityDoc::Any => ClassAffinity::Any,
                                AffinityDoc::ElevatedOnly => ClassAffinity::ElevatedOnly,
                                AffinityDoc::NormalOnly => ClassAffinity::NormalOnly,
                            },
                        )
                    })
                    .collect(),
            );
        }
        if !self.resources.is_empty() {
            cfg = cfg.with_resources(
                self.resources
                    .iter()
                    .map(|p| ResourcePool::new(p.name.clone(), p.tokens))
                    .collect(),
            );
        }
        cfg = cfg.with_admission(match self.admission {
            AdmissionDoc::AcceptAll => AdmissionPolicy::AcceptAll,
            AdmissionDoc::BoundedDefer(max_in_flight) => {
                AdmissionPolicy::BoundedDefer { max_in_flight }
            }
            AdmissionDoc::Shed(max_in_flight) => AdmissionPolicy::Shed { max_in_flight },
        });
        if let Some(faults) = &self.faults {
            let model = match &faults.model {
                FaultModelDoc::Random {
                    time_to_failure,
                    time_to_repair,
                } => FaultModel::Random {
                    time_to_failure: time_to_failure.to_dist(),
                    time_to_repair: time_to_repair.to_dist(),
                },
                FaultModelDoc::Scripted(events) => FaultModel::Scripted(
                    events
                        .iter()
                        .map(|e| ScriptedFault {
                            processor: e.processor,
                            crash_at: e.crash_at,
                            repair_after: e.repair_after,
                        })
                        .collect(),
                ),
            };
            let retry = match faults.retry {
                RetryDoc::ReissueFront => RetryPolicy::ReissueFront,
                RetryDoc::Abandon => RetryPolicy::Abandon,
                RetryDoc::Bounded(max_attempts) => RetryPolicy::Bounded { max_attempts },
            };
            cfg = cfg.with_faults(FaultPlan { model, retry });
        }
        cfg
    }
}

fn build_program(doc: &ProgramDoc) -> Result<Program, String> {
    let mut b = ProgramBuilder::new();
    let ids: Vec<PhaseId> = doc
        .phases
        .iter()
        .map(|ph| {
            b.phase(
                PhaseDef::new(
                    ph.name.clone(),
                    ph.granules,
                    CostModel::new(ph.cost.to_dist()),
                )
                .with_lines(ph.lines)
                .with_requires(ph.requires.clone()),
            )
        })
        .collect();
    for (j, &id) in ids.iter().enumerate() {
        match (doc.phases[j].mapping, ids.get(j + 1)) {
            (mapping, Some(&next)) => {
                b.dispatch_enable(
                    id,
                    vec![EnableSpec {
                        successor: next,
                        mapping: match mapping {
                            MappingDoc::Null => EnablementMapping::Null,
                            MappingDoc::Identity => EnablementMapping::Identity,
                            MappingDoc::Universal => EnablementMapping::Universal,
                        },
                    }],
                );
            }
            (_, None) => {
                b.dispatch(id);
            }
        }
    }
    b.build()
}

impl Scenario {
    /// The validated machine configuration of the scenario.
    pub fn machine_config(&self) -> Result<MachineConfig, ScenarioError> {
        let cfg = self.machine.to_config();
        cfg.validate()
            .map_err(|e| err(0, "machine", ScenarioErrorKind::Invalid(e.to_string())))?;
        Ok(cfg)
    }

    /// Assemble the runnable [`Simulation`]: the machine, every workload
    /// program `count` times at `t = 0`, and the arrival stream if any.
    pub fn build(&self) -> Result<Simulation, ScenarioError> {
        let cfg = self.machine_config()?;
        let mut policy = if self.policy.overlap {
            OverlapPolicy::overlap()
        } else {
            OverlapPolicy::strict()
        };
        if let Some(sizing) = self.policy.sizing {
            policy = policy.with_sizing(match sizing {
                SizingDoc::Fixed(n) => TaskSizing::Fixed(n),
                SizingDoc::PerProcessor(r) => TaskSizing::TasksPerProcessor(r),
            });
        }
        let mut sim = Simulation::new(cfg, policy).with_seed(self.seed);
        for (i, doc) in self.workload.iter().enumerate() {
            let program = build_program(doc)
                .map_err(|msg| err(0, format!("workload[{i}]"), ScenarioErrorKind::Invalid(msg)))?;
            for _ in 0..doc.count {
                sim.add_job(program.clone());
            }
        }
        if let Some(stream) = &self.stream {
            let (i, doc) = self
                .workload
                .iter()
                .enumerate()
                .find(|(_, p)| p.name == stream.program)
                .ok_or_else(|| {
                    err(
                        0,
                        "stream.program",
                        ScenarioErrorKind::Invalid(format!(
                            "stream references unknown program '{}'",
                            stream.program
                        )),
                    )
                })?;
            let program = build_program(doc)
                .map_err(|msg| err(0, format!("workload[{i}]"), ScenarioErrorKind::Invalid(msg)))?;
            let process = match &stream.arrivals {
                ArrivalDoc::Poisson { mean_gap } => ArrivalProcess::poisson(*mean_gap),
                ArrivalDoc::Trace(instants) => {
                    ArrivalProcess::trace(instants.iter().map(|&t| SimTime(t)).collect())
                }
            };
            sim.add_job_stream(program, process, stream.count);
        }
        Ok(sim)
    }
}

// ---------------------------------------------------------------------------
// Emitting
// ---------------------------------------------------------------------------

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn emit_dist(out: &mut String, d: &DistDoc) {
    match d {
        DistDoc::Zero => out.push_str(r#"{ "dist": "zero" }"#),
        DistDoc::Constant(t) => out.push_str(&format!(r#"{{ "dist": "constant", "ticks": {t} }}"#)),
        DistDoc::Uniform { lo, hi } => out.push_str(&format!(
            r#"{{ "dist": "uniform", "lo": {lo}, "hi": {hi} }}"#
        )),
        DistDoc::Exponential(mean) => {
            out.push_str(&format!(r#"{{ "dist": "exponential", "mean": {mean} }}"#))
        }
    }
}

impl Scenario {
    /// Serialize back to the scenario format.
    ///
    /// The emitted text is canonical (stable key order and layout) and
    /// re-parses to an equal [`Scenario`]: `parse(to_json(s)) == s`.
    pub fn to_json(&self) -> String {
        let mut o = String::new();
        o.push_str("{\n");
        o.push_str("  \"name\": ");
        push_escaped(&mut o, &self.name);
        o.push_str(",\n");
        o.push_str(&format!("  \"seed\": {},\n", self.seed));
        // --- machine ---
        let m = &self.machine;
        o.push_str("  \"machine\": {\n");
        o.push_str(&format!("    \"processors\": {},\n", m.processors));
        o.push_str(&format!("    \"ideal\": {},\n", m.ideal));
        if let Some(lanes) = m.lanes {
            o.push_str(&format!("    \"lanes\": {lanes},\n"));
        }
        if let Some(shards) = m.shards {
            o.push_str(&format!("    \"shards\": {shards},\n"));
        }
        o.push_str("    \"classes\": [");
        for (i, c) in m.classes.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n      { \"name\": ");
            push_escaped(&mut o, &c.name);
            o.push_str(&format!(
                ", \"count\": {}, \"speed_percent\": {}, \"affinity\": \"{}\" }}",
                c.count,
                c.speed_percent,
                match c.affinity {
                    AffinityDoc::Any => "any",
                    AffinityDoc::ElevatedOnly => "elevated_only",
                    AffinityDoc::NormalOnly => "normal_only",
                }
            ));
        }
        if !m.classes.is_empty() {
            o.push_str("\n    ");
        }
        o.push_str("],\n");
        o.push_str("    \"resources\": [");
        for (i, p) in m.resources.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n      { \"name\": ");
            push_escaped(&mut o, &p.name);
            o.push_str(&format!(", \"tokens\": {} }}", p.tokens));
        }
        if !m.resources.is_empty() {
            o.push_str("\n    ");
        }
        o.push_str("],\n");
        o.push_str("    \"admission\": ");
        match m.admission {
            AdmissionDoc::AcceptAll => o.push_str(r#"{ "policy": "accept_all" }"#),
            AdmissionDoc::BoundedDefer(n) => o.push_str(&format!(
                r#"{{ "policy": "bounded_defer", "max_in_flight": {n} }}"#
            )),
            AdmissionDoc::Shed(n) => {
                o.push_str(&format!(r#"{{ "policy": "shed", "max_in_flight": {n} }}"#))
            }
        }
        if let Some(f) = &m.faults {
            o.push_str(",\n    \"faults\": {\n");
            match &f.model {
                FaultModelDoc::Random {
                    time_to_failure,
                    time_to_repair,
                } => {
                    o.push_str("      \"model\": \"random\",\n");
                    o.push_str("      \"time_to_failure\": ");
                    emit_dist(&mut o, time_to_failure);
                    o.push_str(",\n      \"time_to_repair\": ");
                    emit_dist(&mut o, time_to_repair);
                    o.push_str(",\n");
                }
                FaultModelDoc::Scripted(events) => {
                    o.push_str("      \"model\": \"scripted\",\n");
                    o.push_str("      \"events\": [");
                    for (i, e) in events.iter().enumerate() {
                        if i > 0 {
                            o.push(',');
                        }
                        o.push_str(&format!(
                            "\n        {{ \"processor\": {}, \"crash_at\": {}, \"repair_after\": {} }}",
                            e.processor,
                            e.crash_at,
                            match e.repair_after {
                                Some(t) => t.to_string(),
                                None => "null".into(),
                            }
                        ));
                    }
                    if !events.is_empty() {
                        o.push_str("\n      ");
                    }
                    o.push_str("],\n");
                }
            }
            o.push_str("      \"retry\": ");
            match f.retry {
                RetryDoc::ReissueFront => o.push_str("\"reissue_front\""),
                RetryDoc::Abandon => o.push_str("\"abandon\""),
                RetryDoc::Bounded(n) => o.push_str(&format!(r#"{{ "bounded": {n} }}"#)),
            }
            o.push_str("\n    }");
        }
        o.push_str("\n  },\n");
        // --- workload ---
        o.push_str("  \"workload\": [");
        for (i, p) in self.workload.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("\n    {\n      \"name\": ");
            push_escaped(&mut o, &p.name);
            o.push_str(&format!(",\n      \"count\": {},\n", p.count));
            o.push_str("      \"phases\": [");
            for (j, ph) in p.phases.iter().enumerate() {
                if j > 0 {
                    o.push(',');
                }
                o.push_str("\n        { \"name\": ");
                push_escaped(&mut o, &ph.name);
                o.push_str(&format!(", \"granules\": {}, \"cost\": ", ph.granules));
                emit_dist(&mut o, &ph.cost);
                o.push_str(&format!(", \"lines\": {}", ph.lines));
                o.push_str(", \"requires\": [");
                for (r, req) in ph.requires.iter().enumerate() {
                    if r > 0 {
                        o.push_str(", ");
                    }
                    push_escaped(&mut o, req);
                }
                o.push(']');
                o.push_str(&format!(
                    ", \"mapping\": \"{}\" }}",
                    match ph.mapping {
                        MappingDoc::Null => "null",
                        MappingDoc::Identity => "identity",
                        MappingDoc::Universal => "universal",
                    }
                ));
            }
            o.push_str("\n      ]\n    }");
        }
        o.push_str("\n  ]");
        // --- stream ---
        if let Some(s) = &self.stream {
            o.push_str(",\n  \"stream\": {\n    \"program\": ");
            push_escaped(&mut o, &s.program);
            o.push_str(&format!(",\n    \"count\": {},\n", s.count));
            o.push_str("    \"arrivals\": ");
            match &s.arrivals {
                ArrivalDoc::Poisson { mean_gap } => o.push_str(&format!(
                    r#"{{ "process": "poisson", "mean_gap": {mean_gap} }}"#
                )),
                ArrivalDoc::Trace(instants) => {
                    o.push_str(r#"{ "process": "trace", "instants": ["#);
                    for (i, t) in instants.iter().enumerate() {
                        if i > 0 {
                            o.push_str(", ");
                        }
                        o.push_str(&t.to_string());
                    }
                    o.push_str("] }");
                }
            }
            o.push_str("\n  }");
        }
        // --- policy ---
        o.push_str(",\n  \"policy\": {\n");
        o.push_str(&format!("    \"overlap\": {}", self.policy.overlap));
        if let Some(sizing) = self.policy.sizing {
            o.push_str(",\n    \"sizing\": ");
            match sizing {
                SizingDoc::Fixed(n) => o.push_str(&format!(r#"{{ "fixed": {n} }}"#)),
                SizingDoc::PerProcessor(r) => o.push_str(&format!(r#"{{ "per_processor": {r} }}"#)),
            }
        }
        o.push_str("\n  }\n}\n");
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "machine": { "processors": 4 },
        "workload": [ {
            "name": "sweep",
            "phases": [ { "name": "p0", "granules": 32,
                          "cost": { "dist": "constant", "ticks": 10 } } ]
        } ]
    }"#;

    #[test]
    fn minimal_scenario_parses_and_runs() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.machine.processors, 4);
        assert_eq!(s.workload.len(), 1);
        assert_eq!(s.workload[0].count, 1);
        let report = s.build().unwrap().run().unwrap();
        assert_eq!(report.phases[0].stats.executed_granules, 32);
    }

    #[test]
    fn missing_processors_reports_line_and_path() {
        let text = "{\n  \"machine\": {},\n  \"workload\": []\n}";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.path, "machine.processors");
        assert_eq!(e.line, 2);
        assert_eq!(e.kind, ScenarioErrorKind::MissingField("processors".into()));
    }

    #[test]
    fn wrong_type_reports_expected_and_found() {
        let text = r#"{
            "machine": { "processors": "four" },
            "workload": []
        }"#;
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.path, "machine.processors");
        assert_eq!(e.line, 2);
        assert_eq!(
            e.kind,
            ScenarioErrorKind::WrongType {
                expected: "number",
                found: "string"
            }
        );
    }

    #[test]
    fn unknown_field_is_rejected_with_its_line() {
        let text = "{\n  \"machine\": {\n    \"processors\": 4,\n    \"procesors\": 8\n  },\n  \"workload\": []\n}";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.path, "machine.procesors");
        assert_eq!(e.kind, ScenarioErrorKind::UnknownField("procesors".into()));
    }

    #[test]
    fn undeclared_pool_reference_is_an_error() {
        let text = r#"{
            "machine": { "processors": 2 },
            "workload": [ {
                "name": "w",
                "phases": [ { "name": "p", "granules": 4,
                              "cost": { "dist": "constant", "ticks": 1 },
                              "requires": ["operator"] } ]
            } ]
        }"#;
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.path, "workload[0].phases[0].requires[0]");
        assert!(matches!(e.kind, ScenarioErrorKind::Invalid(ref m) if m.contains("operator")));
    }

    #[test]
    fn class_count_mismatch_surfaces_at_machine_block() {
        let text = r#"{
            "machine": {
                "processors": 4,
                "classes": [ { "name": "fast", "count": 1 } ]
            },
            "workload": [ {
                "name": "w",
                "phases": [ { "name": "p", "granules": 4,
                              "cost": { "dist": "constant", "ticks": 1 } } ]
            } ]
        }"#;
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.path, "machine");
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ScenarioErrorKind::Invalid(_)));
    }

    #[test]
    fn identity_mapping_granule_mismatch_is_caught() {
        let text = r#"{
            "machine": { "processors": 2 },
            "workload": [ {
                "name": "w",
                "phases": [
                    { "name": "a", "granules": 4,
                      "cost": { "dist": "constant", "ticks": 1 },
                      "mapping": "identity" },
                    { "name": "b", "granules": 8,
                      "cost": { "dist": "constant", "ticks": 1 } }
                ]
            } ]
        }"#;
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.path, "workload[0].phases[0].mapping");
        assert!(matches!(e.kind, ScenarioErrorKind::Invalid(_)));
    }

    #[test]
    fn stream_must_reference_a_declared_program() {
        let text = r#"{
            "machine": { "processors": 2 },
            "workload": [ {
                "name": "w", "count": 0,
                "phases": [ { "name": "p", "granules": 4,
                              "cost": { "dist": "constant", "ticks": 1 } } ]
            } ],
            "stream": { "program": "nope", "count": 3,
                        "arrivals": { "process": "poisson", "mean_gap": 100 } }
        }"#;
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.path, "stream.program");
        assert!(matches!(e.kind, ScenarioErrorKind::Invalid(ref m) if m.contains("nope")));
    }

    #[test]
    fn syntax_errors_carry_the_line() {
        let e = Scenario::parse("{\n  \"machine\": {\n").unwrap_err();
        assert!(matches!(e.kind, ScenarioErrorKind::Syntax(_)));
        assert_eq!(e.line, 3);
    }

    #[test]
    fn full_featured_scenario_round_trips() {
        let s = Scenario {
            name: "kitchen sink".into(),
            seed: 42,
            machine: MachineDoc {
                processors: 8,
                ideal: true,
                lanes: Some(2),
                shards: Some(4),
                classes: vec![
                    ClassDoc {
                        name: "fast".into(),
                        count: 2,
                        speed_percent: 200,
                        affinity: AffinityDoc::Any,
                    },
                    ClassDoc {
                        name: "base".into(),
                        count: 6,
                        speed_percent: 100,
                        affinity: AffinityDoc::NormalOnly,
                    },
                ],
                resources: vec![PoolDoc {
                    name: "operator".into(),
                    tokens: 2,
                }],
                admission: AdmissionDoc::BoundedDefer(4),
                faults: Some(FaultDoc {
                    model: FaultModelDoc::Scripted(vec![FaultEventDoc {
                        processor: 0,
                        crash_at: 100,
                        repair_after: None,
                    }]),
                    retry: RetryDoc::Bounded(3),
                }),
            },
            workload: vec![ProgramDoc {
                name: "sweep".into(),
                count: 2,
                phases: vec![
                    PhaseDoc {
                        name: "a".into(),
                        granules: 16,
                        cost: DistDoc::Uniform { lo: 5, hi: 15 },
                        lines: 37,
                        requires: vec!["operator".into()],
                        mapping: MappingDoc::Identity,
                    },
                    PhaseDoc {
                        name: "b".into(),
                        granules: 16,
                        cost: DistDoc::Exponential(10),
                        lines: 0,
                        requires: vec![],
                        mapping: MappingDoc::Null,
                    },
                ],
            }],
            stream: Some(StreamDoc {
                program: "sweep".into(),
                count: 5,
                arrivals: ArrivalDoc::Poisson { mean_gap: 500 },
            }),
            policy: PolicyDoc {
                overlap: true,
                sizing: Some(SizingDoc::Fixed(2)),
            },
        };
        let text = s.to_json();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn calendar_forms_parse_build_and_round_trip() {
        let base = |cal: &str| {
            format!(
                r#"{{
            "machine": {{ "processors": 2, "calendar": {cal} }},
            "workload": [ {{
                "name": "w",
                "phases": [ {{ "name": "p", "granules": 4,
                              "cost": {{ "dist": "constant", "ticks": 1 }} }} ]
            }} ]
        }}"#
            )
        };
        // The key is optional; both spellings of the one backend parse
        // to the document an absent key gives, build, and round-trip.
        let absent =
            Scenario::parse(&base(r#""heap""#).replace(r#", "calendar": "heap""#, "")).unwrap();
        for cal in [r#""heap""#, r#"{ "kind": "heap" }"#] {
            let s = Scenario::parse(&base(cal)).unwrap();
            assert_eq!(s, absent, "{cal}");
            assert_eq!(s.machine.to_config().validate(), Ok(()));
            assert_eq!(Scenario::parse(&s.to_json()).unwrap(), s);
        }
    }

    #[test]
    fn calendar_diagnostics_carry_line_and_path() {
        let base = |cal: &str| {
            format!(
                "{{\n  \"machine\": {{ \"processors\": 2,\n    \"calendar\": {cal} }},\n  \
                 \"workload\": [ {{ \"name\": \"w\",\n    \"phases\": [ {{ \"name\": \"p\", \
                 \"granules\": 4, \"cost\": {{ \"dist\": \"constant\", \"ticks\": 1 }} }} ] }} ]\n}}"
            )
        };
        let e = Scenario::parse(&base("\"tree\"")).unwrap_err();
        assert_eq!(e.path, "machine.calendar");
        assert_eq!(e.line, 3);
        assert!(matches!(e.kind, ScenarioErrorKind::Invalid(ref m) if m.contains("'tree'")));
        let e = Scenario::parse(&base("{ \"kind\": \"tree\" }")).unwrap_err();
        assert_eq!(e.path, "machine.calendar");
        assert!(matches!(e.kind, ScenarioErrorKind::Invalid(ref m) if m.contains("'tree'")));
        // The removed backends and their geometry keys are named, never
        // silently ignored.
        for cal in [
            "\"wheel\"",
            "\"hier\"",
            "\"auto\"",
            "{ \"kind\": \"hier\" }",
            "{ \"kind\": \"heap\", \"slots\": 4 }",
            "{ \"kind\": \"hier\", \"bucket_ticks\": 8 }",
            "{ \"kind\": \"heap\", \"levels\": 0 }",
        ] {
            let e = Scenario::parse(&base(cal)).unwrap_err();
            assert_eq!(e.path, "machine.calendar", "{cal}");
            assert_eq!(e.line, 3, "{cal}");
            assert!(
                matches!(e.kind, ScenarioErrorKind::Invalid(ref m) if m.contains("removed in favour of the binary heap")),
                "{cal}: {e}"
            );
        }
        // Any other key is caught by the object key check.
        let e = Scenario::parse(&base("{ \"kind\": \"heap\", \"rings\": 4 }")).unwrap_err();
        assert_eq!(e.path, "machine.calendar.rings");
        assert!(matches!(e.kind, ScenarioErrorKind::UnknownField(_)));
    }

    #[test]
    fn classes_affect_the_built_run() {
        let text = r#"{
            "machine": {
                "processors": 1,
                "ideal": true,
                "classes": [ { "name": "slow", "count": 1, "speed_percent": 50 } ]
            },
            "workload": [ {
                "name": "w",
                "phases": [ { "name": "p", "granules": 8,
                              "cost": { "dist": "constant", "ticks": 10 } } ]
            } ],
            "policy": { "sizing": { "fixed": 1 } }
        }"#;
        let r = Scenario::parse(text)
            .unwrap()
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r.makespan.ticks(), 160);
        assert_eq!(r.class_reports[0].tasks, 8);
    }

    #[test]
    fn scenario_runs_are_deterministic() {
        let text = r#"{
            "seed": 7,
            "machine": { "processors": 4, "ideal": true },
            "workload": [ {
                "name": "w", "count": 0,
                "phases": [ { "name": "p", "granules": 16,
                              "cost": { "dist": "exponential", "mean": 20 } } ]
            } ],
            "stream": { "program": "w", "count": 6,
                        "arrivals": { "process": "poisson", "mean_gap": 200 } }
        }"#;
        let a = Scenario::parse(text)
            .unwrap()
            .build()
            .unwrap()
            .run()
            .unwrap();
        let b = Scenario::parse(text)
            .unwrap()
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.compute_time, b.compute_time);
    }
}
