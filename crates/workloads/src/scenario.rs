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
//! reader (`scenario/json.rs`) tracks the line of every value. The tree
//! is read for shape into the engine's own config types, one key table a
//! block, and the document is then checked as a whole, so a shape error
//! anywhere is reported before any cross-reference error. Every error —
//! a syntax slip, a missing field, a wrong type, an unknown or repeated
//! key, a reference to an undeclared resource pool — surfaces as a typed
//! [`ScenarioError`] carrying the offending line and a dotted field path
//! (`machine.classes[1].count`), not a panic or a bare string.
//! [`Scenario::to_json`] writes through the same tree.
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
use std::fmt;

mod json;
use json::{Json, Node};

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
    /// mismatch, repeated key, reference to an undeclared name, ...).
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

type Result<T, E = ScenarioError> = std::result::Result<T, E>;

fn err(line: usize, path: impl Into<String>, kind: ScenarioErrorKind) -> ScenarioError {
    ScenarioError {
        line,
        path: path.into(),
        kind,
    }
}

// ---------------------------------------------------------------------------
// Limits (documented in docs/SCENARIO_FORMAT.md, "Limits"; the nesting
// depth is the reader's, in json.rs)
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Reading and writing the value tree
// ---------------------------------------------------------------------------

/// Where a value sits in the document: a chain of keys and indices
/// borrowed from the readers above it, formatted only into an error.
#[derive(Clone, Copy)]
enum Path<'a> {
    Root,
    Key(&'a Path<'a>, &'a str),
    Index(&'a Path<'a>, usize),
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => f.write_str("$"),
            Path::Key(Path::Root, key) => f.write_str(key),
            Path::Key(parent, key) => write!(f, "{parent}.{key}"),
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// One value of the document and its path.
struct Val<'a> {
    node: &'a Node,
    path: Path<'a>,
}

impl<'a> Val<'a> {
    fn invalid(&self, msg: impl Into<String>) -> ScenarioError {
        let kind = ScenarioErrorKind::Invalid(msg.into());
        err(self.node.line, self.path.to_string(), kind)
    }

    fn wrong(&self, expected: &'static str) -> ScenarioError {
        let found = self.node.type_name();
        let kind = ScenarioErrorKind::WrongType { expected, found };
        err(self.node.line, self.path.to_string(), kind)
    }

    /// The value as an object whose keys are each in `keys` or `more`,
    /// and each given once.
    fn obj_of(&self, keys: &[&str], more: &[&str]) -> Result<Obj<'_>> {
        let Json::Obj(fields) = &self.node.v else {
            return Err(self.wrong("object"));
        };
        let o = Obj { v: self };
        // Keys before `i` are known and distinct, so the scan is short.
        for (i, (k, v)) in fields.iter().enumerate() {
            if !keys.contains(&k.as_str()) && !more.contains(&k.as_str()) {
                let kind = ScenarioErrorKind::UnknownField(k.clone());
                return Err(o.key_error(v.line, k, kind));
            }
            if fields[..i].iter().any(|(seen, _)| seen == k) {
                let kind = ScenarioErrorKind::Invalid(format!("duplicate key '{k}'"));
                return Err(o.key_error(v.line, k, kind));
            }
        }
        Ok(o)
    }

    fn obj(&self, keys: &[&str]) -> Result<Obj<'_>> {
        self.obj_of(keys, &[])
    }

    /// The value as an object tagged by `key`: the tag picks a row of
    /// `table`, and the object takes `key` and that row's keys only.
    fn variant<T>(&self, key: &str, table: Tags<T>, what: &str) -> Result<(&'static T, Obj<'_>)> {
        let Json::Obj(_) = &self.node.v else {
            return Err(self.wrong("object"));
        };
        let (_, value, keys) = Obj { v: self }.req_with(key, |tag| tag.row(table, what, None))?;
        Ok((value, self.obj_of(&[key], keys)?))
    }

    fn items(&self) -> Result<Vec<Val<'_>>> {
        let Json::Arr(items) = &self.node.v else {
            return Err(self.wrong("array"));
        };
        let at = |(i, node)| Val {
            node,
            path: Path::Index(&self.path, i),
        };
        Ok(items.iter().enumerate().map(at).collect())
    }

    fn str(&self) -> Result<&'a str> {
        match &self.node.v {
            Json::Str(s) => Ok(s),
            _ => Err(self.wrong("string")),
        }
    }

    /// A finite number that is `ok`, which `expected` describes.
    fn real(&self, ok: impl Fn(f64) -> bool, expected: &str) -> Result<f64> {
        match self.node.v {
            Json::Num(x) if x.is_finite() && ok(x) => Ok(x),
            Json::Num(x) => Err(self.invalid(format!("expected {expected}, found {x}"))),
            _ => Err(self.wrong("number")),
        }
    }

    /// The row of `table` this string tags. An unknown tag is told the
    /// table's tags, and `more`, a form of the value that is not a tag.
    fn row<T>(&self, table: Tags<T>, what: &str, more: Option<&str>) -> Result<&'static Row<T>> {
        let s = self.str()?;
        if let Some(row) = table.iter().find(|(tag, ..)| *tag == s) {
            return Ok(row);
        }
        let tags = table.iter().map(|(tag, ..)| format!("'{tag}'"));
        let alternatives: Vec<String> = tags.chain(more.map(String::from)).collect();
        let expected = match alternatives.as_slice() {
            [a, b] => format!("{a} or {b}"),
            [init @ .., last] if !init.is_empty() => format!("{}, or {last}", init.join(", ")),
            _ => alternatives.concat(),
        };
        Err(self.invalid(format!("unknown {what} '{s}' (expected {expected})")))
    }

    /// Decode a string tag through `table`.
    fn tag<T: Copy>(&self, table: Tags<T>, what: &str, more: Option<&str>) -> Result<T> {
        Ok(self.row(table, what, more)?.1)
    }
}

/// An object of the document whose keys are checked: field access by
/// key.
struct Obj<'a> {
    v: &'a Val<'a>,
}

impl<'a> Obj<'a> {
    /// An error at `key` of this object. A key of the document itself
    /// is named `$.key` here (a value read from it, plain `key`).
    fn key_error(&self, line: usize, key: &str, kind: ScenarioErrorKind) -> ScenarioError {
        err(line, format!("{}.{key}", self.v.path), kind)
    }

    fn get(&self, key: &str) -> Option<&'a Node> {
        self.v.node.get(key)
    }

    fn maybe_with<T>(&self, key: &str, read: impl FnOnce(&Val) -> Result<T>) -> Result<Option<T>> {
        let at = |node| Val {
            node,
            path: Path::Key(&self.v.path, key),
        };
        self.get(key).map(|node| read(&at(node))).transpose()
    }

    fn req_with<T>(&self, key: &str, read: impl FnOnce(&Val) -> Result<T>) -> Result<T> {
        let missing = ScenarioErrorKind::MissingField(key.into());
        self.maybe_with(key, read)?
            .ok_or_else(|| self.key_error(self.v.node.line, key, missing))
    }

    fn maybe<T: Field>(&self, key: &str) -> Result<Option<T>> {
        self.maybe_with(key, T::read)
    }

    fn req<T: Field>(&self, key: &str) -> Result<T> {
        self.req_with(key, T::read)
    }

    fn opt<T: Field>(&self, key: &str, default: T) -> Result<T> {
        Ok(self.maybe(key)?.unwrap_or(default))
    }
}

/// A value of the format: read from the tree the JSON reader builds,
/// and written as the same tree.
trait Field: Sized {
    fn read(v: &Val) -> Result<Self>;
    fn write(&self) -> Json;
}

impl Field for u64 {
    fn read(v: &Val) -> Result<u64> {
        match v.node.v {
            Json::Num(n) if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 => {
                Ok(n as u64)
            }
            Json::Num(n) => Err(v.invalid(format!("expected a non-negative integer, found {n}"))),
            _ => Err(v.wrong("number")),
        }
    }

    fn write(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl Field for u32 {
    fn read(v: &Val) -> Result<u32> {
        let n = u64::read(v)?;
        u32::try_from(n).map_err(|_| v.invalid(format!("{n} does not fit in 32 bits")))
    }

    fn write(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}

impl Field for usize {
    fn read(v: &Val) -> Result<usize> {
        Ok(u64::read(v)? as usize)
    }

    fn write(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl Field for bool {
    fn read(v: &Val) -> Result<bool> {
        match v.node.v {
            Json::Bool(b) => Ok(b),
            _ => Err(v.wrong("boolean")),
        }
    }

    fn write(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Field for String {
    fn read(v: &Val) -> Result<String> {
        Ok(v.str()?.to_string())
    }

    fn write(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: Field> Field for Vec<T> {
    fn read(v: &Val) -> Result<Vec<T>> {
        v.items()?.iter().map(T::read).collect()
    }

    fn write(&self) -> Json {
        arr(self, T::write)
    }
}

/// A value or `null`; written, `None` leaves its key out.
impl<T: Field> Field for Option<T> {
    fn read(v: &Val) -> Result<Option<T>> {
        match v.node.v {
            Json::Null => Ok(None),
            _ => T::read(v).map(Some),
        }
    }

    fn write(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::write)
    }
}

fn arr<T>(items: &[T], write: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(|item| write(item).into()).collect())
}

/// An object of `fields` in this order, less those that are `null`.
fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
    let present = fields.into_iter().filter(|(_, v)| !matches!(v, Json::Null));
    Json::Obj(present.map(|(k, v)| (k.to_string(), v.into())).collect())
}

/// A plain block of the format as one table: each row names a key, which
/// is also the field it fills, and its rule — `req` (required), `maybe`
/// (absent is `None`) or `opt(default)`. The table is the block's key
/// check, its reader and its writer, in row order; `accepts` lists keys
/// the block takes but does not store.
macro_rules! block {
    ($ty:ident $(accepts [$($more:literal),*])? {
        $($key:ident: $rule:ident $(($default:expr))?),* $(,)?
    }) => {
        impl Field for $ty {
            fn read(v: &Val) -> Result<$ty> {
                let o = v.obj_of(&[$(stringify!($key)),*], &[$($($more),*)?])?;
                Ok($ty {
                    $($key: o.$rule(stringify!($key) $(, $default)?)?),*
                })
            }

            fn write(&self) -> Json {
                obj([$((stringify!($key), self.$key.write())),*])
            }
        }
    };
}

/// The tags of an enum's variants: the one list its reader decodes and
/// its writer encodes through, a data-carrying variant standing for
/// every value of its kind. A variant written as an object also lists
/// the keys it takes besides its tag; one written as a bare tag, none.
type Tags<T> = &'static [Row<T>];
type Row<T> = (&'static str, T, &'static [&'static str]);

/// The row of `value`'s variant.
fn row_of<T>(table: Tags<T>, value: &T) -> &'static Row<T> {
    let kind = std::mem::discriminant(value);
    let row = table
        .iter()
        .find(|(_, v, _)| std::mem::discriminant(v) == kind);
    row.expect("a row for every variant written")
}

/// The tag of `value`'s variant.
fn tag_of<T>(table: Tags<T>, value: &T) -> Json {
    Json::Str(row_of(table, value).0.to_string())
}

/// `value` as an object: its tag under `key`, then its row's keys with
/// `fields`, in the row's order.
fn tagged<T>(key: &str, table: Tags<T>, value: &T, fields: Vec<Json>) -> Json {
    let (tag, _, keys) = row_of(table, value);
    debug_assert_eq!(keys.len(), fields.len(), "a field for each key of '{tag}'");
    let tag = (key, Json::Str(tag.to_string()));
    obj(std::iter::once(tag).chain(keys.iter().copied().zip(fields)))
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

block!(Scenario {
    name: opt(String::new()),
    seed: opt(0),
    machine: req,
    workload: req,
    stream: maybe,
    policy: opt(PolicyDoc::default()),
});

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
    pub classes: Vec<ProcessorClass>,
    /// Secondary-resource token pools (empty = processors only).
    pub resources: Vec<ResourcePool>,
    /// Admission policy for arrivals.
    pub admission: AdmissionPolicy,
    /// Optional fault-injection plan.
    pub faults: Option<FaultPlan>,
}

// `calendar` is read by the check pass (`check_calendar`), not stored.
block!(MachineDoc accepts ["calendar"] {
    processors: req,
    ideal: opt(false),
    lanes: maybe,
    shards: maybe,
    classes: opt(Vec::new()),
    resources: opt(Vec::new()),
    admission: opt(AdmissionPolicy::AcceptAll),
    faults: maybe,
});

/// `machine.calendar` names the future-event list. There is one
/// (`"heap"` is its frozen spelling), so the key is optional and accepts
/// `"heap"` or `{ "kind": "heap" }` only; the removed backends and their
/// geometry keys are rejected by name so an old file fails loudly
/// instead of running on a calendar it did not ask for.
fn check_calendar(v: &Val) -> Result<()> {
    let invalid = |line, msg| err(line, v.path.to_string(), ScenarioErrorKind::Invalid(msg));
    let removed = |what: String, line| {
        let msg = "was removed in favour of the binary heap; use \"heap\" or drop the key";
        invalid(line, format!("{what} {msg}"))
    };
    let named = |name: &str, line| match name {
        "heap" => Ok(()),
        "wheel" | "hier" | "auto" => Err(removed(format!("calendar backend '{name}'"), line)),
        _ => Err(invalid(
            line,
            format!("unknown calendar '{name}' (expected 'heap')"),
        )),
    };
    if let Json::Str(name) = &v.node.v {
        return named(name, v.node.line);
    }
    for key in ["slots", "bucket_ticks", "levels"] {
        if let Some(n) = v.node.get(key) {
            return Err(removed(format!("calendar geometry key '{key}'"), n.line));
        }
    }
    v.obj(&["kind"])?
        .req_with("kind", |kind| named(kind.str()?, kind.node.line))
}

block!(ProcessorClass {
    name: req,
    count: req,
    speed_percent: opt(100),
    affinity: opt(ClassAffinity::Any),
});

const AFFINITIES: Tags<ClassAffinity> = &[
    ("any", ClassAffinity::Any, &[]),
    ("elevated_only", ClassAffinity::ElevatedOnly, &[]),
    ("normal_only", ClassAffinity::NormalOnly, &[]),
];

impl Field for ClassAffinity {
    fn read(v: &Val) -> Result<ClassAffinity> {
        v.tag(AFFINITIES, "affinity", None)
    }

    fn write(&self) -> Json {
        tag_of(AFFINITIES, self)
    }
}

block!(ResourcePool {
    name: req,
    tokens: req,
});

const ADMISSIONS: Tags<AdmissionPolicy> = &[
    ("accept_all", AdmissionPolicy::AcceptAll, &[]),
    (
        "bounded_defer",
        AdmissionPolicy::BoundedDefer { max_in_flight: 0 },
        &["max_in_flight"],
    ),
    (
        "shed",
        AdmissionPolicy::Shed { max_in_flight: 0 },
        &["max_in_flight"],
    ),
];

impl Field for AdmissionPolicy {
    fn read(v: &Val) -> Result<AdmissionPolicy> {
        let (policy, o) = v.variant("policy", ADMISSIONS, "admission policy")?;
        Ok(match policy {
            AdmissionPolicy::AcceptAll => AdmissionPolicy::AcceptAll,
            AdmissionPolicy::BoundedDefer { .. } => AdmissionPolicy::BoundedDefer {
                max_in_flight: o.req("max_in_flight")?,
            },
            AdmissionPolicy::Shed { .. } => AdmissionPolicy::Shed {
                max_in_flight: o.req("max_in_flight")?,
            },
        })
    }

    fn write(&self) -> Json {
        let fields = match *self {
            AdmissionPolicy::AcceptAll => vec![],
            AdmissionPolicy::BoundedDefer { max_in_flight }
            | AdmissionPolicy::Shed { max_in_flight } => vec![max_in_flight.write()],
        };
        tagged("policy", ADMISSIONS, self, fields)
    }
}

/// `machine.faults`: the model's tag picks its keys; `retry` is
/// optional in either.
const FAULT_MODELS: Tags<FaultModel> = &[
    (
        "random",
        FaultModel::Random {
            time_to_failure: DurationDist::constant(0),
            time_to_repair: DurationDist::constant(0),
        },
        &["time_to_failure", "time_to_repair", "retry"],
    ),
    (
        "scripted",
        FaultModel::Scripted(Vec::new()),
        &["events", "retry"],
    ),
];

impl Field for FaultPlan {
    fn read(v: &Val) -> Result<FaultPlan> {
        let (model, o) = v.variant("model", FAULT_MODELS, "fault model")?;
        let model = match model {
            FaultModel::Random { .. } => FaultModel::Random {
                time_to_failure: o.req("time_to_failure")?,
                time_to_repair: o.req("time_to_repair")?,
            },
            FaultModel::Scripted(_) => FaultModel::Scripted(o.req("events")?),
        };
        let retry = o.opt("retry", RetryPolicy::ReissueFront)?;
        Ok(FaultPlan { model, retry })
    }

    fn write(&self) -> Json {
        let retry = self.retry.write();
        let fields = match &self.model {
            FaultModel::Random {
                time_to_failure,
                time_to_repair,
            } => vec![time_to_failure.write(), time_to_repair.write(), retry],
            FaultModel::Scripted(events) => vec![events.write(), retry],
        };
        tagged("model", FAULT_MODELS, &self.model, fields)
    }
}

block!(ScriptedFault {
    processor: req,
    crash_at: req,
    repair_after: opt(None),
});

/// `{ "bounded": N }` is the one retry policy that is not a tag.
const RETRIES: Tags<RetryPolicy> = &[("reissue_front", RetryPolicy::ReissueFront, &[])];

impl Field for RetryPolicy {
    fn read(v: &Val) -> Result<RetryPolicy> {
        match v.node.v {
            Json::Str(_) => v.tag(RETRIES, "retry policy", Some("{\"bounded\": N}")),
            Json::Obj(_) => Ok(RetryPolicy::Bounded {
                max_attempts: v.obj(&["bounded"])?.req("bounded")?,
            }),
            _ => Err(v.wrong("string or object")),
        }
    }

    fn write(&self) -> Json {
        match *self {
            RetryPolicy::Bounded { max_attempts } => obj([("bounded", max_attempts.write())]),
            _ => tag_of(RETRIES, self),
        }
    }
}

/// Phase costs and fault spans.
const DISTS: Tags<DurationDist> = &[
    ("constant", DurationDist::constant(0), &["ticks"]),
    ("uniform", DurationDist::uniform(0, 0), &["lo", "hi"]),
    ("exponential", DurationDist::exponential(0), &["mean"]),
    (
        "bimodal",
        DurationDist::bimodal(0, 0, 0.0),
        &["short", "long", "p_long"],
    ),
];

impl Field for DurationDist {
    fn read(v: &Val) -> Result<DurationDist> {
        let (dist, o) = v.variant("dist", DISTS, "distribution")?;
        Ok(match dist {
            DurationDist::Constant(_) => DurationDist::constant(o.req("ticks")?),
            DurationDist::Uniform { .. } => {
                let lo = o.req("lo")?;
                let hi = o.req_with("hi", |hi| match u64::read(hi)? {
                    n if n < lo => Err(hi.invalid(format!(
                        "a uniform distribution needs lo <= hi, found lo {lo} and hi {n}"
                    ))),
                    n => Ok(n),
                })?;
                DurationDist::uniform(lo, hi)
            }
            DurationDist::Exponential { .. } => DurationDist::exponential(o.req("mean")?),
            DurationDist::Bimodal { .. } => DurationDist::Bimodal {
                short: SimDuration(o.req("short")?),
                long: SimDuration(o.req("long")?),
                p_long: o.req_with("p_long", |p| {
                    p.real(|x| (0.0..=1.0).contains(&x), "a number in [0, 1]")
                })?,
            },
        })
    }

    fn write(&self) -> Json {
        let ticks = |d: SimDuration| d.0.write();
        let fields = match *self {
            DurationDist::Constant(t) | DurationDist::Exponential { mean: t } => vec![ticks(t)],
            DurationDist::Uniform { lo, hi } => vec![ticks(lo), ticks(hi)],
            DurationDist::Bimodal {
                short,
                long,
                p_long,
            } => vec![ticks(short), ticks(long), Json::Num(p_long)],
        };
        tagged("dist", DISTS, self, fields)
    }
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

block!(ProgramDoc {
    name: req,
    count: opt(1),
    phases: req,
});

/// One phase of a scenario program (`workload[i].phases[j]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDoc {
    /// Phase name.
    pub name: String,
    /// Granules dispatched per execution.
    pub granules: u32,
    /// Per-granule cost distribution.
    pub cost: DurationDist,
    /// Census line weight (default 0).
    pub lines: u32,
    /// Secondary-resource pools a task must hold one token from.
    pub requires: Vec<String>,
    /// Enablement mapping into the *next* phase (ignored on the last).
    pub mapping: MappingDoc,
}

block!(PhaseDoc {
    name: req,
    granules: req,
    cost: req,
    lines: opt(0),
    requires: opt(Vec::new()),
    mapping: opt(MappingDoc::Null),
});

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

impl MappingDoc {
    /// The engine's mapping of this spelling.
    fn mapping(self) -> EnablementMapping {
        match self {
            MappingDoc::Null => EnablementMapping::Null,
            MappingDoc::Identity => EnablementMapping::Identity,
            MappingDoc::Universal => EnablementMapping::Universal,
        }
    }
}

const MAPPINGS: Tags<MappingDoc> = &[
    ("null", MappingDoc::Null, &[]),
    ("identity", MappingDoc::Identity, &[]),
    ("universal", MappingDoc::Universal, &[]),
];

impl Field for MappingDoc {
    fn read(v: &Val) -> Result<MappingDoc> {
        v.tag(MAPPINGS, "mapping", None)
    }

    fn write(&self) -> Json {
        tag_of(MAPPINGS, self)
    }
}

/// The `stream` block: an open-system arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamDoc {
    /// Name of the workload program to instantiate.
    pub program: String,
    /// Jobs to admit.
    pub count: usize,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
}

block!(StreamDoc {
    program: req,
    count: req,
    arrivals: req,
});

/// `stream.arrivals`.
const ARRIVALS: Tags<ArrivalProcess> = &[
    ("poisson", ArrivalProcess::poisson(0), &["mean_gap"]),
    ("trace", ArrivalProcess::Trace(Vec::new()), &["instants"]),
];

impl Field for ArrivalProcess {
    fn read(v: &Val) -> Result<ArrivalProcess> {
        let (process, o) = v.variant("process", ARRIVALS, "arrival process")?;
        Ok(match process {
            ArrivalProcess::Poisson { .. } => ArrivalProcess::poisson(o.req("mean_gap")?),
            // In time order, whatever order the file lists them in.
            ArrivalProcess::Trace(_) => {
                let instants: Vec<u64> = o.req("instants")?;
                ArrivalProcess::trace(instants.into_iter().map(SimTime).collect())
            }
        })
    }

    fn write(&self) -> Json {
        let fields = match self {
            ArrivalProcess::Poisson { mean } => mean.0.write(),
            ArrivalProcess::Trace(instants) => arr(instants, |t| t.0.write()),
        };
        tagged("process", ARRIVALS, self, vec![fields])
    }
}

/// The `policy` block.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyDoc {
    /// `true` enables phase overlap (the paper's treatment machine).
    pub overlap: bool,
    /// Optional task-sizing override.
    pub sizing: Option<TaskSizing>,
}

block!(PolicyDoc {
    overlap: opt(false),
    sizing: maybe,
});

impl Field for TaskSizing {
    fn read(v: &Val) -> Result<TaskSizing> {
        let o = v.obj(&["fixed", "per_processor"])?;
        match (o.get("fixed"), o.get("per_processor")) {
            (Some(_), None) => Ok(TaskSizing::Fixed(o.req("fixed")?)),
            (None, Some(_)) => o.req_with("per_processor", |r| {
                let ratio = r.real(|x| x > 0.0, "a positive finite number")?;
                Ok(TaskSizing::TasksPerProcessor(ratio))
            }),
            _ => Err(v.invalid("sizing takes exactly one of 'fixed' or 'per_processor'")),
        }
    }

    fn write(&self) -> Json {
        match *self {
            TaskSizing::Fixed(n) => obj([("fixed", n.write())]),
            TaskSizing::TasksPerProcessor(ratio) => obj([("per_processor", Json::Num(ratio))]),
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing and writing a document
// ---------------------------------------------------------------------------

impl Scenario {
    /// Parse and validate a scenario document.
    ///
    /// The document is read for shape first (types, required fields,
    /// unknown and repeated keys), then checked as a whole (machine-config
    /// consistency, resource-pool references, mapping granule counts,
    /// stream program names) and against the limits, each error reported
    /// at the offending line.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let root = json::parse(text)?;
        let scenario = Scenario::read(&Val {
            node: &root,
            path: Path::Root,
        })?;
        scenario.check(&root)?;
        scenario.check_limits(&root)?;
        Ok(scenario)
    }

    /// Read and parse a scenario file from disk.
    pub fn load_path(path: impl AsRef<std::path::Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let io = |e: std::io::Error| ScenarioErrorKind::Io(e.to_string());
        let text =
            std::fs::read_to_string(path).map_err(|e| err(0, path.display().to_string(), io(e)))?;
        Scenario::parse(&text)
    }

    /// Serialize back to the scenario format.
    ///
    /// The emitted text is canonical (stable key order and layout) and
    /// re-parses to an equal [`Scenario`]: `parse(to_json(s)) == s`.
    pub fn to_json(&self) -> String {
        self.write().pretty()
    }

    /// Check the rules that relate two values of a document whose shape
    /// is read, each at the line of the value it names. A valid document
    /// formats no path.
    fn check(&self, root: &Node) -> Result<()> {
        fn invalid(line: usize, path: impl Into<String>, msg: impl Into<String>) -> ScenarioError {
            err(line, path, ScenarioErrorKind::Invalid(msg.into()))
        }
        let machine = root.get("machine").unwrap_or(root);
        if let Some(node) = machine.get("calendar") {
            let parent = Path::Key(&Path::Root, "machine");
            let path = Path::Key(&parent, "calendar");
            check_calendar(&Val { node, path })?;
        }
        // Machine-config consistency (class counts, pool names, ...).
        (self.machine.to_config().validate())
            .map_err(|e| invalid(machine.line, "machine", e.to_string()))?;
        if self.workload.is_empty() {
            let msg = "workload must declare at least one program";
            return Err(invalid(root.line_of("workload"), "workload", msg));
        }
        let programs = root.get("workload").map_or(&[][..], Node::items);
        for (i, (p, node)) in self.workload.iter().zip(programs).enumerate() {
            // Duplicate program names make stream references ambiguous.
            if self.workload[..i].iter().any(|q| q.name == p.name) {
                let msg = format!("duplicate program name '{}'", p.name);
                let path = format!("workload[{i}].name");
                return Err(invalid(node.line_of("name"), path, msg));
            }
            if p.phases.is_empty() {
                let msg = "a program needs at least one phase";
                let path = format!("workload[{i}].phases");
                return Err(invalid(node.line_of("phases"), path, msg));
            }
            let phases = node.get("phases").map_or(&[][..], Node::items);
            let at = |j, key: &str| format!("workload[{i}].phases[{j}].{key}");
            for (j, (ph, item)) in p.phases.iter().zip(phases).enumerate() {
                if ph.granules == 0 {
                    let msg = "a phase needs at least one granule";
                    return Err(invalid(item.line_of("granules"), at(j, "granules"), msg));
                }
                let pools = &self.machine.resources;
                if let Err((k, what)) = ResourcePool::check_requires(pools, &ph.requires) {
                    let line = item.get("requires").map_or(0, |list| list.items()[k].line);
                    let path = at(j, &format!("requires[{k}]"));
                    return Err(invalid(line, path, format!("phase requires {what}")));
                }
            }
            // Each mapping must fit the two phases it connects.
            for (j, (pair, item)) in p.phases.windows(2).zip(phases).enumerate() {
                let (ph, next) = (&pair[0], &pair[1]);
                if let Err(e) = ph.mapping.mapping().check_edge(ph.granules, next.granules) {
                    let msg = format!("{e} into '{}'", next.name);
                    return Err(invalid(item.line, at(j, "mapping"), msg));
                }
            }
        }
        match &self.stream {
            Some(st) if !self.workload.iter().any(|p| p.name == st.program) => {
                let line = root.get("stream").map_or(0, |node| node.line_of("program"));
                let msg = format!("stream references unknown program '{}'", st.program);
                Err(invalid(line, "stream.program", msg))
            }
            _ => Ok(()),
        }
    }

    /// Reject a document that asks for more than the loader's limits,
    /// before anything is built from it: a size above its ceiling, or
    /// tick values whose sums over the run can leave `u64`, or a document
    /// that runs no job.
    ///
    /// The tick bound is the run's worst case on one processor — every
    /// job's granules at their costliest, on the slowest class, with the
    /// executive's charges, after the last arrival — and no machine takes
    /// longer than one processor does. Processor-time integrals multiply
    /// it by the processor count, and a dispatched task's scheduled end
    /// may lie a task past it; both must still fit. A crash adds its
    /// down-span and one re-executed task: each scripted one, and one of a
    /// random fault model. A random model can lose and redo work without
    /// limit, so under one the bound is necessary, not sufficient.
    fn check_limits(&self, root: &Node) -> Result<()> {
        let block = |key| root.get(key).unwrap_or(root);
        let (machine, programs, stream) =
            (block("machine"), block("workload").items(), block("stream"));
        // `path` names a field of `node`, whose value `size` is.
        let over = |size: usize, max: usize, node: &Node, path: &str| {
            if size <= max {
                return Ok(());
            }
            let line = node.line_of(path.rsplit('.').next().unwrap_or(path));
            let msg = format!("above the loader's ceiling of {max}");
            Err(err(line, path, ScenarioErrorKind::Invalid(msg)))
        };
        let m = &self.machine;
        over(m.processors, MAX_PROCESSORS, machine, "machine.processors")?;
        over(m.lanes.unwrap_or(0), MAX_LANES, machine, "machine.lanes")?;

        // Worst-case ticks, term by term; u128 with saturation, so the
        // bound itself cannot wrap.
        let slowest = m.classes.iter().map(|c| c.speed_percent).min();
        let slowdown = u128::from(100u32.div_ceil(slowest.unwrap_or(100).clamp(1, 100)));
        let task = |ph: &PhaseDoc| {
            u128::from(ph.granules)
                * (u128::from(ph.cost.max_ticks()) * slowdown + MANAGEMENT_TICKS_PER_GRANULE)
        };
        let mut terms: Vec<(u128, usize, String)> = Vec::new();
        let mut jobs = 0usize;
        for (i, (p, node)) in self.workload.iter().zip(programs).enumerate() {
            jobs = jobs.saturating_add(p.count);
            over(jobs, MAX_JOBS, node, &format!("workload[{i}].count"))?;
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
        if let Some(st) = &self.stream {
            over(
                jobs.saturating_add(st.count),
                MAX_JOBS,
                stream,
                "stream.count",
            )?;
            let (last, admitted) = match &st.arrivals {
                ArrivalProcess::Poisson { mean } => {
                    let gap = DurationDist::Exponential { mean: *mean }.max_ticks();
                    (u128::from(gap) * st.count as u128, st.count)
                }
                ArrivalProcess::Trace(instants) => {
                    let last = instants.iter().max().map_or(0, |t| t.0);
                    (last.into(), st.count.min(instants.len()))
                }
            };
            terms.push((last, stream.line_of("arrivals"), "stream.arrivals".into()));
            jobs += admitted;
        }
        if jobs == 0 {
            let (line, path) = match self.stream {
                Some(_) => (stream.line_of("count"), "stream.count"),
                None => (root.line_of("workload"), "workload"),
            };
            let msg =
                "the document runs no jobs: no program is added at t = 0 and no stream job arrives";
            return Err(err(line, path, ScenarioErrorKind::Invalid(msg.into())));
        }
        if let Some(plan) = &m.faults {
            let phases = self.workload.iter().flat_map(|p| &p.phases);
            let longest_task = phases.map(task).max().unwrap_or(0);
            // A crash costs its down span and the task it loses: each
            // scripted crash, and one crash of a random plan.
            let lost = match &plan.model {
                FaultModel::Scripted(events) => (events.iter())
                    .map(|e| u128::from(e.repair_after.unwrap_or(0)) + longest_task)
                    .fold(0, u128::saturating_add),
                FaultModel::Random { time_to_repair, .. } => {
                    u128::from(time_to_repair.max_ticks()) + longest_task
                }
            };
            terms.push((lost, machine.line_of("faults"), "machine.faults".into()));
        }
        let horizon = terms.iter().map(|t| t.0).fold(0, u128::saturating_add);
        let needed = horizon.saturating_mul(2 * m.processors.max(1) as u128);
        match terms.into_iter().max_by_key(|t| t.0) {
            Some((_, line, path)) if needed > u128::from(u64::MAX) => {
                let msg = format!(
                    "the run can last {horizon} ticks in the worst case, and {} processors' \
                     worth of twice that does not fit the engine's 64-bit tick arithmetic",
                    m.processors
                );
                Err(err(line, path, ScenarioErrorKind::Invalid(msg)))
            }
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

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
        cfg = cfg
            .with_classes(self.classes.clone())
            .with_resources(self.resources.clone())
            .with_admission(self.admission);
        if let Some(faults) = &self.faults {
            cfg = cfg.with_faults(faults.clone());
        }
        cfg
    }
}

fn build_program(doc: &ProgramDoc) -> Result<Program, String> {
    let phases = (doc.phases.iter())
        .map(|ph| {
            let cost = CostModel::new(ph.cost.clone());
            let def = PhaseDef::new(ph.name.clone(), ph.granules, cost).with_lines(ph.lines);
            def.with_requires(ph.requires.clone())
        })
        .collect();
    // The last phase's mapping leads nowhere and is not read.
    let into_next = &doc.phases[..doc.phases.len().saturating_sub(1)];
    Program::chain(
        phases,
        into_next.iter().map(|ph| ph.mapping.mapping()).collect(),
    )
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
            policy = policy.with_sizing(sizing);
        }
        let mut sim = Simulation::new(cfg, policy).with_seed(self.seed);
        let mut programs = Vec::with_capacity(self.workload.len());
        for (i, doc) in self.workload.iter().enumerate() {
            let program = build_program(doc)
                .map_err(|msg| err(0, format!("workload[{i}]"), ScenarioErrorKind::Invalid(msg)))?;
            for _ in 0..doc.count {
                sim.add_job(program.clone());
            }
            programs.push(program);
        }
        if let Some(stream) = &self.stream {
            let i = self
                .workload
                .iter()
                .position(|p| p.name == stream.program)
                .ok_or_else(|| {
                    let msg = format!("stream references unknown program '{}'", stream.program);
                    err(0, "stream.program", ScenarioErrorKind::Invalid(msg))
                })?;
            let process = stream.arrivals.clone();
            sim.add_job_stream(programs.swap_remove(i), process, stream.count);
        }
        Ok(sim)
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

        // A key of another variant than the tag picks is unknown too.
        let doc = |machine: &str, cost: &str, stream: &str| {
            format!(
                "{{\n\"machine\": {{ \"processors\": 2{machine} }},\n\
                 \"workload\": [ {{ \"name\": \"w\", \"phases\": [\n\
                 {{ \"name\": \"p\", \"granules\": 4, \"cost\": {cost} }} ] }} ]{stream}\n}}"
            )
        };
        let constant = r#"{ "dist": "constant", "ticks": 5 }"#;
        let cases = [
            (
                doc(
                    "",
                    "{ \"dist\": \"constant\", \"ticks\": 5,\n\"mean\": 9 }",
                    "",
                ),
                "workload[0].phases[0].cost.mean",
            ),
            (
                doc(
                    "",
                    "{ \"dist\": \"exponential\", \"mean\": 5,\n\"ticks\": 9 }",
                    "",
                ),
                "workload[0].phases[0].cost.ticks",
            ),
            (
                doc(
                    ", \"admission\": { \"policy\": \"accept_all\",\n\"max_in_flight\": 3 }",
                    constant,
                    "",
                ),
                "machine.admission.max_in_flight",
            ),
            (
                doc(
                    ", \"faults\": { \"model\": \"scripted\", \"events\": [],\n\
                     \"time_to_failure\": { \"dist\": \"zero\" } }",
                    constant,
                    "",
                ),
                "machine.faults.time_to_failure",
            ),
            (
                doc(
                    "",
                    constant,
                    ",\n\"stream\": { \"program\": \"w\", \"count\": 1, \"arrivals\":\n\
                     { \"process\": \"poisson\", \"mean_gap\": 9,\n\"instants\": [0] } }",
                ),
                "stream.arrivals.instants",
            ),
        ];
        for (text, path) in cases {
            let e = Scenario::parse(&text).unwrap_err();
            let key = path.rsplit('.').next().unwrap();
            assert_eq!(
                e.kind,
                ScenarioErrorKind::UnknownField(key.into()),
                "{text}"
            );
            assert_eq!(e.path, path, "{text}");
            let line = 1 + text
                .lines()
                .position(|l| l.contains(&format!("\"{key}\"")))
                .unwrap();
            assert_eq!(e.line, line, "{text}");
        }
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
        assert_eq!(e.line, 6);
        let ScenarioErrorKind::Invalid(msg) = e.kind else {
            panic!("{:?}", e.kind);
        };
        assert!(msg.contains("equal granule counts (4 vs 8)"), "{msg}");
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

    /// A document with every key the format defines but the random
    /// fault model's, the constant and bimodal distributions', the trace
    /// arrivals' and `per_processor`.
    fn kitchen_sink() -> Scenario {
        Scenario {
            name: "kitchen sink".into(),
            seed: 42,
            machine: MachineDoc {
                processors: 8,
                ideal: true,
                lanes: Some(2),
                shards: Some(4),
                classes: vec![
                    ProcessorClass {
                        name: "fast".into(),
                        count: 2,
                        speed_percent: 200,
                        affinity: ClassAffinity::Any,
                    },
                    ProcessorClass {
                        name: "base".into(),
                        count: 6,
                        speed_percent: 100,
                        affinity: ClassAffinity::NormalOnly,
                    },
                ],
                resources: vec![ResourcePool {
                    name: "operator".into(),
                    tokens: 2,
                }],
                admission: AdmissionPolicy::BoundedDefer { max_in_flight: 4 },
                faults: Some(FaultPlan {
                    model: FaultModel::Scripted(vec![
                        ScriptedFault {
                            processor: 0,
                            crash_at: 100,
                            repair_after: None,
                        },
                        ScriptedFault {
                            processor: 1,
                            crash_at: 200,
                            repair_after: Some(40),
                        },
                    ]),
                    retry: RetryPolicy::Bounded { max_attempts: 3 },
                }),
            },
            workload: vec![ProgramDoc {
                name: "sweep".into(),
                count: 2,
                phases: vec![
                    PhaseDoc {
                        name: "a".into(),
                        granules: 16,
                        cost: DurationDist::uniform(5, 15),
                        lines: 37,
                        requires: vec!["operator".into()],
                        mapping: MappingDoc::Identity,
                    },
                    PhaseDoc {
                        name: "b".into(),
                        granules: 16,
                        cost: DurationDist::exponential(10),
                        lines: 0,
                        requires: vec![],
                        mapping: MappingDoc::Null,
                    },
                ],
            }],
            stream: Some(StreamDoc {
                program: "sweep".into(),
                count: 5,
                arrivals: ArrivalProcess::poisson(500),
            }),
            policy: PolicyDoc {
                overlap: true,
                sizing: Some(TaskSizing::Fixed(2)),
            },
        }
    }

    /// The kitchen sink with the keys it leaves out.
    fn kitchen_sink_random() -> Scenario {
        let mut s = kitchen_sink();
        s.machine.faults = Some(FaultPlan {
            model: FaultModel::Random {
                time_to_failure: DurationDist::constant(5_000),
                time_to_repair: DurationDist::bimodal(100, 900, 0.125),
            },
            retry: RetryPolicy::ReissueFront,
        });
        s.workload[0].phases[0].cost = DurationDist::bimodal(3, 60, 0.25);
        s.workload[0].phases[1].cost = DurationDist::constant(0);
        let instants = vec![SimTime(0), SimTime(10), SimTime(250)];
        s.stream.as_mut().unwrap().arrivals = ArrivalProcess::trace(instants);
        s.policy.sizing = Some(TaskSizing::TasksPerProcessor(2.5));
        s
    }

    #[test]
    fn full_featured_scenario_round_trips() {
        for s in [kitchen_sink(), kitchen_sink_random()] {
            let text = s.to_json();
            let back = Scenario::parse(&text).unwrap();
            assert_eq!(back, s);
        }
    }

    /// Every key the writer emits has a row, `key`, in the format spec:
    /// a key added to the format without one fails here.
    #[test]
    fn every_written_key_is_documented() {
        fn keys<'a>(v: &'a Json, out: &mut Vec<&'a str>) {
            match v {
                Json::Arr(items) => items.iter().for_each(|n| keys(&n.v, out)),
                Json::Obj(fields) => fields.iter().for_each(|(k, n)| {
                    out.push(k);
                    keys(&n.v, out)
                }),
                _ => {}
            }
        }
        let spec = include_str!("../../../docs/SCENARIO_FORMAT.md");
        for s in [kitchen_sink(), kitchen_sink_random()] {
            let tree = s.write();
            let mut written = Vec::new();
            keys(&tree, &mut written);
            for key in written {
                let cell = format!("`{key}`");
                assert!(spec.contains(&cell), "docs/SCENARIO_FORMAT.md lacks {cell}");
            }
        }
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
