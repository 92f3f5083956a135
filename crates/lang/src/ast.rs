//! Abstract syntax for PAX language scripts.

use crate::token::Pos;
use pax_core::mapping::MappingKind;
use pax_sim::dist::DurationDist;

/// The `MAPPING=` options of an `ENABLE` clause, one keyword per
/// enablement mapping kind: the parser reads them (case-insensitively)
/// and diagnostics print them. Indirect options carry no tables in source
/// form; concrete maps are bound at compile time
/// ([`MapBindings`](crate::MapBindings)), as PAX bound computations to
/// names.
pub const MAPPING_KEYWORDS: [(&str, MappingKind); 6] = [
    ("UNIVERSAL", MappingKind::Universal),
    ("IDENTITY", MappingKind::Identity),
    ("FORWARD", MappingKind::ForwardIndirect),
    ("REVERSE", MappingKind::ReverseIndirect),
    ("SEAM", MappingKind::Seam),
    ("NULL", MappingKind::Null),
];

/// The `MAPPING=` keyword of `kind`.
pub(crate) fn mapping_keyword(kind: MappingKind) -> &'static str {
    let found = MAPPING_KEYWORDS.iter().find(|&&(_, k)| k == kind);
    found.expect("every mapping kind has a keyword").0
}

/// One `phase-name/MAPPING=option` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnableItem {
    /// Named successor phase.
    pub phase: String,
    /// Mapping option.
    pub mapping: MappingKind,
    /// Source position (for diagnostics).
    pub pos: Pos,
}

/// The `ENABLE` clause attached to a `DISPATCH` (the paper's four forms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnableClause {
    /// No clause.
    None,
    /// `ENABLE/MAPPING=option` — applies to whatever phase follows
    /// (form 1: "simple and explicit; however, it leaves the door wide
    /// open to user mistakes").
    Bare(MappingKind),
    /// `ENABLE [name/MAPPING=option …]` — named successors the executive
    /// can verify (form 2).
    Named(Vec<EnableItem>),
    /// `ENABLE/BRANCHINDEPENDENT [name/MAPPING=option …]` — the executive
    /// may preprocess a following branch (form 3).
    BranchIndependent(Vec<EnableItem>),
    /// `ENABLE/BRANCHDEPENDENT` — mappings were declared on `DEFINE
    /// PHASE`; the branch must not be preprocessed (form 4).
    BranchDependent,
}

/// `DEFINE PHASE name GRANULES n [COST …] [LINES l] [ENABLE [...]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DefinePhase {
    /// Phase name.
    pub name: String,
    /// Granule count.
    pub granules: u32,
    /// Per-granule cost: `COST CONST t`, `COST UNIFORM lo hi` or
    /// `COST EXP mean`, and `CONST 100` when the script gives none.
    pub cost: DurationDist,
    /// Census line weight.
    pub lines: Option<u32>,
    /// Enable declarations made at definition time (form 4).
    pub enables: Vec<EnableItem>,
    /// Source position.
    pub pos: Pos,
}

/// Branch condition: the paper's `IMOD(counter, k) .NE. m` plus relational
/// forms on a counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CondExpr {
    /// `IMOD(counter, k) .NE. m`
    ImodNe {
        /// Counter name.
        counter: String,
        /// Modulus.
        modulus: i64,
        /// Residue.
        residue: i64,
    },
    /// `IMOD(counter, k) .EQ. m`
    ImodEq {
        /// Counter name.
        counter: String,
        /// Modulus.
        modulus: i64,
        /// Residue.
        residue: i64,
    },
    /// `counter .LT. k`
    Lt {
        /// Counter name.
        counter: String,
        /// Bound.
        value: i64,
    },
}

/// Top-level statements.
#[derive(Debug, Clone, PartialEq)]
pub enum AstStmt {
    /// Phase definition.
    Define(DefinePhase),
    /// `DISPATCH name [ENABLE …]`.
    Dispatch {
        /// Phase to dispatch.
        phase: String,
        /// Enable clause.
        enable: EnableClause,
        /// Source position.
        pos: Pos,
    },
    /// `SERIAL n [label]` — serial executive work between phases.
    Serial {
        /// Duration in ticks.
        ticks: u64,
        /// Optional label.
        label: Option<String>,
        /// Source position.
        pos: Pos,
    },
    /// `label:`
    Label {
        /// Label name.
        name: String,
        /// Source position.
        pos: Pos,
    },
    /// `GO TO name` / `GOTO name`.
    Goto {
        /// Target label.
        target: String,
        /// Source position.
        pos: Pos,
    },
    /// `IF (cond) THEN GO TO name`.
    If {
        /// Condition.
        cond: CondExpr,
        /// Target label when true.
        target: String,
        /// Source position.
        pos: Pos,
    },
    /// `INCREMENT counter [BY k]`.
    Increment {
        /// Counter name.
        counter: String,
        /// Step (default 1).
        by: i64,
        /// Source position.
        pos: Pos,
    },
}

/// A parsed script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Script {
    /// Statements in order.
    pub stmts: Vec<AstStmt>,
}

impl AstStmt {
    /// Source position of the statement.
    pub fn pos(&self) -> Pos {
        match self {
            AstStmt::Define(d) => d.pos,
            AstStmt::Dispatch { pos, .. }
            | AstStmt::Serial { pos, .. }
            | AstStmt::Label { pos, .. }
            | AstStmt::Goto { pos, .. }
            | AstStmt::If { pos, .. }
            | AstStmt::Increment { pos, .. } => *pos,
        }
    }
}

impl Script {
    /// All phase definitions.
    pub fn defines(&self) -> impl Iterator<Item = &DefinePhase> {
        self.stmts.iter().filter_map(|s| match s {
            AstStmt::Define(d) => Some(d),
            _ => None,
        })
    }

    /// Find a phase definition by name.
    pub fn define_of(&self, name: &str) -> Option<&DefinePhase> {
        self.defines().find(|d| d.name == name)
    }
}
