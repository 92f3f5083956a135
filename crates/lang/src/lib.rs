//! # pax-lang — the paper's language construct
//!
//! The paper proposes language support for declaring phase-overlap
//! enablement, in four escalating forms:
//!
//! 1. `DISPATCH phase-name ENABLE/MAPPING=option` — "simple and explicit;
//!    however, it leaves the door wide open to user mistakes."
//! 2. `DISPATCH phase-name ENABLE [phase-name/MAPPING=option]` — names the
//!    successor "so that the executive system (or language processor) can
//!    verify that, in fact, that phase is following."
//! 3. `ENABLE/BRANCHINDEPENDENT [p1/MAPPING=o1 p2/MAPPING=o2]` followed by
//!    `IF (IMOD(LOOPCOUNTER,10).NE.0) THEN GO TO …` — the executive
//!    preprocesses the branch and overlaps the phase actually taken.
//! 4. `DEFINE PHASE p ENABLE […]` + `DISPATCH p ENABLE/BRANCHDEPENDENT` —
//!    mapping selections are matched when the phase is defined; the
//!    invocation site only flags whether branches may be preprocessed.
//!
//! Each `option` is one of the six keywords of [`ast::MAPPING_KEYWORDS`],
//! one per [`MappingKind`](pax_core::mapping::MappingKind): `UNIVERSAL`,
//! `IDENTITY`, `FORWARD`, `REVERSE`, `SEAM` or `NULL`. The indirect three
//! name a map the host binds ([`MapBindings`]). Each named item is checked
//! against the granule counts of the two phases it connects by
//! [`check_edge`](pax_core::mapping::EnablementMapping::check_edge), and a
//! misfit is one error at the item.
//!
//! This crate implements all four: a lexer/parser ([`parser::parse`]), a
//! compiler with the interlock verification ([`compile::compile`]), and a
//! one-call runner ([`run_script`]). The verification is the program's
//! own check,
//! [`Program::interlock_gaps`](pax_core::program::Program::interlock_gaps),
//! exact along the job's path: branches test counters only, so it walks
//! the one path a job takes with the executive's own walker and checks
//! the successor its lookahead finds at every dispatch, where a guess at
//! counter values could miss an arm. The compiler reports each gap as a
//! warning at its dispatch; the run itself checks nothing. A loop that
//! never reaches a dispatch is a compile error, not a job that hangs.
//!
//! ```
//! use pax_lang::{parse, compile, MapBindings};
//!
//! let script = parse("
//!     DEFINE PHASE sweep GRANULES 64 COST CONST 10
//!     DEFINE PHASE relax GRANULES 64 COST CONST 10
//!     DISPATCH sweep ENABLE [relax/MAPPING=IDENTITY]
//!     DISPATCH relax
//! ").unwrap();
//! let compiled = compile(&script, &MapBindings::new()).unwrap();
//! assert_eq!(compiled.program.phases.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod parser;
pub mod token;

pub use ast::{AstStmt, CondExpr, DefinePhase, EnableClause, EnableItem, Script};
pub use compile::{compile, CompileError, Compiled, Diagnostic, MapBindings};
pub use parser::{parse, ParseError};
pub use token::{lex, Pos, Tok, Token};

use pax_core::engine::{EngineError, Simulation};
use pax_core::policy::OverlapPolicy;
use pax_core::report::RunReport;
use pax_sim::machine::MachineConfig;

/// Errors from the end-to-end script runner.
#[derive(Debug)]
pub enum ScriptError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Compilation failed.
    Compile(CompileError),
    /// The simulation failed.
    Engine(EngineError),
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Parse(e) => write!(f, "{e}"),
            ScriptError::Compile(e) => write!(f, "{e}"),
            ScriptError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// Parse, compile, and run a script on the given machine and policy.
pub fn run_script(
    src: &str,
    bindings: &MapBindings,
    machine: MachineConfig,
    policy: OverlapPolicy,
) -> Result<RunReport, ScriptError> {
    let script = parse(src).map_err(ScriptError::Parse)?;
    let compiled = compile(&script, bindings).map_err(ScriptError::Compile)?;
    let mut sim = Simulation::new(machine, policy);
    sim.add_job(compiled.program);
    sim.run().map_err(ScriptError::Engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_script_end_to_end() {
        let report = run_script(
            "
            DEFINE PHASE a GRANULES 12 COST CONST 10
            DEFINE PHASE b GRANULES 12 COST CONST 10
            DISPATCH a ENABLE [b/MAPPING=IDENTITY]
            DISPATCH b
            ",
            &MapBindings::new(),
            MachineConfig::ideal(4),
            OverlapPolicy::overlap(),
        )
        .unwrap();
        assert_eq!(report.phases.len(), 2);
        assert!(report.jobs[0].finished_at.is_some());
    }

    #[test]
    fn run_script_surfaces_parse_errors() {
        let err = run_script(
            "DISPATCH",
            &MapBindings::new(),
            MachineConfig::ideal(2),
            OverlapPolicy::strict(),
        )
        .unwrap_err();
        assert!(matches!(err, ScriptError::Parse(_)));
    }

    /// The third pass through the loop takes the `IMOD(K,3).EQ.2` arm,
    /// which no counter file a guess would sample at step 0 reaches.
    #[test]
    fn the_interlock_check_follows_the_job() {
        let src = "
            DEFINE PHASE a GRANULES 4
            DEFINE PHASE b GRANULES 4
            DEFINE PHASE c GRANULES 4
            top:
            DISPATCH a ENABLE/BRANCHINDEPENDENT [b/MAPPING=UNIVERSAL]
            IF (IMOD(K,3).EQ.2) THEN GO TO other
            DISPATCH b
            GO TO next
            other:
            DISPATCH c
            next:
            INCREMENT K
            IF (K .LT. 3) THEN GO TO top
            ";
        let compiled = compile(&parse(src).unwrap(), &MapBindings::new()).unwrap();
        let names_c = |w: &str| w.contains("interlock") && w.contains("'c'");
        let warned: Vec<&str> = compiled
            .warnings
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(
            warned.iter().filter(|w| names_c(w)).count(),
            1,
            "{warned:?}"
        );
    }

    #[test]
    fn a_loop_with_no_dispatch_is_a_compile_error_not_a_hang() {
        let src = "
            DEFINE PHASE a GRANULES 4
            DISPATCH a
            spin: INCREMENT K
            GO TO spin
            ";
        let err = run_script(
            src,
            &MapBindings::new(),
            MachineConfig::ideal(2),
            OverlapPolicy::overlap(),
        )
        .unwrap_err();
        let ScriptError::Compile(err) = err else {
            panic!("expected a compile error, got {err:?}");
        };
        let [d] = &err.diagnostics[..] else {
            panic!("expected one diagnostic, got {:?}", err.diagnostics);
        };
        assert!(d.error);
        assert!(
            d.message.contains("counter steps without a DISPATCH"),
            "{d}"
        );
        // Where the walk stopped: the loop's INCREMENT.
        assert_eq!((d.pos.line, d.pos.col), (4, 19));
    }

    #[test]
    fn run_script_surfaces_compile_errors() {
        let err = run_script(
            "DISPATCH ghost",
            &MapBindings::new(),
            MachineConfig::ideal(2),
            OverlapPolicy::strict(),
        )
        .unwrap_err();
        assert!(matches!(err, ScriptError::Compile(_)));
    }
}
