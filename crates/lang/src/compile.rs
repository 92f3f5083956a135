//! Compilation of parsed scripts into executable [`Program`]s, reporting
//! the executive-verifiable interlock ([`Program::interlock_gaps`]) the
//! paper motivates as diagnostics at the source.

use crate::ast::*;
use crate::token::Pos;
use pax_core::ids::PhaseId;
use pax_core::mapping::{EnablementMapping, MappingKind};
use pax_core::phase::PhaseDef;
use pax_core::program::{BranchTest, EnableSpec, Program, Step, WALK_STEPS};
use pax_sim::dist::CostModel;
use std::collections::HashMap;
use std::fmt;

/// A compile-time diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// True for errors (compilation fails), false for warnings.
    pub error: bool,
    /// Message.
    pub message: String,
    /// Source position.
    pub pos: Pos,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}: {}",
            if self.error { "error" } else { "warning" },
            self.pos,
            self.message
        )
    }
}

/// Compile failure: the list of diagnostics (at least one error).
#[derive(Debug, Clone)]
pub struct CompileError {
    /// All diagnostics gathered before failing.
    pub diagnostics: Vec<Diagnostic>,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CompileError {}

/// Bindings from `(current-phase, successor-phase)` pairs to concrete
/// indirect mappings. The language names only the mapping *kind*
/// (`MAPPING=REVERSE`); the actual information-selection maps are runtime
/// data — "dynamically generated" in both PAX/CASPER occurrences — so the
/// host program supplies them here, exactly as PAX bound named
/// computations to code.
#[derive(Debug, Clone, Default)]
pub struct MapBindings {
    maps: HashMap<(String, String), EnablementMapping>,
}

impl MapBindings {
    /// No bindings.
    pub fn new() -> MapBindings {
        MapBindings::default()
    }

    /// Bind the indirect mapping used between `from` and `to`.
    pub fn bind(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        mapping: EnablementMapping,
    ) -> MapBindings {
        self.maps.insert((from.into(), to.into()), mapping);
        self
    }

    fn get(&self, from: &str, to: &str) -> Option<&EnablementMapping> {
        self.maps.get(&(from.to_string(), to.to_string()))
    }
}

/// The result of a successful compilation.
#[derive(Debug)]
pub struct Compiled {
    /// Executable program.
    pub program: Program,
    /// Non-fatal diagnostics (interlock warnings etc.).
    pub warnings: Vec<Diagnostic>,
    /// Phase name → id mapping.
    pub phase_ids: HashMap<String, PhaseId>,
}

/// Compile a parsed script against map bindings.
///
/// The interlock check is the program's own,
/// [`Program::interlock_gaps`], exact along the job's path: each gap it
/// finds — a dispatch with an `ENABLE` clause followed by a phase the
/// clause does not name — is one warning at the dispatch. A loop that
/// would run more than [`WALK_STEPS`] counter steps without a
/// `DISPATCH`, `SERIAL` or end is an error: the run would abort the job.
pub fn compile(script: &Script, bindings: &MapBindings) -> Result<Compiled, CompileError> {
    let mut diags: Vec<Diagnostic> = Vec::new();

    // --- phase table -------------------------------------------------
    let mut phase_ids: HashMap<String, PhaseId> = HashMap::new();
    let mut phases: Vec<PhaseDef> = Vec::new();
    for d in script.defines() {
        if phase_ids.contains_key(&d.name) {
            diags.push(Diagnostic {
                error: true,
                message: format!("phase '{}' defined twice", d.name),
                pos: d.pos,
            });
            continue;
        }
        let def = PhaseDef::new(d.name.clone(), d.granules, CostModel::new(d.cost.clone()))
            .with_lines(d.lines.unwrap_or(0));
        phase_ids.insert(d.name.clone(), PhaseId(phases.len() as u32));
        phases.push(def);
    }

    // --- counters & labels -------------------------------------------
    let mut counters: HashMap<String, usize> = HashMap::new();
    let counter_of = |name: &str, counters: &mut HashMap<String, usize>| {
        let next = counters.len();
        *counters.entry(name.to_string()).or_insert(next)
    };
    let mut labels: HashMap<String, usize> = HashMap::new(); // label -> stmt index

    for (i, s) in script.stmts.iter().enumerate() {
        if let AstStmt::Label { name, pos } = s {
            if labels.insert(name.clone(), i).is_some() {
                diags.push(Diagnostic {
                    error: true,
                    message: format!("duplicate label '{name}'"),
                    pos: *pos,
                });
            }
        }
    }

    // --- step index assignment ----------------------------------------
    // Each statement lowers to exactly one step except Define and Label
    // (zero steps).
    let mut step_of_stmt: Vec<usize> = Vec::with_capacity(script.stmts.len());
    let mut nsteps = 0usize;
    for s in &script.stmts {
        step_of_stmt.push(nsteps);
        match s {
            AstStmt::Define(_) | AstStmt::Label { .. } => {}
            _ => nsteps += 1,
        }
    }
    // step index for "just past the last statement" = End step
    let end_step = nsteps;
    let step_of_label = |name: &str| -> Option<usize> {
        labels.get(name).map(|&stmt_idx| {
            // a label at the very end points to End
            step_of_stmt.get(stmt_idx).copied().unwrap_or(end_step)
        })
    };

    // helper: resolve an enable item list to EnableSpecs; an item that
    // fails gets one diagnostic, at its position, and is dropped
    let resolve_items =
        |from: &str, items: &[EnableItem], diags: &mut Vec<Diagnostic>| -> Vec<EnableSpec> {
            let mut out = Vec::new();
            for item in items {
                let mut error = |message: String| {
                    diags.push(Diagnostic {
                        error: true,
                        message,
                        pos: item.pos,
                    })
                };
                let Some(&succ) = phase_ids.get(&item.phase) else {
                    error(format!("ENABLE names undefined phase '{}'", item.phase));
                    continue;
                };
                let mapping = match item.mapping {
                    MappingKind::Universal => EnablementMapping::Universal,
                    MappingKind::Identity => EnablementMapping::Identity,
                    MappingKind::Null => EnablementMapping::Null,
                    want => match bindings.get(from, &item.phase) {
                        Some(m) if m.kind() == want => m.clone(),
                        Some(m) => {
                            error(format!(
                                "binding for {from}->{} is {} but script says {}",
                                item.phase,
                                m.kind().label(),
                                want.label()
                            ));
                            continue;
                        }
                        None => {
                            error(format!(
                                "MAPPING={} between '{from}' and '{}' requires a map \
                                 binding (indirect maps are runtime data)",
                                mapping_keyword(want),
                                item.phase
                            ));
                            continue;
                        }
                    },
                };
                // the granule-count interlock
                let current = phases[phase_ids[from].0 as usize].granules;
                if let Err(e) = mapping.check_edge(current, phases[succ.0 as usize].granules) {
                    error(format!("ENABLE of '{}' from '{from}': {e}", item.phase));
                    continue;
                }
                out.push(EnableSpec {
                    successor: succ,
                    mapping,
                });
            }
            out
        };

    // --- lowering ------------------------------------------------------
    let mut steps: Vec<Step> = Vec::new();
    // The source position of each step, for diagnostics about a step.
    let mut positions: Vec<Pos> = Vec::new();
    for (i, s) in script.stmts.iter().enumerate() {
        match s {
            AstStmt::Define(_) | AstStmt::Label { .. } => {}
            AstStmt::Dispatch { phase, enable, pos } => {
                let Some(&pid) = phase_ids.get(phase) else {
                    diags.push(Diagnostic {
                        error: true,
                        message: format!("DISPATCH of undefined phase '{phase}'"),
                        pos: *pos,
                    });
                    continue;
                };
                let (enables, branch_independent) = match enable {
                    EnableClause::None => (Vec::new(), false),
                    EnableClause::Bare(opt) => {
                        // Form 1: applies to whatever phase follows
                        // lexically. "There is no interlock between this
                        // phase and the next that can be verified" — we
                        // resolve it to the next dispatch and warn.
                        match next_dispatch(script, i) {
                            Some(next_name) => {
                                let kw = mapping_keyword(*opt);
                                diags.push(Diagnostic {
                                    error: false,
                                    message: format!(
                                        "bare ENABLE/MAPPING={kw} resolved to following \
                                         phase '{next_name}'; prefer the named form \
                                         ENABLE [{next_name}/MAPPING={kw}] which the \
                                         executive can verify"
                                    ),
                                    pos: *pos,
                                });
                                let item = EnableItem {
                                    phase: next_name,
                                    mapping: *opt,
                                    pos: *pos,
                                };
                                (resolve_items(phase, &[item], &mut diags), false)
                            }
                            None => {
                                diags.push(Diagnostic {
                                    error: true,
                                    message: "bare ENABLE/MAPPING has no following \
                                              DISPATCH to apply to"
                                        .into(),
                                    pos: *pos,
                                });
                                (Vec::new(), false)
                            }
                        }
                    }
                    EnableClause::Named(items) => (resolve_items(phase, items, &mut diags), false),
                    EnableClause::BranchIndependent(items) => {
                        (resolve_items(phase, items, &mut diags), true)
                    }
                    EnableClause::BranchDependent => {
                        // Form 4: enable declarations live on DEFINE PHASE.
                        let items = script
                            .define_of(phase)
                            .map(|d| d.enables.clone())
                            .unwrap_or_default();
                        if items.is_empty() {
                            diags.push(Diagnostic {
                                error: false,
                                message: format!(
                                    "ENABLE/BRANCHDEPENDENT but DEFINE PHASE {phase} \
                                     declares no ENABLE list — no overlap possible"
                                ),
                                pos: *pos,
                            });
                        }
                        (resolve_items(phase, &items, &mut diags), false)
                    }
                };
                steps.push(Step::Dispatch {
                    phase: pid,
                    enables,
                    branch_independent,
                });
            }
            AstStmt::Serial { ticks, label, .. } => {
                steps.push(Step::Serial {
                    duration: pax_sim::SimDuration(*ticks),
                    label: label.clone().unwrap_or_else(|| "serial".into()),
                });
            }
            AstStmt::Goto { target, pos } => match step_of_label(target) {
                Some(t) => steps.push(Step::Goto(t)),
                None => {
                    diags.push(Diagnostic {
                        error: true,
                        message: format!("GO TO undefined label '{target}'"),
                        pos: *pos,
                    });
                    steps.push(Step::Goto(end_step));
                }
            },
            AstStmt::If { cond, target, pos } => {
                let on_true = match step_of_label(target) {
                    Some(t) => t,
                    None => {
                        diags.push(Diagnostic {
                            error: true,
                            message: format!("IF branches to undefined label '{target}'"),
                            pos: *pos,
                        });
                        end_step
                    }
                };
                let test = match cond {
                    CondExpr::ImodNe {
                        counter,
                        modulus,
                        residue,
                    } => BranchTest::CounterModNe {
                        counter: counter_of(counter, &mut counters),
                        modulus: *modulus,
                        residue: *residue,
                    },
                    CondExpr::ImodEq {
                        counter,
                        modulus,
                        residue,
                    } => BranchTest::CounterModEq {
                        counter: counter_of(counter, &mut counters),
                        modulus: *modulus,
                        residue: *residue,
                    },
                    CondExpr::Lt { counter, value } => {
                        BranchTest::CounterLt(counter_of(counter, &mut counters), *value)
                    }
                };
                let on_false = steps.len() + 1;
                steps.push(Step::Branch {
                    test,
                    on_true,
                    on_false,
                });
            }
            AstStmt::Increment { counter, by, .. } => {
                steps.push(Step::Incr {
                    idx: counter_of(counter, &mut counters),
                    delta: *by,
                });
            }
        }
        positions.resize(steps.len(), s.pos());
    }
    steps.push(Step::End);

    // --- static interlock verification ---------------------------------
    let program = Program {
        phases,
        steps,
        counters: counters.len(),
    };
    if let Err(e) = program.validate() {
        diags.push(Diagnostic {
            error: true,
            message: e,
            pos: Pos { line: 0, col: 0 },
        });
    } else {
        match program.interlock_gaps() {
            Ok(gaps) => diags.extend(gaps.into_iter().map(|(at, phase)| Diagnostic {
                error: false,
                message: format!(
                    "interlock: phase '{}' follows this dispatch but is not \
                     named in its ENABLE clause — it will run without overlap",
                    program.phases[phase.0 as usize].name
                ),
                pos: positions[at],
            })),
            Err(at) => diags.push(Diagnostic {
                error: true,
                message: format!(
                    "the job would abort here: more than {WALK_STEPS} counter steps \
                     without a DISPATCH, SERIAL or end"
                ),
                pos: positions[at],
            }),
        }
    }

    if diags.iter().any(|d| d.error) {
        return Err(CompileError { diagnostics: diags });
    }
    Ok(Compiled {
        program,
        warnings: diags,
        phase_ids,
    })
}

/// Find the name of the next `DISPATCH` statement after statement `i`,
/// looking through labels/increments but stopping at control flow.
fn next_dispatch(script: &Script, i: usize) -> Option<String> {
    for s in &script.stmts[i + 1..] {
        match s {
            AstStmt::Dispatch { phase, .. } => return Some(phase.clone()),
            AstStmt::Label { .. } | AstStmt::Increment { .. } | AstStmt::Define(_) => continue,
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn two_phase_src() -> &'static str {
        "
        DEFINE PHASE first GRANULES 32 COST CONST 10 LINES 20
        DEFINE PHASE second GRANULES 32 COST CONST 10 LINES 30
        DISPATCH first ENABLE [second/MAPPING=IDENTITY]
        DISPATCH second
        "
    }

    #[test]
    fn compiles_two_phase_script() {
        let script = parse(two_phase_src()).unwrap();
        let c = compile(&script, &MapBindings::new()).unwrap();
        assert_eq!(c.program.phases.len(), 2);
        assert_eq!(c.program.phases[0].lines, 20);
        // steps: dispatch, dispatch, end
        assert_eq!(c.program.steps.len(), 3);
        assert!(c.warnings.is_empty());
    }

    #[test]
    fn bare_enable_resolves_with_warning() {
        let script = parse(
            "
            DEFINE PHASE a GRANULES 8
            DEFINE PHASE b GRANULES 8
            DISPATCH a ENABLE/MAPPING=UNIVERSAL
            DISPATCH b
            ",
        )
        .unwrap();
        let c = compile(&script, &MapBindings::new()).unwrap();
        assert_eq!(c.warnings.len(), 1);
        assert!(c.warnings[0].message.contains("prefer the named form"));
        match &c.program.steps[0] {
            Step::Dispatch { enables, .. } => assert_eq!(enables.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undefined_phase_is_error() {
        let script = parse("DISPATCH ghost").unwrap();
        let err = compile(&script, &MapBindings::new()).unwrap_err();
        assert!(err.diagnostics[0].message.contains("undefined phase"));
    }

    #[test]
    fn identity_granule_mismatch_is_error() {
        let script = parse(
            "
            DEFINE PHASE a GRANULES 8
            DEFINE PHASE b GRANULES 16
            DISPATCH a ENABLE [b/MAPPING=IDENTITY]
            DISPATCH b
            ",
        )
        .unwrap();
        let err = compile(&script, &MapBindings::new()).unwrap_err();
        let [d] = &err.diagnostics[..] else {
            panic!("one diagnostic, not {:?}", err.diagnostics);
        };
        assert!(d.error && d.message.contains("equal granule counts"), "{d}");
        assert_eq!(d.pos.line, 4);

        // A bound reverse map covering 6 of b's 16 granules: one error,
        // at its item.
        let rmap = pax_core::mapping::ReverseMap::new(vec![vec![0]; 6], 8);
        let reverse = EnablementMapping::ReverseIndirect(std::sync::Arc::new(rmap));
        let script = parse(
            "
            DEFINE PHASE a GRANULES 8
            DEFINE PHASE b GRANULES 16
            DISPATCH a ENABLE [b/MAPPING=REVERSE]
            DISPATCH b
            ",
        )
        .unwrap();
        let err = compile(&script, &MapBindings::new().bind("a", "b", reverse)).unwrap_err();
        let [d] = &err.diagnostics[..] else {
            panic!("one diagnostic, not {:?}", err.diagnostics);
        };
        assert!(
            d.error && d.message.contains("covers 6 successor granules"),
            "{d}"
        );
        assert_eq!(d.pos.line, 4);
    }

    #[test]
    fn indirect_mapping_requires_binding() {
        let script = parse(
            "
            DEFINE PHASE a GRANULES 8
            DEFINE PHASE b GRANULES 8
            DISPATCH a ENABLE [b/MAPPING=REVERSE]
            DISPATCH b
            ",
        )
        .unwrap();
        let err = compile(&script, &MapBindings::new()).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("requires a map binding")));

        // with a binding it compiles
        let rmap = pax_core::mapping::ReverseMap::new(vec![vec![0]; 8], 8);
        let bindings = MapBindings::new().bind(
            "a",
            "b",
            EnablementMapping::ReverseIndirect(std::sync::Arc::new(rmap)),
        );
        let c = compile(&script, &bindings).unwrap();
        assert_eq!(c.program.phases.len(), 2);
    }

    #[test]
    fn binding_kind_mismatch_is_error() {
        let script = parse(
            "
            DEFINE PHASE a GRANULES 4
            DEFINE PHASE b GRANULES 4
            DISPATCH a ENABLE [b/MAPPING=FORWARD]
            DISPATCH b
            ",
        )
        .unwrap();
        let rmap = pax_core::mapping::ReverseMap::new(vec![vec![0]; 4], 4);
        let bindings = MapBindings::new().bind(
            "a",
            "b",
            EnablementMapping::ReverseIndirect(std::sync::Arc::new(rmap)),
        );
        let err = compile(&script, &bindings).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("script says")));
    }

    #[test]
    fn interlock_warning_when_successor_not_named() {
        let script = parse(
            "
            DEFINE PHASE a GRANULES 4
            DEFINE PHASE b GRANULES 4
            DEFINE PHASE c GRANULES 4
            DISPATCH a ENABLE [c/MAPPING=UNIVERSAL]
            DISPATCH b
            DISPATCH c
            ",
        )
        .unwrap();
        let c = compile(&script, &MapBindings::new()).unwrap();
        assert!(c
            .warnings
            .iter()
            .any(|w| w.message.contains("interlock") && w.message.contains("'b'")));
    }

    #[test]
    fn goto_and_labels_compile_to_step_indices() {
        let script = parse(
            "
            DEFINE PHASE a GRANULES 4
            DEFINE PHASE b GRANULES 4
            top:
            DISPATCH a
            INCREMENT K
            IF (K .LT. 3) THEN GO TO top
            DISPATCH b
            ",
        )
        .unwrap();
        let c = compile(&script, &MapBindings::new()).unwrap();
        // steps: dispatch a (0), incr (1), branch (2), dispatch b (3), end (4)
        assert_eq!(c.program.steps.len(), 5);
        match &c.program.steps[2] {
            Step::Branch {
                on_true, on_false, ..
            } => {
                assert_eq!(*on_true, 0);
                assert_eq!(*on_false, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.program.counters, 1);
    }

    #[test]
    fn duplicate_labels_and_missing_targets_error() {
        let script = parse("x:\nx:\nGO TO nowhere").unwrap();
        let err = compile(&script, &MapBindings::new()).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("duplicate label")));
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("nowhere")));
    }

    #[test]
    fn branch_dependent_pulls_defines() {
        let script = parse(
            "
            DEFINE PHASE a GRANULES 4 ENABLE [b/MAPPING=UNIVERSAL c/MAPPING=UNIVERSAL]
            DEFINE PHASE b GRANULES 4
            DEFINE PHASE c GRANULES 4
            DISPATCH a ENABLE/BRANCHDEPENDENT
            IF (IMOD(K,10).NE.0) THEN GO TO alt
            DISPATCH b
            GO TO done
            alt:
            DISPATCH c
            done:
            ",
        )
        .unwrap();
        let c = compile(&script, &MapBindings::new()).unwrap();
        match &c.program.steps[0] {
            Step::Dispatch {
                enables,
                branch_independent,
                ..
            } => {
                assert_eq!(enables.len(), 2);
                assert!(!branch_independent, "BRANCHDEPENDENT forbids preprocessing");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
