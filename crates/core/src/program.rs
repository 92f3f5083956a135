//! Phase programs: the control stream the executive interprets.
//!
//! A program is a list of steps — phase dispatches, serial regions,
//! counter arithmetic, and conditional branches — mirroring the control
//! structures of the paper's "Language Construction" section. The
//! `ENABLE` clause of a dispatch names the successor phase(s) and the
//! enablement mapping to apply, which is exactly the interlock the paper
//! asks the language to give the executive for verification.

use crate::ids::PhaseId;
use crate::mapping::EnablementMapping;
use crate::phase::PhaseDef;
use crate::policy::TaskSizing;
use pax_sim::time::SimDuration;

/// One `phase-name/MAPPING=option` element of an `ENABLE` clause.
#[derive(Debug, Clone)]
pub struct EnableSpec {
    /// Named successor phase (checked against the phase that actually
    /// follows — the paper's verifiable interlock).
    pub successor: PhaseId,
    /// Mapping to apply when overlapping into that successor.
    pub mapping: EnablementMapping,
}

/// Branch predicates available to programs. All are functions of
/// program-level counters only, which is what makes a branch
/// *independent of the computational phase* and therefore preprocessable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchTest {
    /// `counter < value`.
    CounterLt(usize, i64),
    /// `counter % modulus == residue` (modulus > 0).
    CounterModEq {
        /// Counter index.
        counter: usize,
        /// Modulus (must be positive).
        modulus: i64,
        /// Residue compared against.
        residue: i64,
    },
    /// `counter % modulus != residue` — the paper's
    /// `IF (IMOD(LOOPCOUNTER,10).NE.0)`.
    CounterModNe {
        /// Counter index.
        counter: usize,
        /// Modulus (must be positive).
        modulus: i64,
        /// Residue compared against.
        residue: i64,
    },
    /// Always true.
    Always,
    /// Always false.
    Never,
}

impl BranchTest {
    /// Evaluate against a counter file.
    pub fn eval(&self, counters: &[i64]) -> bool {
        match *self {
            BranchTest::CounterLt(c, v) => counters[c] < v,
            BranchTest::CounterModEq {
                counter,
                modulus,
                residue,
            } => counters[counter].rem_euclid(modulus) == residue,
            BranchTest::CounterModNe {
                counter,
                modulus,
                residue,
            } => counters[counter].rem_euclid(modulus) != residue,
            BranchTest::Always => true,
            BranchTest::Never => false,
        }
    }
}

/// One step of a program.
#[derive(Debug, Clone)]
pub enum Step {
    /// Dispatch a phase; `enables` carries the `ENABLE` clause.
    Dispatch {
        /// Phase definition to dispatch.
        phase: PhaseId,
        /// Successor enablement declarations.
        enables: Vec<EnableSpec>,
        /// Whether a branch immediately downstream may be preprocessed
        /// (`ENABLE/BRANCHINDEPENDENT`). When false, lookahead stops at
        /// any branch (`ENABLE/BRANCHDEPENDENT` or unannotated).
        branch_independent: bool,
    },
    /// Serial executive work between phases ("serial actions and
    /// decisions had to occur between the phases" — the cause of every
    /// null mapping observed in PAX/CASPER).
    Serial {
        /// How long the serial actions take on the executive.
        duration: SimDuration,
        /// Label for reports.
        label: String,
    },
    /// Add `delta` to counter `idx`.
    Incr {
        /// Counter index.
        idx: usize,
        /// Amount added.
        delta: i64,
    },
    /// Conditional jump: if `test` then continue at `on_true`, else at
    /// `on_false` (absolute step indices).
    Branch {
        /// Predicate over program counters.
        test: BranchTest,
        /// Target when true.
        on_true: usize,
        /// Target when false.
        on_false: usize,
    },
    /// Unconditional jump.
    Goto(usize),
    /// Program end.
    End,
}

/// A complete program: phase definitions plus the control stream.
#[derive(Debug, Clone)]
pub struct Program {
    /// Phase definitions, indexed by [`PhaseId`].
    pub phases: Vec<PhaseDef>,
    /// Control steps; execution starts at step 0.
    pub steps: Vec<Step>,
    /// Number of program counters (for loops / branch tests).
    pub counters: usize,
}

/// Result of statically looking ahead from a dispatch step to find which
/// phase will follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// The next dispatched phase and its step index.
    Phase {
        /// Phase definition that follows.
        phase: PhaseId,
        /// Step index of its dispatch.
        step: usize,
    },
    /// A serial region intervenes — overlap impossible (null gap).
    BlockedBySerial,
    /// A data-dependent (non-preprocessable) branch intervenes.
    BlockedByBranch,
    /// The program ends.
    ProgramEnd,
}

impl Program {
    /// Validate step targets and phase ids; returns a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.steps.iter().enumerate() {
            match s {
                Step::Dispatch { phase, enables, .. } => {
                    if phase.0 as usize >= self.phases.len() {
                        return Err(format!("step {i}: dispatch of unknown {phase}"));
                    }
                    for e in enables {
                        if e.successor.0 as usize >= self.phases.len() {
                            return Err(format!("step {i}: ENABLE names unknown {}", e.successor));
                        }
                        self.validate_enable(i, *phase, e)?;
                    }
                }
                Step::Branch {
                    test,
                    on_true,
                    on_false,
                } => {
                    if *on_true >= self.steps.len() || *on_false >= self.steps.len() {
                        return Err(format!("step {i}: branch target out of range"));
                    }
                    let c = match *test {
                        BranchTest::CounterLt(c, _) => Some(c),
                        BranchTest::CounterModEq { counter, .. }
                        | BranchTest::CounterModNe { counter, .. } => Some(counter),
                        _ => None,
                    };
                    if let Some(c) = c {
                        if c >= self.counters {
                            return Err(format!("step {i}: branch uses unknown counter {c}"));
                        }
                    }
                }
                Step::Goto(t) => {
                    if *t >= self.steps.len() {
                        return Err(format!("step {i}: goto target out of range"));
                    }
                }
                Step::Incr { idx, .. } => {
                    if *idx >= self.counters {
                        return Err(format!("step {i}: unknown counter {idx}"));
                    }
                }
                Step::Serial { .. } | Step::End => {}
            }
        }
        Ok(())
    }

    /// Check one ENABLE clause's mapping against the granule counts of
    /// the phases it connects — the executive-level half of the paper's
    /// interlock ("so that the executive system (or language processor)
    /// can verify").
    fn validate_enable(&self, step: usize, current: PhaseId, e: &EnableSpec) -> Result<(), String> {
        use crate::mapping::EnablementMapping as M;
        let cur = self.phases[current.0 as usize].granules;
        let succ = self.phases[e.successor.0 as usize].granules;
        match &e.mapping {
            M::Universal | M::Null => Ok(()),
            M::Identity => {
                if cur != succ {
                    Err(format!(
                        "step {step}: identity mapping connects phases of {cur} and \
                         {succ} granules; counts must match"
                    ))
                } else {
                    Ok(())
                }
            }
            M::ForwardIndirect(f) => {
                if f.successor_granules != succ {
                    Err(format!(
                        "step {step}: forward map built for {} successor granules, \
                         phase has {succ}",
                        f.successor_granules
                    ))
                } else if f.targets.len() > cur as usize {
                    Err(format!(
                        "step {step}: forward map has {} entries but the current \
                         phase has only {cur} granules",
                        f.targets.len()
                    ))
                } else {
                    Ok(())
                }
            }
            M::ReverseIndirect(r) => {
                if r.requires.len() != succ as usize {
                    Err(format!(
                        "step {step}: reverse map covers {} successor granules, \
                         phase has {succ}",
                        r.requires.len()
                    ))
                } else if let Some(&d) = r.requires.iter().flatten().find(|&&d| d >= cur) {
                    Err(format!(
                        "step {step}: reverse map requires current granule {d}, \
                         phase has only {cur}"
                    ))
                } else {
                    Ok(())
                }
            }
            M::Seam(s) => {
                if s.requires.len() != succ as usize {
                    Err(format!(
                        "step {step}: seam map covers {} successor granules, \
                         phase has {succ}",
                        s.requires.len()
                    ))
                } else if let Some(&d) = s.requires.iter().flatten().find(|&&d| d >= cur) {
                    Err(format!(
                        "step {step}: seam map requires current granule {d}, \
                         phase has only {cur}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The tasks one run of this program declares when `sizing` carves
    /// its phases for `processors` processors: ⌈granules / task size⌉
    /// summed over every dispatch step, a forward branch counting both
    /// arms. `None` when a `Goto` or `Branch` targets its own step or an
    /// earlier one (a loop leaves the work unknown) or a dispatch names an
    /// unknown phase.
    pub fn declared_tasks(&self, sizing: TaskSizing, processors: usize) -> Option<u64> {
        let mut tasks = 0u64;
        for (i, step) in self.steps.iter().enumerate() {
            match *step {
                Step::Dispatch { phase, .. } => {
                    let granules = self.phases.get(phase.0 as usize)?.granules;
                    let per_task = sizing.task_granules(granules, processors);
                    tasks = tasks.saturating_add(u64::from(granules.div_ceil(per_task)));
                }
                Step::Goto(target) if target <= i => return None,
                Step::Branch {
                    on_true, on_false, ..
                } if on_true.min(on_false) <= i => return None,
                _ => {}
            }
        }
        Some(tasks)
    }

    /// Statically look ahead from just past step `from` to find the next
    /// phase dispatch, simulating counter side effects on a scratch copy
    /// (so preprocessing a branch sees the counter values it *will* have).
    ///
    /// `branch_independent` controls whether branches may be preprocessed;
    /// it comes from the dispatch's `ENABLE` annotation.
    pub fn lookahead(&self, from: usize, counters: &[i64], branch_independent: bool) -> Lookahead {
        let steps = &self.steps;
        let mut scratch: Vec<i64> = counters.to_vec();
        let mut pc = from + 1;
        let mut fuel = steps.len() * 2 + 8; // cycle guard
        while fuel > 0 {
            fuel -= 1;
            match steps.get(pc) {
                None => return Lookahead::ProgramEnd,
                Some(Step::End) => return Lookahead::ProgramEnd,
                Some(Step::Dispatch { phase, .. }) => {
                    return Lookahead::Phase {
                        phase: *phase,
                        step: pc,
                    }
                }
                Some(Step::Serial { .. }) => return Lookahead::BlockedBySerial,
                Some(Step::Incr { idx, delta }) => {
                    scratch[*idx] += delta;
                    pc += 1;
                }
                Some(Step::Goto(t)) => pc = *t,
                Some(Step::Branch {
                    test,
                    on_true,
                    on_false,
                }) => {
                    if !branch_independent {
                        return Lookahead::BlockedByBranch;
                    }
                    pc = if test.eval(&scratch) {
                        *on_true
                    } else {
                        *on_false
                    };
                }
            }
        }
        // Pathological counter-free loop with no dispatch: treat as end.
        Lookahead::ProgramEnd
    }
}

/// Convenience builder for linear and looping programs.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    phases: Vec<PhaseDef>,
    steps: Vec<Step>,
    counters: usize,
}

impl ProgramBuilder {
    /// Empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Register a phase definition, returning its id.
    pub fn phase(&mut self, def: PhaseDef) -> PhaseId {
        let id = PhaseId(self.phases.len() as u32);
        self.phases.push(def);
        id
    }

    /// Allocate a program counter, returning its index.
    pub fn counter(&mut self) -> usize {
        self.counters += 1;
        self.counters - 1
    }

    /// Append a dispatch with no enablement declarations.
    pub fn dispatch(&mut self, phase: PhaseId) -> &mut Self {
        self.steps.push(Step::Dispatch {
            phase,
            enables: Vec::new(),
            branch_independent: false,
        });
        self
    }

    /// Append a dispatch with an `ENABLE` clause.
    pub fn dispatch_enable(&mut self, phase: PhaseId, enables: Vec<EnableSpec>) -> &mut Self {
        self.steps.push(Step::Dispatch {
            phase,
            enables,
            branch_independent: false,
        });
        self
    }

    /// Append a dispatch with an `ENABLE/BRANCHINDEPENDENT` clause.
    pub fn dispatch_enable_branch_independent(
        &mut self,
        phase: PhaseId,
        enables: Vec<EnableSpec>,
    ) -> &mut Self {
        self.steps.push(Step::Dispatch {
            phase,
            enables,
            branch_independent: true,
        });
        self
    }

    /// Append a serial region.
    pub fn serial(&mut self, duration: u64, label: impl Into<String>) -> &mut Self {
        self.steps.push(Step::Serial {
            duration: SimDuration(duration),
            label: label.into(),
        });
        self
    }

    /// Append a counter increment.
    pub fn incr(&mut self, idx: usize, delta: i64) -> &mut Self {
        self.steps.push(Step::Incr { idx, delta });
        self
    }

    /// Append a raw step (branches/gotos need explicit indices).
    pub fn step(&mut self, s: Step) -> &mut Self {
        self.steps.push(s);
        self
    }

    /// Index the *next* step will get (for wiring branch targets).
    pub fn next_index(&self) -> usize {
        self.steps.len()
    }

    /// Finish with an `End` step and validate.
    pub fn build(mut self) -> Result<Program, String> {
        self.steps.push(Step::End);
        let p = Program {
            phases: self.phases,
            steps: self.steps,
            counters: self.counters,
        };
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pax_sim::dist::CostModel;

    fn two_phase_program() -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 8, CostModel::constant(10)));
        let c = b.phase(PhaseDef::new("b", 8, CostModel::constant(10)));
        b.dispatch_enable(
            a,
            vec![EnableSpec {
                successor: c,
                mapping: EnablementMapping::Identity,
            }],
        );
        b.dispatch(c);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_valid_program() {
        let p = two_phase_program();
        assert_eq!(p.phases.len(), 2);
        assert!(matches!(p.steps.last(), Some(Step::End)));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn lookahead_finds_next_dispatch() {
        let p = two_phase_program();
        match p.lookahead(0, &[], false) {
            Lookahead::Phase { phase, step } => {
                assert_eq!(phase, PhaseId(1));
                assert_eq!(step, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lookahead_blocked_by_serial() {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let c = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        b.dispatch(a);
        b.serial(100, "decide");
        b.dispatch(c);
        let p = b.build().unwrap();
        assert_eq!(p.lookahead(0, &[], true), Lookahead::BlockedBySerial);
    }

    #[test]
    fn lookahead_through_preprocessable_branch() {
        // dispatch a; if ctr % 10 != 0 goto dispatch b else dispatch c
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        let pc = b.phase(PhaseDef::new("c", 4, CostModel::constant(1)));
        let ctr = b.counter();
        b.dispatch(pa); // step 0
        b.step(Step::Branch {
            test: BranchTest::CounterModNe {
                counter: ctr,
                modulus: 10,
                residue: 0,
            },
            on_true: 2,
            on_false: 3,
        });
        b.dispatch(pb); // step 2
        b.dispatch(pc); // step 3
        let p = b.build().unwrap();

        // counter = 7: branch true -> b
        assert_eq!(
            p.lookahead(0, &[7], true),
            Lookahead::Phase { phase: pb, step: 2 }
        );
        // counter = 10: branch false -> c
        assert_eq!(
            p.lookahead(0, &[10], true),
            Lookahead::Phase { phase: pc, step: 3 }
        );
        // branch-dependent: blocked
        assert_eq!(p.lookahead(0, &[7], false), Lookahead::BlockedByBranch);
    }

    #[test]
    fn lookahead_applies_incr_to_scratch_only() {
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 4, CostModel::constant(1)));
        let pc = b.phase(PhaseDef::new("c", 4, CostModel::constant(1)));
        let ctr = b.counter();
        b.dispatch(pa); // 0
        b.incr(ctr, 1); // 1
        b.step(Step::Branch {
            test: BranchTest::CounterLt(ctr, 1),
            on_true: 3,
            on_false: 4,
        }); // 2
        b.dispatch(pb); // 3
        b.dispatch(pc); // 4
        let p = b.build().unwrap();
        let counters = vec![0i64];
        // After the incr, counter==1, so CounterLt(1) is false -> c
        assert_eq!(
            p.lookahead(0, &counters, true),
            Lookahead::Phase { phase: pc, step: 4 }
        );
        // the real counter file was untouched
        assert_eq!(counters[0], 0);
    }

    #[test]
    fn validate_catches_bad_targets() {
        let p = Program {
            phases: vec![PhaseDef::new("a", 1, CostModel::constant(1))],
            steps: vec![Step::Goto(99), Step::End],
            counters: 0,
        };
        assert!(p.validate().unwrap_err().contains("goto target"));

        let p2 = Program {
            phases: vec![],
            steps: vec![Step::Dispatch {
                phase: PhaseId(0),
                enables: vec![],
                branch_independent: false,
            }],
            counters: 0,
        };
        assert!(p2.validate().is_err());
    }

    #[test]
    fn branch_tests_eval() {
        assert!(BranchTest::CounterLt(0, 5).eval(&[3]));
        assert!(!BranchTest::CounterLt(0, 5).eval(&[5]));
        assert!(BranchTest::CounterModEq {
            counter: 0,
            modulus: 10,
            residue: 0
        }
        .eval(&[20]));
        assert!(BranchTest::CounterModNe {
            counter: 0,
            modulus: 10,
            residue: 0
        }
        .eval(&[7]));
        assert!(BranchTest::Always.eval(&[]));
        assert!(!BranchTest::Never.eval(&[]));
    }

    #[test]
    fn declared_tasks_counts_every_dispatch() {
        let mut b = ProgramBuilder::new();
        let a = b.phase(PhaseDef::new("a", 10, CostModel::constant(1)));
        let z = b.phase(PhaseDef::new("z", 64, CostModel::constant(1)));
        b.dispatch(a).dispatch(z).dispatch(a);
        let p = b.build().unwrap();
        // ⌈10/4⌉ + ⌈64/4⌉ + ⌈10/4⌉: the phase dispatched twice counts twice.
        assert_eq!(p.declared_tasks(TaskSizing::Fixed(4), 8), Some(3 + 16 + 3));
        // Two tasks a processor on 4 processors: 10 → 1-granule tasks,
        // 64 → 8-granule tasks.
        let sizing = TaskSizing::TasksPerProcessor(2.0);
        assert_eq!(p.declared_tasks(sizing, 4), Some(10 + 8 + 10));
    }

    #[test]
    fn declared_tasks_counts_both_arms_of_a_forward_branch() {
        let mut b = ProgramBuilder::new();
        let pa = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
        let pb = b.phase(PhaseDef::new("b", 8, CostModel::constant(1)));
        let pc = b.phase(PhaseDef::new("c", 16, CostModel::constant(1)));
        let ctr = b.counter();
        b.dispatch(pa); // 0
        b.step(Step::Branch {
            test: BranchTest::CounterLt(ctr, 1),
            on_true: 2,
            on_false: 4,
        }); // 1
        b.dispatch(pb); // 2
        b.step(Step::Goto(5)); // 3
        b.dispatch(pc); // 4
        let p = b.build().unwrap();
        assert_eq!(p.declared_tasks(TaskSizing::Fixed(1), 2), Some(4 + 8 + 16));
    }

    #[test]
    fn declared_tasks_is_unknown_for_a_loop() {
        let program = |jump: Step| {
            let mut b = ProgramBuilder::new();
            let a = b.phase(PhaseDef::new("a", 4, CostModel::constant(1)));
            b.counter();
            b.dispatch(a); // 0
            b.step(jump); // 1
            b.build().unwrap()
        };
        let branch = |on_true, on_false| Step::Branch {
            test: BranchTest::CounterLt(0, 3),
            on_true,
            on_false,
        };
        let sizing = TaskSizing::Fixed(1);
        assert_eq!(program(Step::Goto(2)).declared_tasks(sizing, 1), Some(4));
        assert_eq!(program(Step::Goto(0)).declared_tasks(sizing, 1), None);
        assert_eq!(program(Step::Goto(1)).declared_tasks(sizing, 1), None);
        assert_eq!(program(branch(0, 2)).declared_tasks(sizing, 1), None);
        assert_eq!(program(branch(2, 0)).declared_tasks(sizing, 1), None);
        assert_eq!(program(branch(2, 2)).declared_tasks(sizing, 1), Some(4));
    }

    #[test]
    fn lookahead_terminates_on_goto_cycle() {
        let p = Program {
            phases: vec![PhaseDef::new("a", 1, CostModel::constant(1))],
            steps: vec![
                Step::Dispatch {
                    phase: PhaseId(0),
                    enables: vec![],
                    branch_independent: false,
                },
                Step::Goto(1), // self-loop after the dispatch
            ],
            counters: 0,
        };
        assert_eq!(p.lookahead(0, &[], true), Lookahead::ProgramEnd);
    }
}
