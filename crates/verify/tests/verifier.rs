//! The shipped firmware must pass every check, and deliberately broken
//! firmware must be rejected with the *right* diagnostic — a verifier that
//! says "bad" without saying why (or that never says "bad") is useless.

use qei_core::firmware::{CfaProgram, STATE_DONE, STATE_START};
use qei_core::uop::{MicroOp, OpOutcome};
use qei_core::{FaultCode, QueryCtx};
use qei_verify::{generic_model, verify_all, verify_program, Check};

// ---------------------------------------------------------------------------
// Shipped firmware
// ---------------------------------------------------------------------------

#[test]
fn all_shipped_cfas_pass() {
    let report = verify_all();
    assert_eq!(
        report.programs.len(),
        8,
        "seven built-ins plus the loadable B+-tree"
    );
    for p in &report.programs {
        assert!(
            p.ok(),
            "CFA `{}` (dtype {}, subtype {}) failed verification: {:#?}",
            p.cfa,
            p.dtype,
            p.subtype,
            p.diagnostics
        );
        assert!(p.terminals > 0, "CFA `{}` reached no terminal", p.cfa);
        assert_eq!(
            p.states_observed.len(),
            p.states_declared as usize,
            "CFA `{}` state coverage",
            p.cfa
        );
    }
    assert!(report.ok());
}

#[test]
fn report_json_is_deterministic() {
    let a = verify_all().to_json();
    let b = verify_all().to_json();
    assert_eq!(a, b, "two runs must render byte-identical JSON");
    assert!(a.contains("\"schema\": \"qei-verify-v2\""));
    assert!(a.contains("\"ok\": true"));
    assert!(
        a.contains("\"cost\": {"),
        "v2 reports carry the cost contract"
    );
    qei_verify::check_schema(&a).expect("the renderer's own output must pass the schema check");
}

#[test]
fn schema_check_reads_the_whole_document() {
    let report = verify_all().to_json();
    // A schema-looking substring is not a report.
    let err = qei_verify::check_schema("garbage \"schema\": \"qei-verify-v2\"")
        .expect_err("garbage must be rejected");
    assert!(err.contains("not a verify report"), "{err}");
    // Nor is a real report cut anywhere after its schema line.
    let schema_line = format!("\"schema\": \"{}\",\n", qei_verify::VERIFY_SCHEMA);
    let after_schema = report.find(&schema_line).unwrap() + schema_line.len();
    let end = report.trim_end().len();
    for cut in after_schema..end {
        assert!(
            qei_verify::check_schema(&report[..cut]).is_err(),
            "report truncated at byte {cut} passed"
        );
    }
    qei_verify::check_schema(&report[..end]).expect("the full report passes");
    // The schema must be the top-level field, not a nested one.
    let nested = report.replacen("\"schema\"", "\"schema_of\"", 1).replacen(
        "\"ok\": true,",
        "\"ok\": true, \"inner\": {\"schema\": \"qei-verify-v2\"},",
        1,
    );
    assert!(qei_verify::check_schema(&nested).is_err());
}

// ---------------------------------------------------------------------------
// Broken firmware: each defect draws its own diagnostic
// ---------------------------------------------------------------------------

/// Finds a diagnostic of `check` in the report for `cfa` run on a generic
/// model, asserting it is the only *kind* of failure present.
fn expect_diagnostic(cfa: &dyn CfaProgram, check: Check) {
    let model = generic_model(200, 0);
    let report = verify_program(cfa, &model);
    assert!(
        report.diagnostics.iter().any(|d| d.check == check),
        "expected a `{}` diagnostic for `{}`, got: {:#?}",
        check.id(),
        cfa.name(),
        report.diagnostics
    );
}

/// Declares 4 states but only ever uses 2: state 3 is dead.
#[derive(Debug)]
struct DeadStateCfa;

impl CfaProgram for DeadStateCfa {
    fn name(&self) -> &'static str {
        "dead-state"
    }

    fn state_count(&self) -> u8 {
        4
    }

    fn step(&self, ctx: &mut QueryCtx, _last: OpOutcome) -> MicroOp {
        match ctx.state {
            STATE_START => {
                ctx.state = STATE_DONE;
                MicroOp::Done { result: 0 }
            }
            _ => MicroOp::Fault {
                code: FaultCode::MalformedHeader,
            },
        }
    }
}

#[test]
fn dead_state_is_rejected() {
    expect_diagnostic(&DeadStateCfa, Check::DeadState);
}

/// Reads the same address forever: no path reaches Done or Fault.
#[derive(Debug)]
struct LoopForeverCfa;

impl CfaProgram for LoopForeverCfa {
    fn name(&self) -> &'static str {
        "loop-forever"
    }

    fn state_count(&self) -> u8 {
        2
    }

    fn step(&self, ctx: &mut QueryCtx, _last: OpOutcome) -> MicroOp {
        ctx.state = 1;
        MicroOp::Read {
            addr: ctx.header.ds_ptr,
            len: 8,
        }
    }
}

#[test]
fn livelock_is_rejected() {
    expect_diagnostic(&LoopForeverCfa, Check::Livelock);
}

/// Spins on pure ALU work: a dataless cycle (and also a livelock).
#[derive(Debug)]
struct AluSpinCfa;

impl CfaProgram for AluSpinCfa {
    fn name(&self) -> &'static str {
        "alu-spin"
    }

    fn state_count(&self) -> u8 {
        2
    }

    fn step(&self, ctx: &mut QueryCtx, _last: OpOutcome) -> MicroOp {
        ctx.state = 1;
        MicroOp::Alu { n: 1 }
    }
}

#[test]
fn dataless_cycle_is_rejected() {
    expect_diagnostic(&AluSpinCfa, Check::DatalessCycle);
    expect_diagnostic(&AluSpinCfa, Check::Livelock);
}

/// Issues a read far beyond the DPU line budget.
#[derive(Debug)]
struct OverBudgetCfa;

impl CfaProgram for OverBudgetCfa {
    fn name(&self) -> &'static str {
        "over-budget"
    }

    fn state_count(&self) -> u8 {
        2
    }

    fn step(&self, ctx: &mut QueryCtx, last: OpOutcome) -> MicroOp {
        match last {
            OpOutcome::Start => {
                ctx.state = 1;
                MicroOp::Read {
                    addr: ctx.header.ds_ptr,
                    len: 1 << 20,
                }
            }
            _ => {
                ctx.state = STATE_DONE;
                MicroOp::Done { result: 0 }
            }
        }
    }
}

#[test]
fn over_budget_op_is_rejected() {
    expect_diagnostic(&OverBudgetCfa, Check::IssueBudget);
}

/// Emits Done without ever entering STATE_DONE.
#[derive(Debug)]
struct WrongTerminalCfa;

impl CfaProgram for WrongTerminalCfa {
    fn name(&self) -> &'static str {
        "wrong-terminal"
    }

    fn state_count(&self) -> u8 {
        1
    }

    fn step(&self, _ctx: &mut QueryCtx, _last: OpOutcome) -> MicroOp {
        MicroOp::Done { result: 0 }
    }
}

#[test]
fn wrong_terminal_state_is_rejected() {
    expect_diagnostic(&WrongTerminalCfa, Check::TerminalState);
}

/// Branches on `flags`, a header field no builder writes for this model.
#[derive(Debug)]
struct HeaderSnoopCfa;

impl CfaProgram for HeaderSnoopCfa {
    fn name(&self) -> &'static str {
        "header-snoop"
    }

    fn state_count(&self) -> u8 {
        2
    }

    fn step(&self, ctx: &mut QueryCtx, last: OpOutcome) -> MicroOp {
        match last {
            OpOutcome::Start => {
                ctx.state = 1;
                if ctx.header.flags & 0x4000_0000 != 0 {
                    MicroOp::Alu { n: 4 }
                } else {
                    MicroOp::Alu { n: 2 }
                }
            }
            _ => {
                ctx.state = STATE_DONE;
                MicroOp::Done { result: 0 }
            }
        }
    }
}

#[test]
fn uninitialized_header_read_is_rejected() {
    let mut model = generic_model(201, 0);
    model.fields_written.clear(); // builder writes nothing
    let report = verify_program(&HeaderSnoopCfa, &model);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.check == Check::HeaderField && d.detail.contains("flags")),
        "expected a `header-field` diagnostic naming `flags`, got: {:#?}",
        report.diagnostics
    );
}

/// Panics when it sees data.
#[derive(Debug)]
struct PanicCfa;

impl CfaProgram for PanicCfa {
    fn name(&self) -> &'static str {
        "panics"
    }

    fn state_count(&self) -> u8 {
        2
    }

    fn step(&self, ctx: &mut QueryCtx, last: OpOutcome) -> MicroOp {
        match last {
            OpOutcome::Start => {
                ctx.state = 1;
                MicroOp::Read {
                    addr: ctx.header.ds_ptr,
                    len: 8,
                }
            }
            _ => panic!("firmware bug"),
        }
    }
}

#[test]
fn panicking_step_is_rejected() {
    expect_diagnostic(&PanicCfa, Check::StepPanic);
}

// ---------------------------------------------------------------------------
// Mutation epochs: the explorer models the walk driver's stale gate
// ---------------------------------------------------------------------------

/// A root whose header epoch is odd never reaches the CFA: the explorer
/// resolves it as an immediate `Fault` terminal, mirroring the
/// `StaleStructure` gate in `qei_core::walk`.
#[test]
fn stale_root_is_fault_terminal() {
    use qei_verify::{explore, ConfigEnd};

    let mut model = generic_model(202, 0);
    model.headers[0].epoch = 3; // odd: mutation in flight
    let ex = explore(&HeaderSnoopCfa, &model);
    assert_eq!(ex.configs.len(), 1, "stale root must not expand");
    assert!(
        matches!(ex.configs[0].end, ConfigEnd::Fault),
        "stale root must be a Fault terminal, got {:?}",
        ex.configs[0].end
    );
    assert_eq!(ex.terminals, 1);
}

/// A parity-preserving epoch perturbation (what the header-field check
/// applies) must not change behavior: the stale gate keys on the low bit
/// alone and no CFA reads the epoch value.
#[test]
fn even_epoch_perturbation_is_invisible() {
    use qei_verify::{explore, HeaderField};

    let model = generic_model(203, 0);
    let base = explore(&HeaderSnoopCfa, &model);

    let mut perturbed = generic_model(203, 0);
    for h in &mut perturbed.headers {
        *h = HeaderField::Epoch.perturb(h);
        assert_eq!(h.epoch & 1, 0, "perturbation must preserve parity");
    }
    let ex = explore(&HeaderSnoopCfa, &perturbed);
    assert_eq!(
        base.signature, ex.signature,
        "even epoch flip must not change exploration decisions"
    );
}

/// Shipped CFAs pass the header-field check with `Epoch` in the perturbation
/// set even though no model lists it in `fields_written`: dispatch owns the
/// epoch; firmware must not.
#[test]
fn epoch_is_never_a_written_field() {
    for model in qei_verify::builtin_models() {
        assert!(
            !model
                .fields_written
                .contains(&qei_verify::HeaderField::Epoch),
            "model `{}` must not claim the epoch field",
            model.name
        );
    }
}
