//! Deterministic JSON rendering of a [`VerifyReport`].
//!
//! Streamed by hand like `qei-bench`'s report writer, with strings escaped
//! by [`qei_config::json`]: fixed key order, sorted program order, no
//! floating point — two runs over the same firmware store produce
//! byte-identical output, so the CI artifact diffs cleanly.

use crate::contract::num_fields;
use crate::{ProgramReport, VerifyReport};
use qei_config::json::{self, quote, Value};

/// The report schema tag. v2 added the per-program `cost` contract section;
/// [`check_schema`] rejects anything it does not recognize.
pub const VERIFY_SCHEMA: &str = "qei-verify-v2";

/// Checks that `text` is a verify report this build can read: the whole
/// document must parse ([`json::parse`]) to an object whose top-level
/// `"schema"` field is exactly [`VERIFY_SCHEMA`].
///
/// # Errors
///
/// A human-readable description of the mismatch (malformed document,
/// unknown or missing schema).
pub fn check_schema(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("not a verify report: {e}"))?;
    match doc.get("schema") {
        Some(Value::Str(schema)) if schema == VERIFY_SCHEMA => Ok(()),
        Some(Value::Str(schema)) => Err(format!(
            "unknown verify-report schema \"{schema}\" (this build reads \"{VERIFY_SCHEMA}\"); \
             regenerate the report with `repro --verify`"
        )),
        _ => {
            Err("report has no \"schema\" field holding a string; not a verify report".to_string())
        }
    }
}

/// Renders the whole report as a JSON document.
pub fn render(report: &VerifyReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str(&format!("{{\n  \"schema\": \"{VERIFY_SCHEMA}\",\n"));
    out.push_str(&format!("  \"ok\": {},\n", report.ok()));
    out.push_str(&format!(
        "  \"programs_checked\": {},\n",
        report.programs.len()
    ));
    out.push_str("  \"programs\": [\n");
    for (i, p) in report.programs.iter().enumerate() {
        render_program(&mut out, p);
        if i + 1 < report.programs.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn render_program(out: &mut String, p: &ProgramReport) {
    out.push_str("    {\n");
    out.push_str(&format!("      \"cfa\": {},\n", quote(p.cfa)));
    out.push_str(&format!("      \"model\": {},\n", quote(p.model)));
    out.push_str(&format!("      \"dtype\": {},\n", p.dtype));
    out.push_str(&format!("      \"subtype\": {},\n", p.subtype));
    out.push_str(&format!("      \"ok\": {},\n", p.ok()));
    out.push_str(&format!(
        "      \"states_declared\": {},\n",
        p.states_declared
    ));
    let states: Vec<String> = p.states_observed.iter().map(u8::to_string).collect();
    out.push_str(&format!(
        "      \"states_observed\": [{}],\n",
        states.join(", ")
    ));
    out.push_str(&format!("      \"configs\": {},\n", p.configs));
    out.push_str(&format!("      \"transitions\": {},\n", p.transitions));
    out.push_str(&format!("      \"terminals\": {},\n", p.terminals));
    out.push_str("      \"cost\": {");
    // `dtype` and `subtype` are rendered above, from the program itself.
    for (i, (name, value)) in num_fields(&p.cost).into_iter().skip(2).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{name}\": {value}"));
    }
    out.push_str("},\n");
    out.push_str("      \"diagnostics\": [");
    if p.diagnostics.is_empty() {
        out.push_str("]\n");
    } else {
        out.push('\n');
        for (i, d) in p.diagnostics.iter().enumerate() {
            out.push_str("        {");
            out.push_str(&format!("\"check\": {}, ", quote(d.check.id())));
            match d.state {
                Some(s) => out.push_str(&format!("\"state\": {s}, ")),
                None => out.push_str("\"state\": null, "),
            }
            out.push_str(&format!("\"detail\": {}}}", quote(&d.detail)));
            if i + 1 < p.diagnostics.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("      ]\n");
    }
    out.push_str("    }");
}

#[cfg(test)]
mod tests {
    use super::{check_schema, VERIFY_SCHEMA};

    #[test]
    fn schema_check_accepts_current_and_rejects_others() {
        let current = format!("{{\n  \"schema\": \"{VERIFY_SCHEMA}\",\n  \"ok\": true\n}}\n");
        assert!(check_schema(&current).is_ok());

        let old = current.replace(VERIFY_SCHEMA, "qei-verify-v1");
        let err = check_schema(&old).expect_err("v1 must be rejected");
        assert!(err.contains("qei-verify-v1"), "{err}");
        assert!(err.contains(VERIFY_SCHEMA), "{err}");

        let none = "{\n  \"ok\": true\n}\n";
        let err = check_schema(none).expect_err("missing schema must be rejected");
        assert!(err.contains("no \"schema\" field"), "{err}");
    }
}
