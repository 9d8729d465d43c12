//! The committed `CONTRACTS.json` artifact: a deterministic encoding of
//! every installed CFA's [`CostContract`] (schema `qei-contract-v1`), plus
//! a strict reader for the drift gate on top of [`qei_config::json`].
//! Encoding is purely a function of the contract values — no timestamps, no
//! float formatting, no map iteration order — so repeated
//! `repro --contracts` runs are byte-identical at any thread count.

use qei_config::json::{self, Value};
use qei_config::CostContract;

/// The artifact schema tag. Bump when the contract field set changes; the
/// parser rejects anything else with a clear error.
pub const CONTRACT_SCHEMA: &str = "qei-contract-v1";

/// An ordered set of contracts (sorted by `(dtype, subtype)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractSet {
    /// The per-structure contracts.
    pub contracts: Vec<CostContract>,
}

/// How many numeric fields a contract has.
const NUM_FIELD_COUNT: usize = 17;

/// The numeric fields of `c` in serialization order, widened to `u64`.
pub(crate) fn num_fields(c: &CostContract) -> [(&'static str, u64); NUM_FIELD_COUNT] {
    [
        ("dtype", c.dtype.into()),
        ("subtype", c.subtype.into()),
        ("widen_iters", c.widen_iters),
        ("widen_key_len", c.widen_key_len.into()),
        ("widen_aux0", c.widen_aux0),
        ("states", c.states),
        ("read_ops", c.read_ops),
        ("read_bytes", c.read_bytes),
        ("compare_ops", c.compare_ops),
        ("compare_bytes", c.compare_bytes),
        ("hash_ops", c.hash_ops),
        ("alu_ops", c.alu_ops),
        ("mem_lines", c.mem_lines),
        ("cycles_l1", c.cycles_l1),
        ("cycles_l2", c.cycles_l2),
        ("cycles_llc", c.cycles_llc),
        ("cycles_dram", c.cycles_dram),
    ]
}

fn set_num_field(c: &mut CostContract, name: &str, v: u64) -> Result<(), String> {
    let narrow8 = |v: u64| -> Result<u8, String> {
        u8::try_from(v).map_err(|_| format!("field {name} = {v} does not fit in u8"))
    };
    match name {
        "dtype" => c.dtype = narrow8(v)?,
        "subtype" => c.subtype = narrow8(v)?,
        "widen_iters" => c.widen_iters = v,
        "widen_key_len" => {
            c.widen_key_len =
                u32::try_from(v).map_err(|_| format!("field {name} = {v} does not fit in u32"))?;
        }
        "widen_aux0" => c.widen_aux0 = v,
        "states" => c.states = v,
        "read_ops" => c.read_ops = v,
        "read_bytes" => c.read_bytes = v,
        "compare_ops" => c.compare_ops = v,
        "compare_bytes" => c.compare_bytes = v,
        "hash_ops" => c.hash_ops = v,
        "alu_ops" => c.alu_ops = v,
        "mem_lines" => c.mem_lines = v,
        "cycles_l1" => c.cycles_l1 = v,
        "cycles_l2" => c.cycles_l2 = v,
        "cycles_llc" => c.cycles_llc = v,
        "cycles_dram" => c.cycles_dram = v,
        other => return Err(format!("unknown contract field \"{other}\"")),
    }
    Ok(())
}

impl ContractSet {
    /// Renders the deterministic artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": ");
        json::write_string(&mut out, CONTRACT_SCHEMA);
        out.push_str(",\n  \"contracts\": [");
        for (i, c) in self.contracts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n      \"cfa\": ");
            json::write_string(&mut out, &c.cfa);
            out.push_str(",\n      \"model\": ");
            json::write_string(&mut out, &c.model);
            out.push_str(",\n");
            for (j, (name, value)) in num_fields(c).into_iter().enumerate() {
                let sep = if j + 1 == NUM_FIELD_COUNT { "" } else { "," };
                out.push_str(&format!("      \"{name}\": {value}{sep}\n"));
            }
            out.push_str("    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Strict parse of a committed artifact: [`json::parse`], then exactly
    /// `schema` (first, equal to [`CONTRACT_SCHEMA`]) and `contracts`, each
    /// contract with exactly its field set. Unknown schemas and unknown,
    /// duplicate, missing, or mistyped fields fail with a clear error
    /// instead of being skipped.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first structural problem.
    pub fn parse(text: &str) -> Result<ContractSet, String> {
        let Value::Obj(top) = json::parse(text)? else {
            return Err("the artifact is not a JSON object".to_string());
        };
        match top.first() {
            Some((k, Value::Str(schema))) if k == "schema" => {
                if schema != CONTRACT_SCHEMA {
                    return Err(format!(
                        "unknown contract schema \"{schema}\" (this build reads \"{CONTRACT_SCHEMA}\"); \
                         regenerate CONTRACTS.json with `repro --contracts`"
                    ));
                }
            }
            _ => return Err("expected a \"schema\" string as the first field".to_string()),
        }
        let [_, (key, Value::Arr(list))] = top.as_slice() else {
            return Err("expected a \"contracts\" array as the only other field".to_string());
        };
        if key != "contracts" {
            return Err(format!("expected \"contracts\", found \"{key}\""));
        }
        let contracts = list.iter().map(contract).collect::<Result<_, _>>()?;
        Ok(ContractSet { contracts })
    }
}

fn contract(value: &Value) -> Result<CostContract, String> {
    let Value::Obj(members) = value else {
        return Err(format!(
            "a contract must be an object, got {}",
            value.type_name()
        ));
    };
    let mut c = CostContract::default();
    for (key, v) in members {
        match (key.as_str(), v) {
            ("cfa", Value::Str(s)) => c.cfa = s.clone(),
            ("model", Value::Str(s)) => c.model = s.clone(),
            (name, Value::UInt(n)) if !matches!(name, "cfa" | "model") => {
                set_num_field(&mut c, name, *n)?;
            }
            (name, v) => {
                return Err(format!(
                    "contract field \"{name}\" has the wrong type ({})",
                    v.type_name()
                ))
            }
        }
    }
    let expected = 2 + NUM_FIELD_COUNT;
    if members.len() != expected {
        return Err(format!(
            "contract for \"{}\" has {} fields, expected {expected}",
            c.cfa,
            members.len()
        ));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ContractSet {
        ContractSet {
            contracts: vec![
                CostContract {
                    cfa: "linked-list".into(),
                    model: "linked-list".into(),
                    dtype: 1,
                    subtype: 0,
                    widen_iters: 4096,
                    widen_key_len: 512,
                    widen_aux0: u64::MAX,
                    states: 100,
                    read_ops: 10,
                    read_bytes: 240,
                    compare_ops: 10,
                    compare_bytes: 5120,
                    hash_ops: 0,
                    alu_ops: 0,
                    mem_lines: 30,
                    cycles_l1: 1,
                    cycles_l2: 2,
                    cycles_llc: 3,
                    cycles_dram: 4,
                },
                CostContract {
                    cfa: "cuckoo".into(),
                    model: "cuckoo-hash".into(),
                    dtype: 2,
                    subtype: 1,
                    widen_iters: 64,
                    widen_key_len: 512,
                    widen_aux0: 16,
                    states: 64,
                    read_ops: 8,
                    read_bytes: 4096,
                    compare_ops: 8,
                    compare_bytes: 4096,
                    hash_ops: 2,
                    alu_ops: 64,
                    mem_lines: 64,
                    cycles_l1: 10,
                    cycles_l2: 20,
                    cycles_llc: 30,
                    cycles_dram: 40,
                },
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let set = sample();
        let json = set.to_json();
        let parsed = ContractSet::parse(&json).expect("parse");
        assert_eq!(parsed, set);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn empty_set_round_trips() {
        let set = ContractSet { contracts: vec![] };
        let parsed = ContractSet::parse(&set.to_json()).expect("parse");
        assert!(parsed.contracts.is_empty());
    }

    #[test]
    fn unknown_schema_is_rejected_with_clear_error() {
        let json = sample()
            .to_json()
            .replace("qei-contract-v1", "qei-contract-v9");
        let err = ContractSet::parse(&json).expect_err("must reject");
        assert!(err.contains("unknown contract schema"), "{err}");
        assert!(err.contains("qei-contract-v9"), "{err}");
    }

    #[test]
    fn unknown_field_is_rejected() {
        let json = sample().to_json().replace("\"states\"", "\"mystery\"");
        let err = ContractSet::parse(&json).expect_err("must reject");
        assert!(err.contains("unknown contract field"), "{err}");
    }

    #[test]
    fn missing_field_is_rejected() {
        let json = sample()
            .to_json()
            .replace("      \"hash_ops\": 0,\n", "")
            .replace("      \"hash_ops\": 2,\n", "");
        let err = ContractSet::parse(&json).expect_err("must reject");
        assert!(err.contains("fields, expected"), "{err}");
    }

    #[test]
    fn u64_max_survives_the_round_trip() {
        let set = sample();
        let parsed = ContractSet::parse(&set.to_json()).expect("parse");
        assert_eq!(parsed.contracts[0].widen_aux0, u64::MAX);
    }
}
