//! The `qei-served-v1` wire format.
//!
//! One request per line, one response per line. A request is a single JSON
//! object whose **first** field is the schema tag, so a daemon from a
//! different commit refuses politely before reading anything else:
//!
//! ```json
//! {"schema":"qei-served-v1","op":"build","session":"a","kind":"jvm-gc","guest_seed":7,"build_seed":2}
//! ```
//!
//! Lines are parsed by the workspace's one strict codec,
//! [`qei_config::json`], which already rejects malformed JSON, duplicate
//! fields, trailing bytes, and nesting past its depth cap. This module adds
//! the protocol's own rules: the schema tag comes first and matches
//! [`SCHEMA`]; every other value is a string, an unsigned integer, or a
//! boolean (floats, negatives, `null`, arrays, and objects are rejected);
//! `op` is a string; and unknown or missing fields fail with a message that
//! names them.
//!
//! Responses are objects too, `schema` first, then `"ok":true` plus
//! op-specific fields, or `"ok":false` with an `"error"` string. Multi-line
//! payloads (report trees) travel as escaped JSON strings.
//!
//! The `"digest"` field of `build`, `run`, `mutate`, `snapshot`, `revert`
//! and `digest` replies names a guest state, but its value is not part of
//! the wire format: compare digests only between replies of the same
//! daemon build, and do not store them across upgrades.

use qei_config::json::{self, Value};

/// Escapes `s` as a JSON string literal, double quotes included.
pub use qei_config::json::quote as json_str;

/// The protocol generation this build speaks.
pub const SCHEMA: &str = "qei-served-v1";

/// A parsed request: the operation name plus its remaining fields, which
/// the daemon consumes one by one and then checks for leftovers
/// ([`Request::finish`]) so typos fail loudly instead of being ignored.
#[derive(Debug)]
pub struct Request {
    op: String,
    /// The fields not consumed yet, each a string, unsigned integer, or
    /// boolean.
    fields: Vec<(String, Value)>,
}

impl Request {
    /// The request's operation name.
    pub fn op(&self) -> &str {
        &self.op
    }

    fn take(&mut self, key: &str) -> Option<Value> {
        let at = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(at).1)
    }

    /// Consumes an optional string field.
    ///
    /// # Errors
    ///
    /// When the field is present with a non-string value.
    pub fn opt_str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(v) => Err(format!(
                "field \"{key}\" must be a string, got {}",
                v.type_name()
            )),
        }
    }

    /// Consumes an optional unsigned-integer field.
    ///
    /// # Errors
    ///
    /// When the field is present with a non-integer value.
    pub fn opt_u64(&mut self, key: &str) -> Result<Option<u64>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::UInt(n)) => Ok(Some(n)),
            Some(v) => Err(format!(
                "field \"{key}\" must be an unsigned integer, got {}",
                v.type_name()
            )),
        }
    }

    /// Consumes an optional boolean field.
    ///
    /// # Errors
    ///
    /// When the field is present with a non-boolean value.
    pub fn opt_bool(&mut self, key: &str) -> Result<Option<bool>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(Value::Bool(b)) => Ok(Some(b)),
            Some(v) => Err(format!(
                "field \"{key}\" must be a boolean, got {}",
                v.type_name()
            )),
        }
    }

    /// Consumes a required string field.
    ///
    /// # Errors
    ///
    /// When the field is missing or not a string.
    pub fn req_str(&mut self, key: &str) -> Result<String, String> {
        self.opt_str(key)?
            .ok_or_else(|| format!("op \"{}\" requires field \"{key}\"", self.op))
    }

    /// Consumes a required unsigned-integer field.
    ///
    /// # Errors
    ///
    /// When the field is missing or not an unsigned integer.
    pub fn req_u64(&mut self, key: &str) -> Result<u64, String> {
        self.opt_u64(key)?
            .ok_or_else(|| format!("op \"{}\" requires field \"{key}\"", self.op))
    }

    /// Rejects any field the op did not consume — the unknown-field check.
    ///
    /// # Errors
    ///
    /// Naming the first leftover field.
    pub fn finish(&self) -> Result<(), String> {
        match self.fields.first() {
            Some((k, _)) => Err(format!("unknown field \"{k}\" for op \"{}\"", self.op)),
            None => Ok(()),
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// On any deviation from the strict format, with a message naming the
/// offending schema, field, or byte offset.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let Value::Obj(mut fields) = json::parse(line)? else {
        return Err("a request must be a JSON object".to_string());
    };
    // Schema first, so version mismatches fail before anything else.
    match fields.first() {
        Some((k, Value::Str(schema))) if k == "schema" => {
            if schema != SCHEMA {
                return Err(format!(
                    "unknown request schema \"{schema}\" (this daemon speaks \"{SCHEMA}\")"
                ));
            }
        }
        Some((k, v)) if k == "schema" => {
            return Err(format!(
                "field \"schema\" must be a string, got {}",
                v.type_name()
            ))
        }
        Some((k, _)) => return Err(format!("the first field must be \"schema\", found \"{k}\"")),
        None => return Err("missing field \"schema\"".to_string()),
    }
    fields.remove(0);
    for (k, v) in &fields {
        if !matches!(v, Value::Str(_) | Value::UInt(_) | Value::Bool(_)) {
            return Err(format!(
                "field \"{k}\" is not a string, unsigned integer, or boolean (got {})",
                v.type_name()
            ));
        }
    }
    let mut req = Request {
        op: String::new(),
        fields,
    };
    req.op = req
        .opt_str("op")?
        .ok_or_else(|| "missing field \"op\"".to_string())?;
    Ok(req)
}

/// Builds a response line: `schema` first, then `ok`, then pushed fields,
/// in insertion order.
#[derive(Debug)]
pub struct Response {
    body: String,
}

impl Response {
    /// Starts a response with the given `ok` flag.
    pub fn new(ok: bool) -> Response {
        let mut body = String::from("{\"schema\":");
        json::write_string(&mut body, SCHEMA);
        body.push_str(if ok { ",\"ok\":true" } else { ",\"ok\":false" });
        Response { body }
    }

    /// An error response carrying `error`.
    pub fn error(message: &str) -> String {
        Response::new(false).str("error", message).finish()
    }

    /// Appends `,"key":` ahead of a value.
    fn key(mut self, key: &str) -> Response {
        self.body.push(',');
        json::write_string(&mut self.body, key);
        self.body.push(':');
        self
    }

    /// Appends a string field (escaped).
    pub fn str(self, key: &str, value: &str) -> Response {
        let mut r = self.key(key);
        json::write_string(&mut r.body, value);
        r
    }

    /// Appends an unsigned-integer field.
    pub fn u64(self, key: &str, value: u64) -> Response {
        let mut r = self.key(key);
        r.body.push_str(&value.to_string());
        r
    }

    /// Appends a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Response {
        let mut r = self.key(key);
        r.body.push_str(if value { "true" } else { "false" });
        r
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(fields: &str) -> String {
        format!("{{\"schema\":\"{SCHEMA}\",{fields}}}")
    }

    #[test]
    fn parses_a_well_formed_request() {
        let mut r = parse_request(&line(
            "\"op\":\"build\",\"session\":\"a\",\"guest_seed\":7,\"fresh\":true",
        ))
        .unwrap();
        assert_eq!(r.op(), "build");
        assert_eq!(r.req_str("session").unwrap(), "a");
        assert_eq!(r.req_u64("guest_seed").unwrap(), 7);
        assert_eq!(r.opt_bool("fresh").unwrap(), Some(true));
        assert!(r.finish().is_ok());
    }

    #[test]
    fn schema_must_come_first_and_match() {
        let err = parse_request("{\"op\":\"ping\",\"schema\":\"qei-served-v1\"}").unwrap_err();
        assert!(err.contains("first field"), "{err}");
        let err = parse_request("{\"schema\":\"qei-served-v0\",\"op\":\"ping\"}").unwrap_err();
        assert!(err.contains("qei-served-v1"), "{err}");
    }

    #[test]
    fn duplicate_and_unknown_fields_are_rejected() {
        let err = parse_request(&line("\"op\":\"ping\",\"x\":1,\"x\":2")).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        let mut r = parse_request(&line("\"op\":\"ping\",\"bogus\":1")).unwrap();
        let err = r.finish().unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert_eq!(r.opt_u64("bogus").unwrap(), Some(1));
        assert!(r.finish().is_ok());
    }

    #[test]
    fn wrong_types_missing_fields_and_floats_are_rejected() {
        let mut r = parse_request(&line("\"op\":\"build\",\"session\":5")).unwrap();
        assert!(r.req_str("session").is_err());
        let mut r = parse_request(&line("\"op\":\"build\"")).unwrap();
        let err = r.req_str("session").unwrap_err();
        assert!(err.contains("requires"), "{err}");
        let err = parse_request(&line("\"op\":\"run\",\"x\":1.5")).unwrap_err();
        assert!(err.contains("floating-point"), "{err}");
        assert!(parse_request(&line("\"op\":\"run\",\"x\":null")).is_err());
        assert!(parse_request(&line("\"op\":\"run\",\"x\":[1]")).is_err());
        assert!(parse_request(&line("\"op\":\"run\",\"x\":{}")).is_err());
    }

    #[test]
    fn trailing_bytes_and_truncation_are_rejected() {
        assert!(parse_request(&format!("{} extra", line("\"op\":\"ping\""))).is_err());
        let full = line("\"op\":\"ping\"");
        for cut in 1..full.len() {
            assert!(parse_request(&full[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn strings_round_trip_through_the_escaper() {
        for s in [
            "plain",
            "with \"quotes\"",
            "back\\slash",
            "tab\there",
            "ünïcode",
        ] {
            let l = format!(
                "{{\"schema\":{},\"op\":\"ping\",\"s\":{}}}",
                json_str(SCHEMA),
                json_str(s)
            );
            let mut r = parse_request(&l).unwrap();
            assert_eq!(r.req_str("s").unwrap(), s, "{l}");
        }
    }

    #[test]
    fn u64_max_survives() {
        let mut r = parse_request(&line(&format!("\"op\":\"ping\",\"n\":{}", u64::MAX))).unwrap();
        assert_eq!(r.req_u64("n").unwrap(), u64::MAX);
    }

    #[test]
    fn responses_are_parseable_objects() {
        let ok = Response::new(true).str("op", "ping").u64("n", 3).finish();
        assert!(ok.starts_with("{\"schema\":\"qei-served-v1\",\"ok\":true"));
        assert!(ok.ends_with('}'));
        let err = Response::error("bad \"thing\"");
        assert!(err.contains("\\\"thing\\\""));
    }
}
