//! The scanning machinery: a light Rust lexer that blanks comments and
//! string literals (so `"HashMap"` in a diagnostic message is not a
//! finding), a `#[cfg(test)]` block tracker (test code is exempt from every
//! rule), and the rule table.

/// A source file with comments/strings blanked and test regions mapped.
pub struct ScrubbedFile {
    /// Line-by-line scrubbed text. Comment and string-literal bytes are
    /// replaced with spaces; line boundaries are preserved so findings
    /// report real line numbers.
    lines: Vec<String>,
    /// The original lines, char-for-char aligned with `lines` (the scrubber
    /// replaces every blanked char with one space). Rules that must read
    /// string literals — the stats-key rule reads registration keys — index
    /// into these at positions located in the scrubbed text.
    raw: Vec<String>,
    /// `lines[i]` is inside a `#[cfg(test)]` item.
    in_test: Vec<bool>,
}

impl ScrubbedFile {
    pub fn new(text: &str) -> ScrubbedFile {
        let scrubbed = scrub(text);
        let lines: Vec<String> = scrubbed.lines().map(str::to_string).collect();
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let in_test = test_lines(&lines);
        ScrubbedFile {
            lines,
            raw,
            in_test,
        }
    }

    /// Non-test lines as `(1-based line number, text)`.
    fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.in_test[*i])
            .map(|(i, l)| (i + 1, l.as_str()))
    }
}

/// Replaces comments, string literals, and char literals with spaces,
/// preserving newlines. Handles nested `/* */`, escapes in strings, raw
/// strings `r"…"`/`r#"…"#`, and distinguishes lifetimes from char literals.
fn scrub(text: &str) -> String {
    let b: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    let n = b.len();
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    while i < n {
        let c = b[i];
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            while i < n && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 0;
            while i < n {
                if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                    depth += 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                    depth -= 1;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(b[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string: r"…" or r#"…"# (any number of #).
        if c == 'r' && i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') {
            let mut j = i + 1;
            let mut hashes = 0;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && b[j] == '"' {
                out.push(' '); // the `r`
                for _ in 0..hashes {
                    out.push(' ');
                }
                out.push(' '); // opening quote
                j += 1;
                'raw: while j < n {
                    if b[j] == '"' {
                        let mut k = j + 1;
                        let mut seen = 0;
                        while k < n && seen < hashes && b[k] == '#' {
                            seen += 1;
                            k += 1;
                        }
                        if seen == hashes {
                            for _ in j..k {
                                out.push(' ');
                            }
                            j = k;
                            break 'raw;
                        }
                    }
                    out.push(blank(b[j]));
                    j += 1;
                }
                i = j;
                continue;
            }
        }
        // String literal.
        if c == '"' {
            out.push(' ');
            i += 1;
            while i < n {
                if b[i] == '\\' && i + 1 < n {
                    // A `\` line continuation keeps its newline.
                    out.push(' ');
                    out.push(blank(b[i + 1]));
                    i += 2;
                    continue;
                }
                if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                out.push(blank(b[i]));
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: 'x' is a char only if a closing quote
        // follows within a couple of characters (or after an escape).
        if c == '\'' && i + 1 < n {
            let is_char = if b[i + 1] == '\\' {
                true
            } else {
                i + 2 < n && b[i + 2] == '\''
            };
            if is_char {
                out.push(' ');
                i += 1;
                if b[i] == '\\' && i + 1 < n {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                }
                while i < n && b[i] != '\'' {
                    out.push(blank(b[i]));
                    i += 1;
                }
                if i < n {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Marks the lines belonging to `#[cfg(test)]`-gated items by matching the
/// braces of the item that follows the attribute.
fn test_lines(lines: &[String]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Find the opening brace of the gated item, then its matching close.
        let mut depth = 0usize;
        let mut opened = false;
        let mut j = i;
        'item: while j < lines.len() {
            mask[j] = true;
            for ch in lines[j].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if opened && depth == 0 {
                            break 'item;
                        }
                    }
                    // An attribute gating a braceless item (e.g. a `use`)
                    // ends at the first `;` before any brace.
                    ';' if !opened => break 'item,
                    _ => {}
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// One lint rule: which files it covers and how it finds violations.
pub struct Rule {
    pub name: &'static str,
    /// Does the rule apply to this repo-relative path?
    pub applies: fn(&str) -> bool,
    /// Returns `(line, message)` findings.
    pub check: fn(&ScrubbedFile) -> Vec<(usize, String)>,
}

/// Crates whose code *is* the simulated machine: iteration order and float
/// rounding inside them change published numbers.
const SIM_STATE_CRATES: [&str; 8] = [
    "crates/sim/",
    "crates/cache/",
    "crates/mem/",
    "crates/core/",
    "crates/noc/",
    "crates/trace/",
    "crates/serve/",
    "crates/served/",
];

/// Crates on the path from simulation to the figures in the paper: a panic
/// here kills a sweep and eats its partial results.
const REPORT_CRATES: [&str; 11] = [
    "crates/core/",
    "crates/sim/",
    "crates/cache/",
    "crates/mem/",
    "crates/noc/",
    "crates/config/",
    "crates/power/",
    "crates/experiments/",
    "crates/trace/",
    "crates/serve/",
    "crates/served/",
];

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-iter",
        applies: |p| in_any(p, &SIM_STATE_CRATES),
        check: |f| {
            find_tokens(
                f,
                &["HashMap", "HashSet"],
                "hash containers have randomized iteration order; use BTreeMap/Vec \
                 in simulation-state crates",
            )
        },
    },
    Rule {
        name: "wall-clock",
        applies: |p| !p.starts_with("crates/bench/") && !p.starts_with("xtask/"),
        check: |f| {
            find_tokens(
                f,
                &["Instant::now", "SystemTime"],
                "host wall-clock reads are nondeterministic; simulated time comes \
                 from cycle counters (bench harness and --profile paths only)",
            )
        },
    },
    Rule {
        name: "unwrap",
        applies: |p| in_any(p, &REPORT_CRATES),
        check: |f| {
            find_tokens(
                f,
                &[".unwrap()", ".expect("],
                "report-producing crates must fail with typed errors or a panic! \
                 that explains the invariant, not unwrap/expect",
            )
        },
    },
    Rule {
        name: "float-stats",
        applies: |p| in_any(p, &SIM_STATE_CRATES),
        check: float_state_fields,
    },
    Rule {
        name: "forbid-unsafe",
        // Crate roots only: the attribute is crate-wide, so one declaration
        // per crate (plus the xtask binary and the facade crate) covers
        // every module.
        applies: |p| {
            p == "src/lib.rs"
                || p == "xtask/src/main.rs"
                || (p.starts_with("crates/") && p.ends_with("/src/lib.rs"))
        },
        check: |f| {
            if f.lines
                .iter()
                .any(|l| l.contains("#![forbid(unsafe_code)]"))
            {
                Vec::new()
            } else {
                vec![(
                    1,
                    "crate root must declare `#![forbid(unsafe_code)]`: the simulator's \
                     determinism and memory-safety story assumes no unsafe anywhere"
                        .to_string(),
                )]
            }
        },
    },
    Rule {
        name: "stats-key",
        applies: |_| true,
        check: stats_key_registrations,
    },
    Rule {
        name: "json-codec",
        applies: |p| p.starts_with("crates/") && p != "crates/config/src/json.rs",
        check: json_codec_copies,
    },
];

fn find_tokens(f: &ScrubbedFile, tokens: &[&str], why: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (line, text) in f.code_lines() {
        for t in tokens {
            if text.contains(t) {
                out.push((line, format!("`{t}`: {why}")));
                break;
            }
        }
    }
    out
}

/// Flags a second JSON codec outside `qei_config::json`: a parser
/// (`struct Parser`, `fn skip_ws`) or a hand-rolled `\u` string escaper
/// (`\\u{:04x}`, matched on the raw line since the scrubber blanks string
/// literals).
fn json_codec_copies(f: &ScrubbedFile) -> Vec<(usize, String)> {
    let why = "JSON is parsed and escaped by qei_config::json alone; use its parse/write_string";
    let mut out = find_tokens(f, &["struct Parser", "fn skip_ws"], why);
    for (i, (raw, in_test)) in f.raw.iter().zip(&f.in_test).enumerate() {
        if !in_test && raw.contains(r"\\u{:04x}") {
            out.push((i + 1, format!("`\\\\u{{:04x}}` escaper: {why}")));
        }
    }
    out.sort();
    out
}

/// Flags `f64` *field declarations* — accumulator state. Derived read-outs
/// (`fn … -> f64`) and transient `let` bindings are fine: the rule is that
/// anything carried across simulation steps accumulates in integers.
fn float_state_fields(f: &ScrubbedFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (line, text) in f.code_lines() {
        if !text.contains(": f64") {
            continue;
        }
        let t = text.trim();
        if t.contains("fn ") || t.contains("let ") || t.contains("->") {
            continue;
        }
        out.push((
            line,
            "`f64` state field: accumulate statistics in integers and divide \
             once at the report boundary (StatsRegistry owns derived floats)"
                .to_string(),
        ));
    }
    out
}

/// Lints `StatsRegistry` registration sites: every `.set(group, "key", v)`
/// call with a literal key. Two failure modes that corrupt reports quietly:
/// a key that is not snake_case (report grep-ability relies on the
/// convention; `{…}` format placeholders are stripped before the check),
/// and the same `(group, key)` registered twice in one function — the
/// second write silently clobbers the first in the registry.
fn stats_key_registrations(f: &ScrubbedFile) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut seen: Vec<(String, String)> = Vec::new();
    for (i, line) in f.lines.iter().enumerate() {
        if f.in_test[i] {
            continue;
        }
        if line.contains("fn ") {
            seen.clear();
        }
        let mut from = 0usize;
        while let Some(p) = line[from..].find(".set(") {
            let arg_start = from + p + ".set(".len();
            from = arg_start;
            let Some((group, key)) = parse_set_call(f, i, arg_start) else {
                continue;
            };
            let stripped = strip_placeholders(&key);
            if stripped.is_empty()
                || !stripped
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                out.push((
                    i + 1,
                    format!("stats key `{key}` is not snake_case (lowercase, digits, `_`)"),
                ));
            }
            let entry = (group, key);
            if seen.contains(&entry) {
                out.push((
                    i + 1,
                    format!(
                        "duplicate stats registration `{}.{}` in this function: the second \
                         write silently clobbers the first",
                        entry.0, entry.1
                    ),
                ));
            } else {
                seen.push(entry);
            }
        }
    }
    out
}

/// Parses a `.set(` argument list starting at char offset `start` of line
/// `idx`, spanning up to 8 lines. Returns `(group_expr, key_literal)` when
/// the call has exactly three arguments and a string-literal key — anything
/// else (a `Cell::set`, a forwarded variable key) is not a registration
/// site this rule can check.
fn parse_set_call(f: &ScrubbedFile, idx: usize, start: usize) -> Option<(String, String)> {
    // Accumulate the argument chars, scrubbed and raw in lockstep, until
    // the call's parens balance. The scrubbed side has no string contents,
    // so bracket counting cannot be fooled by literals.
    let mut args_scrub: Vec<char> = Vec::new();
    let mut args_raw: Vec<char> = Vec::new();
    let mut depth = 1i32;
    let mut closed = false;
    'collect: for j in idx..f.lines.len().min(idx + 8) {
        let scrub_chars: Vec<char> = f.lines[j].chars().collect();
        let raw_chars: Vec<char> = f.raw.get(j)?.chars().collect();
        let begin = if j == idx { start } else { 0 };
        for (k, &c) in scrub_chars.iter().enumerate().skip(begin) {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    depth -= 1;
                    if depth == 0 {
                        closed = true;
                        break 'collect;
                    }
                }
                _ => {}
            }
            args_scrub.push(c);
            args_raw.push(raw_chars.get(k).copied().unwrap_or(' '));
        }
        args_scrub.push(' ');
        args_raw.push(' ');
    }
    if !closed {
        return None;
    }
    // Split on top-level commas.
    let mut parts: Vec<(usize, usize)> = Vec::new();
    let mut d = 0i32;
    let mut last = 0usize;
    for (k, &c) in args_scrub.iter().enumerate() {
        match c {
            '(' | '[' | '{' => d += 1,
            ')' | ']' | '}' => d -= 1,
            ',' if d == 0 => {
                parts.push((last, k));
                last = k + 1;
            }
            _ => {}
        }
    }
    parts.push((last, args_scrub.len()));
    if parts.len() != 3 {
        return None;
    }
    let group: String = args_raw[parts[0].0..parts[0].1]
        .iter()
        .collect::<String>()
        .trim()
        .to_string();
    let key_region: String = args_raw[parts[1].0..parts[1].1].iter().collect();
    let open = key_region.find('"')?;
    let close = key_region[open + 1..].find('"')?;
    Some((group, key_region[open + 1..open + 1 + close].to_string()))
}

/// Strips `{…}` format placeholders from a key template, leaving the
/// literal characters the rendered key is guaranteed to contain.
fn strip_placeholders(key: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    for c in key.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            c if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let s = scrub("let x = \"HashMap\"; // HashMap\nlet y = 1; /* Instant::now */");
        assert!(!s.contains("HashMap"));
        assert!(!s.contains("Instant"));
        assert!(s.contains("let x ="));
        assert!(s.contains("let y = 1;"));
    }

    #[test]
    fn scrub_handles_raw_strings_and_lifetimes() {
        let s = scrub("fn f<'a>(x: &'a str) { let r = r#\"HashSet\"#; }");
        assert!(!s.contains("HashSet"));
        assert!(s.contains("fn f<'a>(x: &'a str)"));
        let c = scrub("let c = 'h'; let esc = '\\n'; let m = HashMap::new();");
        assert!(c.contains("HashMap"), "code outside literals survives");
        assert!(!c.contains('h') || c.contains("HashMap"));
    }

    #[test]
    fn scrub_keeps_line_continuations_in_strings_aligned() {
        let src = "let s = \"a \\\n    b\";\nlet t = 1;\n";
        let f = ScrubbedFile::new(src);
        assert_eq!(f.lines.len(), f.raw.len());
        assert_eq!(f.lines[2].trim(), "let t = 1;");
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() { z.unwrap(); }\n";
        let f = ScrubbedFile::new(src);
        let hits = find_tokens(&f, &[".unwrap()"], "no");
        let lines: Vec<usize> = hits.iter().map(|(l, _)| *l).collect();
        assert_eq!(lines, vec![1, 6], "test mod body is exempt");
    }

    #[test]
    fn chip_and_sharding_modules_fall_under_the_state_rules() {
        // The multi-core chip surface must stay covered: lane stepping,
        // slice arbitration, and tenant sharding all feed published numbers.
        for path in [
            "crates/sim/src/chip.rs",
            "crates/cache/src/contention.rs",
            "crates/serve/src/shard.rs",
            "crates/serve/src/queue.rs",
        ] {
            assert!(
                in_any(path, &SIM_STATE_CRATES),
                "{path} escapes hash/float rules"
            );
            assert!(
                in_any(path, &REPORT_CRATES),
                "{path} escapes the unwrap rule"
            );
        }
        let rule = RULES
            .iter()
            .find(|r| r.name == "wall-clock")
            .unwrap_or_else(|| panic!("wall-clock rule exists"));
        assert!((rule.applies)("crates/sim/src/chip.rs"));
    }

    #[test]
    fn forbid_unsafe_targets_crate_roots_only() {
        let rule = RULES
            .iter()
            .find(|r| r.name == "forbid-unsafe")
            .unwrap_or_else(|| panic!("forbid-unsafe rule exists"));
        assert!((rule.applies)("crates/core/src/lib.rs"));
        assert!((rule.applies)("xtask/src/main.rs"));
        assert!((rule.applies)("src/lib.rs"));
        assert!(!(rule.applies)("crates/core/src/dpu.rs"));
        let missing = ScrubbedFile::new("pub mod x;\n");
        assert_eq!((rule.check)(&missing).len(), 1);
        let present = ScrubbedFile::new("#![forbid(unsafe_code)]\npub mod x;\n");
        assert!((rule.check)(&present).is_empty());
    }

    #[test]
    fn stats_key_rule_flags_duplicates_and_case() {
        let src = "fn export(reg: &mut R) {\n    reg.set(g, \"good_key\", 1);\n    reg.set(g, \"BadKey\", 2);\n    reg.set(g, \"good_key\", 3);\n    reg.set(g, &format!(\"t{i}_p50\"), 4);\n}\n";
        let f = ScrubbedFile::new(src);
        let hits = stats_key_registrations(&f);
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert!(hits[0].1.contains("BadKey"), "{hits:?}");
        assert!(hits[1].1.contains("duplicate"), "{hits:?}");
    }

    #[test]
    fn stats_key_rule_scopes_duplicates_per_function_and_spans_lines() {
        // The same key in two different export functions is legitimate.
        let src = "fn a(reg: &mut R) {\n    reg.set(g, \"offered\", 1);\n}\nfn b(reg: &mut R) {\n    reg.set(\n        g,\n        \"offered\",\n        2,\n    );\n}\n";
        let f = ScrubbedFile::new(src);
        assert!(stats_key_registrations(&f).is_empty());
        // Non-registration .set calls (Cell::set) are ignored.
        let cell = ScrubbedFile::new("fn c() { last.set(5); pair.set(a, b); }\n");
        assert!(stats_key_registrations(&cell).is_empty());
    }

    #[test]
    fn json_codec_rule_flags_second_parsers_and_escapers() {
        let rule = RULES
            .iter()
            .find(|r| r.name == "json-codec")
            .unwrap_or_else(|| panic!("json-codec rule exists"));
        assert!((rule.applies)("crates/bench/src/report.rs"));
        assert!((rule.applies)("crates/trace/src/lib.rs"));
        assert!(!(rule.applies)("crates/config/src/json.rs"));
        assert!(!(rule.applies)("xtask/src/scan.rs"));
        let src = "struct Parser<'a> { pos: usize }\n\
                   fn skip_ws(&mut self) {}\n\
                   fn esc(c: u32) -> String { format!(\"\\\\u{:04x}\", c) }\n\
                   fn ok() { let s = \"struct Parser\"; }\n\
                   #[cfg(test)]\n\
                   mod tests { struct Parser; fn t() { format!(\"\\\\u{:04x}\", 1); } }\n";
        let hits: Vec<usize> = (rule.check)(&ScrubbedFile::new(src))
            .iter()
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(
            hits,
            vec![1, 2, 3],
            "test code and string literals are exempt"
        );
    }

    #[test]
    fn float_rule_targets_fields_only() {
        let src = "struct S {\n    util: f64,\n}\nfn util(&self) -> f64 { 0.0 }\nfn go() { let x: f64 = 1.0; }\n";
        let f = ScrubbedFile::new(src);
        let hits = float_state_fields(&f);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 2);
    }
}
