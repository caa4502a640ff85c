//! Statement-level expression analysis for the D007 unit-consistency
//! rule.
//!
//! The analyzer never type-checks; it infers a *unit* for sub-expressions
//! from identifier suffixes (`_ns`, `_secs`, `_bytes`, `_gb`, `_gbps`, …)
//! and reports places where two different known units meet across an
//! additive, comparison, or assignment boundary — the exact shape of a
//! bytes-vs-GB or ns-vs-secs slip. Multiplication and division legally
//! change dimension (rate × time = data), so factors inside one term
//! never conflict; and any term that routes through a recognized
//! `mobius_sim::units` conversion constant or helper becomes
//! unit-agnostic, which is what makes the named helpers the sanctioned
//! escape hatch.
//!
//! Token streams are cut into statements at `;`, `{`, and `}`; inside a
//! statement, separators that legitimately join unrelated sub-expressions
//! (`,`, `&&`, shifts, `=>`, ranges, …) reset the analysis, while `+`,
//! `-`, comparisons, `=`, `+=`, `-=`, and `:` (type ascriptions and
//! struct-field inits) are *checking* boundaries.

/// A unit inferred from an identifier suffix. Units within one dimension
/// (ns vs secs) are still distinct — mixing them is precisely the bug
/// class this rule exists for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds (`_ns`, `_nanos`).
    Ns,
    /// Microseconds (`_us`, `_micros`).
    Us,
    /// Milliseconds (`_ms`, `_millis`).
    Ms,
    /// Seconds (`_secs`, `seconds`).
    Secs,
    /// Bytes (`_bytes`).
    Bytes,
    /// Decimal gigabytes (`_gb`).
    Gb,
    /// Gigabytes per second (`_gbps`).
    Gbps,
    /// Dimensionless count (`_count`).
    Count,
    /// Dimensionless fraction (`_frac`, `_fraction`).
    Frac,
}

impl Unit {
    /// Human-readable unit label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Us => "us",
            Unit::Ms => "ms",
            Unit::Secs => "secs",
            Unit::Bytes => "bytes",
            Unit::Gb => "GB",
            Unit::Gbps => "GB/s",
            Unit::Count => "count",
            Unit::Frac => "fraction",
        }
    }
}

/// A reported unit conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// 1-based line of the right-hand participant.
    pub line: usize,
    /// Representative identifier and unit on one side.
    pub left: (String, Unit),
    /// Representative identifier and unit on the other side.
    pub right: (String, Unit),
    /// Which boundary the conflict crossed.
    pub context: &'static str,
}

/// Identifiers that *look* unit-suffixed but are representation helpers
/// from std, not quantities.
const EXCLUDED_IDENTS: &[&str] = &[
    "as_bytes",
    "into_bytes",
    "to_le_bytes",
    "from_le_bytes",
    "to_be_bytes",
    "from_be_bytes",
    "to_ne_bytes",
    "from_ne_bytes",
];

/// Bare identifiers (no `_` separator) that still carry a unit; kept
/// deliberately short to avoid colliding with std names.
const BARE_UNITS: &[(&str, Unit)] = &[
    ("ns", Unit::Ns),
    ("nanos", Unit::Ns),
    ("micros", Unit::Us),
    ("millis", Unit::Ms),
    ("ms", Unit::Ms),
    ("secs", Unit::Secs),
    ("seconds", Unit::Secs),
    ("gb", Unit::Gb),
    ("gbps", Unit::Gbps),
];

const SUFFIX_UNITS: &[(&str, Unit)] = &[
    ("_ns", Unit::Ns),
    ("_nanos", Unit::Ns),
    ("_us", Unit::Us),
    ("_micros", Unit::Us),
    ("_ms", Unit::Ms),
    ("_millis", Unit::Ms),
    ("_secs", Unit::Secs),
    ("_seconds", Unit::Secs),
    ("_bytes", Unit::Bytes),
    ("_gb", Unit::Gb),
    ("_gbps", Unit::Gbps),
    ("_count", Unit::Count),
    ("_frac", Unit::Frac),
    ("_fraction", Unit::Frac),
];

/// Unit-preserving calls: their result has the unit of their argument,
/// so `x_ns.max(y_secs)` is a checkable conflict, not a conversion.
const PRESERVE_CALLS: &[&str] = &[
    "min",
    "max",
    "clamp",
    "abs",
    "saturating_sub",
    "saturating_add",
];

/// Infers the unit an identifier carries, if any. Numeric-width suffixes
/// (`_f64`, `_u64`, …) are stripped first, and matching is
/// case-insensitive so `COMMODITY_NIC_GBPS` and `nic_gbps` agree.
#[must_use]
fn ident_unit(name: &str) -> Option<Unit> {
    let lower = name.to_ascii_lowercase();
    if EXCLUDED_IDENTS.contains(&lower.as_str()) {
        return None;
    }
    let mut base = lower.as_str();
    for width in ["_f64", "_f32", "_u64", "_u32", "_u128", "_usize", "_i64"] {
        if let Some(stripped) = base.strip_suffix(width) {
            base = stripped;
            break;
        }
    }
    for (bare, unit) in BARE_UNITS {
        if base == *bare {
            return Some(*unit);
        }
    }
    for (suffix, unit) in SUFFIX_UNITS {
        if base.ends_with(suffix) {
            return Some(*unit);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Num,
    Op(&'static str),
    Open(char),
    Close(char),
    /// Statement delimiter: `;`, `{`, or `}`.
    Delim,
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
}

const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "->", "=>", "::", "..", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

fn tokenize(text: &str) -> Vec<Spanned> {
    let chars: Vec<char> = text.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == ';' || c == '{' || c == '}' {
            toks.push(Spanned {
                tok: Tok::Delim,
                line,
            });
            i += 1;
            continue;
        }
        if c == '(' || c == '[' {
            toks.push(Spanned {
                tok: Tok::Open(c),
                line,
            });
            i += 1;
            continue;
        }
        if c == ')' || c == ']' {
            toks.push(Spanned {
                tok: Tok::Close(c),
                line,
            });
            i += 1;
            continue;
        }
        if c.is_ascii_digit() {
            // Number: digits, `_`, `.` (but not `..`), exponents with sign.
            let mut j = i + 1;
            while j < chars.len() {
                let d = chars[j];
                if d == '.' {
                    if chars.get(j + 1) == Some(&'.') {
                        break;
                    }
                    j += 1;
                } else if is_ident_char(d)
                    || ((d == '+' || d == '-') && matches!(chars.get(j - 1), Some('e') | Some('E')))
                {
                    j += 1;
                } else {
                    break;
                }
            }
            toks.push(Spanned {
                tok: Tok::Num,
                line,
            });
            i = j;
            continue;
        }
        if is_ident_char(c) {
            let mut j = i + 1;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            let name: String = chars[i..j].iter().collect();
            toks.push(Spanned {
                tok: Tok::Ident(name),
                line,
            });
            i = j;
            continue;
        }
        // Multi-char operators, longest first.
        let mut matched = None;
        for op in MULTI_OPS {
            let len = op.len();
            if chars[i..].len() >= len && chars[i..i + len].iter().collect::<String>() == **op {
                matched = Some((*op, len));
                break;
            }
        }
        if let Some((op, len)) = matched {
            toks.push(Spanned {
                tok: Tok::Op(op),
                line,
            });
            i += len;
            continue;
        }
        let single: &'static str = match c {
            '+' => "+",
            '-' => "-",
            '*' => "*",
            '/' => "/",
            '%' => "%",
            '<' => "<",
            '>' => ">",
            '=' => "=",
            '!' => "!",
            '&' => "&",
            '|' => "|",
            '^' => "^",
            ',' => ",",
            ':' => ":",
            '?' => "?",
            '@' => "@",
            '#' => "#",
            '.' => ".",
            '\'' => "'",
            '$' => "$",
            _ => "",
        };
        if !single.is_empty() {
            toks.push(Spanned {
                tok: Tok::Op(single),
                line,
            });
        }
        i += 1;
    }
    toks
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_separator(op: &str) -> bool {
    matches!(
        op,
        "," | "=>"
            | "->"
            | ".."
            | "..="
            | "&&"
            | "||"
            | "<<"
            | ">>"
            | "^"
            | "&"
            | "|"
            | "@"
            | "?"
            | "*="
            | "/="
            | "%="
            | "^="
            | "&="
            | "|="
            | "<<="
            | ">>="
    )
}

fn is_check(op: &str) -> bool {
    matches!(
        op,
        "==" | "!=" | "<=" | ">=" | "<" | ">" | "=" | "+=" | "-=" | "+" | "-" | ":"
    )
}

fn is_mul(op: &str) -> bool {
    matches!(op, "*" | "/" | "%")
}

// ---------------------------------------------------------------------------
// Analysis.
// ---------------------------------------------------------------------------

/// Analyzes cleaned Rust source, invoking `is_conversion` to recognize
/// sanctioned conversion constants/helpers, and returns every unit
/// conflict. `skip_line` masks lines (test regions) whose conflicts are
/// not reported.
pub fn analyze(
    text: &str,
    is_conversion: &dyn Fn(&str) -> bool,
    skip_line: &dyn Fn(usize) -> bool,
) -> Vec<Mismatch> {
    let toks = tokenize(text);
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        if t.tok == Tok::Delim {
            analyze_statement(&toks[start..i], is_conversion, &mut out);
            start = i + 1;
        }
    }
    analyze_statement(&toks[start..], is_conversion, &mut out);
    out.retain(|m| !skip_line(m.line));
    out
}

fn analyze_statement(
    toks: &[Spanned],
    is_conversion: &dyn Fn(&str) -> bool,
    out: &mut Vec<Mismatch>,
) {
    if toks.is_empty() {
        return;
    }
    // Inside a `fn` signature the call-shaped parameter list is a
    // declaration, not an application — skip call-boundary checks there.
    let is_fn_def = toks
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(n) if n == "fn"));
    analyze_group(toks, is_conversion, !is_fn_def, out);
}

/// The inferred value of a sub-expression.
#[derive(Debug, Clone)]
struct Inferred {
    unit: Option<Unit>,
    /// Representative identifier that carried the unit.
    rep: String,
    /// The sub-expression routed through a conversion helper: absorbing.
    converted: bool,
}

impl Inferred {
    fn none() -> Inferred {
        Inferred {
            unit: None,
            rep: String::new(),
            converted: false,
        }
    }
}

/// Splits `toks` at top-level separators into clauses, each clause at
/// checking ops into terms; checks known-unit agreement between the terms
/// of a clause; returns the group's overall inferred value.
fn analyze_group(
    toks: &[Spanned],
    is_conversion: &dyn Fn(&str) -> bool,
    check_calls: bool,
    out: &mut Vec<Mismatch>,
) -> Inferred {
    let mut clause_units: Vec<Inferred> = Vec::new();
    let mut depth = 0usize;
    let mut seg_start = 0usize;
    let mut term_infos: Vec<(Inferred, usize)> = Vec::new(); // (info, line)
    let mut any_converted = false;

    let flush_term = |from: usize,
                      to: usize,
                      term_infos: &mut Vec<(Inferred, usize)>,
                      out: &mut Vec<Mismatch>| {
        if from < to {
            let info = analyze_term(&toks[from..to], is_conversion, check_calls, out);
            let line = toks[from].line;
            term_infos.push((info, line));
        }
    };

    let mut i = 0usize;
    let clause_close = |term_infos: &mut Vec<(Inferred, usize)>,
                        clause_units: &mut Vec<Inferred>,
                        out: &mut Vec<Mismatch>,
                        any_converted: &mut bool| {
        // Check consecutive known units across checking boundaries.
        let mut prev: Option<(&Inferred, usize)> = None;
        let converted = term_infos.iter().any(|(t, _)| t.converted);
        for (info, line) in term_infos.iter() {
            if info.converted {
                *any_converted = true;
            }
            if let Some(u) = info.unit {
                if let Some((p, _)) = prev {
                    let pu = p.unit.expect("prev always known");
                    if pu != u && !converted {
                        out.push(Mismatch {
                            line: *line,
                            left: (p.rep.clone(), pu),
                            right: (info.rep.clone(), u),
                            context: "an additive/comparison/assignment boundary",
                        });
                    }
                }
                prev = Some((info, *line));
            }
        }
        // Clause unit: single distinct known unit, unless converted.
        let mut units: Vec<&Inferred> = term_infos
            .iter()
            .map(|(t, _)| t)
            .filter(|t| t.unit.is_some())
            .collect();
        units.dedup_by_key(|t| t.unit);
        let clause = if converted || units.len() != 1 {
            Inferred {
                converted,
                ..Inferred::none()
            }
        } else {
            units[0].clone()
        };
        clause_units.push(clause);
        term_infos.clear();
    };

    while i < toks.len() {
        match &toks[i].tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => depth = depth.saturating_sub(1),
            Tok::Op(op) if depth == 0 && is_separator(op) => {
                flush_term(seg_start, i, &mut term_infos, out);
                clause_close(&mut term_infos, &mut clause_units, out, &mut any_converted);
                seg_start = i + 1;
            }
            Tok::Op(op) if depth == 0 && is_check(op) => {
                flush_term(seg_start, i, &mut term_infos, out);
                seg_start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    flush_term(seg_start, toks.len(), &mut term_infos, out);
    clause_close(&mut term_infos, &mut clause_units, out, &mut any_converted);

    // Group value: a single known-unit clause propagates outward.
    let mut known: Vec<&Inferred> = clause_units.iter().filter(|c| c.unit.is_some()).collect();
    known.dedup_by_key(|c| c.unit);
    if any_converted {
        Inferred {
            converted: true,
            ..Inferred::none()
        }
    } else if known.len() == 1 {
        known[0].clone()
    } else {
        Inferred::none()
    }
}

/// Analyzes one multiplicative term: factors joined by `*`, `/`, `%`.
/// Factors legally change dimension, so differing factor units are not a
/// conflict — but a unit-preserving call (`.max(…)`) whose argument unit
/// differs from the rest of the term is.
fn analyze_term(
    toks: &[Spanned],
    is_conversion: &dyn Fn(&str) -> bool,
    check_calls: bool,
    out: &mut Vec<Mismatch>,
) -> Inferred {
    let mut units: Vec<(String, Unit)> = Vec::new();
    let mut preserve_units: Vec<(String, Unit, usize)> = Vec::new();
    let mut converted = false;

    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Op(op) if is_mul(op) => {}
            Tok::Ident(name) => {
                if is_conversion(name) {
                    converted = true;
                    i += 1;
                    continue;
                }
                // Call? (allow a macro bang between name and paren)
                let mut k = i + 1;
                if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Op("!"))) {
                    k += 1;
                }
                if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Open('('))) {
                    let (inner, after) = group_extent(toks, k);
                    let arg = analyze_group(inner, is_conversion, check_calls, out);
                    if arg.converted {
                        converted = true;
                    }
                    let fn_unit = ident_unit(name);
                    if PRESERVE_CALLS.contains(&name.as_str()) {
                        if let Some(u) = arg.unit {
                            preserve_units.push((arg.rep.clone(), u, toks[i].line));
                        }
                    } else if let Some(fu) = fn_unit {
                        // The call yields its suffix unit; its argument
                        // must agree or be converted.
                        if check_calls && !arg.converted {
                            if let Some(au) = arg.unit {
                                if au != fu {
                                    out.push(Mismatch {
                                        line: toks[i].line,
                                        left: (name.clone(), fu),
                                        right: (arg.rep.clone(), au),
                                        context: "a unit-suffixed call boundary",
                                    });
                                }
                            }
                        }
                        units.push((name.clone(), fu));
                    }
                    i = after;
                    continue;
                }
                if let Some(u) = ident_unit(name) {
                    units.push((name.clone(), u));
                }
            }
            Tok::Open(c) => {
                let (inner, after) = analyze_subgroup(toks, i, is_conversion, check_calls, out);
                if *c == '(' {
                    if inner.converted {
                        converted = true;
                    }
                    if let Some(u) = inner.unit {
                        units.push((inner.rep.clone(), u));
                    }
                }
                i = after;
                continue;
            }
            _ => {}
        }
        i += 1;
    }

    // A unit-preserving call must agree with the rest of its term.
    if !converted {
        for (rep, u, line) in &preserve_units {
            for (orep, ou) in &units {
                if ou != u {
                    out.push(Mismatch {
                        line: *line,
                        left: (orep.clone(), *ou),
                        right: (rep.clone(), *u),
                        context: "a unit-preserving call (min/max/clamp) boundary",
                    });
                }
            }
        }
        for (rep, u, _) in &preserve_units {
            units.push((rep.clone(), *u));
        }
    }

    let mut distinct: Vec<&(String, Unit)> = units.iter().collect();
    distinct.dedup_by_key(|p| p.1);
    if converted {
        Inferred {
            unit: None,
            rep: String::new(),
            converted: true,
        }
    } else if distinct.len() == 1 {
        Inferred {
            unit: Some(distinct[0].1),
            rep: distinct[0].0.clone(),
            converted: false,
        }
    } else {
        Inferred::none()
    }
}

/// Returns the tokens strictly inside the group opening at `open_idx`,
/// and the index just past its matching close.
fn group_extent(toks: &[Spanned], open_idx: usize) -> (&[Spanned], usize) {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        match t.tok {
            Tok::Open(_) => depth += 1,
            Tok::Close(_) => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return (&toks[open_idx + 1..j], j + 1);
                }
            }
            _ => {}
        }
    }
    (&toks[open_idx + 1..], toks.len())
}

fn analyze_subgroup(
    toks: &[Spanned],
    open_idx: usize,
    is_conversion: &dyn Fn(&str) -> bool,
    check_calls: bool,
    out: &mut Vec<Mismatch>,
) -> (Inferred, usize) {
    let (inner, after) = group_extent(toks, open_idx);
    let info = analyze_group(inner, is_conversion, check_calls, out);
    (info, after)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Mismatch> {
        analyze(
            src,
            &|n| n.contains("_PER_") || n.ends_with("_to_secs"),
            &|_| false,
        )
    }

    #[test]
    fn ident_units_from_suffixes() {
        assert_eq!(ident_unit("start_ns"), Some(Unit::Ns));
        assert_eq!(ident_unit("as_secs_f64"), Some(Unit::Secs));
        assert_eq!(ident_unit("COMMODITY_NIC_GBPS"), Some(Unit::Gbps));
        assert_eq!(ident_unit("grad_bytes"), Some(Unit::Bytes));
        assert_eq!(ident_unit("as_nanos"), Some(Unit::Ns));
        assert_eq!(ident_unit("as_bytes"), None, "std representation helper");
        assert_eq!(ident_unit("to_le_bytes"), None);
        assert_eq!(ident_unit("plain"), None);
        assert_eq!(ident_unit("retry_count"), Some(Unit::Count));
    }

    #[test]
    fn same_unit_arithmetic_is_clean() {
        assert!(run("let d_ns = end_ns - start_ns;").is_empty());
        assert!(run("if a_bytes > b_bytes { }").is_empty());
        assert!(run("total_ns += dt_ns;").is_empty());
    }

    #[test]
    fn mixed_unit_addition_and_comparison_flagged() {
        let m = run("let x = start_ns + dur_secs;");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].left.1, Unit::Ns);
        assert_eq!(m[0].right.1, Unit::Secs);
        assert_eq!(run("if cap_gb < used_bytes { }").len(), 1);
        assert_eq!(run("deadline_ns -= elapsed_secs;").len(), 1);
    }

    #[test]
    fn cross_unit_assignment_flagged() {
        assert_eq!(run("let total_bytes = size_gb;").len(), 1);
        assert_eq!(run("let t_ns: f64 = step_secs;").len(), 1);
        assert!(run("let total_bytes = other_bytes;").is_empty());
    }

    #[test]
    fn multiplicative_terms_change_dimension_legally() {
        // rate × time: no conflict inside a term.
        assert!(run("let b = rate_gbps * dt_ns;").is_empty());
        // literals carry no unit: the ad-hoc conversion keeps its unit...
        assert_eq!(run("let t_secs = dur_ns * 1e9;").len(), 1);
        // ...but a named conversion constant absorbs it.
        assert!(run("let t_secs = dur_ns / NS_PER_SEC;").is_empty());
        assert!(run("let t_secs = ns_to_secs(dur_ns);").is_empty());
    }

    #[test]
    fn comma_and_logical_separators_reset() {
        assert!(run("f(a_ns, b_bytes);").is_empty());
        assert!(run("if a_ns > b_ns && c_gb < d_gb { }").is_empty());
        assert!(run("let x = (a_ns, b_secs);").is_empty());
    }

    #[test]
    fn nested_groups_are_analyzed() {
        assert_eq!(run("f(a_ns + b_secs);").len(), 1);
        assert_eq!(run("let x = v[i_ns + j_secs];").len(), 1);
    }

    #[test]
    fn preserve_calls_check_receiver_against_argument() {
        assert_eq!(run("let m = lhs_ns.max(rhs_secs);").len(), 1);
        assert!(run("let m = lhs_ns.max(rhs_ns);").is_empty());
    }

    #[test]
    fn unit_suffixed_call_boundary_checked() {
        assert_eq!(run("emit(from_secs(x_ns));").len(), 1);
        assert!(run("emit(from_secs(x_secs));").is_empty());
        assert!(run("emit(from_secs(ns_to_secs(x_ns)));").is_empty());
        // Function definitions are declarations, not applications.
        assert!(run("fn fmt_gb(bytes: f64) -> String { }").is_empty());
    }

    #[test]
    fn struct_field_init_is_a_checking_boundary() {
        assert_eq!(run("Foo, start_ns: t_secs,").len(), 1);
        assert!(run("Foo, start_ns: t_ns,").is_empty());
    }

    #[test]
    fn statement_delimiters_isolate() {
        assert!(run("let a = x_ns; let b = y_secs;").is_empty());
        assert!(run("match k { A => x_ns, B => y_secs }").is_empty());
    }
}
