//! Mutation operators over the token stream.
//!
//! Each operator produces [`Mutant`]s: byte-span replacements with a
//! stable identity (`file:line:col:op`). Generation is purely a
//! function of the source text, so two runs over the same tree produce
//! the same mutants in the same order — the property that makes the
//! committed `MUTANTS.toml` survivor baseline meaningful.
//!
//! The operator set:
//!
//! * comparison flips — `<`↔`<=`, `>`↔`>=`, `==`↔`!=`
//! * arithmetic swaps — `+`↔`-`, `*`↔`/`
//! * bitwise swaps — `&`↔`|`, `<<`↔`>>`
//! * logic swaps — `&&`↔`||`
//! * boundary constants — `0`↔`1`, `n`→`n±1` on decimal literals
//! * delete-stmt — remove a `continue;` / `break;` / `return …;`
//! * delete-arm — remove one arm of a `match` with two or more arms
//!
//! Binary operators are only mutated when whitespace surrounds the
//! token: the workspace is rustfmt-formatted, so `a < b` is a
//! comparison while `Vec<u64>`, `&mut x`, `|x| x` and `-1` never carry
//! spaces on both sides. This keeps the engine lexical (no type
//! information) while generating almost no uncompilable operator
//! mutants; anything that still fails to build is classified unviable
//! and excluded from the score rather than miscounted.
//!
//! Test code (the tokens the [`Tree`] marks `in_test`) is skipped:
//! mutating a test can only ever make the suite stricter-looking, never
//! reveals a gap.

use crate::analyze::tokentree::{SigTok, Tree, NO_MATCH};
use crate::lexer::Kind;

/// One generated mutant: a byte-span splice into a known file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutant {
    /// Repo-relative path of the mutated file.
    pub file: String,
    /// Workspace package the file belongs to (kill-suite target).
    pub krate: String,
    /// Operator code, e.g. `cmp-lt-le`.
    pub op: &'static str,
    /// 1-based line of the mutation site.
    pub line: usize,
    /// 1-based column (in bytes) of the mutation site.
    pub col: usize,
    /// Byte span replaced in the original source.
    pub start: usize,
    /// End of the replaced span (exclusive).
    pub end: usize,
    /// The original text of the span.
    pub original: String,
    /// The replacement text.
    pub replacement: String,
}

impl Mutant {
    /// Stable identity: file, position and operator. Survivor baselines
    /// key on this, so it must not depend on generation order.
    pub fn id(&self) -> String {
        format!("{}:{}:{}:{}", self.file, self.line, self.col, self.op)
    }

    /// The mutated source text.
    pub fn apply(&self, source: &str) -> String {
        let mut out = String::with_capacity(source.len() + self.replacement.len());
        out.push_str(&source[..self.start]);
        out.push_str(&self.replacement);
        out.push_str(&source[self.end..]);
        out
    }

    /// One-line human description for tables and reports.
    pub fn describe(&self) -> String {
        let orig = compress(&self.original);
        let repl = compress(&self.replacement);
        if self.replacement.is_empty() {
            format!("delete `{orig}`")
        } else {
            format!("`{orig}` -> `{repl}`")
        }
    }
}

/// Collapses a (possibly multi-line) span to a short single-line form.
fn compress(s: &str) -> String {
    let joined: String = s.split_whitespace().collect::<Vec<_>>().join(" ");
    if joined.len() > 36 {
        format!("{}…", &joined[..joined.char_indices().take_while(|(i, _)| *i < 33).count()])
    } else {
        joined
    }
}

/// Operator-swap table: token text, replacement, operator code.
const SWAPS: &[(&str, &str, &str)] = &[
    ("<", "<=", "cmp-lt-le"),
    ("<=", "<", "cmp-le-lt"),
    (">", ">=", "cmp-gt-ge"),
    (">=", ">", "cmp-ge-gt"),
    ("==", "!=", "cmp-eq-ne"),
    ("!=", "==", "cmp-ne-eq"),
    ("+", "-", "arith-add-sub"),
    ("-", "+", "arith-sub-add"),
    ("*", "/", "arith-mul-div"),
    ("/", "*", "arith-div-mul"),
    ("&", "|", "bit-and-or"),
    ("|", "&", "bit-or-and"),
    ("<<", ">>", "shift-shl-shr"),
    (">>", "<<", "shift-shr-shl"),
    ("&&", "||", "logic-and-or"),
    ("||", "&&", "logic-or-and"),
];

/// Generates every mutant for one file. `file` is the repo-relative
/// path recorded in IDs; `krate` the package whose tests form the kill
/// suite.
pub fn generate(file: &str, krate: &str, source: &str) -> Vec<Mutant> {
    let tree = Tree::parse(source);
    let mut out = Vec::new();

    let mk = |start: usize, end: usize, op: &'static str, replacement: String| {
        let (line, col) = tree.position(start);
        Mutant {
            file: file.to_string(),
            krate: krate.to_string(),
            op,
            line,
            col,
            start,
            end,
            original: source[start..end].to_string(),
            replacement,
        }
    };

    for (ti, t) in tree.toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        let text = tree.text(ti);
        match t.kind {
            Kind::Punct => {
                if let Some(&(_, repl, op)) = SWAPS.iter().find(|(from, ..)| *from == text) {
                    if spaced(source, t) {
                        out.push(mk(t.start, t.end, op, repl.to_string()));
                    }
                }
            }
            Kind::Number => {
                // Decimal literals only; skip tuple indexes (`pair.0`).
                if !text.bytes().all(|b| b.is_ascii_digit())
                    || ti.checked_sub(1).is_some_and(|p| tree.is_punct(p, "."))
                {
                    continue;
                }
                match text {
                    "0" => out.push(mk(t.start, t.end, "lit-0-1", "1".to_string())),
                    "1" => out.push(mk(t.start, t.end, "lit-1-0", "0".to_string())),
                    _ => {
                        if let Ok(n) = text.parse::<u64>() {
                            out.push(mk(t.start, t.end, "lit-inc", (n + 1).to_string()));
                            out.push(mk(t.start, t.end, "lit-dec", (n - 1).to_string()));
                        }
                    }
                }
            }
            Kind::Ident => match text {
                kw @ ("continue" | "break")
                    if ti + 1 < tree.toks.len() && tree.is_punct(ti + 1, ";") =>
                {
                    let op = if kw == "continue" { "delete-continue" } else { "delete-break" };
                    out.push(mk(t.start, tree.toks[ti + 1].end, op, String::new()));
                }
                "return" => {
                    if let Some(end) = statement_end(&tree, ti) {
                        out.push(mk(t.start, end, "delete-return", String::new()));
                    }
                }
                "match" => {
                    for (first, end) in match_arms(&tree, ti) {
                        if !tree.toks[first].in_test {
                            out.push(mk(tree.toks[first].start, end, "delete-arm", String::new()));
                        }
                    }
                }
                _ => {}
            },
            _ => {}
        }
    }

    // Disambiguate mutants that share a position and operator (two
    // `delete-arm`s can start on one line only in pathological layouts,
    // but IDs must be unique unconditionally).
    dedupe_ids(&mut out);
    out
}

/// True when whitespace or a comment directly precedes *and* follows
/// the token — the rustfmt signature of a binary operator.
fn spaced(source: &str, t: &SigTok) -> bool {
    let before = source[..t.start].chars().next_back();
    let after = source[t.end..].chars().next();
    before.is_some_and(char::is_whitespace) && after.is_some_and(char::is_whitespace)
}

/// The token after the delimited group that opens at `i`, or `i + 1`
/// for any other token; `None` for an unmatched opener.
fn skip_group(tree: &Tree, i: usize) -> Option<usize> {
    let opens = tree.toks[i].kind == Kind::Punct && matches!(tree.text(i), "(" | "[" | "{");
    match tree.match_of[i] {
        NO_MATCH if opens => None,
        m if opens => Some(m + 1),
        _ => Some(i + 1),
    }
}

/// Byte offset one past the `;` ending the statement opened at token
/// `i`, jumping over nested groups so `;` inside closures or blocks is
/// skipped; `None` for `return x` in tail position.
fn statement_end(tree: &Tree, i: usize) -> Option<usize> {
    let mut j = i + 1;
    while j < tree.toks.len() {
        if tree.is_punct(j, ";") {
            return Some(tree.toks[j].end);
        }
        if tree.toks[j].kind == Kind::Punct && matches!(tree.text(j), ")" | "]" | "}") {
            return None;
        }
        j = skip_group(tree, j)?;
    }
    None
}

/// The arms of the `match` whose keyword is token `i`, as deletable
/// spans: each arm's first token and the byte offset one past its
/// trailing comma or block (or up to the match's `}` for a last arm
/// with neither). Empty for matches with fewer than two arms — deleting
/// the only arm can never compile.
fn match_arms(tree: &Tree, i: usize) -> Vec<(usize, usize)> {
    // The match block is the first `{` outside the scrutinee's groups
    // (per Rust's grammar, the scrutinee has no bare struct literals).
    let mut j = i + 1;
    while j < tree.toks.len() && !tree.is_punct(j, "{") {
        let Some(next) = skip_group(tree, j) else { return Vec::new() };
        j = next;
    }
    let close = match tree.match_of.get(j) {
        Some(&c) if c != NO_MATCH => c,
        _ => return Vec::new(),
    };
    let mut arms = Vec::new();
    j += 1;
    while j < close {
        let first = j;
        // The pattern (and any guard) runs to the `=>`.
        while j < close && !tree.is_punct(j, "=>") {
            let Some(next) = skip_group(tree, j) else { return Vec::new() };
            j = next;
        }
        j += 1;
        if j >= close {
            return Vec::new();
        }
        // The body: a braced block with an optional comma, or an
        // expression ending at a comma or the match's `}`.
        let end = if tree.is_punct(j, "{") {
            let Some(next) = skip_group(tree, j) else { return Vec::new() };
            j = next;
            if j < close && tree.is_punct(j, ",") {
                j += 1;
            }
            tree.toks[j - 1].end
        } else {
            while j < close && !tree.is_punct(j, ",") {
                let Some(next) = skip_group(tree, j) else { return Vec::new() };
                j = next;
            }
            if j >= close {
                tree.toks[close].start
            } else {
                j += 1;
                tree.toks[j - 1].end
            }
        };
        arms.push((first, end));
    }
    if arms.len() < 2 {
        arms.clear();
    }
    arms
}

/// Appends a discriminator to any IDs that would otherwise collide.
fn dedupe_ids(mutants: &mut [Mutant]) {
    use std::collections::BTreeMap;
    let mut by_id: BTreeMap<String, u32> = BTreeMap::new();
    for m in mutants.iter_mut() {
        let n = by_id.entry(m.id()).or_insert(0);
        *n += 1;
        if *n > 1 {
            // Shift the column marker so the formatted ID stays unique;
            // columns are 1-based so a synthetic 10_000+ column cannot
            // collide with a real site.
            m.col += 10_000 * (*n as usize - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = "\
/// Clamps to the saturation ceiling.
pub fn saturate(x: u64, max: u64) -> u64 {
    if x < max {
        x + 1
    } else {
        max
    }
}

pub fn classify(x: u64) -> u64 {
    match x {
        0 => 1,
        n if n >= 10 => n * 2,
        n => n - 1,
    }
}

pub fn scan(xs: &[u64]) -> u64 {
    let mut total = 0;
    for &x in xs {
        if x == 0 {
            continue;
        }
        if x > 100 {
            return total;
        }
        total += x;
    }
    total
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        assert!(super::saturate(1, 3) < 4);
    }
}
";

    fn ops_of<'m>(ms: &'m [Mutant], op: &str) -> Vec<&'m Mutant> {
        ms.iter().filter(|m| m.op == op).collect()
    }

    #[test]
    fn comparison_flip_is_generated_at_the_comparator() {
        let ms = generate("fix.rs", "psb-core", FIXTURE);
        let lt = ops_of(&ms, "cmp-lt-le");
        assert_eq!(lt.len(), 1, "{lt:?}");
        assert_eq!(lt[0].original, "<");
        assert_eq!(lt[0].replacement, "<=");
        // Applying produces the deliberately broken comparator…
        let broken = lt[0].apply(FIXTURE);
        assert!(broken.contains("if x <= max {"), "{broken}");
        // …and the mutated file differs from the original exactly there.
        assert_eq!(FIXTURE.len() + 1, broken.len());
    }

    #[test]
    fn operators_inside_tests_strings_and_comments_are_skipped() {
        let ms = generate("fix.rs", "psb-core", FIXTURE);
        for m in &ms {
            assert!(!FIXTURE[..m.start].contains("#[cfg(test)]"), "mutant in test region: {m:?}");
        }
        let src = "// a < b\nlet s = \"x < y\";\n";
        assert!(generate("f.rs", "c", src).is_empty());
    }

    #[test]
    fn generics_and_unary_operators_are_not_mutated() {
        let src = "fn f(v: Vec<u64>) -> i64 {\n    let x: i64 = -1;\n    *v.first().unwrap_or(&0) as i64 * x\n}\n";
        let ms = generate("f.rs", "c", src);
        assert!(
            ms.iter().all(|m| !matches!(m.op, "cmp-lt-le" | "cmp-gt-ge" | "arith-sub-add")),
            "generic brackets / unary minus must not be flipped: {ms:?}"
        );
        // The spaced binary `*` is fair game.
        assert_eq!(ops_of(&ms, "arith-mul-div").len(), 1);
    }

    #[test]
    fn boundary_literals_and_increments() {
        let ms = generate("fix.rs", "psb-core", FIXTURE);
        assert!(!ops_of(&ms, "lit-0-1").is_empty());
        assert!(!ops_of(&ms, "lit-1-0").is_empty());
        let inc = ops_of(&ms, "lit-inc");
        assert!(inc.iter().any(|m| m.original == "100" && m.replacement == "101"), "{inc:?}");
        let dec = ops_of(&ms, "lit-dec");
        assert!(dec.iter().any(|m| m.original == "10" && m.replacement == "9"), "{dec:?}");
    }

    #[test]
    fn statement_and_arm_deletion() {
        let ms = generate("fix.rs", "psb-core", FIXTURE);
        let cont = ops_of(&ms, "delete-continue");
        assert_eq!(cont.len(), 1);
        assert!(cont[0].original.starts_with("continue"), "{cont:?}");
        assert!(cont[0].original.ends_with(';'));
        let ret = ops_of(&ms, "delete-return");
        assert_eq!(ret.len(), 1);
        assert_eq!(ret[0].original, "return total;");
        let arms = ops_of(&ms, "delete-arm");
        assert_eq!(arms.len(), 3, "{arms:?}");
        assert!(arms.iter().any(|m| m.original.trim() == "0 => 1,"));
        assert!(arms.iter().any(|m| m.original.trim() == "n => n - 1,"));
    }

    #[test]
    fn ids_are_stable_and_unique_across_runs() {
        let a = generate("fix.rs", "psb-core", FIXTURE);
        let b = generate("fix.rs", "psb-core", FIXTURE);
        assert_eq!(a, b, "generation must be deterministic");
        let mut ids: Vec<String> = a.iter().map(Mutant::id).collect();
        let before = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), before, "IDs must be unique");
    }

    #[test]
    fn apply_then_revert_round_trips() {
        let ms = generate("fix.rs", "psb-core", FIXTURE);
        for m in &ms {
            let mutated = m.apply(FIXTURE);
            assert_ne!(mutated, FIXTURE, "a mutant must change the source: {m:?}");
            // Reverting = splicing the original back over the span.
            let mut reverted = String::new();
            reverted.push_str(&mutated[..m.start]);
            reverted.push_str(&m.original);
            reverted.push_str(&mutated[m.start + m.replacement.len()..]);
            assert_eq!(reverted, FIXTURE);
        }
    }
}
