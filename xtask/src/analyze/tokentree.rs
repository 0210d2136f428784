//! The token-tree layer: structure on top of the flat [`crate::lexer`]
//! stream.
//!
//! The lexer gives a total, byte-covering token stream; this module
//! adds the three structural facts the analysis passes need and a full
//! parser cannot be afforded for (xtask is zero-dep and offline):
//!
//! * **Significant tokens** — whitespace and comments dropped, each
//!   surviving token annotated with its 1-based line, whether it sits
//!   inside a `#[cfg(test)]` / `#[test]` region (the one test tracker
//!   every xtask tool uses), and whether an outer doc comment precedes
//!   it.
//! * **Delimiter matching** — every `(`/`[`/`{` knows its closer and
//!   vice versa, so scans can jump over nested groups.
//! * **Item extraction** — every `fn` with its bare name, its
//!   `Type::name` qualification (from the enclosing `impl`/`trait`
//!   header), and its body's token range; plus recognition of the
//!   expression forms the passes care about: path calls, method calls,
//!   macro invocations, index expressions, and division operators.
//!
//! Everything here is a deliberate approximation. It never needs to be
//! *right* about Rust, only *conservative* for the passes built on it:
//! over-reporting a call edge or an index site costs a baseline entry,
//! while under-reporting would hide a latent panic. The teeth tests in
//! [`crate::analyze::callgraph`] pin that direction.

use crate::lexer::{lex, Kind};

/// One significant token: classification, byte span, source position.
#[derive(Clone, Debug)]
pub struct SigTok {
    /// Lexer classification (never whitespace or a comment).
    pub kind: Kind,
    /// Byte offset of the first byte in the source.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based source line of `start`.
    pub line: usize,
    /// Inside a `#[cfg(test)]`-attributed item or a `#[test]` fn.
    pub in_test: bool,
    /// An outer doc comment (`///` or `/** */`) sits between this token
    /// and the previous significant one.
    pub doc: bool,
}

/// One extracted function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The bare function name.
    pub name: String,
    /// `Type::name` when the fn sits in an `impl`/`trait` block, else
    /// just the name.
    pub qual: String,
    /// Significant-token indices of the body's `{` and matching `}`.
    /// Declarations without a body (trait methods, extern fns) are not
    /// extracted.
    pub body: (usize, usize),
    /// The fn is test-only code.
    pub in_test: bool,
}

/// What a recognized call site invokes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `name(...)` or `path::name(...)`.
    Path,
    /// `.name(...)`.
    Method,
    /// `name!(...)`, `name![...]` or `name! {...}`.
    Macro,
}

/// One recognized call site.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The invoked name (last path segment, method name, or macro name).
    pub name: String,
    /// The syntactic form.
    pub kind: CallKind,
    /// Significant-token index of the name.
    pub tok: usize,
    /// 1-based source line.
    pub line: usize,
}

/// The parsed file: significant tokens, delimiter matching, functions.
pub struct Tree {
    /// The significant-token stream.
    pub toks: Vec<SigTok>,
    /// `match_of[i]` is the partner index of a delimiter token (closer
    /// for an opener and vice versa), `usize::MAX` when unmatched or not
    /// a delimiter.
    pub match_of: Vec<usize>,
    /// Every function with a body, in source order.
    pub fns: Vec<FnItem>,
    source: String,
    /// Byte offset at which each line starts.
    line_starts: Vec<usize>,
}

/// Sentinel for "no matching delimiter".
pub const NO_MATCH: usize = usize::MAX;

impl Tree {
    /// Lexes and structures one source file.
    pub fn parse(source: &str) -> Tree {
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(source.bytes().enumerate().filter(|&(_, b)| b == b'\n').map(|(i, _)| i + 1))
            .collect();
        let toks = significant(source, &line_starts);
        let match_of = match_delims(source, &toks);
        let source = source.to_string();
        let mut tree = Tree { toks, match_of, fns: Vec::new(), source, line_starts };
        tree.fns = tree.extract_fns();
        tree
    }

    /// The 1-based (line, column) of byte `offset`, counting bytes.
    pub fn position(&self, offset: usize) -> (usize, usize) {
        let line = self.line_starts.partition_point(|&s| s <= offset);
        (line, offset - self.line_starts[line - 1] + 1)
    }

    /// The source text of 1-based lines `first..=last` (clamped to the
    /// file), comments and string literals included.
    pub fn lines_text(&self, first: usize, last: usize) -> &str {
        let start = self.line_starts.get(first.max(1) - 1).copied().unwrap_or(self.source.len());
        let end = self.line_starts.get(last).copied().unwrap_or(self.source.len());
        &self.source[start..end.max(start)]
    }

    /// Token indices `lo..=hi`, clipped to the stream — empty for a file
    /// with no significant tokens.
    pub fn span(&self, lo: usize, hi: usize) -> std::ops::Range<usize> {
        lo..hi.saturating_add(1).min(self.toks.len())
    }

    /// The qualified name of the innermost fn whose body holds token `i`,
    /// or `""` outside every fn body.
    pub fn enclosing_fn(&self, i: usize) -> &str {
        // `fns` is in source order, so the last container is innermost.
        self.fns.iter().rev().find(|f| f.body.0 <= i && i <= f.body.1).map_or("", |f| &f.qual)
    }

    /// The text of significant token `i`.
    pub fn text(&self, i: usize) -> &str {
        &self.source[self.toks[i].start..self.toks[i].end]
    }

    /// True when token `i` is punctuation spelled `p`.
    pub fn is_punct(&self, i: usize, p: &str) -> bool {
        self.toks[i].kind == Kind::Punct && self.text(i) == p
    }

    /// True when token `i` is the identifier `id`.
    pub fn is_ident(&self, i: usize, id: &str) -> bool {
        self.toks[i].kind == Kind::Ident && self.text(i) == id
    }

    /// All call sites (path, method, macro) within the token range
    /// `[lo, hi]`, in source order.
    pub fn calls_in(&self, lo: usize, hi: usize) -> Vec<CallSite> {
        let mut out = Vec::new();
        for i in self.span(lo, hi) {
            if self.toks[i].kind != Kind::Ident {
                continue;
            }
            let Some(next) = self.toks.get(i + 1) else { continue };
            let name = self.text(i).to_string();
            if next.kind == Kind::Punct && self.text(i + 1) == "!" {
                // `name!` followed by any delimiter is a macro call;
                // `name != x` is not (the lexer makes `!=` one token).
                if let Some(open) = self.toks.get(i + 2) {
                    if open.kind == Kind::Punct && matches!(self.text(i + 2), "(" | "[" | "{") {
                        out.push(CallSite {
                            name,
                            kind: CallKind::Macro,
                            tok: i,
                            line: self.toks[i].line,
                        });
                    }
                }
                continue;
            }
            if !(next.kind == Kind::Punct && self.text(i + 1) == "(") {
                continue;
            }
            let kind = match i.checked_sub(1) {
                Some(p) if self.is_punct(p, ".") => CallKind::Method,
                // `fn name(` is a definition, not a call.
                Some(p) if self.is_ident(p, "fn") => continue,
                _ => CallKind::Path,
            };
            out.push(CallSite { name, kind, tok: i, line: self.toks[i].line });
        }
        out
    }

    /// Significant-token indices of every `[` opening an *index
    /// expression* within `[lo, hi]`: the `[` directly follows a value
    /// (identifier, literal, `)`, `]` or `?`), which distinguishes
    /// `sets[i]` from array literals, types and attributes.
    pub fn index_sites_in(&self, lo: usize, hi: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for i in self.span(lo.max(1), hi) {
            if !self.is_punct(i, "[") {
                continue;
            }
            let prev = &self.toks[i - 1];
            let is_value_end = match prev.kind {
                Kind::Ident => !matches!(self.text(i - 1), "mut" | "dyn" | "ref" | "return"),
                Kind::Number | Kind::Str | Kind::RawStr => true,
                Kind::Punct => matches!(self.text(i - 1), ")" | "]" | "?"),
                _ => false,
            };
            if is_value_end {
                out.push(i);
            }
        }
        out
    }

    /// Significant-token indices of `/` and `%` operators within
    /// `[lo, hi]` that look like *integer* division: float operands
    /// (an `f32`/`f64` token or a float literal within three tokens on
    /// either side) and division by a nonzero integer literal are
    /// excluded — neither can panic.
    pub fn div_sites_in(&self, lo: usize, hi: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for i in self.span(lo, hi) {
            if !(self.is_punct(i, "/") || self.is_punct(i, "%")) {
                continue;
            }
            // Divisor is a nonzero integer literal: cannot panic.
            if let Some(next) = self.toks.get(i + 1) {
                if next.kind == Kind::Number {
                    let t = self.text(i + 1);
                    if !is_float_literal(t) && !is_zero_literal(t) {
                        continue;
                    }
                }
            }
            // Float context within three tokens on either side, without
            // crossing a statement boundary (`;`, `{`, `}`).
            let is_float_tok = |j: usize| {
                (self.toks[j].kind == Kind::Ident && matches!(self.text(j), "f32" | "f64"))
                    || (self.toks[j].kind == Kind::Number && is_float_literal(self.text(j)))
            };
            let is_stmt_edge = |j: usize| {
                self.toks[j].kind == Kind::Punct && matches!(self.text(j), ";" | "{" | "}")
            };
            let mut float_near = false;
            for j in (i.saturating_sub(3)..i).rev() {
                if is_stmt_edge(j) {
                    break;
                }
                float_near |= is_float_tok(j);
            }
            for j in (i + 1)..=(i + 3).min(self.toks.len() - 1) {
                if is_stmt_edge(j) {
                    break;
                }
                float_near |= is_float_tok(j);
            }
            if !float_near {
                out.push(i);
            }
        }
        out
    }

    /// Walks the significant stream and extracts every `fn` that has a
    /// body, qualified by the innermost enclosing `impl`/`trait` type.
    fn extract_fns(&self) -> Vec<FnItem> {
        let mut fns = Vec::new();
        // Stack of (body-close token, type name) for impl/trait blocks.
        let mut ctx: Vec<(usize, String)> = Vec::new();
        let mut i = 0;
        while i < self.toks.len() {
            while let Some(&(end, _)) = ctx.last() {
                if i > end {
                    ctx.pop();
                } else {
                    break;
                }
            }
            if self.toks[i].kind != Kind::Ident {
                i += 1;
                continue;
            }
            match self.text(i) {
                "impl" | "trait" => {
                    if let Some((open, name)) = self.impl_header(i) {
                        let close = self.match_of[open];
                        if close != NO_MATCH {
                            ctx.push((close, name));
                        }
                        i = open + 1;
                        continue;
                    }
                }
                "fn" => {
                    if let Some(item) = self.fn_item(i, ctx.last().map(|(_, n)| n.as_str())) {
                        // Recurse *into* the body: nested fns and
                        // closures still belong to the stream.
                        i += 1;
                        fns.push(item);
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        fns
    }

    /// Parses an `impl`/`trait` header starting at token `at`; returns
    /// the body's `{` index and the self-type / trait name.
    ///
    /// For `impl Trait for Type` the name is `Type`; for `impl Type`
    /// and `trait Name` it is the last path segment before the body or
    /// a generic-argument list.
    fn impl_header(&self, at: usize) -> Option<(usize, String)> {
        let mut angle = 0i64;
        let mut after_for = None;
        let mut j = at + 1;
        while j < self.toks.len() {
            if self.toks[j].kind == Kind::Punct {
                match self.text(j) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    "{" if angle <= 0 => {
                        let seg_start = after_for.unwrap_or(at + 1);
                        let name = self.last_path_ident(seg_start, j)?;
                        return Some((j, name));
                    }
                    ";" => return None, // `impl Trait for Type;` form is not real Rust; bail.
                    _ => {}
                }
            } else if angle == 0 && self.is_ident(j, "for") {
                after_for = Some(j + 1);
            } else if angle == 0 && self.is_ident(j, "where") {
                // The self-type segment ends here; remember it by
                // resolving against the where-clause start.
                let seg_start = after_for.unwrap_or(at + 1);
                let name = self.last_path_ident(seg_start, j)?;
                // Continue scanning for the `{`.
                let mut k = j;
                while k < self.toks.len() {
                    if self.is_punct(k, "{") {
                        return Some((k, name));
                    }
                    if self.is_punct(k, ";") {
                        return None;
                    }
                    k += 1;
                }
                return None;
            }
            j += 1;
        }
        None
    }

    /// The last plain identifier of the path spelled in `[lo, hi)`,
    /// ignoring generic arguments — `psb_core::StreamBuffer<'a, T>`
    /// yields `StreamBuffer`.
    fn last_path_ident(&self, lo: usize, hi: usize) -> Option<String> {
        let mut angle = 0i64;
        let mut name = None;
        for j in lo..hi {
            if self.toks[j].kind == Kind::Punct {
                match self.text(j) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    _ => {}
                }
            } else if angle <= 0 && self.toks[j].kind == Kind::Ident {
                let t = self.text(j);
                if !matches!(t, "for" | "where" | "dyn" | "mut" | "const" | "unsafe") {
                    name = Some(t.to_string());
                }
            }
        }
        name
    }

    /// Parses one `fn` item starting at the `fn` keyword; returns the
    /// item when a body follows (skipping bodyless declarations and
    /// `fn(..)` pointer types).
    fn fn_item(&self, at: usize, ctx: Option<&str>) -> Option<FnItem> {
        let name_tok = self.toks.get(at + 1)?;
        if name_tok.kind != Kind::Ident {
            return None; // `fn(` — a function-pointer type.
        }
        let name = self.text(at + 1).to_string();
        // Scan the signature for the body `{`, jumping over delimited
        // groups and tracking angle depth for generics / where clauses.
        let mut angle = 0i64;
        let mut j = at + 2;
        while j < self.toks.len() {
            if self.toks[j].kind == Kind::Punct {
                match self.text(j) {
                    "(" | "[" => {
                        let m = self.match_of[j];
                        if m == NO_MATCH {
                            return None;
                        }
                        j = m;
                    }
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    "->" => {} // return-type arrow, not an angle close
                    ";" if angle <= 0 => return None, // declaration only
                    "{" if angle <= 0 => {
                        let close = self.match_of[j];
                        if close == NO_MATCH {
                            return None;
                        }
                        let qual = match ctx {
                            Some(t) => format!("{t}::{name}"),
                            None => name.clone(),
                        };
                        return Some(FnItem {
                            name,
                            qual,
                            body: (j, close),
                            in_test: self.toks[at].in_test,
                        });
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        None
    }
}

/// True for numeric-literal text that lexes as a float (`1.5`, `2e3`).
fn is_float_literal(t: &str) -> bool {
    !t.starts_with("0x") && !t.starts_with("0b") && (t.contains('.') || t.contains('e'))
}

/// True for numeric-literal text whose value is zero.
fn is_zero_literal(t: &str) -> bool {
    let t = t.replace('_', "");
    let digits = t
        .strip_prefix("0x")
        .or_else(|| t.strip_prefix("0b"))
        .or_else(|| t.strip_prefix("0o"))
        .unwrap_or(&t);
    let digits: String = digits.chars().take_while(|c| c.is_ascii_hexdigit()).collect();
    !digits.is_empty() && digits.chars().all(|c| c == '0')
}

/// Lexes `source` and keeps the significant tokens, annotating each
/// with its line, test-region membership and a preceding doc comment.
///
/// Test regions: a `#[cfg(test)]` or `#[test]` attribute arms a pending
/// flag, and the next `{` opens a region that lasts until its matching
/// `}`.
fn significant(source: &str, line_starts: &[usize]) -> Vec<SigTok> {
    let mut toks: Vec<SigTok> = Vec::new();
    let mut doc = false;
    for t in lex(source) {
        let text = t.text(source);
        match t.kind {
            Kind::Whitespace => {}
            Kind::LineComment => doc |= text.starts_with("///") && !text.starts_with("////"),
            Kind::BlockComment => {
                doc |= text.starts_with("/**") && !text.starts_with("/***") && text != "/**/"
            }
            kind => {
                let line = line_starts.partition_point(|&s| s <= t.start);
                toks.push(SigTok { kind, start: t.start, end: t.end, line, in_test: false, doc });
                doc = false;
            }
        }
    }

    // Test-region pass over the significant stream.
    let mut depth = 0i64;
    let mut test_depth: Option<i64> = None;
    let mut pending = false;
    let text = |t: &SigTok| &source[t.start..t.end];
    let mut i = 0;
    while i < toks.len() {
        let t = text(&toks[i]);
        let kind = toks[i].kind;
        // `#[cfg(test)]`-shaped and `#[test]`-shaped attributes.
        if kind == Kind::Punct && t == "#" && i + 2 < toks.len() && text(&toks[i + 1]) == "[" {
            let is_cfg_test = text(&toks[i + 2]) == "cfg"
                && i + 4 < toks.len()
                && text(&toks[i + 3]) == "("
                && text(&toks[i + 4]) == "test";
            let is_test = text(&toks[i + 2]) == "test" && i + 3 < toks.len()
                // `#[test]` exactly, not `#[test_case::...]`.
                && text(&toks[i + 3]) == "]";
            if is_cfg_test || is_test {
                pending = true;
            }
        }
        if kind == Kind::Punct {
            match t {
                "{" => {
                    if pending && test_depth.is_none() {
                        test_depth = Some(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                "}" => {
                    depth -= 1;
                    if let Some(td) = test_depth {
                        if depth <= td {
                            test_depth = None;
                        }
                    }
                }
                _ => {}
            }
        }
        toks[i].in_test = test_depth.is_some();
        i += 1;
    }
    toks
}

/// One stack pass matching `(`/`[`/`{` to their closers. Mismatched
/// closers are tolerated (left at [`NO_MATCH`]) — a lexer-level
/// approximation must survive macro-heavy code it cannot fully parse.
fn match_delims(source: &str, toks: &[SigTok]) -> Vec<usize> {
    let mut match_of = vec![NO_MATCH; toks.len()];
    let mut stack: Vec<(usize, u8)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != Kind::Punct {
            continue;
        }
        let b = source.as_bytes()[t.start];
        match b {
            b'(' | b'[' | b'{' => stack.push((i, b)),
            b')' | b']' | b'}' => {
                let open = match b {
                    b')' => b'(',
                    b']' => b'[',
                    _ => b'{',
                };
                if let Some(&(j, ob)) = stack.last() {
                    if ob == open {
                        stack.pop();
                        match_of[j] = i;
                        match_of[i] = j;
                    }
                }
            }
            _ => {}
        }
    }
    match_of
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_free_and_impl_fns_with_bodies() {
        let src = "fn free() { helper(); }\n\
                   impl StrideTable {\n    pub fn train(&mut self) { self.find(); }\n}\n\
                   impl Prefetcher for PsbPrefetcher {\n    fn tick(&mut self) {}\n}\n\
                   trait Obs {\n    fn hook(&self);\n    fn with_default(&self) { self.hook(); }\n}\n";
        let tree = Tree::parse(src);
        let quals: Vec<&str> = tree.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            ["free", "StrideTable::train", "PsbPrefetcher::tick", "Obs::with_default"],
            "{quals:?}"
        );
        // `fn hook(&self);` has no body and is not extracted.
        assert!(!tree.fns.iter().any(|f| f.name == "hook"));
    }

    #[test]
    fn generic_headers_and_where_clauses_resolve() {
        let src = "impl<'a, T: Ord> Wrapper<'a, T> {\n    fn get(&self) -> &T { &self.0 }\n}\n\
                   impl<K> Store<K> where K: Clone {\n    fn put(&mut self) {}\n}\n\
                   fn generic<T: Into<Vec<u8>>>(t: T) where T: Send { t.into(); }\n";
        let tree = Tree::parse(src);
        let quals: Vec<&str> = tree.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["Wrapper::get", "Store::put", "generic"], "{quals:?}");
    }

    #[test]
    fn call_kinds_are_distinguished() {
        let src = "fn f() { helper(); x.method(); path::call(); panic!(\"boom\"); \
                   let v = vec![1]; assert_eq!(1, 1); }";
        let tree = Tree::parse(src);
        let (lo, hi) = tree.fns[0].body;
        let calls = tree.calls_in(lo, hi);
        let get = |n: &str| calls.iter().find(|c| c.name == n).map(|c| c.kind);
        assert_eq!(get("helper"), Some(CallKind::Path));
        assert_eq!(get("method"), Some(CallKind::Method));
        assert_eq!(get("call"), Some(CallKind::Path));
        assert_eq!(get("panic"), Some(CallKind::Macro));
        assert_eq!(get("vec"), Some(CallKind::Macro));
        assert_eq!(get("assert_eq"), Some(CallKind::Macro));
    }

    #[test]
    fn ne_operator_is_not_a_macro() {
        let src = "fn f(a: u32, b: u32) -> bool { a != b }";
        let tree = Tree::parse(src);
        let (lo, hi) = tree.fns[0].body;
        assert!(tree.calls_in(lo, hi).is_empty());
    }

    #[test]
    fn index_sites_exclude_literals_types_and_attributes() {
        let src = "#[derive(Clone)]\nstruct S;\n\
                   fn f(xs: &[u32], i: usize) -> u32 {\n\
                       let a: [u32; 4] = [0, 1, 2, 3];\n\
                       let t = (xs,);\n\
                       a[i] + xs[i + 1] + t.0[0]\n\
                   }";
        let tree = Tree::parse(src);
        let (lo, hi) = tree.fns[0].body;
        let sites = tree.index_sites_in(lo, hi);
        let lines: Vec<usize> = sites.iter().map(|&i| tree.toks[i].line).collect();
        // Exactly the three real index expressions, all on line 6.
        assert_eq!(lines, [6, 6, 6], "{lines:?}");
    }

    #[test]
    fn div_sites_skip_floats_and_literal_divisors() {
        let src = "fn f(a: u64, b: u64, x: f64) -> u64 {\n\
                       let _ratio = x / 2.0;\n\
                       let _avg = a as f64 / b as f64;\n\
                       let _half = a / 2;\n\
                       let _rem = a % 4;\n\
                       a / b\n\
                   }";
        let tree = Tree::parse(src);
        let (lo, hi) = tree.fns[0].body;
        let sites = tree.div_sites_in(lo, hi);
        let lines: Vec<usize> = sites.iter().map(|&i| tree.toks[i].line).collect();
        assert_eq!(lines, [6], "only `a / b` can panic: {lines:?}");
    }

    #[test]
    fn division_by_zero_literal_is_kept() {
        let src = "fn f(a: u64) -> u64 { a / 0 }";
        let tree = Tree::parse(src);
        let (lo, hi) = tree.fns[0].body;
        assert_eq!(tree.div_sites_in(lo, hi).len(), 1);
    }

    #[test]
    fn test_regions_mark_fns() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { live(); }\n}\n\
                   fn also_live() {}\n";
        let tree = Tree::parse(src);
        let flags: Vec<(String, bool)> =
            tree.fns.iter().map(|f| (f.name.clone(), f.in_test)).collect();
        assert_eq!(
            flags,
            [
                ("live".to_string(), false),
                ("t".to_string(), true),
                ("also_live".to_string(), false)
            ],
            "{flags:?}"
        );
    }

    #[test]
    fn delimiters_match_across_nesting() {
        let src = "fn f() { g(h(1, [2, 3]), k()); }";
        let tree = Tree::parse(src);
        for (i, t) in tree.toks.iter().enumerate() {
            if t.kind == Kind::Punct && matches!(tree.text(i), "(" | "[" | "{") {
                let m = tree.match_of[i];
                assert_ne!(m, NO_MATCH, "unmatched opener at {i}");
                assert_eq!(tree.match_of[m], i, "partner symmetry");
            }
        }
    }

    /// A file with no significant tokens has nothing to scan, even over
    /// the range `0..=0`.
    #[test]
    fn scans_of_a_file_without_tokens_are_empty() {
        for src in ["", "//! println!(\"x\");\n/* a / b */\n"] {
            let tree = Tree::parse(src);
            assert!(tree.toks.is_empty());
            assert!(tree.calls_in(0, 0).is_empty());
            assert!(tree.index_sites_in(0, 0).is_empty());
            assert!(tree.div_sites_in(0, 0).is_empty());
        }
    }

    #[test]
    fn doc_flags_mark_outer_doc_comments_only() {
        let src = "/// a\nfn a() {}\n//! b\n//// c\n// d\nfn b() {}\n/** e */\nfn c() {}\n";
        let tree = Tree::parse(src);
        let flags: Vec<(&str, bool)> = (0..tree.toks.len())
            .filter(|&i| tree.is_ident(i, "fn"))
            .map(|i| (tree.text(i + 1), tree.toks[i].doc))
            .collect();
        assert_eq!(flags, [("a", true), ("b", false), ("c", true)]);
    }
}
