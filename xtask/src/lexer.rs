//! A minimal Rust lexer, pure std — the shared foundation of every
//! token-level tool in xtask: the mutation engine (`cargo xtask
//! mutants`) and the static checker (`cargo xtask analyze`, which
//! `cargo xtask lint` runs), both through the token tree.
//!
//! These tools need just enough token structure to work safely:
//! operators must not be found inside strings, comments, char literals
//! or lifetimes, and every byte of the input must be covered so mutants
//! can be applied by byte-span splicing. The lexer therefore produces a
//! *total* token stream — concatenating the spans of all tokens
//! reproduces the source byte-for-byte (the round-trip property the
//! mutation engine's self-tests check against every `.rs` file in the
//! workspace).
//!
//! It is deliberately not a full lexer: tokens carry no parsed values,
//! keywords are plain identifiers, and numeric literals keep their
//! suffixes. Anything unrecognized becomes a one-byte [`Kind::Other`]
//! token, which the mutation operators simply never touch.

/// Token classification, coarse on purpose.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Spaces, tabs, newlines.
    Whitespace,
    /// `// ...` including doc comments, excluding the newline.
    LineComment,
    /// `/* ... */`, nested.
    BlockComment,
    /// `"..."`, `b"..."` with escapes.
    Str,
    /// `r"..."`, `r#"..."#`, `br#"..."#` at any hash depth.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// `'a` in `&'a T` (not a char literal).
    Lifetime,
    /// Identifiers and keywords.
    Ident,
    /// Numeric literals including suffixes (`0x1f`, `1_000u64`, `1.5e-3`).
    Number,
    /// Operators and delimiters, longest-match (`<<=` before `<<` before `<`).
    Punct,
    /// A byte the lexer does not classify.
    Other,
}

/// One token: a classification and the byte span it covers.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// What the span holds.
    pub kind: Kind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Token {
    /// The token's text within `source`.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }
}

/// Multi-byte punctuation, longest first so maximal munch works by
/// scanning the table in order.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "->", "=>", "::", "..", "<", ">", "=", "+", "-", "*", "/", "%",
    "^", "&", "|", "!", "?", "@", "#", "$", ".", ",", ";", ":", "(", ")", "[", "]", "{", "}",
];

/// Tokenizes `source` into a total, byte-covering stream.
pub fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let kind = match bytes[i] {
            b if (b as char).is_whitespace() => {
                while i < bytes.len() && (bytes[i] as char).is_whitespace() {
                    i += 1;
                }
                Kind::Whitespace
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                Kind::LineComment
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Kind::BlockComment
            }
            b'r' | b'b' if raw_str_len(&source[i..]).is_some() => {
                // Invariant: raw_str_len just confirmed the prefix parses.
                i += raw_str_len(&source[i..]).expect("checked by the guard (invariant)");
                Kind::RawStr
            }
            b'b' if bytes.get(i + 1) == Some(&b'"') => {
                i += 2;
                i = skip_str_body(bytes, i);
                Kind::Str
            }
            b'b' if bytes.get(i + 1) == Some(&b'\'') => {
                i += 2;
                i = skip_char_body(bytes, i);
                Kind::Char
            }
            b'"' => {
                i += 1;
                i = skip_str_body(bytes, i);
                Kind::Str
            }
            b'\'' => {
                // A quote opens a char literal only when it closes within a
                // couple of characters (or holds an escape); otherwise it is
                // a lifetime, which has no closing quote.
                if is_char_literal(bytes, i) {
                    i += 1;
                    i = skip_char_body(bytes, i);
                    Kind::Char
                } else {
                    i += 1;
                    while i < bytes.len() && is_ident_byte(bytes[i]) {
                        i += 1;
                    }
                    Kind::Lifetime
                }
            }
            b if b.is_ascii_digit() => {
                i = skip_number(bytes, i);
                Kind::Number
            }
            b if is_ident_start(b) => {
                while i < bytes.len() && is_ident_byte(bytes[i]) {
                    i += 1;
                }
                Kind::Ident
            }
            _ => {
                if let Some(p) = PUNCTS.iter().find(|p| source[i..].starts_with(**p)) {
                    i += p.len();
                    Kind::Punct
                } else {
                    // Cover the whole (possibly multi-byte) char.
                    let c = source[i..].chars().next().unwrap_or('\0');
                    i += c.len_utf8().max(1);
                    Kind::Other
                }
            }
        };
        tokens.push(Token { kind, start, end: i });
    }
    tokens
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Length of a raw (byte) string literal starting at the head of `s`
/// (`r"…"`, `r#"…"#`, `br##"…"##`), or `None` if `s` does not start one.
fn raw_str_len(s: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut i = 0;
    if bytes.first() == Some(&b'b') {
        i += 1;
    }
    if bytes.get(i) != Some(&b'r') {
        return None;
    }
    i += 1;
    let mut hashes = 0;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while seen < hashes && bytes.get(j) == Some(&b'#') {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return Some(j);
            }
        }
        i += 1;
    }
    Some(bytes.len())
}

/// Advances past the body and closing quote of a `"` string, honoring
/// backslash escapes. `i` points just past the opening quote.
fn skip_str_body(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Advances past the body and closing quote of a char literal.
fn skip_char_body(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\'' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// Distinguishes `'x'` / `'\n'` (char literal) from `'a` (lifetime): a
/// char literal's closing quote appears within a bounded distance.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        // `'\n'` — escapes only occur in char literals.
        Some(&b'\\') => true,
        // `'x'` — an ASCII char closing right away. (`'a, 'b` in a
        // generic list has `,` there, so lifetimes fall through.)
        Some(&b) if b < 0x80 => bytes.get(i + 2) == Some(&b'\''),
        // `'é'` — a multi-byte char closes within a few bytes.
        Some(_) => (2..=5).any(|d| bytes.get(i + d) == Some(&b'\'')),
        None => false,
    }
}

/// Advances past a numeric literal: digits, `_`, radix prefixes, type
/// suffixes, a fractional part (only when a digit follows the dot, so
/// `0..10` stays a range), and a signed exponent.
fn skip_number(bytes: &[u8], mut i: usize) -> usize {
    let mut seen_dot = false;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_alphanumeric() || b == b'_' {
            // `1e-5` / `2.5E+10`: the sign belongs to the exponent, but
            // only in a decimal (not hex) literal context — `0xe - 1`
            // cannot occur because hex literals never reach here with a
            // plain `e` exponent (0x.. consumes alphanumerics whole).
            if (b == b'e' || b == b'E')
                && seen_dot
                && matches!(bytes.get(i + 1), Some(&b'+') | Some(&b'-'))
                && bytes.get(i + 2).is_some_and(u8::is_ascii_digit)
            {
                i += 2;
            }
            i += 1;
        } else if b == b'.' && !seen_dot && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
            seen_dot = true;
            i += 1;
        } else {
            break;
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trips(src: &str) {
        let tokens = lex(src);
        let rebuilt: String = tokens.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src, "lexer must cover every byte");
        for w in tokens.windows(2) {
            assert_eq!(w[0].end, w[1].start, "tokens must tile the input");
        }
    }

    #[test]
    fn covers_plain_code() {
        round_trips("fn main() { let x = 1 + 2; println!(\"{}\", x); }\n");
    }

    #[test]
    fn strings_hide_operators() {
        let src = r#"let s = "a < b && c"; let t = 'x';"#;
        round_trips(src);
        let tokens = lex(src);
        let puncts: Vec<&str> =
            tokens.iter().filter(|t| t.kind == Kind::Punct).map(|t| t.text(src)).collect();
        assert!(!puncts.contains(&"<"), "operator inside a string must not be a Punct: {puncts:?}");
        assert!(tokens.iter().any(|t| t.kind == Kind::Char));
    }

    #[test]
    fn raw_strings_and_hashes() {
        round_trips(r###"let s = r#"quote " inside"#; let b = br"raw";"###);
        let src = r###"r#"has "quotes" inside"# + x"###;
        let tokens = lex(src);
        assert_eq!(tokens[0].kind, Kind::RawStr);
        assert_eq!(tokens[0].text(src), r###"r#"has "quotes" inside"#"###);
    }

    #[test]
    fn lifetimes_are_not_chars() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        round_trips(src);
        let tokens = lex(src);
        assert!(tokens.iter().any(|t| t.kind == Kind::Lifetime));
        assert!(!tokens.iter().any(|t| t.kind == Kind::Char));
    }

    #[test]
    fn nested_block_comments() {
        round_trips("/* outer /* inner */ still comment */ let x = 1;");
        let src = "/* a /* b */ c */ 1";
        let tokens = lex(src);
        assert_eq!(tokens[0].kind, Kind::BlockComment);
        assert_eq!(tokens[0].text(src), "/* a /* b */ c */");
    }

    #[test]
    fn numbers_with_suffixes_floats_and_ranges() {
        let src = "0x1f_u64 1_000 1.5e-3 0..10 x.0";
        round_trips(src);
        let nums: Vec<&str> =
            lex(src).iter().filter(|t| t.kind == Kind::Number).map(|t| t.text(src)).collect();
        assert_eq!(nums, ["0x1f_u64", "1_000", "1.5e-3", "0", "10", "0"]);
    }

    #[test]
    fn maximal_munch_on_operators() {
        let src = "a <<= b << c <= d < e";
        let ops: Vec<&str> =
            lex(src).iter().filter(|t| t.kind == Kind::Punct).map(|t| t.text(src)).collect();
        assert_eq!(ops, ["<<=", "<<", "<=", "<"]);
    }
}
