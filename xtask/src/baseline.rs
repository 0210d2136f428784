//! Shared TOML-subset baseline parsing for gate commands.
//!
//! Both `cargo xtask mutants` (`MUTANTS.toml`) and `cargo xtask
//! analyze` (`PANICS.toml`, the one allow-list of every static check,
//! `cargo xtask lint` included) commit a baseline of *known, justified*
//! findings: entries keyed by a stable ID, each carrying a one-line
//! reason. The format is the same deliberately tiny TOML subset in both
//! files — only the schema string and the stanza name differ:
//!
//! ```toml
//! schema = "psb-mutants-v1"
//!
//! [[survivor]]
//! id = "crates/core/src/stream/buffer.rs:41:17:lit-inc"
//! reason = "capacity +1 only changes allocation, not behavior"
//! ```
//!
//! Parsed forms: `key = "value"` pairs, `[[stanza]]` headers, comments
//! and blank lines. Anything else is a parse error — strict beats
//! lenient for a gate input.

use std::collections::BTreeMap;
use std::path::Path;

/// One baseline entry: a finding ID and its justification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Stable finding ID (format is owned by the emitting gate).
    pub id: String,
    /// Why this finding is allowed to persist.
    pub reason: String,
}

/// A parsed baseline file.
#[derive(Debug, Default)]
pub struct BaselineFile {
    /// Entries keyed by ID.
    pub entries: BTreeMap<String, Entry>,
}

impl BaselineFile {
    /// Loads and parses a baseline. A missing file is an empty baseline
    /// (first run of the gate); a malformed file is an error.
    pub fn load(path: &Path, schema: &str, stanza: &str) -> Result<Self, String> {
        if !path.exists() {
            return Ok(Self::default());
        }
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text, schema, stanza).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the TOML subset described in the module docs. `schema` is
    /// the required value of the top-level `schema` key; `stanza` the
    /// required `[[name]]` of every entry.
    pub fn parse(text: &str, schema: &str, stanza: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        let mut schema_seen = false;
        let header = format!("[[{stanza}]]");
        // Fields of the stanza currently being parsed; None outside one.
        let mut current: Option<BTreeMap<String, String>> = None;

        let mut flush = |fields: BTreeMap<String, String>| -> Result<(), String> {
            let id = fields
                .get("id")
                .ok_or_else(|| format!("a {header} stanza is missing `id`"))?
                .clone();
            let reason = fields
                .get("reason")
                .ok_or_else(|| format!("{stanza} {id:?} is missing `reason`"))?
                .clone();
            if reason.trim().is_empty() {
                return Err(format!("{stanza} {id:?} has an empty `reason`"));
            }
            if entries.insert(id.clone(), Entry { id: id.clone(), reason }).is_some() {
                return Err(format!("duplicate {stanza} {id:?}"));
            }
            Ok(())
        };

        for (n, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == header {
                if let Some(fields) = current.take() {
                    flush(fields)?;
                }
                current = Some(BTreeMap::new());
                continue;
            }
            let Some((key, value)) = parse_kv(line) else {
                return Err(format!("line {}: cannot parse {line:?}", n + 1));
            };
            match (&mut current, key.as_str()) {
                (None, "schema") => {
                    if value != schema {
                        return Err(format!("unsupported schema {value:?}"));
                    }
                    schema_seen = true;
                }
                (None, _) => {
                    return Err(format!("line {}: key {key:?} outside a stanza", n + 1));
                }
                (Some(fields), _) => {
                    if fields.insert(key.clone(), value).is_some() {
                        return Err(format!("line {}: duplicate key {key:?}", n + 1));
                    }
                }
            }
        }
        if let Some(fields) = current.take() {
            flush(fields)?;
        }
        if !schema_seen {
            return Err(format!("missing `schema = \"{schema}\"` header"));
        }
        Ok(Self { entries })
    }
}

/// A paste-ready stanza for a new entry, in the canonical file format.
pub fn stanza(stanza: &str, id: &str, reason: &str) -> String {
    format!("[[{stanza}]]\nid = \"{}\"\nreason = \"{}\"\n", escape(id), escape(reason))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Parses one `key = "value"` line. Values are double-quoted strings
/// with `\"` and `\\` escapes; keys are bare identifiers.
fn parse_kv(line: &str) -> Option<(String, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
        return None;
    }
    let rest = rest.trim();
    let inner = rest.strip_prefix('"')?;
    let mut value = String::new();
    let mut chars = inner.chars();
    loop {
        match chars.next()? {
            '"' => break,
            '\\' => match chars.next()? {
                '"' => value.push('"'),
                '\\' => value.push('\\'),
                _ => return None,
            },
            c => value.push(c),
        }
    }
    // Only a comment may follow the closing quote.
    let tail = chars.as_str().trim();
    if !tail.is_empty() && !tail.starts_with('#') {
        return None;
    }
    Some((key.to_string(), value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_with_parameterized_schema_and_stanza() {
        let text = r#"
schema = "psb-analyze-v1"

[[allow]]
id = "panics:crates/core/src/x.rs:StrideTable::train:expect"
reason = "invariant: assoc >= 1 gives every set at least one way"
"#;
        let b = BaselineFile::parse(text, "psb-analyze-v1", "allow").unwrap();
        assert_eq!(b.entries.len(), 1);
        let e = &b.entries["panics:crates/core/src/x.rs:StrideTable::train:expect"];
        assert!(e.reason.starts_with("invariant"));
    }

    #[test]
    fn stanza_name_mismatch_is_rejected() {
        let text = "schema = \"psb-analyze-v1\"\n[[survivor]]\nid = \"x\"\nreason = \"r\"\n";
        assert!(BaselineFile::parse(text, "psb-analyze-v1", "allow").is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "schema = \"psb-mutants-v2\"",             // wrong schema
            "[[survivor]]\nid = \"x\"\nreason = \"r\"", // missing schema
            "schema = \"psb-mutants-v1\"\nid = \"x\"", // key outside stanza
            "schema = \"psb-mutants-v1\"\n[[survivor]]\nid = \"x\"", // no reason
            "schema = \"psb-mutants-v1\"\n[[survivor]]\nid = \"x\"\nreason = \"\"", // empty reason
            "schema = \"psb-mutants-v1\"\n[[survivor]]\nid = \"x\"\nreason = \"r\"\n[[survivor]]\nid = \"x\"\nreason = \"r\"", // duplicate
            "schema = \"psb-mutants-v1\"\nnot a kv line",
            "schema = \"psb-mutants-v1\"\n[[survivor]]\nid = \"x\" junk\nreason = \"r\"",
        ] {
            assert!(BaselineFile::parse(bad, "psb-mutants-v1", "survivor").is_err(), "{bad:?}");
        }
    }

    #[test]
    fn missing_file_is_an_empty_baseline() {
        let path = Path::new("/nonexistent/MUTANTS.toml");
        let b = BaselineFile::load(path, "psb-mutants-v1", "survivor").unwrap();
        assert!(b.entries.is_empty());
    }

    #[test]
    fn stanza_printer_escapes() {
        let s = stanza("allow", "a\"b", "why \\ because");
        let b = BaselineFile::parse(&format!("schema = \"s\"\n{s}"), "s", "allow").unwrap();
        assert!(b.entries.contains_key("a\"b"));
        assert_eq!(b.entries["a\"b"].reason, "why \\ because");
    }
}
