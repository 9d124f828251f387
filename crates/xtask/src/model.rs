//! A lightweight item/scope model on top of the token stream: line
//! mapping, `#[cfg(test)]` / `#[test]` item spans, and the
//! justification-required `xtask:allow` directive parser.

use crate::lexer::{Kind, Token};
use crate::passes::RawDiag;
use std::collections::BTreeMap;

/// Maps byte offsets to 1-based `(line, col)` pairs.
pub struct LineMap {
    starts: Vec<usize>,
}

impl LineMap {
    /// Builds the map for `src`.
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineMap { starts }
    }

    /// 1-based line and column (in bytes) of a byte offset.
    pub fn line_col(&self, off: usize) -> (u32, u32) {
        let line = match self.starts.binary_search(&off) {
            Ok(i) => i,
            Err(i) => i.saturating_sub(1),
        };
        let col = off.saturating_sub(self.starts.get(line).copied().unwrap_or(0));
        ((line + 1) as u32, (col + 1) as u32)
    }

    /// 1-based line of a byte offset.
    pub fn line(&self, off: usize) -> u32 {
        self.line_col(off).0
    }
}

/// True if `i` indexes a significant (non-comment) token.
fn significant(toks: &[Token], i: usize) -> bool {
    toks.get(i).is_some_and(|t| !t.is_comment())
}

/// Next significant token index at or after `i`.
pub fn next_sig(toks: &[Token], mut i: usize) -> Option<usize> {
    while i < toks.len() {
        if significant(toks, i) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Previous significant token index strictly before `i`.
pub fn prev_sig(toks: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&j| significant(toks, j))
}

fn is_punct(toks: &[Token], src: &str, i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.kind == Kind::Punct && t.text(src) == c.to_string().as_str())
}

/// Byte spans of items guarded by `#[cfg(test)]` / `#[test]` (the
/// attribute itself through the end of the item it decorates).
pub fn cfg_test_spans(src: &str, toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(toks, src, i, '#') {
            i += 1;
            continue;
        }
        let Some(open) = next_sig(toks, i + 1) else { break };
        if !is_punct(toks, src, open, '[') {
            i += 1;
            continue;
        }
        // Find the matching `]` and collect the attribute's idents.
        let mut depth = 0usize;
        let mut idents: Vec<&str> = Vec::new();
        let mut close = open;
        for j in open..toks.len() {
            if !significant(toks, j) {
                continue;
            }
            let t = &toks[j];
            match (t.kind, t.text(src)) {
                (Kind::Punct, "[") => depth += 1,
                (Kind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        close = j;
                        break;
                    }
                }
                (Kind::Ident, name) => idents.push(name),
                _ => {}
            }
        }
        let is_test_attr = idents == ["test"]
            || (idents.first() == Some(&"cfg")
                && idents.contains(&"test")
                && !idents.contains(&"not"));
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Skip any further attributes, then span to the end of the item:
        // its top-level `{…}` block, or `;` for braceless items.
        let attr_start = toks[i].start;
        let mut j = close + 1;
        while let Some(k) = next_sig(toks, j) {
            if is_punct(toks, src, k, '#') {
                // Another attribute: jump past its `]`.
                let mut d = 0usize;
                let mut m = k;
                for x in k..toks.len() {
                    if !significant(toks, x) {
                        continue;
                    }
                    match toks[x].text(src) {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                m = x;
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                j = m + 1;
                continue;
            }
            break;
        }
        let mut end = toks.last().map(|t| t.end).unwrap_or(src.len());
        let mut brace = 0usize;
        for x in j..toks.len() {
            if !significant(toks, x) {
                continue;
            }
            match toks[x].text(src) {
                "{" => brace += 1,
                "}" => {
                    brace = brace.saturating_sub(1);
                    if brace == 0 {
                        end = toks[x].end;
                        break;
                    }
                }
                ";" if brace == 0 => {
                    end = toks[x].end;
                    break;
                }
                _ => {}
            }
        }
        spans.push((attr_start, end));
        // Resume after the item so nested test attrs don't re-trigger.
        while i < toks.len() && toks[i].start < end {
            i += 1;
        }
    }
    spans
}

/// True if `off` falls inside any span.
pub fn in_spans(spans: &[(usize, usize)], off: usize) -> bool {
    spans.iter().any(|&(a, b)| off >= a && off < b)
}

/// Parsed `xtask:allow` directives: suppressed rules per 1-based line.
#[derive(Default)]
pub struct Allows {
    map: BTreeMap<u32, Vec<String>>,
}

impl Allows {
    /// True if `rule` is suppressed on `line`.
    pub fn covers(&self, line: u32, rule: &str) -> bool {
        self.map.get(&line).is_some_and(|rs| rs.iter().any(|r| r == rule))
    }
}

/// Parses every `xtask:allow` comment.
///
/// Grammar: `xtask:allow(rule-id[, rule-id]): justification`. A
/// whole-line comment suppresses the next significant line; a trailing
/// comment suppresses its own line. A directive with an unknown rule,
/// bad syntax, or a missing justification produces a non-suppressible
/// `allow-syntax` diagnostic instead of an exemption.
pub fn parse_allows(
    src: &str,
    toks: &[Token],
    lines: &LineMap,
    known_rules: &[&str],
) -> (Allows, Vec<RawDiag>) {
    let mut allows = Allows::default();
    let mut diags = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        let text = t.text(src);
        // A directive must LEAD the comment; prose that merely mentions
        // `xtask:allow` mid-sentence (like this one) is not a directive.
        let body = text.trim_start_matches(['/', '*', '!']).trim_start();
        if !body.starts_with("xtask:allow") {
            continue;
        }
        let pos = text.len() - body.len();
        let off = t.start;
        let fail = |msg: String, diags: &mut Vec<RawDiag>| {
            diags.push(RawDiag { off, rule: "allow-syntax", msg });
        };
        let rest = &text[pos + "xtask:allow".len()..];
        let Some(stripped) = rest.strip_prefix('(') else {
            fail(
                "malformed allow: expected `(rule-id[, rule-id]): justification`".into(),
                &mut diags,
            );
            continue;
        };
        let Some(close) = stripped.find(')') else {
            fail("malformed allow: unclosed rule list".into(), &mut diags);
            continue;
        };
        let rule_list = &stripped[..close];
        let after = stripped[close + 1..].trim_start();
        let Some(justification) = after.strip_prefix(':') else {
            fail(
                "allow without justification: write `xtask:allow(rule): why it is safe`".into(),
                &mut diags,
            );
            continue;
        };
        let justification = justification.trim().trim_end_matches("*/").trim();
        if justification.is_empty() {
            fail(
                "allow without justification: write `xtask:allow(rule): why it is safe`".into(),
                &mut diags,
            );
            continue;
        }
        let mut rules = Vec::new();
        let mut bad = false;
        for r in rule_list.split(',') {
            let r = r.trim();
            if known_rules.contains(&r) {
                rules.push(r.to_string());
            } else {
                fail(format!("allow names unknown rule `{r}`"), &mut diags);
                bad = true;
            }
        }
        if bad || rules.is_empty() {
            continue;
        }
        // Trailing comment → its own line; whole-line comment → the
        // line of the next significant token.
        let own_line = lines.line(t.start);
        let leading = prev_sig(toks, i).is_none_or(|p| lines.line(toks[p].end - 1) < own_line);
        let target = if leading {
            next_sig(toks, i + 1).map(|n| lines.line(toks[n].start)).unwrap_or(own_line)
        } else {
            own_line
        };
        allows.map.entry(target).or_default().extend(rules);
    }
    (allows, diags)
}

/// Finds the byte span of the balanced `{…}` block whose opening brace
/// is the next `{` at or after token `i` (interior included, braces
/// excluded). Returns `None` if a `;` appears first at depth 0.
pub fn brace_block(src: &str, toks: &[Token], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    let open = loop {
        let k = next_sig(toks, j)?;
        if is_punct(toks, src, k, '{') {
            break k;
        }
        if is_punct(toks, src, k, ';') {
            return None;
        }
        j = k + 1;
    };
    let mut depth = 0usize;
    for x in open..toks.len() {
        if !significant(toks, x) {
            continue;
        }
        match toks[x].text(src) {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some((toks[open].end, toks[x].start));
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_module_span_covers_the_block() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn inner() { x.unwrap(); }\n}\nfn after() {}\n";
        let toks = lex(src);
        let spans = cfg_test_spans(src, &toks);
        assert_eq!(spans.len(), 1);
        let unwrap_at = src.find("unwrap").unwrap();
        assert!(in_spans(&spans, unwrap_at));
        assert!(!in_spans(&spans, src.find("live").unwrap()));
        assert!(!in_spans(&spans, src.find("after").unwrap()));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let toks = lex(src);
        assert!(cfg_test_spans(src, &toks).is_empty());
    }

    #[test]
    fn test_attr_covers_one_fn() {
        let src = "#[test]\nfn t() { a(); }\nfn live() {}\n";
        let toks = lex(src);
        let spans = cfg_test_spans(src, &toks);
        assert_eq!(spans.len(), 1);
        assert!(!in_spans(&spans, src.find("live").unwrap()));
    }

    #[test]
    fn allow_requires_justification() {
        let lines_src = "// xtask:allow(no-panic)\nlet x = y.unwrap();\n";
        let toks = lex(lines_src);
        let lm = LineMap::new(lines_src);
        let (allows, diags) = parse_allows(lines_src, &toks, &lm, &["no-panic"]);
        assert!(!allows.covers(2, "no-panic"));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "allow-syntax");
    }

    #[test]
    fn leading_allow_covers_next_line_trailing_covers_own() {
        let src = "// xtask:allow(no-panic): seed is validated at startup\nlet x = y.unwrap();\nlet z = q.unwrap(); // xtask:allow(no-panic): len checked above\n";
        let toks = lex(src);
        let lm = LineMap::new(src);
        let (allows, diags) = parse_allows(src, &toks, &lm, &["no-panic"]);
        assert!(diags.is_empty());
        assert!(allows.covers(2, "no-panic"));
        assert!(allows.covers(3, "no-panic"));
        assert!(!allows.covers(1, "no-panic"));
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let src = "// xtask:allow(no-such-rule): because\nlet x = 1;\n";
        let toks = lex(src);
        let lm = LineMap::new(src);
        let (allows, diags) = parse_allows(src, &toks, &lm, &["no-panic"]);
        assert!(!allows.covers(2, "no-such-rule"));
        assert_eq!(diags.len(), 1);
    }
}
