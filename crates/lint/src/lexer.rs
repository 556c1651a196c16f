//! The shared front-end: byte-aligned comment/string-stripped views of a
//! Rust source file, the `#[cfg(test)]` region mask, and a token stream.
//!
//! Everything downstream — the style rules, the lock-order pass, the
//! DMA-protocol typestate checker, and the taint pass — consumes the
//! output of this one pass, so there is exactly one tokenizer and one
//! interpretation of what is code and what is comment.

/// A source file prepared for scanning. The two views are byte-aligned
/// with each other and with the raw source: `kept` has comments blanked
/// but string literals preserved (lock names live in strings); `blank`
/// additionally blanks string/char contents, so structural matching on it
/// is immune to both comments and literal contents.
#[derive(Debug, Clone)]
pub struct Prep {
    /// Reporting label (workspace-relative path).
    pub label: String,
    /// Comment-stripped view, string contents preserved.
    pub kept: String,
    /// Comment- and literal-stripped view.
    pub blank: String,
    /// Per line (0-indexed): does the line belong to a `#[cfg(test)]`
    /// item? Computed over `blank`.
    pub mask: Vec<bool>,
}

/// Prepares one source file: builds both views and the test mask.
pub fn prep(label: &str, src: &str) -> Prep {
    let (kept, blank) = aligned_views(src);
    let mask = test_region_mask(&blank);
    Prep {
        label: label.to_string(),
        kept,
        blank,
        mask,
    }
}

impl Prep {
    /// 1-indexed line of byte offset `pos` in either view.
    pub fn line_of(&self, pos: usize) -> usize {
        self.blank.as_bytes()[..pos.min(self.blank.len())]
            .iter()
            .filter(|&&c| c == b'\n')
            .count()
            + 1
    }

    /// Whether 1-indexed `line` is inside a `#[cfg(test)]` item.
    pub fn in_test(&self, line: usize) -> bool {
        self.mask
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }
}

/// Replaces comments and string/char literals with spaces, preserving
/// newlines and all other structure (so brace matching and line numbers
/// survive). Doc comments — and therefore doctests — are stripped too.
/// This is the `blank` view of [`aligned_views`].
pub fn strip_code(src: &str) -> String {
    aligned_views(src).1
}

/// Builds the byte-aligned comment-stripped (`kept`) and fully-blanked
/// (`blank`) views. Handles nested block comments, raw strings with any
/// number of `#`s (including unterminated ones at EOF), escapes, and
/// byte-string literals.
pub fn aligned_views(src: &str) -> (String, String) {
    let b = src.as_bytes();
    let mut kept = Vec::with_capacity(b.len());
    let mut blank = Vec::with_capacity(b.len());
    let nl = |c: u8| if c == b'\n' { b'\n' } else { b' ' };
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                kept.push(b' ');
                blank.push(b' ');
                i += 1;
            }
        } else if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1;
            kept.extend([b' ', b' ']);
            blank.extend([b' ', b' ']);
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    kept.extend([b' ', b' ']);
                    blank.extend([b' ', b' ']);
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    kept.extend([b' ', b' ']);
                    blank.extend([b' ', b' ']);
                    i += 2;
                } else {
                    kept.push(nl(b[i]));
                    blank.push(nl(b[i]));
                    i += 1;
                }
            }
        } else if c == b'r' && raw_string_here(b, i) {
            let start = i;
            let mut j = i + 1;
            while j < b.len() && b[j] == b'#' {
                j += 1;
            }
            let hashes = j - (i + 1);
            // Copy `r##"` verbatim into kept, spaces into blank.
            for &d in &b[start..=j] {
                kept.push(d);
                blank.push(b' ');
            }
            i = j + 1;
            while i < b.len() {
                // The closer is `"` followed by exactly `hashes` `#`s; a
                // `"` too close to EOF to fit them cannot close the
                // literal.
                if b[i] == b'"'
                    && b.len() - (i + 1) >= hashes
                    && b[i + 1..].iter().take(hashes).all(|&d| d == b'#')
                {
                    for &d in &b[i..i + 1 + hashes] {
                        kept.push(d);
                        blank.push(b' ');
                    }
                    i += 1 + hashes;
                    break;
                }
                kept.push(b[i]);
                blank.push(nl(b[i]));
                i += 1;
            }
        } else if c == b'"' {
            kept.push(c);
            blank.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    kept.push(b[i]);
                    kept.push(b[i + 1]);
                    blank.push(b' ');
                    blank.push(nl(b[i + 1]));
                    i += 2;
                    continue;
                }
                let done = b[i] == b'"';
                kept.push(b[i]);
                blank.push(nl(b[i]));
                i += 1;
                if done {
                    break;
                }
            }
        } else if c == b'\'' && char_literal_here(b, i) {
            kept.push(c);
            blank.push(b' ');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    kept.push(b[i]);
                    kept.push(b[i + 1]);
                    blank.extend([b' ', b' ']);
                    i += 2;
                    continue;
                }
                let done = b[i] == b'\'';
                kept.push(b[i]);
                blank.push(b' ');
                i += 1;
                if done {
                    break;
                }
            }
        } else {
            kept.push(c);
            blank.push(c);
            i += 1;
        }
    }
    (
        String::from_utf8_lossy(&kept).into_owned(),
        String::from_utf8_lossy(&blank).into_owned(),
    )
}

fn raw_string_here(b: &[u8], i: usize) -> bool {
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"' && (j > i + 1 || b[i + 1] == b'"')
}

fn char_literal_here(b: &[u8], i: usize) -> bool {
    // Distinguish 'x' / '\n' char literals from lifetimes ('a, 'static).
    match b.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => b.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

/// Returns, per line (0-indexed), whether the line belongs to a
/// `#[cfg(test)]` item — computed by brace-matching the item that follows
/// the attribute. Expects *stripped* source (the `blank` view).
///
/// Brace counting starts at the attribute itself, so a closing brace
/// earlier on the same line (`} #[cfg(test)] mod t {`) cannot unbalance
/// the match, and a brace-less item on the attribute's own line
/// (`#[cfg(test)] use x;`) terminates there instead of swallowing the
/// rest of the file.
pub fn test_region_mask(stripped: &str) -> Vec<bool> {
    let lines: Vec<&str> = stripped.lines().collect();
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let Some(col) = lines[i].find("#[cfg(test)]") else {
            i += 1;
            continue;
        };
        // The attributed item starts at the attribute (possibly on the
        // same line) and runs until its braces balance back to zero — or,
        // for brace-less items (`#[cfg(test)] use …;`), until the
        // terminating semicolon.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut j = i;
        while j < lines.len() {
            mask[j] = true;
            let scan = if j == i { &lines[j][col..] } else { lines[j] };
            for c in scan.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            if !opened
                && scan.trim_end().ends_with(';')
                && !scan.trim_end().ends_with("#[cfg(test)]")
            {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// One token over the `blank` view. Identifiers (including keywords and
/// number literals) carry their text; everything else is a single- or
/// multi-character punctuation token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text (identifier characters or the punctuation sequence).
    pub text: String,
    /// `true` for identifier/keyword/number tokens.
    pub is_ident: bool,
    /// Byte offset into the `blank` view.
    pub pos: usize,
    /// 1-indexed line.
    pub line: usize,
}

/// Multi-character punctuation sequences kept together by the tokenizer.
/// Everything not listed lexes as a single character.
const JOINED: [&str; 6] = ["::", "->", "=>", "..=", "..", "&&"];

/// Tokenizes the `blank` view: identifier runs (`[A-Za-z0-9_]+`) become
/// ident tokens, a few multi-character operators stay joined, and every
/// other non-whitespace byte is a one-character punct token. String and
/// char literal contents were blanked by [`aligned_views`], so no string
/// byte ever reaches the token stream.
pub fn tokenize(blank: &str) -> Vec<Token> {
    let b = blank.as_bytes();
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push(Token {
                text: blank[start..i].to_string(),
                is_ident: true,
                pos: start,
                line,
            });
            continue;
        }
        let rest = &blank[i..];
        let joined = JOINED.iter().find(|p| rest.starts_with(**p));
        let len = joined.map_or(1, |p| p.len());
        out.push(Token {
            text: rest[..len].to_string(),
            is_ident: false,
            pos: i,
            line,
        });
        i += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_removes_comments_strings_and_doctests() {
        let src = "let a = \"x.unwrap()\"; // .unwrap()\n/* .expect( */ let b = 'x';\n/// ```\n/// v.unwrap();\n/// ```\nfn f() {}\n";
        let s = strip_code(src);
        assert!(!s.contains("unwrap"));
        assert!(!s.contains("expect"));
        assert!(s.contains("let a ="));
        assert!(s.contains("fn f() {}"));
        assert_eq!(s.lines().count(), src.lines().count());
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let src = "let r = r#\"a } { .unwrap() \"#;\nfn g<'a>(x: &'a str) -> &'a str { x }\n";
        let s = strip_code(src);
        assert!(!s.contains("unwrap"));
        // Braces inside the raw string are gone; real braces survive.
        assert!(s.contains("fn g<'a>(x: &'a str) -> &'a str { x }"));
    }

    #[test]
    fn strip_handles_nested_block_comments() {
        // Regression: `/* outer /* inner */ still comment */` must stay
        // one comment — the naive scan used to resurface after `inner */`.
        let src = "/* outer /* inner */ still.unwrap() */ let keep = 1;\n";
        let s = strip_code(src);
        assert!(!s.contains("unwrap"), "{s}");
        assert!(s.contains("let keep = 1;"), "{s}");
    }

    #[test]
    fn strip_handles_unterminated_raw_string_at_eof() {
        // Regression: with 2 closer hashes and a `"` on the last byte, the
        // old closer probe `take(hashes).all(..)` matched an *empty*
        // remainder and treated the literal as closed.
        let src = "let r = r##\"abc\"";
        let (kept, blank) = aligned_views(src);
        assert_eq!(kept.len(), src.len());
        assert_eq!(blank.len(), src.len());
        assert!(!blank.contains("abc"));
    }

    #[test]
    fn mask_covers_test_mod() {
        let s = strip_code(
            "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n",
        );
        let m = test_region_mask(&s);
        assert_eq!(m, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn mask_ignores_brace_noise_before_attribute_on_same_line() {
        // Regression: the `}` before the attribute used to pre-decrement
        // the depth counter and end the region on the opening line.
        let s = strip_code("fn a() {}\n} #[cfg(test)] mod t {\n    fn x() {}\n}\nfn b() {}\n");
        let m = test_region_mask(&s);
        assert!(!m[0]);
        assert!(m[1] && m[2] && m[3], "{m:?}");
        assert!(!m[4]);
    }

    #[test]
    fn mask_handles_single_line_braceless_item() {
        // Regression: `#[cfg(test)] use x;` on one line used to keep
        // masking until the next semicolon-terminated line.
        let s = strip_code("#[cfg(test)] use helpers::x;\nfn prod() { v.unwrap(); }\n");
        let m = test_region_mask(&s);
        assert_eq!(m, vec![true, false]);
    }

    #[test]
    fn mask_covers_cfg_test_impl_blocks() {
        // Regression companion: an attributed `impl` block (with extra
        // attributes between `#[cfg(test)]` and the braces) is one item.
        let src = "struct S;\n#[cfg(test)]\n#[allow(dead_code)]\nimpl S {\n    fn t(&self) -> u32 {\n        1\n    }\n}\nfn prod() {}\n";
        let m = test_region_mask(&strip_code(src));
        assert_eq!(
            m,
            vec![false, true, true, true, true, true, true, true, false]
        );
    }

    #[test]
    fn tokenizer_yields_idents_and_joined_puncts() {
        let toks = tokenize("let m = eng.map(ctx)?; a::b -> c\n");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            [
                "let", "m", "=", "eng", ".", "map", "(", "ctx", ")", "?", ";", "a", "::", "b",
                "->", "c"
            ]
        );
        assert!(toks[0].is_ident && !toks[2].is_ident);
        assert_eq!(toks[0].line, 1);
    }

    #[test]
    fn tokenizer_tracks_lines() {
        let toks = tokenize("a\nb\n\nc\n");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }
}
