//! SQL tokenizer.
//!
//! Produces a flat token stream with byte offsets (used for caret
//! diagnostics). Keywords are case-insensitive; identifiers preserve case.

use crate::error::SqlError;

/// Kinds of tokens the parser consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword (uppercased spelling): SELECT, FROM, WHERE, GROUP, BY, AND,
    /// OR, NOT, IN, IS, NULL, TRUE, FALSE, AS, CASE, WHEN, THEN, ELSE, END.
    Keyword(String),
    /// Identifier (column/table name).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// Punctuation / operators: `( ) , * = <> != < <= > >= ;`
    Symbol(&'static str),
    /// End of input.
    Eof,
}

/// A token plus its starting byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the token's first character.
    pub pos: usize,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "OR", "NOT", "IN", "IS", "NULL", "TRUE",
    "FALSE", "AS", "CASE", "WHEN", "THEN", "ELSE", "END",
];

/// Tokenizes `src` into a vector ending with [`TokenKind::Eof`].
#[expect(
    clippy::indexing_slicing,
    clippy::string_slice,
    reason = "byte-indexed scanner: every index is guarded by an explicit \
              `i < bytes.len()` loop bound, and slices start and end at ASCII bytes"
)]
pub fn lex(src: &str) -> Result<Vec<Token>, SqlError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        match c {
            '(' | ')' | ',' | '*' | ';' => {
                let sym = match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '*' => "*",
                    _ => ";",
                };
                tokens.push(Token {
                    kind: TokenKind::Symbol(sym),
                    pos: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Symbol("="),
                    pos: start,
                });
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::Symbol("<>"),
                        pos: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Symbol("<="),
                        pos: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Symbol("<"),
                        pos: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Symbol(">="),
                        pos: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Symbol(">"),
                        pos: start,
                    });
                    i += 1;
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Symbol("!="),
                        pos: start,
                    });
                    i += 2;
                } else {
                    return Err(SqlError::new(start, "unexpected '!'"));
                }
            }
            '\'' => {
                // String literal with '' escaping. Content is consumed one
                // UTF-8 scalar at a time so multi-byte labels survive
                // intact (byte-wise `as char` would mangle them).
                let mut out = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(SqlError::new(start, "unterminated string literal")),
                        Some(b'\'') => {
                            if bytes.get(i + 1) == Some(&b'\'') {
                                out.push('\'');
                                i += 2;
                            } else {
                                i += 1;
                                break;
                            }
                        }
                        Some(_) => {
                            let ch = src[i..]
                                .chars()
                                .next()
                                .ok_or_else(|| SqlError::new(i, "invalid UTF-8 in string"))?;
                            out.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(out),
                    pos: start,
                });
            }
            _ if c.is_ascii_digit()
                || (c == '-'
                    && bytes
                        .get(i + 1)
                        .is_some_and(|b| (*b as char).is_ascii_digit())) =>
            {
                let mut j = i + 1;
                let mut is_float = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.' && !is_float {
                        is_float = true;
                        j += 1;
                    } else if (d == 'e' || d == 'E')
                        && bytes.get(j + 1).is_some_and(|b| {
                            (*b as char).is_ascii_digit() || *b == b'-' || *b == b'+'
                        })
                    {
                        is_float = true;
                        j += 2;
                    } else {
                        break;
                    }
                }
                let text = &src[i..j];
                let kind = if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| SqlError::new(start, format!("bad float '{text}'")))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| SqlError::new(start, format!("bad integer '{text}'")))?,
                    )
                };
                tokens.push(Token { kind, pos: start });
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i + 1;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[i..j];
                let upper = word.to_ascii_uppercase();
                let kind = if KEYWORDS.contains(&upper.as_str()) {
                    TokenKind::Keyword(upper)
                } else {
                    TokenKind::Ident(word.to_owned())
                };
                tokens.push(Token { kind, pos: start });
                i = j;
            }
            other => {
                return Err(SqlError::new(
                    start,
                    format!("unexpected character '{other}'"),
                ));
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        pos: src.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_basic_select() {
        let k = kinds("SELECT a, AVG(m) FROM t");
        assert_eq!(
            k,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Ident("a".into()),
                TokenKind::Symbol(","),
                TokenKind::Ident("AVG".into()),
                TokenKind::Symbol("("),
                TokenKind::Ident("m".into()),
                TokenKind::Symbol(")"),
                TokenKind::Keyword("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_case_insensitive_idents_preserved() {
        let k = kinds("select MyCol from T");
        assert_eq!(k[0], TokenKind::Keyword("SELECT".into()));
        assert_eq!(k[1], TokenKind::Ident("MyCol".into()));
        assert_eq!(k[2], TokenKind::Keyword("FROM".into()));
    }

    #[test]
    fn numeric_literals() {
        assert_eq!(kinds("42")[0], TokenKind::Int(42));
        assert_eq!(kinds("-7")[0], TokenKind::Int(-7));
        assert_eq!(kinds("3.25")[0], TokenKind::Float(3.25));
        assert_eq!(kinds("1e3")[0], TokenKind::Float(1000.0));
        assert_eq!(kinds("2.5e-2")[0], TokenKind::Float(0.025));
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(kinds("'hello'")[0], TokenKind::Str("hello".into()));
        assert_eq!(kinds("'it''s'")[0], TokenKind::Str("it's".into()));
        assert_eq!(kinds("''")[0], TokenKind::Str(String::new()));
    }

    #[test]
    fn comparison_operators() {
        let k = kinds("= <> != < <= > >=");
        let syms: Vec<_> = k
            .iter()
            .filter_map(|t| match t {
                TokenKind::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec!["=", "<>", "!=", "<", "<=", ">", ">="]);
    }

    #[test]
    fn multibyte_string_content_survives() {
        assert_eq!(kinds("'café'")[0], TokenKind::Str("café".into()));
        assert_eq!(kinds("'日本語'")[0], TokenKind::Str("日本語".into()));
    }

    #[test]
    fn multibyte_outside_strings_is_a_clean_error() {
        let err = lex("a = é").unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = lex("'oops").unwrap_err();
        assert!(err.message.contains("unterminated"));
        assert_eq!(err.pos, 0);
    }

    #[test]
    fn unexpected_character_reports_position() {
        let err = lex("a @ b").unwrap_err();
        assert_eq!(err.pos, 2);
    }

    #[test]
    fn positions_track_byte_offsets() {
        let toks = lex("SELECT a").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 7);
    }

    #[test]
    fn eof_token_always_present() {
        let toks = lex("").unwrap();
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].kind, TokenKind::Eof);
    }
}
