//! Tokenizer for NkScript source code.

use crate::error::ScriptError;

/// A lexical token with its source line (for error reporting).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// The token kind and payload.
    pub(crate) kind: TokenKind,
    /// 1-based line on which the token starts.
    pub(crate) line: usize,
}

/// The kinds of token NkScript recognises.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Numeric literal (all numbers are f64, like JavaScript).
    Number(f64),
    /// String literal (single- or double-quoted).
    Str(String),
    /// Identifier.
    Ident(String),
    /// Keyword.
    Keyword(Keyword),
    /// Punctuation / operator.
    Punct(Punct),
    /// End of input.
    Eof,
}

/// Reserved words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keyword {
    /// `var`
    Var,
    /// `function`
    Function,
    /// `return`
    Return,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `true`
    True,
    /// `false`
    False,
    /// `null`
    Null,
    /// `undefined`
    Undefined,
    /// `new`
    New,
    /// `typeof`
    Typeof,
    /// `throw`
    Throw,
    /// `try`
    Try,
    /// `catch`
    Catch,
    /// `finally`
    Finally,
    /// `in` (for-in loops and the `in` operator)
    In,
    /// `delete`
    Delete,
}

/// Operators and punctuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub(crate) enum Punct {
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semicolon,
    Comma,
    Dot,
    Colon,
    Question,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    Eq,
    NotEq,
    StrictEq,
    StrictNotEq,
    Lt,
    Gt,
    Le,
    Ge,
    AndAnd,
    OrOr,
    Not,
    PlusPlus,
    MinusMinus,
    BitAnd,
    BitOr,
}

/// Tokenizes `source`, returning the token stream terminated by
/// [`TokenKind::Eof`].
pub(crate) fn tokenize(source: &str) -> Result<Vec<Token>, ScriptError> {
    let chars: Vec<char> = source.chars().collect();
    let mut tokens = Vec::new();
    let mut pos = 0usize;
    let mut line = 1usize;

    while pos < chars.len() {
        let c = chars[pos];
        match c {
            '\n' => {
                line += 1;
                pos += 1;
            }
            c if c.is_whitespace() => {
                pos += 1;
            }
            '/' if peek(&chars, pos + 1) == Some('/') => {
                while pos < chars.len() && chars[pos] != '\n' {
                    pos += 1;
                }
            }
            '/' if peek(&chars, pos + 1) == Some('*') => {
                pos += 2;
                loop {
                    if pos >= chars.len() {
                        return Err(ScriptError::Lex {
                            line,
                            message: "unterminated block comment".to_string(),
                        });
                    }
                    if chars[pos] == '\n' {
                        line += 1;
                    }
                    if chars[pos] == '*' && peek(&chars, pos + 1) == Some('/') {
                        pos += 2;
                        break;
                    }
                    pos += 1;
                }
            }
            '"' | '\'' => {
                let (s, consumed, newlines) = lex_string(&chars, pos, line)?;
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    line,
                });
                pos += consumed;
                line += newlines;
            }
            c if c.is_ascii_digit() => {
                let start = pos;
                let mut saw_dot = false;
                let mut is_hex = false;
                if c == '0' && matches!(peek(&chars, pos + 1), Some('x') | Some('X')) {
                    is_hex = true;
                    pos += 2;
                    while pos < chars.len() && chars[pos].is_ascii_hexdigit() {
                        pos += 1;
                    }
                } else {
                    while pos < chars.len()
                        && (chars[pos].is_ascii_digit() || (chars[pos] == '.' && !saw_dot))
                    {
                        if chars[pos] == '.' {
                            // A trailing "." followed by a non-digit is member
                            // access on a number; stop before it.
                            if !matches!(peek(&chars, pos + 1), Some(d) if d.is_ascii_digit()) {
                                break;
                            }
                            saw_dot = true;
                        }
                        pos += 1;
                    }
                }
                let text: String = chars[start..pos].iter().collect();
                let value = if is_hex {
                    i64::from_str_radix(text.trim_start_matches("0x").trim_start_matches("0X"), 16)
                        .map(|v| v as f64)
                        .map_err(|_| ScriptError::Lex {
                            line,
                            message: format!("bad hex literal: {text}"),
                        })?
                } else {
                    text.parse::<f64>().map_err(|_| ScriptError::Lex {
                        line,
                        message: format!("bad number literal: {text}"),
                    })?
                };
                tokens.push(Token {
                    kind: TokenKind::Number(value),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                let start = pos;
                while pos < chars.len()
                    && (chars[pos].is_ascii_alphanumeric()
                        || chars[pos] == '_'
                        || chars[pos] == '$')
                {
                    pos += 1;
                }
                let word: String = chars[start..pos].iter().collect();
                let kind = match word.as_str() {
                    "var" | "let" | "const" => TokenKind::Keyword(Keyword::Var),
                    "function" => TokenKind::Keyword(Keyword::Function),
                    "return" => TokenKind::Keyword(Keyword::Return),
                    "if" => TokenKind::Keyword(Keyword::If),
                    "else" => TokenKind::Keyword(Keyword::Else),
                    "while" => TokenKind::Keyword(Keyword::While),
                    "for" => TokenKind::Keyword(Keyword::For),
                    "break" => TokenKind::Keyword(Keyword::Break),
                    "continue" => TokenKind::Keyword(Keyword::Continue),
                    "true" => TokenKind::Keyword(Keyword::True),
                    "false" => TokenKind::Keyword(Keyword::False),
                    "null" => TokenKind::Keyword(Keyword::Null),
                    "undefined" => TokenKind::Keyword(Keyword::Undefined),
                    "new" => TokenKind::Keyword(Keyword::New),
                    "typeof" => TokenKind::Keyword(Keyword::Typeof),
                    "throw" => TokenKind::Keyword(Keyword::Throw),
                    "try" => TokenKind::Keyword(Keyword::Try),
                    "catch" => TokenKind::Keyword(Keyword::Catch),
                    "finally" => TokenKind::Keyword(Keyword::Finally),
                    "in" => TokenKind::Keyword(Keyword::In),
                    "delete" => TokenKind::Keyword(Keyword::Delete),
                    _ => TokenKind::Ident(word),
                };
                tokens.push(Token { kind, line });
                continue;
            }
            _ => {
                let (punct, consumed) = lex_punct(&chars, pos).ok_or_else(|| ScriptError::Lex {
                    line,
                    message: format!("unexpected character '{c}'"),
                })?;
                tokens.push(Token {
                    kind: TokenKind::Punct(punct),
                    line,
                });
                pos += consumed;
                continue;
            }
        }
        // Numbers and strings advanced `pos` themselves except in the digit
        // branch, which leaves pos at the end already; whitespace/comments
        // also handled.  Nothing more to do here.
        if matches!(tokens.last().map(|t| &t.kind), Some(TokenKind::Str(_))) {
            // string already advanced pos
        }
    }

    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}

fn peek(chars: &[char], pos: usize) -> Option<char> {
    chars.get(pos).copied()
}

fn lex_string(
    chars: &[char],
    start: usize,
    line: usize,
) -> Result<(String, usize, usize), ScriptError> {
    let quote = chars[start];
    let mut out = String::new();
    let mut pos = start + 1;
    let mut newlines = 0usize;
    while pos < chars.len() {
        let c = chars[pos];
        if c == quote {
            return Ok((out, pos - start + 1, newlines));
        }
        if c == '\\' {
            pos += 1;
            let esc = peek(chars, pos).ok_or_else(|| ScriptError::Lex {
                line,
                message: "unterminated string".to_string(),
            })?;
            out.push(match esc {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                '0' => '\0',
                other => other,
            });
        } else {
            if c == '\n' {
                newlines += 1;
            }
            out.push(c);
        }
        pos += 1;
    }
    Err(ScriptError::Lex {
        line,
        message: "unterminated string".to_string(),
    })
}

fn lex_punct(chars: &[char], pos: usize) -> Option<(Punct, usize)> {
    let c = chars[pos];
    let next = peek(chars, pos + 1);
    let next2 = peek(chars, pos + 2);
    let two = |p| Some((p, 2));
    let one = |p| Some((p, 1));
    match (c, next, next2) {
        ('=', Some('='), Some('=')) => Some((Punct::StrictEq, 3)),
        ('!', Some('='), Some('=')) => Some((Punct::StrictNotEq, 3)),
        ('=', Some('='), _) => two(Punct::Eq),
        ('!', Some('='), _) => two(Punct::NotEq),
        ('<', Some('='), _) => two(Punct::Le),
        ('>', Some('='), _) => two(Punct::Ge),
        ('&', Some('&'), _) => two(Punct::AndAnd),
        ('|', Some('|'), _) => two(Punct::OrOr),
        ('+', Some('+'), _) => two(Punct::PlusPlus),
        ('-', Some('-'), _) => two(Punct::MinusMinus),
        ('+', Some('='), _) => two(Punct::PlusAssign),
        ('-', Some('='), _) => two(Punct::MinusAssign),
        ('*', Some('='), _) => two(Punct::StarAssign),
        ('/', Some('='), _) => two(Punct::SlashAssign),
        ('(', _, _) => one(Punct::LParen),
        (')', _, _) => one(Punct::RParen),
        ('{', _, _) => one(Punct::LBrace),
        ('}', _, _) => one(Punct::RBrace),
        ('[', _, _) => one(Punct::LBracket),
        (']', _, _) => one(Punct::RBracket),
        (';', _, _) => one(Punct::Semicolon),
        (',', _, _) => one(Punct::Comma),
        ('.', _, _) => one(Punct::Dot),
        (':', _, _) => one(Punct::Colon),
        ('?', _, _) => one(Punct::Question),
        ('+', _, _) => one(Punct::Plus),
        ('-', _, _) => one(Punct::Minus),
        ('*', _, _) => one(Punct::Star),
        ('/', _, _) => one(Punct::Slash),
        ('%', _, _) => one(Punct::Percent),
        ('=', _, _) => one(Punct::Assign),
        ('<', _, _) => one(Punct::Lt),
        ('>', _, _) => one(Punct::Gt),
        ('!', _, _) => one(Punct::Not),
        ('&', _, _) => one(Punct::BitAnd),
        ('|', _, _) => one(Punct::BitOr),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn numbers_strings_identifiers() {
        let toks = kinds("var x = 42.5; x = 'hi' + \"there\"; 0xff");
        assert!(toks.contains(&TokenKind::Number(42.5)));
        assert!(toks.contains(&TokenKind::Str("hi".to_string())));
        assert!(toks.contains(&TokenKind::Str("there".to_string())));
        assert!(toks.contains(&TokenKind::Number(255.0)));
        assert!(toks.contains(&TokenKind::Ident("x".to_string())));
        assert!(toks.contains(&TokenKind::Keyword(Keyword::Var)));
    }

    #[test]
    fn number_followed_by_method_call() {
        let toks = kinds("3.toString");
        assert_eq!(toks[0], TokenKind::Number(3.0));
        assert_eq!(toks[1], TokenKind::Punct(Punct::Dot));
    }

    #[test]
    fn comments_are_skipped() {
        let toks = kinds("1 // line comment\n/* block\ncomment */ 2");
        assert_eq!(
            toks,
            vec![
                TokenKind::Number(1.0),
                TokenKind::Number(2.0),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn multi_char_operators() {
        let toks = kinds("a === b !== c == d != e <= f >= g && h || i += j");
        assert!(toks.contains(&TokenKind::Punct(Punct::StrictEq)));
        assert!(toks.contains(&TokenKind::Punct(Punct::StrictNotEq)));
        assert!(toks.contains(&TokenKind::Punct(Punct::Eq)));
        assert!(toks.contains(&TokenKind::Punct(Punct::NotEq)));
        assert!(toks.contains(&TokenKind::Punct(Punct::Le)));
        assert!(toks.contains(&TokenKind::Punct(Punct::Ge)));
        assert!(toks.contains(&TokenKind::Punct(Punct::AndAnd)));
        assert!(toks.contains(&TokenKind::Punct(Punct::OrOr)));
        assert!(toks.contains(&TokenKind::Punct(Punct::PlusAssign)));
    }

    #[test]
    fn string_escapes() {
        let toks = kinds(r#"'a\nb\t\'c\''"#);
        assert_eq!(toks[0], TokenKind::Str("a\nb\t'c'".to_string()));
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("1\n2\n  3").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 3);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("/* unterminated").is_err());
        assert!(tokenize("a # b").is_err());
    }

    #[test]
    fn keywords_are_distinguished_from_identifiers() {
        let toks = kinds("iffy if function functional");
        assert_eq!(toks[0], TokenKind::Ident("iffy".to_string()));
        assert_eq!(toks[1], TokenKind::Keyword(Keyword::If));
        assert_eq!(toks[2], TokenKind::Keyword(Keyword::Function));
        assert_eq!(toks[3], TokenKind::Ident("functional".to_string()));
    }

    #[test]
    fn let_and_const_are_var_aliases() {
        let toks = kinds("let a; const b;");
        assert_eq!(
            toks.iter()
                .filter(|k| **k == TokenKind::Keyword(Keyword::Var))
                .count(),
            2
        );
    }
}
