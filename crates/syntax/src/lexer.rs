//! Hand-written tokenizer for the ShadowDP concrete syntax.

use std::fmt;

use shadowdp_num::Rat;

/// A half-open byte range into the source text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// The empty span used for synthesized nodes.
    pub const ZERO: Span = Span { start: 0, end: 0 };

    /// Joins two spans into the smallest span covering both.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Computes 1-based (line, column) of the span start within `src`.
    pub fn line_col(self, src: &str) -> (usize, usize) {
        let mut line = 1;
        let mut col = 1;
        for (i, ch) in src.char_indices() {
            if i >= self.start {
                break;
            }
            if ch == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        (line, col)
    }
}

/// Token kinds.
#[derive(Clone, Debug, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are resolved by the parser).
    Ident(String),
    /// A numeric literal (integers and decimals become exact rationals).
    Number(Rat),
    /// `:=`
    Assign,
    /// `::`
    ColonColon,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `!`
    Bang,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `?`
    Question,
    /// `^` — aligned-hat sigil
    Caret,
    /// `~` — shadow-hat sigil
    Tilde,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "`{s}`"),
            TokenKind::Number(r) => write!(f, "`{r}`"),
            TokenKind::Assign => write!(f, "`:=`"),
            TokenKind::ColonColon => write!(f, "`::`"),
            TokenKind::Colon => write!(f, "`:`"),
            TokenKind::Semi => write!(f, "`;`"),
            TokenKind::Comma => write!(f, "`,`"),
            TokenKind::LParen => write!(f, "`(`"),
            TokenKind::RParen => write!(f, "`)`"),
            TokenKind::LBrace => write!(f, "`{{`"),
            TokenKind::RBrace => write!(f, "`}}`"),
            TokenKind::LBracket => write!(f, "`[`"),
            TokenKind::RBracket => write!(f, "`]`"),
            TokenKind::Plus => write!(f, "`+`"),
            TokenKind::Minus => write!(f, "`-`"),
            TokenKind::Star => write!(f, "`*`"),
            TokenKind::Slash => write!(f, "`/`"),
            TokenKind::Percent => write!(f, "`%`"),
            TokenKind::Lt => write!(f, "`<`"),
            TokenKind::Le => write!(f, "`<=`"),
            TokenKind::Gt => write!(f, "`>`"),
            TokenKind::Ge => write!(f, "`>=`"),
            TokenKind::EqEq => write!(f, "`==`"),
            TokenKind::Ne => write!(f, "`!=`"),
            TokenKind::Bang => write!(f, "`!`"),
            TokenKind::AndAnd => write!(f, "`&&`"),
            TokenKind::OrOr => write!(f, "`||`"),
            TokenKind::Question => write!(f, "`?`"),
            TokenKind::Caret => write!(f, "`^`"),
            TokenKind::Tilde => write!(f, "`~`"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its span.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// The token payload.
    pub kind: TokenKind,
    /// Where in the source it occurs.
    pub span: Span,
}

/// A lexer over ShadowDP source text.
///
/// Comments run from `//` to end of line. Whitespace is insignificant.
///
/// # Examples
///
/// ```
/// use shadowdp_syntax::{Lexer, TokenKind};
/// let toks = Lexer::new("x := 1; // set x").lex().unwrap();
/// assert_eq!(toks.len(), 5); // x, :=, 1, ;, EOF
/// assert_eq!(toks.last().unwrap().kind, TokenKind::Eof);
/// ```
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

/// Error produced when the input contains an unrecognized character or a
/// malformed literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description of the problem.
    pub message: String,
    /// Location of the offending character.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for LexError {}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Lexer<'a> {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    /// Lexes the whole input to a token vector terminated by
    /// [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] on unrecognized input.
    pub fn lex(mut self) -> Result<Vec<Token>, LexError> {
        let mut out = Vec::new();
        loop {
            self.skip_trivia();
            let start = self.pos;
            let Some(b) = self.peek() else {
                out.push(Token {
                    kind: TokenKind::Eof,
                    span: Span {
                        start: self.pos,
                        end: self.pos,
                    },
                });
                return Ok(out);
            };
            let kind = match b {
                b'0'..=b'9' => self.lex_number()?,
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_ident(),
                b':' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'=') => {
                            self.pos += 1;
                            TokenKind::Assign
                        }
                        Some(b':') => {
                            self.pos += 1;
                            TokenKind::ColonColon
                        }
                        _ => TokenKind::Colon,
                    }
                }
                b'<' => {
                    self.pos += 1;
                    if self.eat(b'=') {
                        TokenKind::Le
                    } else {
                        TokenKind::Lt
                    }
                }
                b'>' => {
                    self.pos += 1;
                    if self.eat(b'=') {
                        TokenKind::Ge
                    } else {
                        TokenKind::Gt
                    }
                }
                b'=' => {
                    self.pos += 1;
                    if self.eat(b'=') {
                        TokenKind::EqEq
                    } else {
                        return Err(LexError {
                            message: "expected `==` (use `:=` for assignment)".into(),
                            span: Span {
                                start,
                                end: self.pos,
                            },
                        });
                    }
                }
                b'!' => {
                    self.pos += 1;
                    if self.eat(b'=') {
                        TokenKind::Ne
                    } else {
                        TokenKind::Bang
                    }
                }
                b'&' => {
                    self.pos += 1;
                    if self.eat(b'&') {
                        TokenKind::AndAnd
                    } else {
                        return Err(LexError {
                            message: "expected `&&`".into(),
                            span: Span {
                                start,
                                end: self.pos,
                            },
                        });
                    }
                }
                b'|' => {
                    self.pos += 1;
                    if self.eat(b'|') {
                        TokenKind::OrOr
                    } else {
                        return Err(LexError {
                            message: "expected `||` (absolute value is `abs(e)`)".into(),
                            span: Span {
                                start,
                                end: self.pos,
                            },
                        });
                    }
                }
                b';' => self.single(TokenKind::Semi),
                b',' => self.single(TokenKind::Comma),
                b'(' => self.single(TokenKind::LParen),
                b')' => self.single(TokenKind::RParen),
                b'{' => self.single(TokenKind::LBrace),
                b'}' => self.single(TokenKind::RBrace),
                b'[' => self.single(TokenKind::LBracket),
                b']' => self.single(TokenKind::RBracket),
                b'+' => self.single(TokenKind::Plus),
                b'-' => self.single(TokenKind::Minus),
                b'*' => self.single(TokenKind::Star),
                b'/' => self.single(TokenKind::Slash),
                b'%' => self.single(TokenKind::Percent),
                b'?' => self.single(TokenKind::Question),
                b'^' => self.single(TokenKind::Caret),
                b'~' => self.single(TokenKind::Tilde),
                other => {
                    return Err(LexError {
                        message: format!("unrecognized character `{}`", other as char),
                        span: Span {
                            start,
                            end: start + 1,
                        },
                    })
                }
            };
            out.push(Token {
                kind,
                span: Span {
                    start,
                    end: self.pos,
                },
            });
        }
    }

    fn single(&mut self, kind: TokenKind) -> TokenKind {
        self.pos += 1;
        kind
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => self.pos += 1,
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'/') => {
                    while let Some(b) = self.peek() {
                        self.pos += 1;
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    fn lex_ident(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        TokenKind::Ident(self.src[start..self.pos].to_string())
    }

    fn lex_number(&mut self) -> Result<TokenKind, LexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // A decimal point followed by a digit continues the literal; `1..2`
        // or `1.x` would be a lex error (no such syntax in the language).
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(LexError {
                    message: "expected digits after decimal point".into(),
                    span: Span {
                        start,
                        end: self.pos,
                    },
                });
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        text.parse::<Rat>()
            .map(TokenKind::Number)
            .map_err(|_| LexError {
                message: format!("invalid numeric literal `{text}`"),
                span: Span {
                    start,
                    end: self.pos,
                },
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .lex()
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lex_assignment() {
        assert_eq!(
            kinds("x := 1;"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Number(Rat::int(1)),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_operators() {
        assert_eq!(
            kinds("<= >= == != && || :: ! ? ^ ~ %"),
            vec![
                TokenKind::Le,
                TokenKind::Ge,
                TokenKind::EqEq,
                TokenKind::Ne,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::ColonColon,
                TokenKind::Bang,
                TokenKind::Question,
                TokenKind::Caret,
                TokenKind::Tilde,
                TokenKind::Percent,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_decimal() {
        assert_eq!(
            kinds("0.5"),
            vec![TokenKind::Number(Rat::new(1, 2)), TokenKind::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("x // comment to end of line\n:= 2"),
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Number(Rat::int(2)),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = Lexer::new("ab  :=  12").lex().unwrap();
        assert_eq!(toks[0].span, Span { start: 0, end: 2 });
        assert_eq!(toks[1].span, Span { start: 4, end: 6 });
        assert_eq!(toks[2].span, Span { start: 8, end: 10 });
    }

    #[test]
    fn line_col() {
        let src = "a\nbb := 1";
        let toks = Lexer::new(src).lex().unwrap();
        assert_eq!(toks[1].span.line_col(src), (2, 1));
    }

    #[test]
    fn error_on_single_ampersand() {
        assert!(Lexer::new("a & b").lex().is_err());
        assert!(Lexer::new("a | b").lex().is_err());
        assert!(Lexer::new("a = b").lex().is_err());
        assert!(Lexer::new("a $ b").lex().is_err());
        assert!(Lexer::new("1. + 2").lex().is_err());
    }
}
