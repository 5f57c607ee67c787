//! The one strict text codec: cache entries, wire payloads, the spec
//! line, journal records and trace-archive headers all read through
//! [`Reader`] and write their hashes, floats and escapes through the
//! helpers here. The rules are stated once, in the "Text formats"
//! section of `docs/distributed-campaigns.md`; a reader accepts exactly
//! what a writer emits, so anything else — a stray space, a `+`, an
//! upper-case digit, a missing final newline, a trailing token — is a
//! [`TextError`] naming the offending token, never a wrong value.

use std::fmt;
use std::str::FromStr;

/// A refused read. The message names the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError(pub String);

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TextError {}

impl From<TextError> for std::io::Error {
    fn from(e: TextError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

fn refuse<T>(expected: &str, found: &str) -> Result<T, TextError> {
    let found = found.lines().next().unwrap_or("");
    Err(TextError(format!("expected {expected}, found `{found}`")))
}

/// Sixteen lower-case hex digits: how [`hex`] and [`float`] write.
#[derive(Debug, Clone, Copy)]
pub struct Hex(u64);

impl fmt::Display for Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Writes a 64-bit hash; read back by [`Reader::hash`].
pub fn hex(hash: u64) -> Hex {
    Hex(hash)
}

/// Writes a float as its IEEE-754 bits; [`Reader::float`] reads the
/// same bits back.
pub fn float(value: f64) -> Hex {
    Hex(value.to_bits())
}

/// Makes `s` one line: `\` becomes `\\`, a newline becomes `\n`.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Inverse of [`escape`]; any other use of `\` is refused.
pub fn unescape(s: &str) -> Result<String, TextError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next() {
                Some('\\') => '\\',
                Some('n') => '\n',
                _ => return refuse("`\\\\` or `\\n` after a backslash", s),
            },
            c => c,
        });
    }
    Ok(out)
}

/// Reads all of `text` as one value — `whole(t, Reader::num)` — refusing
/// anything left over.
pub fn whole<'a, T>(
    text: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, TextError>,
) -> Result<T, TextError> {
    let mut r = Reader::new(text);
    let value = read(&mut r)?;
    r.end().map(|()| value)
}

/// A cursor over text made of lines of single-space-separated tokens.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a str,
    mid_line: bool,
}

impl<'a> Reader<'a> {
    /// Reads `text` from its first byte.
    pub fn new(text: &'a str) -> Self {
        Reader { rest: text, mid_line: false }
    }

    /// "One header line, then raw bytes": a reader over the first line of
    /// `bytes` (finish it with [`Reader::end`]) and the bytes after it.
    pub fn head(bytes: &'a [u8]) -> Result<(Self, &'a [u8]), TextError> {
        let nl = bytes.iter().position(|&b| b == b'\n');
        match nl.map(|nl| (std::str::from_utf8(&bytes[..nl]), &bytes[nl + 1..])) {
            Some((Ok(head), raw)) => Ok((Reader::new(head), raw)),
            _ => {
                let start = String::from_utf8_lossy(&bytes[..bytes.len().min(40)]);
                refuse("a UTF-8 header line ending in a newline", &start)
            }
        }
    }

    /// What follows the one space between two tokens (or the line start).
    fn unread(&self) -> Option<&'a str> {
        match self.mid_line {
            true => self.rest.strip_prefix(' '),
            false => Some(self.rest),
        }
    }

    /// The next token of the current line.
    pub fn token(&mut self) -> Result<&'a str, TextError> {
        let s = self.unread().unwrap_or("");
        let n = s.bytes().position(|b| b == b' ' || b == b'\n').unwrap_or(s.len());
        if n == 0 {
            return refuse("a token", self.rest);
        }
        (self.rest, self.mid_line) = (&s[n..], true);
        Ok(&s[..n])
    }

    /// The next token must be exactly `keyword`.
    pub fn expect(&mut self, keyword: &str) -> Result<&mut Self, TextError> {
        match self.token()? {
            t if t == keyword => Ok(self),
            t => refuse(&format!("`{keyword}`"), t),
        }
    }

    /// The next token must start with `prefix` (the `key=` of a
    /// `key=value` field); a reader over what follows it.
    pub fn prefix(&mut self, prefix: &str) -> Result<Reader<'a>, TextError> {
        match self.token()? {
            t if t.starts_with(prefix) => Ok(Reader::new(&t[prefix.len()..])),
            t => refuse(&format!("`{prefix}…`"), t),
        }
    }

    /// A decimal number: digits only, no sign, no leading zero.
    pub fn num<T: FromStr>(&mut self) -> Result<T, TextError> {
        let t = self.token()?;
        let canonical = t.bytes().all(|b| b.is_ascii_digit()) && (t == "0" || !t.starts_with('0'));
        match t.parse() {
            Ok(v) if canonical => Ok(v),
            _ => refuse("a decimal number", t),
        }
    }

    /// A hash: exactly sixteen lower-case hex digits.
    pub fn hash(&mut self) -> Result<u64, TextError> {
        let t = self.token()?;
        let canonical = t.len() == 16 && t.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match u64::from_str_radix(t, 16) {
            Ok(v) if canonical => Ok(v),
            _ => refuse("16 hex digits", t),
        }
    }

    /// A float, from the sixteen hex digits of its bits.
    pub fn float(&mut self) -> Result<f64, TextError> {
        self.hash().map(f64::from_bits)
    }

    /// A bool: `0` or `1`.
    pub fn flag(&mut self) -> Result<bool, TextError> {
        match self.token()? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => refuse("`0` or `1`", t),
        }
    }

    /// Whether the current line has no further token.
    pub fn at_eol(&self) -> bool {
        self.rest.is_empty() || self.rest.starts_with('\n')
    }

    /// The current line must end here, in a newline; moves to the next.
    pub fn eol(&mut self) -> Result<&mut Self, TextError> {
        match self.rest.strip_prefix('\n') {
            Some(rest) => (self.rest, self.mid_line) = (rest, false),
            None => return refuse("a newline", self.rest),
        }
        Ok(self)
    }

    /// The rest of the current line, verbatim, up to the newline it must
    /// end in; moves to the next line.
    pub fn line(&mut self) -> Result<&'a str, TextError> {
        let Some((line, rest)) = self.unread().and_then(|s| s.split_once('\n')) else {
            return refuse("a line ending in a newline", self.rest);
        };
        (self.rest, self.mid_line) = (rest, false);
        Ok(line)
    }

    /// Everything unread, verbatim; the reader is then at its end.
    pub fn rest(&mut self) -> &'a str {
        std::mem::take(&mut self.rest)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Nothing may be left: no trailing token, no trailing line.
    pub fn end(&self) -> Result<(), TextError> {
        match self.rest {
            "" => Ok(()),
            rest => refuse("the end", rest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reader_accepts_exactly_what_the_writers_emit() {
        let text = format!("id {} {} 1 n=7 free  text\nbody", hex(0xbeef), float(-0.1));
        let mut r = Reader::new(&text);
        assert_eq!(r.expect("id").unwrap().hash(), Ok(0xbeef));
        assert_eq!(r.float().map(f64::to_bits), Ok((-0.1f64).to_bits()));
        assert_eq!(r.flag(), Ok(true));
        assert_eq!(r.prefix("n=").unwrap().num::<u8>(), Ok(7));
        assert!(!r.at_eol());
        assert_eq!(r.line(), Ok("free  text"));
        assert!(r.end().is_err());
        assert_eq!((r.rest(), r.remaining(), r.end()), ("body", 0, Ok(())));
        let (mut head, raw) = Reader::head(b"file a 2\n\xff\n").unwrap();
        assert_eq!((head.expect("file").unwrap().token(), head.num(), raw), (Ok("a"), Ok(2u64), &b"\xff\n"[..]));
        assert!(head.at_eol() && head.end().is_ok() && head.eol().is_err());
    }

    #[test]
    fn anything_a_writer_would_not_emit_is_refused_naming_the_token() {
        let num = |t| Reader::new(t).num::<u16>();
        for t in ["+5", "05", "-1", "65536", "5x", "", " 5"] {
            assert!(num(t).is_err(), "num `{t}`");
        }
        assert_eq!(num("65535 "), Ok(65535));
        assert!(num("0x10").unwrap_err().0.contains("`0x10`"));
        for t in ["beef", "000000000000BEEF", "+00000000000beef", "00000000000beefs0"] {
            assert!(Reader::new(t).hash().is_err(), "hash `{t}`");
        }
        assert!(Reader::new("2").flag().is_err() && Reader::new("true").flag().is_err());
        let mut r = Reader::new("a  b");
        assert!(r.token().is_ok() && r.token().is_err(), "two spaces are not one separator");
        let mut r = Reader::new("a b\n");
        assert!(r.expect("a").unwrap().eol().is_err() && r.expect("c").is_err());
        assert!(Reader::new("key=1").prefix("yek=").is_err());
        assert!(Reader::new("no newline").line().is_err());
        assert!(Reader::head(b"no newline").is_err() && Reader::head(b"\xff\n").is_err());
    }

    #[test]
    fn escape_is_one_rule_with_an_exact_inverse() {
        let hostile = "C:\\new\\dir literal \\n real \n end\\";
        assert_eq!(escape(hostile), "C:\\\\new\\\\dir literal \\\\n real \\n end\\\\");
        assert!(!escape(hostile).contains('\n'));
        assert_eq!(unescape(&escape(hostile)).as_deref(), Ok(hostile));
        assert!(unescape("lone \\").is_err() && unescape("\\t").is_err());
    }
}
