//! The one strict text codec: cache entries, wire payloads, the spec
//! line, journal records and trace-archive headers all read through
//! [`Reader`] and write their numbers, hashes, floats and escapes through
//! the helpers here ([`push_num`], [`hex`], [`float`], [`escape`]). The
//! rules are stated once, in the "Text formats" section of
//! `docs/distributed-campaigns.md`; a reader accepts exactly
//! what a writer emits, so anything else — a stray space, a `+`, an
//! upper-case digit, a missing final newline, a trailing token — is a
//! [`TextError`] naming the offending token, never a wrong value.

use std::fmt;

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

/// `0x01` in every byte lane of a word.
const LANES: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte lane.
const HIGH: u64 = 0x80 * LANES;

/// Eight hex digits as one big-endian word: their value, and whether
/// every byte was one of `0-9a-f`. A word with no high bit set has lanes
/// of at most `0x7f`, so adding a constant of at most `0x80` to every lane
/// carries into no other lane, and "lane ≥ c" is the high bit of the lane
/// plus `0x80 - c`. A word with a high bit set is refused, so what a carry
/// did to its other lanes does not matter.
fn hex_word(word: u64) -> (u64, bool) {
    let at_least = |c: u8| word.wrapping_add(u64::from(0x80 - c) * LANES);
    let digit = at_least(b'0') & !at_least(b'9' + 1);
    let letter = at_least(b'a') & !at_least(b'f' + 1);
    let valid = word & HIGH == 0 && (digit | letter) & HIGH == HIGH;
    // A digit's low four bits are its value; a letter's are its value - 9.
    let nibbles = (word & (0x0f * LANES)) + (letter & HIGH) / 0x80 * 9;
    // Eight nibbles, one per byte, packed into 32 bits in three steps.
    let pairs = (nibbles | nibbles >> 4) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs | pairs >> 8) & 0x0000_ffff_0000_ffff;
    ((quads | quads >> 16) & 0xffff_ffff, valid)
}

/// Sixteen lower-case hex digits: how [`hex`] and [`float`] write.
#[derive(Debug, Clone, Copy)]
pub struct Hex([u8; 16]);

impl Hex {
    /// The sixteen digits.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }
}

impl fmt::Display for Hex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Writes a 64-bit hash; read back by [`Reader::hash`].
pub fn hex(hash: u64) -> Hex {
    Hex(std::array::from_fn(|i| b"0123456789abcdef"[(hash >> (60 - 4 * i)) as usize & 0xf]))
}

/// Appends `n` in decimal, as [`Reader::num`] reads it back, with no
/// `core::fmt` on the way: how the spec line writes its counts.
pub fn push_num(out: &mut String, mut n: u64) {
    let (mut digits, mut at) = ([0u8; 20], 20);
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Writes a float as its IEEE-754 bits; [`Reader::float`] reads the
/// same bits back.
pub fn float(value: f64) -> Hex {
    hex(value.to_bits())
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

    /// The next token must be exactly `keyword` (which holds no space or
    /// newline). Matched in place; only a refusal reads the token.
    pub fn expect(&mut self, keyword: &str) -> Result<&mut Self, TextError> {
        let after = self.unread().and_then(|s| s.strip_prefix(keyword));
        let ends = |after: &str| matches!(after.as_bytes().first(), None | Some(b' ' | b'\n'));
        match after {
            Some(after) if !keyword.is_empty() && ends(after) => {
                (self.rest, self.mid_line) = (after, true);
                Ok(self)
            }
            _ => refuse(&format!("`{keyword}`"), self.token()?),
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

    /// A decimal number: digits only, no sign, no leading zero. One walk
    /// over the token folds the digits and makes every check.
    pub fn num<T: TryFrom<u64>>(&mut self) -> Result<T, TextError> {
        let s = self.unread().unwrap_or("");
        let (mut value, mut len) = (Some(0u64), 0);
        for &b in s.as_bytes() {
            if b == b' ' || b == b'\n' {
                break;
            }
            let digit = b.wrapping_sub(b'0');
            // After the first digit a zero value means that digit was `0`.
            value = match value {
                Some(v) if digit < 10 && (v != 0 || len == 0) => {
                    v.checked_mul(10).and_then(|v| v.checked_add(digit.into()))
                }
                _ => None,
            };
            len += 1;
        }
        match value.filter(|_| len > 0).and_then(|v| T::try_from(v).ok()) {
            Some(v) => {
                (self.rest, self.mid_line) = (&s[len..], true);
                Ok(v)
            }
            None => refuse("a decimal number", self.token()?),
        }
    }

    /// A hash: exactly sixteen lower-case hex digits, read in place as two
    /// words of eight byte lanes (`hex_word`). There is no branch per digit —
    /// the digits of float bits are random, and a range match per byte
    /// mispredicts on every one of them.
    pub fn hash(&mut self) -> Result<u64, TextError> {
        let s = self.unread().unwrap_or("");
        if let Some((digits, after)) = s.as_bytes().split_first_chunk::<16>() {
            let words = u128::from_be_bytes(*digits);
            let (high, high_ok) = hex_word((words >> 64) as u64);
            let (low, low_ok) = hex_word(words as u64);
            if high_ok && low_ok && matches!(after.first(), None | Some(b' ' | b'\n')) {
                (self.rest, self.mid_line) = (&s[16..], true);
                return Ok(high << 32 | low);
            }
        }
        refuse("16 hex digits", self.token()?)
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
    use proptest::prelude::*;

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

    /// `Reader::num` as it was before it walked its token once — a validity
    /// pass, the leading-zero test, then `str::parse` — kept as the oracle.
    fn old_num<T: std::str::FromStr>(r: &mut Reader<'_>) -> Result<T, TextError> {
        let t = r.token()?;
        let canonical = t.bytes().all(|b| b.is_ascii_digit()) && (t == "0" || !t.starts_with('0'));
        match t.parse() {
            Ok(v) if canonical => Ok(v),
            _ => refuse("a decimal number", t),
        }
    }

    /// `Reader::hash` as it was: a range match per digit, then
    /// `from_str_radix` over the same sixteen bytes.
    fn old_hash(r: &mut Reader<'_>) -> Result<u64, TextError> {
        let t = r.token()?;
        let canonical = t.len() == 16 && t.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match u64::from_str_radix(t, 16) {
            Ok(v) if canonical => Ok(v),
            _ => refuse("16 hex digits", t),
        }
    }

    /// `Reader::expect` as it was: the whole token read, then compared.
    fn old_expect(r: &mut Reader<'_>, keyword: &str) -> Result<(), TextError> {
        match r.token()? {
            t if t == keyword => Ok(()),
            t => refuse(&format!("`{keyword}`"), t),
        }
    }

    /// Reads `text` from its start and again after a token and its space,
    /// with the new reader and the old: the same value or the same
    /// refusal, and the cursor left in the same place.
    fn same_as_before<T: PartialEq + fmt::Debug>(
        text: &str,
        new: impl Fn(&mut Reader<'_>) -> Result<T, TextError>,
        old: impl Fn(&mut Reader<'_>) -> Result<T, TextError>,
    ) -> Result<T, TextError> {
        let led = format!("k {text}");
        let mut after_a_token = Reader::new(&led);
        assert_eq!(after_a_token.token(), Ok("k"));
        let [_, read] = [after_a_token, Reader::new(text)].map(|start| {
            let (mut a, mut b) = (start.clone(), start);
            let read = new(&mut a);
            assert_eq!((&read, a.rest, a.mid_line), (&old(&mut b), b.rest, b.mid_line), "`{text}`");
            read
        });
        read
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        fn hashes_and_floats_read_back_to_the_same_bits(v in 0u64..u64::MAX) {
            prop_assert_eq!(whole(&hex(v).to_string(), Reader::hash), Ok(v));
            let bits = whole(&float(f64::from_bits(v)).to_string(), Reader::float).map(f64::to_bits);
            prop_assert_eq!(bits, Ok(v));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]
        #[test]
        fn the_writers_emit_what_core_fmt_would(v in 0u64..u64::MAX, shift in 0u32..64) {
            for v in [v, v >> shift, 0, u64::MAX] {
                prop_assert_eq!(hex(v).to_string(), format!("{v:016x}"));
                let mut pushed = String::from("n=");
                push_num(&mut pushed, v);
                prop_assert_eq!(pushed, format!("n={v}"));
            }
        }
    }

    #[test]
    fn a_hash_is_sixteen_lower_case_hex_digits_and_no_other_byte() {
        assert_eq!(whole("ffffffffffffffff", Reader::hash), Ok(u64::MAX));
        let valid = "0123456789abcdef";
        assert_eq!(same_as_before(valid, |r| r.hash(), old_hash), Ok(0x0123_4567_89ab_cdef));
        // Every substitution a `&str` can hold, each read as the old reader
        // read it: an ASCII byte over one digit, a two-byte character (lead
        // bytes c2 and c3, every continuation byte) over two. No other byte
        // occurs in UTF-8.
        for at in 0..16 {
            for c in (0..=255u8).map(char::from) {
                if at + c.len_utf8() > 16 {
                    continue;
                }
                let token = format!("{}{c}{}", &valid[..at], &valid[at + c.len_utf8()..]);
                assert_eq!(token.len(), 16);
                let read = same_as_before(&token, |r| r.hash(), old_hash);
                match c.to_digit(16).filter(|_| !c.is_ascii_uppercase()) {
                    Some(nibble) => assert_eq!(read.map(|v| v >> (60 - 4 * at) & 0xf), Ok(nibble.into())),
                    None if c == ' ' || c == '\n' => assert!(read.is_err()),
                    None => assert!(read.unwrap_err().0.contains(&format!("`{token}`")), "`{token}`"),
                }
            }
        }
        // The edges of the two ranges each lane is tested against, upper
        // case, and a character whose lanes have the high bit set — at every
        // position, across the boundary of the two words included.
        for at in 0..16 {
            let with = |c: char| format!("{}{c}{}", &valid[..at], &valid[(at + c.len_utf8()).min(16)..]);
            for c in ['/', '0', '9', ':', '`', 'a', 'f', 'g', 'A', 'B', 'C', 'D', 'E', 'F', 'é'] {
                let token = with(c);
                let read = same_as_before(&token, |r| r.hash(), old_hash);
                match c {
                    '0' | '9' | 'a' | 'f' => assert!(read.is_ok(), "`{token}`"),
                    _ => assert!(read.unwrap_err().0.contains(&format!("`{token}`")), "`{token}`"),
                }
            }
        }
        for token in [&valid[1..], "0123456789abcdef0"] {
            let refusal = same_as_before(token, |r| r.hash(), old_hash).unwrap_err();
            assert!(refusal.0.contains(&format!("`{token}`")), "{refusal}");
        }
    }

    #[test]
    fn a_number_fits_its_type_or_is_refused() {
        fn at_the_bound<T: TryFrom<u64> + std::str::FromStr + PartialEq + fmt::Debug>(max: u64) {
            let read = |t: &str| same_as_before(t, |r| r.num::<T>(), old_num::<T>);
            assert_eq!(read(&max.to_string()).ok(), T::try_from(max).ok());
            assert!(T::try_from(max).is_ok() && read("0").is_ok());
            let over = (u128::from(max) + 1).to_string();
            for t in [over.as_str(), "18446744073709551616", "100000000000000000000", "00", "01"] {
                let refusal = read(t).unwrap_err();
                assert!(refusal.0.contains(&format!("`{t}`")), "{refusal}");
            }
            assert!(read("").is_err());
        }
        at_the_bound::<u8>(u8::MAX.into());
        at_the_bound::<u16>(u16::MAX.into());
        at_the_bound::<u32>(u32::MAX.into());
        at_the_bound::<u64>(u64::MAX);
        at_the_bound::<usize>(usize::MAX as u64);
    }

    #[test]
    fn on_random_ascii_the_readers_agree_with_the_ones_they_replace() {
        const NOISE: &[u8] = b"0123456789abcdef0123456789 \n+-xAF";
        let mut rng = TestRng::deterministic("text-oracle");
        let (mut hashes, mut numbers, mut keywords) = (0, 0, 0);
        for _ in 0..10_000 {
            // A hash, a number of any length or nothing, then a few edits.
            let mut s = match rng.below(3) {
                0 => hex(rng.next_u64()).to_string().into_bytes(),
                1 => (rng.next_u64() >> rng.below(64)).to_string().into_bytes(),
                _ => Vec::new(),
            };
            for _ in 0..rng.below(if s.is_empty() { 20 } else { 3 }) {
                let at = rng.below(s.len() as u64 + 1) as usize;
                let byte = NOISE[rng.below(NOISE.len() as u64) as usize];
                match rng.below(3) {
                    0 if at < s.len() => s[at] = byte,
                    1 if at < s.len() => drop(s.remove(at)),
                    _ => s.insert(at, byte),
                }
            }
            let s = String::from_utf8(s).unwrap();
            // The first token, or a strict prefix of it, as the keyword.
            let keyword = &s[..s.find([' ', '\n']).unwrap_or(s.len()).min(rng.below(20) as usize)];
            let expect = |r: &mut Reader<'_>| r.expect(keyword).map(|_| ());
            keywords += u32::from(same_as_before(&s, expect, |r| old_expect(r, keyword)).is_ok());
            hashes += u32::from(same_as_before(&s, |r| r.hash(), old_hash).is_ok());
            numbers += u32::from(same_as_before(&s, |r| r.num::<u64>(), old_num::<u64>).is_ok());
            let _ = same_as_before(&s, |r| r.num::<u8>(), old_num::<u8>);
            let _ = same_as_before(&s, |r| r.num::<u16>(), old_num::<u16>);
            let _ = same_as_before(&s, |r| r.num::<u32>(), old_num::<u32>);
            let _ = same_as_before(&s, |r| r.num::<usize>(), old_num::<usize>);
        }
        assert!(hashes > 1_000 && numbers > 1_000, "{hashes} hashes and {numbers} numbers read");
        assert!(keywords > 1_000, "{keywords} keywords matched");
    }
}
