//! Round trip of the workspace's one JSON format: any document built with
//! `JsonBuf` parses back to the `JsonValue` it was built from. Strings keep
//! quotes, backslashes, control, non-ASCII and astral characters; finite
//! floats (subnormals and `-0.0` included) come back bit-identical, and
//! NaN / ±inf come back as `null`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use smpi_obs::json::{JsonBuf, JsonValue};

/// Characters a generated string is drawn from.
const ALPHABET: [char; 14] = [
    'a', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
];

/// Floats the writer treats specially, beside arbitrary bit patterns.
const SPECIAL: [f64; 8] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE,
    -5e-324,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// Reads generator choices from a stream of random draws.
struct Draws(std::vec::IntoIter<u64>);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }

    fn string(&mut self) -> String {
        let len = self.next() % 6;
        (0..len)
            .map(|_| match self.next() % 4 {
                0 => char::from_u32(self.next() as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                _ => ALPHABET[(self.next() % ALPHABET.len() as u64) as usize],
            })
            .collect()
    }

    fn float(&mut self) -> f64 {
        match self.next() % 3 {
            0 => SPECIAL[(self.next() % SPECIAL.len() as u64) as usize],
            1 => f64::from_bits(self.next() & 0x800f_ffff_ffff_ffff), // ±subnormal
            _ => f64::from_bits(self.next()),
        }
    }

    /// Writes one value into `j` and returns what parsing it must give: a
    /// container at the root, only scalars below depth 4.
    fn value(&mut self, j: &mut JsonBuf, depth: usize) -> JsonValue {
        let kind = match depth {
            0 => 4 + self.next() % 2,
            1..=3 => self.next() % 6,
            _ => self.next() % 4,
        };
        match kind {
            0 => {
                let b = self.next().is_multiple_of(2);
                j.bool_val(b);
                JsonValue::Bool(b)
            }
            1 => {
                let u = self.next() >> (self.next() % 64);
                j.uint_val(u);
                JsonValue::Num(u as f64)
            }
            2 => {
                let v = self.float();
                j.num_val(v);
                if v.is_finite() {
                    JsonValue::Num(v)
                } else {
                    JsonValue::Null
                }
            }
            3 => {
                let s = self.string();
                j.str_val(&s);
                JsonValue::Str(s)
            }
            4 => {
                j.begin_arr();
                let items = (0..self.next() % 5)
                    .map(|_| self.value(j, depth + 1))
                    .collect();
                j.end_arr();
                JsonValue::Arr(items)
            }
            _ => {
                j.begin_obj();
                let mut fields = BTreeMap::new();
                for _ in 0..self.next() % 5 {
                    let k = self.string();
                    j.key(&k);
                    // A repeated key keeps its last value, as the parser does.
                    fields.insert(k, self.value(j, depth + 1));
                }
                j.end_obj();
                JsonValue::Obj(fields)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn written_documents_parse_back_bit_identical(
        draws in proptest::collection::vec(0u64..u64::MAX, 1..400),
    ) {
        let mut j = JsonBuf::new();
        let want = Draws(draws.into_iter()).value(&mut j, 0);
        let got = JsonValue::parse(&j.finish());
        // Compared as `{:?}`, not `==`: `==` equates 0.0 with -0.0, while
        // `{:?}` prints the shortest text that round-trips a float, so equal
        // renderings mean equal bits.
        prop_assert_eq!(format!("{got:?}"), format!("{:?}", Ok::<_, String>(want)));
    }
}
