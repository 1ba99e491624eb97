//! Enumeration types: lightweight dictionary compression (paper §4.3).
//!
//! A low-cardinality column is stored as a single-byte or two-byte
//! integer code referring to the `#rowId` of a *mapping table* holding
//! the distinct values. MonetDB/X100 "automatically adds a `Fetch1Join`
//! operation to retrieve the uncompressed value … when such columns are
//! used in a query"; the engine crate performs that rewrite, driven by
//! the [`EnumDict`] attached to a column here.

use crate::column::ColumnData;
use std::cmp::Ordering;
use x100_vector::{ScalarType, Value};

/// Maximum cardinality an enumeration type can hold (2-byte codes).
pub const MAX_ENUM_CARD: usize = u16::MAX as usize + 1;

/// The mapping table of an enumeration-typed column: distinct values in
/// code order (`code` = `#rowId` into this dictionary).
#[derive(Debug, Clone)]
pub struct EnumDict {
    values: ColumnData,
}

impl EnumDict {
    /// Wrap a dictionary column. `values.len()` must fit enum codes.
    pub fn new(values: ColumnData) -> Self {
        assert!(
            values.len() <= MAX_ENUM_CARD,
            "enum cardinality {} exceeds u16 codes",
            values.len()
        );
        EnumDict { values }
    }

    /// Cardinality of the enumeration.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }

    /// The decoded (logical) type of the column.
    pub fn value_type(&self) -> ScalarType {
        self.values.scalar_type()
    }

    /// The dictionary values as a column (the mapping table).
    pub fn values(&self) -> &ColumnData {
        &self.values
    }

    /// Decode one code (slow path).
    pub fn decode(&self, code: usize) -> Value {
        self.values.get_value(code)
    }

    /// Decode a whole code column (`U8`/`U16`) to its logical values.
    pub(crate) fn decode_codes(&self, codes: &ColumnData) -> ColumnData {
        match codes {
            ColumnData::U8(c) => self.values.gather(c.iter().map(|&x| x as usize)),
            ColumnData::U16(c) => self.values.gather(c.iter().map(|&x| x as usize)),
            other => panic!("enum codes must be U8/U16, got {:?}", other.scalar_type()),
        }
    }
}

/// Result of dictionary-encoding a column: code column + dictionary.
pub struct Encoded {
    /// `U8` codes if cardinality ≤ 256, else `U16` codes.
    pub codes: ColumnData,
    /// The mapping table.
    pub dict: EnumDict,
}

/// Pack codes at the width a dictionary of `card` entries needs: `U8`
/// up to 256 entries, else `U16`.
fn pack_codes(card: usize, codes: impl Iterator<Item = usize>) -> ColumnData {
    if card <= 256 {
        ColumnData::U8(codes.map(|c| c as u8).collect())
    } else {
        ColumnData::U16(codes.map(|c| c as u16).collect())
    }
}

/// Dictionary-encode a string column if its cardinality allows.
///
/// Returns `None` if the column has more than [`MAX_ENUM_CARD`] distinct
/// values (then plain storage must be used). Codes are assigned in first
/// lexicographic order of the distinct values, making the encoding
/// deterministic and order-preserving (`code_a < code_b ⇔ val_a < val_b`),
/// which lets range predicates run directly on codes.
pub fn encode_str<'a>(values: impl Iterator<Item = &'a str> + Clone) -> Option<Encoded> {
    let mut distinct: Vec<&str> = values.clone().collect();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > MAX_ENUM_CARD {
        return None;
    }
    let lookup = |s: &str| distinct.binary_search(&s).expect("value in dict");
    let codes = pack_codes(distinct.len(), values.map(lookup));
    Some(Encoded {
        codes,
        dict: EnumDict::new(ColumnData::Str(distinct.into_iter().collect())),
    })
}

/// Dictionary-encode an `f64` column (e.g. TPC-H `l_discount`, `l_tax`,
/// `l_quantity`, which the paper stores as enumerated types, §5.1).
///
/// Values are keyed by bit pattern; order-preserving for the
/// non-negative finite values TPC-H uses.
pub fn encode_f64(values: &[f64]) -> Option<Encoded> {
    let mut distinct: Vec<f64> = values.to_vec();
    distinct.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN in enum columns"));
    distinct.dedup();
    if distinct.len() > MAX_ENUM_CARD {
        return None;
    }
    let lookup = |x: &f64| {
        distinct
            .binary_search_by(|d| d.partial_cmp(x).expect("no NaN"))
            .expect("value in dict")
    };
    let codes = pack_codes(distinct.len(), values.iter().map(lookup));
    Some(Encoded {
        codes,
        dict: EnumDict::new(ColumnData::F64(distinct)),
    })
}

/// Dictionary-encode an `i64` column.
pub fn encode_i64(values: &[i64]) -> Option<Encoded> {
    let mut distinct: Vec<i64> = values.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() > MAX_ENUM_CARD {
        return None;
    }
    let lookup = |x: &i64| distinct.binary_search(x).expect("value in dict");
    let codes = pack_codes(distinct.len(), values.iter().map(lookup));
    Some(Encoded {
        codes,
        dict: EnumDict::new(ColumnData::I64(distinct)),
    })
}

/// `encode_*` for whichever logical type `values` holds; `None` for
/// types without an enum encoder (and over-cardinality columns).
fn encode_values(values: &ColumnData) -> Option<Encoded> {
    match values {
        ColumnData::Str(s) => encode_str((0..s.len()).map(|i| s.get(i))),
        ColumnData::F64(v) => encode_f64(v),
        ColumnData::I64(v) => encode_i64(v),
        _ => None,
    }
}

/// Outcome of [`reencode`]: the merged column stays an enumeration, or
/// it no longer fits enum codes and is stored plain.
pub(crate) enum Reencoded {
    /// New codes and dictionary; the first `same` codes equal the
    /// surviving codes they replace.
    Enum {
        enc: Encoded,
        same: usize,
    },
    Plain(ColumnData),
}

/// Re-encode an enumeration column after a reorganization without
/// decoding it. `kept` holds the surviving fragment codes into `dict`,
/// `appended` the inserted *logical* values. The result is exactly what
/// `encode_*` produces over the decoded values `kept ++ appended`:
///
/// * only `appended` is looked up in the existing sorted dictionary;
/// * a histogram of the codes tells which dictionary entries survive;
/// * if the sorted distinct set is unchanged the codes are reused as
///   they are, otherwise they are remapped through a small old → new
///   table and the code width is re-picked from the new cardinality;
/// * past [`MAX_ENUM_CARD`] distinct values (or for a dictionary type
///   without an encoder) the column decodes to plain storage.
pub(crate) fn reencode(dict: &EnumDict, kept: ColumnData, appended: &ColumnData) -> Reencoded {
    let mut present = vec![false; dict.cardinality()];
    match &kept {
        ColumnData::U8(c) => c.iter().for_each(|&x| present[x as usize] = true),
        ColumnData::U16(c) => c.iter().for_each(|&x| present[x as usize] = true),
        other => panic!("enum codes must be U8/U16, got {:?}", other.scalar_type()),
    }
    let merged = match (dict.values(), appended) {
        (ColumnData::Str(d), ColumnData::Str(a)) => {
            let d: Vec<&str> = d.iter().collect();
            let a: Vec<&str> = a.iter().collect();
            merge_dict(&d, &mut present, &a, |x, y| x.cmp(y)).map(|(m, ac)| {
                let m = m.map(|(v, map)| (ColumnData::Str(v.into_iter().collect()), map));
                (m, ac)
            })
        }
        (ColumnData::F64(d), ColumnData::F64(a)) => {
            merge_dict(d, &mut present, a, |x, y| x.partial_cmp(y).expect("no NaN"))
                .map(|(m, ac)| (m.map(|(v, map)| (ColumnData::F64(v), map)), ac))
        }
        (ColumnData::I64(d), ColumnData::I64(a)) => merge_dict(d, &mut present, a, Ord::cmp)
            .map(|(m, ac)| (m.map(|(v, map)| (ColumnData::I64(v), map)), ac)),
        _ => None,
    };
    let decoded = || {
        let mut values = dict.decode_codes(&kept);
        values.extend_from(appended);
        values
    };
    let Some((remap, appended_codes)) = merged else {
        // No fast path for this dictionary: decode, encode from scratch.
        let values = decoded();
        return match encode_values(&values) {
            Some(enc) => Reencoded::Enum {
                same: same_codes(&kept, &enc.codes),
                enc,
            },
            None => Reencoded::Plain(values),
        };
    };
    let tail = appended_codes.iter().map(|&c| c as usize);
    let Some((values, old_to_new)) = remap else {
        // Same distinct set: the codes stay, the inserted ones append
        // (re-packed only if the code width was not the canonical one).
        let card = dict.cardinality();
        let (codes, same) = match (kept, card <= 256) {
            (ColumnData::U8(mut c), true) => {
                let same = c.len();
                c.extend(tail.map(|x| x as u8));
                (ColumnData::U8(c), same)
            }
            (ColumnData::U16(mut c), false) => {
                let same = c.len();
                c.extend(tail.map(|x| x as u16));
                (ColumnData::U16(c), same)
            }
            (ColumnData::U8(c), _) => (
                pack_codes(card, c.iter().map(|&x| x as usize).chain(tail)),
                0,
            ),
            (ColumnData::U16(c), _) => (
                pack_codes(card, c.iter().map(|&x| x as usize).chain(tail)),
                0,
            ),
            _ => unreachable!("checked by the histogram"),
        };
        let dict = dict.clone();
        return Reencoded::Enum {
            enc: Encoded { codes, dict },
            same,
        };
    };
    if values.len() > MAX_ENUM_CARD {
        return Reencoded::Plain(decoded());
    }
    let card = values.len();
    let codes = match &kept {
        ColumnData::U8(c) => pack_codes(
            card,
            c.iter()
                .map(|&x| old_to_new[x as usize] as usize)
                .chain(tail),
        ),
        ColumnData::U16(c) => pack_codes(
            card,
            c.iter()
                .map(|&x| old_to_new[x as usize] as usize)
                .chain(tail),
        ),
        _ => unreachable!("checked by the histogram"),
    };
    Reencoded::Enum {
        same: same_codes(&kept, &codes),
        enc: Encoded {
            codes,
            dict: EnumDict::new(values),
        },
    }
}

/// Leading positions where two code columns hold the same codes (0
/// when their widths differ).
fn same_codes(a: &ColumnData, b: &ColumnData) -> usize {
    fn run<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        a.iter().zip(b).take_while(|(x, y)| x == y).count()
    }
    match (a, b) {
        (ColumnData::U8(a), ColumnData::U8(b)) => run(a, b),
        (ColumnData::U16(a), ColumnData::U16(b)) => run(a, b),
        _ => 0,
    }
}

/// New dictionary, old → new code map (`None`: the dictionary is
/// unchanged), and the codes of the appended values under it.
type Merged<T> = (Option<(Vec<T>, Vec<u32>)>, Vec<u32>);

/// Merge the surviving entries of the sorted dictionary `dict` (marked
/// in `present`) with the distinct values of `appended` that it lacks.
/// `None` when `dict` is not strictly ascending under `cmp` (then codes
/// cannot be found by binary search).
fn merge_dict<T: Copy>(
    dict: &[T],
    present: &mut [bool],
    appended: &[T],
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Option<Merged<T>> {
    if dict.windows(2).any(|w| cmp(&w[0], &w[1]) != Ordering::Less) {
        return None;
    }
    let found: Vec<Result<usize, usize>> = appended
        .iter()
        .map(|v| dict.binary_search_by(|d| cmp(d, v)))
        .collect();
    let mut missing: Vec<T> = Vec::new();
    for (v, f) in appended.iter().zip(&found) {
        match f {
            Ok(c) => present[*c] = true,
            Err(_) => missing.push(*v),
        }
    }
    if missing.is_empty() && present.iter().all(|&p| p) {
        let codes = found.iter().flatten().map(|&c| c as u32).collect();
        return Some((None, codes));
    }
    missing.sort_unstable_by(&cmp);
    missing.dedup_by(|a, b| cmp(a, b) == Ordering::Equal);
    // Sorted merge: surviving old entries and the new values are
    // disjoint, so every output entry is distinct.
    let mut values = Vec::with_capacity(dict.len() + missing.len());
    let mut old_to_new = vec![u32::MAX; dict.len()];
    let mut new_vals = missing.iter().peekable();
    for (c, d) in dict.iter().enumerate() {
        if !present[c] {
            continue;
        }
        while let Some(m) = new_vals.next_if(|m| cmp(m, d) == Ordering::Less) {
            values.push(*m);
        }
        old_to_new[c] = values.len() as u32;
        values.push(*d);
    }
    values.extend(new_vals.copied());
    let codes = appended
        .iter()
        .zip(&found)
        .map(|(v, f)| match f {
            Ok(c) => old_to_new[*c],
            Err(_) => values
                .binary_search_by(|d| cmp(d, v))
                .expect("merged dictionary holds every appended value")
                as u32,
        })
        .collect();
    Some((Some((values, old_to_new)), codes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_strings_u8() {
        let data = ["N", "A", "N", "R"];
        let enc = encode_str(data.iter().copied()).expect("fits");
        assert_eq!(enc.dict.cardinality(), 3);
        assert_eq!(enc.dict.value_type(), ScalarType::Str);
        let codes = enc.codes.as_u8();
        // Codes decode back to the original values.
        for (i, s) in data.iter().enumerate() {
            assert_eq!(
                enc.dict.decode(codes[i] as usize),
                Value::Str(s.to_string())
            );
        }
        // Order-preserving: A < N < R.
        assert!(codes[1] < codes[0] && codes[0] < codes[3]);
    }

    #[test]
    fn encode_f64_discounts() {
        let data: Vec<f64> = (0..100).map(|i| (i % 11) as f64 / 100.0).collect();
        let enc = encode_f64(&data).expect("fits");
        assert_eq!(enc.dict.cardinality(), 11);
        let codes = enc.codes.as_u8();
        let dict = enc.dict.values().as_f64();
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(dict[codes[i] as usize], x);
        }
    }

    #[test]
    fn wide_cardinality_uses_u16() {
        let data: Vec<i64> = (0..1000).map(|i| i % 500).collect();
        let enc = encode_i64(&data).expect("fits");
        assert_eq!(enc.codes.scalar_type(), ScalarType::U16);
        assert_eq!(enc.dict.cardinality(), 500);
    }

    #[test]
    fn over_cardinality_returns_none() {
        let data: Vec<i64> = (0..(MAX_ENUM_CARD as i64 + 1)).collect();
        assert!(encode_i64(&data).is_none());
    }

    #[test]
    fn compression_saves_space() {
        // 8-byte floats with 11 distinct values compress 8:1 to u8 codes.
        let data: Vec<f64> = (0..10_000).map(|i| (i % 11) as f64).collect();
        let plain = ColumnData::F64(data.clone());
        let enc = encode_f64(&data).expect("fits");
        let compressed = enc.codes.byte_size() + enc.dict.values().byte_size();
        assert!(
            compressed * 7 < plain.byte_size(),
            "{} vs {}",
            compressed,
            plain.byte_size()
        );
    }
}
