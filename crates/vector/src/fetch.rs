//! `map_fetch_*` primitives: positional gathers.
//!
//! A fetch reads `res[i] = base[idx[i]]` — the kernel behind
//! `Fetch1Join` (positional join on `#rowId`, §4.1.2) and behind
//! automatic enumeration-type decompression (§4.3, and the three
//! `map_fetch_uchr_col_flt_col` rows of the paper's Table 5 trace).

use crate::sel::SelVec;
use crate::vector::StrVec;

/// Generic gather: `res[i] = base[idx[i]]` at selected positions.
#[inline]
pub fn fetch<T: Copy>(res: &mut [T], base: &[T], idx: &[u32], sel: Option<&SelVec>) {
    match sel {
        None => {
            for (r, &j) in res.iter_mut().zip(idx.iter()) {
                *r = base[j as usize];
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = base[idx[i] as usize];
            }
        }
    }
}

macro_rules! fetch_instance {
    ($name:ident, $ty:ty) => {
        /// Macro-generated fetch instance.
        #[inline]
        pub fn $name(res: &mut [$ty], base: &[$ty], idx: &[u32], sel: Option<&SelVec>) {
            fetch(res, base, idx, sel);
        }
    };
}

fetch_instance!(map_fetch_u32_col_i8_col, i8);
fetch_instance!(map_fetch_u32_col_i16_col, i16);
fetch_instance!(map_fetch_u32_col_i32_col, i32);
fetch_instance!(map_fetch_u32_col_i64_col, i64);
fetch_instance!(map_fetch_u32_col_u8_col, u8);
fetch_instance!(map_fetch_u32_col_u16_col, u16);
fetch_instance!(map_fetch_u32_col_u32_col, u32);
fetch_instance!(map_fetch_u32_col_f64_col, f64);

/// Single-pass bounds-checked gather: `res[i] = base[idx[i]]` at selected
/// positions; `false` as soon as a selected index falls outside `base`.
/// Unselected positions are never read, so an out-of-range index there
/// is no failure. On `false`, `res` holds a partial gather the caller
/// must overwrite (the engine redoes the vector on its delta-aware slow
/// path), so no range scan has to precede the gather.
#[inline]
pub fn try_fetch<T: Copy>(res: &mut [T], base: &[T], idx: &[u32], sel: Option<&SelVec>) -> bool {
    match sel {
        None => {
            for (r, &j) in res.iter_mut().zip(idx.iter()) {
                match base.get(j as usize) {
                    Some(&v) => *r = v,
                    None => return false,
                }
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                match base.get(idx[i] as usize) {
                    Some(&v) => res[i] = v,
                    None => return false,
                }
            }
        }
    }
    true
}

/// Gather via 1-byte enum codes: `res[i] = base[code[i]]`
/// (the paper's `map_fetch_uchr_col_flt_col` for `f64` payloads).
#[inline]
pub fn fetch_u8_codes<T: Copy>(res: &mut [T], base: &[T], codes: &[u8], sel: Option<&SelVec>) {
    match sel {
        None => {
            for (r, &c) in res.iter_mut().zip(codes.iter()) {
                *r = base[c as usize];
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = base[codes[i] as usize];
            }
        }
    }
}

/// Gather via 2-byte enum codes (`map_fetch_usht_col_*`).
#[inline]
pub fn fetch_u16_codes<T: Copy>(res: &mut [T], base: &[T], codes: &[u16], sel: Option<&SelVec>) {
    match sel {
        None => {
            for (r, &c) in res.iter_mut().zip(codes.iter()) {
                *r = base[c as usize];
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                res[i] = base[codes[i] as usize];
            }
        }
    }
}

/// String gather: rebuilds a `StrVec` positionally (unselected positions
/// become empty strings, preserving the positional contract).
#[allow(clippy::needless_range_loop)] // positional writes under a selection
pub fn fetch_str(res: &mut StrVec, base: &StrVec, idx: &[u32], n: usize, sel: Option<&SelVec>) {
    res.clear();
    match sel {
        None => {
            for &j in idx.iter().take(n) {
                res.push(base.get(j as usize));
            }
        }
        Some(sel) => {
            let mut next = sel.iter().peekable();
            for i in 0..n {
                if next.peek() == Some(&i) {
                    next.next();
                    res.push(base.get(idx[i] as usize));
                } else {
                    res.push("");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_gather() {
        let base = [10.0, 20.0, 30.0, 40.0];
        let idx = [3, 0, 2];
        let mut res = [0.0; 3];
        map_fetch_u32_col_f64_col(&mut res, &base, &idx, None);
        assert_eq!(res, [40.0, 10.0, 30.0]);
    }

    #[test]
    fn selected_gather_preserves_other_positions() {
        let base = [10i64, 20, 30];
        let idx = [2, 1, 0];
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut res = [-1i64; 3];
        map_fetch_u32_col_i64_col(&mut res, &base, &idx, Some(&sel));
        assert_eq!(res, [30, -1, 10]);
    }

    #[test]
    fn try_fetch_in_range_equals_fetch() {
        let base = [10.0, 20.0, 30.0, 40.0];
        let idx = [3, 0, 2, 3];
        let mut want = [0.0; 4];
        let mut got = [0.0; 4];
        fetch(&mut want, &base, &idx, None);
        assert!(try_fetch(&mut got, &base, &idx, None));
        assert_eq!(got, want);

        let sel = SelVec::from_positions(vec![0, 2]);
        let mut want = [-1.0; 4];
        let mut got = [-1.0; 4];
        fetch(&mut want, &base, &idx, Some(&sel));
        assert!(try_fetch(&mut got, &base, &idx, Some(&sel)));
        assert_eq!(got, want);
    }

    #[test]
    fn try_fetch_fails_on_a_selected_out_of_range_index() {
        let base = [10i64, 20, 30];
        let mut res = [0i64; 3];
        assert!(!try_fetch(&mut res, &base, &[0, 3, 1], None));
        let sel = SelVec::from_positions(vec![0, 1]);
        assert!(!try_fetch(&mut res, &base, &[2, 7, 0], Some(&sel)));
        assert!(!try_fetch(&mut res, &[], &[0, 0, 0], Some(&sel)));
        assert!(try_fetch(&mut [0i64; 0], &[], &[], None));
    }

    #[test]
    fn try_fetch_ignores_an_unselected_out_of_range_index() {
        let base = [10i64, 20, 30];
        let idx = [2, 99, 0];
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut res = [-1i64; 3];
        assert!(try_fetch(&mut res, &base, &idx, Some(&sel)));
        assert_eq!(res, [30, -1, 10]);
    }

    #[test]
    fn enum_code_decompression() {
        // Enumeration type: codes into a small dictionary (paper §4.3).
        let dict = [0.0, 0.01, 0.02, 0.05];
        let codes = [3u8, 0, 1, 1];
        let mut res = [0.0; 4];
        fetch_u8_codes(&mut res, &dict, &codes, None);
        assert_eq!(res, [0.05, 0.0, 0.01, 0.01]);
    }

    #[test]
    fn u16_codes() {
        let dict: Vec<i32> = (0..1000).collect();
        let codes = [999u16, 500, 0];
        let mut res = [0i32; 3];
        fetch_u16_codes(&mut res, &dict, &codes, None);
        assert_eq!(res, [999, 500, 0]);
    }

    #[test]
    fn string_gather() {
        let base: StrVec = ["alpha", "beta", "gamma"].into_iter().collect();
        let idx = [2, 2, 0];
        let mut res = StrVec::new();
        fetch_str(&mut res, &base, &idx, 3, None);
        assert_eq!(
            res.iter().collect::<Vec<_>>(),
            vec!["gamma", "gamma", "alpha"]
        );
    }

    #[test]
    fn string_gather_with_sel() {
        let base: StrVec = ["a", "b"].into_iter().collect();
        let idx = [1, 0, 1];
        let sel = SelVec::from_positions(vec![0, 2]);
        let mut res = StrVec::new();
        fetch_str(&mut res, &base, &idx, 3, Some(&sel));
        assert_eq!(res.iter().collect::<Vec<_>>(), vec!["b", "", "b"]);
    }
}
