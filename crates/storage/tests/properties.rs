//! Property-based tests for the storage layer.
//!
//! Key invariants:
//! * a table behaves like a simple row-store model under any sequence of
//!   inserts / deletes / updates / reorganizes, and a reorganized table
//!   is physically identical to one built from scratch from its live
//!   rows (checkpointed too, if the table was);
//! * enum encoding roundtrips and is order-preserving;
//! * summary indices are always conservative.
//!
//! Deterministic tests at the end check the same identity at multi-chunk
//! scale, and that a reorganize re-encodes only changed chunks.

use proptest::prelude::*;
use x100_storage::{
    choose_and_compress, compress_column_as, encode_i64, ChunkFormat, ColumnData, CompressedColumn,
    DecodeCursor, SummaryIndex, Table, TableBuilder, CHUNK_ROWS,
};
use x100_vector::{ScalarType, StrVec, Value, Vector};

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Delete(usize),
    Update(usize, i64),
    Reorganize,
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<i64>()).prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Delete),
        (0usize..64, any::<i64>()).prop_map(|(i, v)| Op::Update(i, v)),
        Just(Op::Reorganize),
        Just(Op::Checkpoint),
    ]
}

/// Bit-level vector equality: floats compare by representation, so a
/// decode that flips even one mantissa bit fails (NaNs included).
fn bits_eq(a: &Vector, b: &Vector) -> bool {
    match (a, b) {
        (Vector::F64(x), Vector::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

/// Decode `cc` in refills of the (cycled) `sizes` and demand the result
/// is bit-identical to the physical column at every step — this drives
/// the per-chunk cursor across chunk boundaries exactly like a scan.
fn assert_decode_matches(cc: &CompressedColumn, data: &ColumnData, sizes: &[usize]) {
    let rows = data.len();
    let mut cursor = DecodeCursor::default();
    let mut scratch = Vec::new();
    let mut got = Vector::with_capacity(data.scalar_type(), 0);
    let mut want = Vector::with_capacity(data.scalar_type(), 0);
    let mut at = 0usize;
    let mut k = 0usize;
    while at < rows {
        let n = sizes[k % sizes.len()].clamp(1, rows - at);
        k += 1;
        cc.decode_range(at, n, &mut got, &mut cursor, &mut scratch)
            .expect("decode");
        data.read_into(at, n, &mut want);
        prop_assert!(
            bits_eq(&got, &want),
            "decode mismatch at rows [{at}, {})",
            at + n
        );
        at += n;
    }
}

/// The logical row a model value `v` stands for: the value itself, or,
/// in the wide schema, one column per storage path derived from it —
/// plain `i64` and `str`, enum `str` / `f64` / `i64`, and an `i32` with
/// a summary index. The small derived domains let deletes empty and
/// inserts grow enum dictionaries.
fn model_row(v: i64, wide: bool) -> Vec<Value> {
    let mut row = vec![Value::I64(v)];
    if wide {
        row.extend([
            Value::Str(format!("s{}", v.rem_euclid(11))),
            Value::Str(format!("e{}", v.rem_euclid(5))),
            Value::F64(v.rem_euclid(6) as f64 * 0.25),
            Value::I64(v.rem_euclid(9) - 4),
            Value::I32(v.rem_euclid(50) as i32),
        ]);
    }
    row
}

/// Build the table holding `model_row(v, wide)` for every `v`.
fn model_table(values: &[i64], wide: bool) -> Table {
    let rows: Vec<Vec<Value>> = values.iter().map(|&v| model_row(v, wide)).collect();
    let col = |i: usize| rows.iter().map(move |r| &r[i]);
    let strs = |i: usize| -> Vec<String> {
        col(i)
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => unreachable!("{other:?}"),
            })
            .collect()
    };
    let b = TableBuilder::new("t").column("v", ColumnData::I64(values.to_vec()));
    if !wide {
        return b.build();
    }
    let f64s = col(3).map(|v| match v {
        Value::F64(x) => *x,
        other => unreachable!("{other:?}"),
    });
    let i64s = col(4).map(|v| match v {
        Value::I64(x) => *x,
        other => unreachable!("{other:?}"),
    });
    let i32s = col(5).map(|v| match v {
        Value::I32(x) => *x,
        other => unreachable!("{other:?}"),
    });
    let plain: StrVec = strs(1).iter().map(String::as_str).collect();
    b.column("s", ColumnData::Str(plain))
        .auto_enum_str("e", strs(2))
        .auto_enum_f64("f", f64s.collect())
        .auto_enum_i64("g", i64s.collect())
        .column("d", ColumnData::I32(i32s.collect()))
        .with_summary()
        .build()
}

/// Assert `t` is physically identical to `reference`: fragment values,
/// dictionaries, statistics, summary indices, compressed format and
/// compressed chunk bytes, column by column.
fn assert_same_storage(t: &Table, reference: &Table) {
    assert_eq!(
        t.fragment_rows(),
        reference.fragment_rows(),
        "fragment rows"
    );
    assert_eq!(t.num_columns(), reference.num_columns());
    for i in 0..t.num_columns() {
        let (a, b) = (t.column(i), reference.column(i));
        let name = &b.field().name;
        assert_eq!(a.field(), b.field(), "{name}: field");
        assert_eq!(a.physical(), b.physical(), "{name}: fragment");
        let dict = |c: &x100_storage::StoredColumn| c.dict().map(|d| d.values().clone());
        assert_eq!(dict(a), dict(b), "{name}: dictionary");
        assert_eq!(a.stats(), b.stats(), "{name}: stats");
        assert_eq!(a.summary(), b.summary(), "{name}: summary index");
        let format = |c: &x100_storage::StoredColumn| c.compressed().map(|cc| cc.format());
        assert_eq!(format(a), format(b), "{name}: compressed format");
        let bytes = |c: &x100_storage::StoredColumn| c.compressed().map(|cc| cc.to_bytes());
        assert!(bytes(a) == bytes(b), "{name}: compressed chunk bytes");
    }
}

proptest! {
    #[test]
    fn table_matches_row_model(init in prop::collection::vec(any::<i64>(), 0..40),
                               ops in prop::collection::vec(op_strategy(), 0..40),
                               wide in prop::bool::ANY) {
        let mut table = model_table(&init, wide);
        let mut checkpointed = false;
        // Model: live rows in #rowId order, as (value) list.
        let mut model: Vec<i64> = init.clone();
        // Map from live position -> rowid is implicit; we track rowids.
        let mut rowids: Vec<u32> = (0..init.len() as u32).collect();

        for op in ops {
            match op {
                Op::Insert(v) => {
                    let id = table.insert(&model_row(v, wide));
                    model.push(v);
                    rowids.push(id);
                }
                Op::Delete(pos) => {
                    if !model.is_empty() {
                        let pos = pos % model.len();
                        prop_assert!(table.delete(rowids[pos]));
                        model.remove(pos);
                        rowids.remove(pos);
                    }
                }
                Op::Update(pos, v) => {
                    if !model.is_empty() {
                        let pos = pos % model.len();
                        let new_id = table.update(rowids[pos], &model_row(v, wide)).expect("live row");
                        model.remove(pos);
                        rowids.remove(pos);
                        model.push(v);
                        rowids.push(new_id);
                    }
                }
                Op::Reorganize => {
                    table.reorganize();
                    rowids = (0..model.len() as u32).collect();
                }
                Op::Checkpoint => {
                    table.checkpoint();
                    checkpointed = true;
                }
            }
            prop_assert_eq!(table.live_rows(), model.len());
        }
        // Final check: every live row matches the model.
        for (pos, &id) in rowids.iter().enumerate() {
            prop_assert_eq!(table.get_row(id), model_row(model[pos], wide));
        }
        // Any checkpoint-compressed fragment must decode bit-identically
        // to the physical column it mirrors.
        for i in 0..table.num_columns() {
            let sc = table.column(i);
            if let Some(cc) = sc.compressed() {
                prop_assert_eq!(cc.rows(), sc.physical().len());
                assert_decode_matches(cc, sc.physical(), &[7, 1, 13]);
            }
        }
        // Merged, the table is the one a from-scratch build of its live
        // rows gives (checkpointed, if the table was).
        table.reorganize();
        let mut reference = model_table(&model, wide);
        if checkpointed {
            reference.checkpoint();
        }
        assert_same_storage(&table, &reference);
    }

    #[test]
    fn enum_roundtrip_and_order(values in prop::collection::vec(-50i64..50, 1..300)) {
        let enc = encode_i64(&values).expect("small domain");
        let dict = enc.dict.values().as_i64();
        let decode = |i: usize| -> i64 {
            match &enc.codes {
                ColumnData::U8(c) => dict[c[i] as usize],
                ColumnData::U16(c) => dict[c[i] as usize],
                _ => unreachable!(),
            }
        };
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(decode(i), v);
        }
        // Order-preserving encoding.
        prop_assert!(dict.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn summary_always_conservative(col in prop::collection::vec(-1000i64..1000, 0..500),
                                   gran in 1usize..64,
                                   lo in -1000i64..1000,
                                   width in 0i64..500) {
        let idx = SummaryIndex::build_with_granularity(&col, gran);
        let hi = lo + width;
        let (s, e) = idx.range_candidates(Some(lo), Some(hi));
        prop_assert!(s <= e && e <= col.len());
        for (i, &v) in col.iter().enumerate() {
            if v >= lo && v <= hi {
                prop_assert!(s <= i && i < e, "qualifying row {i} outside [{s},{e})");
            }
        }
    }

    #[test]
    fn summary_sorted_pruning_is_tight(n in 1usize..2000, gran in 1usize..100, q in 0i64..2000) {
        let col: Vec<i64> = (0..n as i64).collect();
        let idx = SummaryIndex::build_with_granularity(&col, gran);
        let (s, e) = idx.range_candidates(Some(q), Some(q));
        if (q as usize) < n {
            // Candidate window around the hit is at most 2 granules wide.
            prop_assert!(e - s <= 2 * gran);
            prop_assert!(s <= q as usize && (q as usize) < e);
        } else {
            prop_assert_eq!(s, e);
        }
    }
}

/// PFOR round-trips for every integer column type: arbitrary values,
/// arbitrary refill sizes. `compress_column_as` must accept (PFOR has a
/// raw-exception escape hatch for any distribution).
macro_rules! pfor_int_roundtrip {
    ($($test:ident : $ty:ty => $variant:ident);* $(;)?) => {
        proptest! {
            $(
                #[test]
                fn $test(values in prop::collection::vec(any::<$ty>(), 1..300),
                         sizes in prop::collection::vec(1usize..80, 1..5)) {
                    let data = ColumnData::$variant(values);
                    let cc = compress_column_as(&data, ChunkFormat::Pfor)
                        .expect("pfor accepts any integer column");
                    assert_decode_matches(&cc, &data, &sizes);
                }
            )*
        }
    };
}

pfor_int_roundtrip! {
    pfor_roundtrip_i8:  i8  => I8;
    pfor_roundtrip_i16: i16 => I16;
    pfor_roundtrip_i32: i32 => I32;
    pfor_roundtrip_i64: i64 => I64;
    pfor_roundtrip_u8:  u8  => U8;
    pfor_roundtrip_u16: u16 => U16;
    pfor_roundtrip_u32: u32 => U32;
    pfor_roundtrip_u64: u64 => U64;
}

proptest! {
    /// PFOR over decimal-scaled floats (the TPC-H money shape): every
    /// value must survive the scaled round trip bit-exactly.
    #[test]
    fn pfor_roundtrip_f64_decimal(cents in prop::collection::vec(-2_000_000i64..2_000_000, 1..300),
                                  scale_idx in 0usize..5,
                                  sizes in prop::collection::vec(1usize..80, 1..5)) {
        let scale = [1i64, 10, 100, 1000, 10000][scale_idx];
        let values: Vec<f64> = cents.iter().map(|&c| c as f64 / scale as f64).collect();
        let data = ColumnData::F64(values);
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor accepts any f64 column");
        assert_decode_matches(&cc, &data, &sizes);
    }

    /// PFOR over arbitrary finite doubles: almost none are representable
    /// as scaled integers, so this exercises all-exception blocks — the
    /// payload is noise and every value rides the patch list.
    #[test]
    fn pfor_roundtrip_f64_all_exceptions(bits in prop::collection::vec(any::<u64>(), 1..200),
                                         sizes in prop::collection::vec(1usize..80, 1..5)) {
        let values: Vec<f64> = bits
            .iter()
            .map(|&b| {
                let v = f64::from_bits(b);
                if v.is_finite() { v } else { f64::from_bits(b & !(0x7ff << 52)) }
            })
            .collect();
        let data = ColumnData::F64(values);
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor accepts any f64 column");
        assert_decode_matches(&cc, &data, &sizes);
    }

    /// PFOR-DELTA round-trips over every integer type (sorted input is a
    /// precondition of the format; the chooser enforces it upstream).
    #[test]
    fn pfordelta_roundtrip_ints(deltas in prop::collection::vec(0u32..1000, 1..300),
                                start in -1_000_000i64..1_000_000,
                                sizes in prop::collection::vec(1usize..80, 1..5)) {
        let mut acc = start;
        let sorted: Vec<i64> = deltas.iter().map(|&d| { acc += d as i64; acc }).collect();
        let data = ColumnData::I64(sorted.clone());
        let cc = compress_column_as(&data, ChunkFormat::PforDelta)
            .expect("pfordelta accepts sorted input");
        assert_decode_matches(&cc, &data, &sizes);
        // Narrower physical types, same logical content.
        let data32 = ColumnData::I32(sorted.iter().map(|&v| (v % (1 << 20)) as i32).collect());
        if let Some(cc) = compress_column_as(&data32, ChunkFormat::PforDelta) {
            assert_decode_matches(&cc, &data32, &sizes);
        }
    }

    /// PFOR-DELTA decode must also be correct under *random seeks* (a
    /// pruned scan entering mid-chunk replays from the last sync point).
    #[test]
    fn pfordelta_random_seeks(deltas in prop::collection::vec(0u32..50, 50..400),
                              seeks in prop::collection::vec((0usize..400, 1usize..60), 1..12)) {
        let mut acc = 0i64;
        let sorted: Vec<i64> = deltas.iter().map(|&d| { acc += d as i64; acc }).collect();
        let data = ColumnData::I64(sorted.clone());
        let cc = compress_column_as(&data, ChunkFormat::PforDelta)
            .expect("pfordelta accepts sorted input");
        let mut cursor = DecodeCursor::default();
        let mut scratch = Vec::new();
        let mut got = Vector::with_capacity(data.scalar_type(), 0);
        let mut want = Vector::with_capacity(data.scalar_type(), 0);
        for (start, n) in seeks {
            let start = start % sorted.len();
            let n = n.min(sorted.len() - start).max(1);
            cc.decode_range(start, n, &mut got, &mut cursor, &mut scratch).expect("decode");
            data.read_into(start, n, &mut want);
            prop_assert!(bits_eq(&got, &want), "seek mismatch at [{start}, {})", start + n);
        }
    }

    /// PDICT round-trips for low-cardinality i64 / f64 / string columns.
    #[test]
    fn pdict_roundtrip(picks in prop::collection::vec(0usize..12, 1..300),
                       domain in prop::collection::vec(any::<i64>(), 12),
                       sizes in prop::collection::vec(1usize..80, 1..5)) {
        let ints: Vec<i64> = picks.iter().map(|&p| domain[p]).collect();
        let data = ColumnData::I64(ints.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality i64");
        assert_decode_matches(&cc, &data, &sizes);

        let floats: Vec<f64> = picks.iter().map(|&p| domain[p] as f64 + 0.5).collect();
        let data = ColumnData::F64(floats);
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality f64");
        assert_decode_matches(&cc, &data, &sizes);

        let mut strs = x100_vector::StrVec::default();
        for &p in &picks {
            strs.push(&format!("tag-{}", domain[p] % 16));
        }
        let data = ColumnData::Str(strs);
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality str");
        assert_decode_matches(&cc, &data, &sizes);
    }

    /// The chooser must never pick a format that fails to round-trip,
    /// whatever the distribution thrown at it.
    #[test]
    fn chooser_roundtrip_any_distribution(values in prop::collection::vec(-5000i64..5000, 1..300),
                                          sort in any::<bool>(),
                                          sizes in prop::collection::vec(1usize..80, 1..5)) {
        let mut values = values;
        if sort {
            values.sort_unstable();
        }
        let data = ColumnData::I64(values);
        if let Some(cc) = choose_and_compress(&data) {
            assert_decode_matches(&cc, &data, &sizes);
        }
    }
}

// ---------------------------------------------------------------------------
// Encoded-space predicate pushdown: `select_range` + `decode_positions`
// must be observationally equivalent to decode-then-select, across
// codec × type × predicate × selectivity — including all-exception
// chunks and windowed refills that stride chunk boundaries.
// ---------------------------------------------------------------------------

use x100_storage::{PushOp, Pushdown};

/// Native-comparison reference: filter the raw column over
/// `[start, start + n)` exactly as a decode-then-select pipeline would,
/// returning window-relative positions.
fn ref_filter(data: &ColumnData, start: usize, n: usize, p: &Pushdown) -> Vec<u32> {
    fn keep<T: PartialOrd + Copy>(x: T, lo: T, hi: Option<T>, op: PushOp) -> bool {
        match op {
            PushOp::Eq => x == lo,
            PushOp::Ne => x != lo,
            PushOp::Lt => x < lo,
            PushOp::Le => x <= lo,
            PushOp::Gt => x > lo,
            PushOp::Ge => x >= lo,
            PushOp::Between => x >= lo && hi.is_some_and(|h| x <= h),
        }
    }
    macro_rules! f {
        ($b:expr, $vv:ident) => {{
            let lo = match p.lo() {
                Value::$vv(x) => *x,
                other => panic!("constant {other:?} on {} column", stringify!($vv)),
            };
            let hi = p.hi().map(|h| match h {
                Value::$vv(x) => *x,
                other => panic!("constant {other:?} on {} column", stringify!($vv)),
            });
            $b[start..start + n]
                .iter()
                .enumerate()
                .filter(|(_, &x)| keep(x, lo, hi, p.op()))
                .map(|(i, _)| i as u32)
                .collect()
        }};
    }
    match data {
        ColumnData::I32(b) => f!(b, I32),
        ColumnData::I64(b) => f!(b, I64),
        ColumnData::F64(b) => f!(b, F64),
        ColumnData::Str(b) => {
            let lo = match p.lo() {
                Value::Str(x) => x.as_str(),
                other => panic!("constant {other:?} on Str column"),
            };
            (0..n)
                .filter(|&i| keep(b.get(start + i), lo, None, p.op()))
                .map(|i| i as u32)
                .collect()
        }
        other => panic!("unexercised column type {:?}", other.scalar_type()),
    }
}

/// Drive `select_range` in refills of the (cycled) `sizes` — sharing
/// one cursor, exactly like a scan — and demand window-relative
/// positions identical to the reference filter; then decode only the
/// survivors via `decode_positions` and demand bit-identical values.
fn assert_pushdown_matches(
    cc: &CompressedColumn,
    data: &ColumnData,
    op: PushOp,
    lo: &Value,
    hi: Option<&Value>,
    sizes: &[usize],
) {
    let Some(p) = cc.compile_pushdown(op, lo, hi) else {
        return; // unsupported codec/op pair: binder falls back
    };
    let rows = data.len();
    let mut cursor = DecodeCursor::default();
    let (mut sel, mut tmp) = (Vec::new(), Vec::new());
    let mut got = Vector::with_capacity(data.scalar_type(), 0);
    let mut want = Vector::with_capacity(data.scalar_type(), 0);
    let (mut at, mut k) = (0usize, 0usize);
    while at < rows {
        let n = sizes[k % sizes.len()].clamp(1, rows - at);
        k += 1;
        sel.clear();
        cc.select_range(&p, at, n, &mut sel, &mut tmp, &mut cursor)
            .expect("select_range");
        let expect = ref_filter(data, at, n, &p);
        prop_assert_eq!(
            &sel,
            &expect,
            "pushdown {} diverged in window [{}, {})",
            p.sig(),
            at,
            at + n
        );
        if cc.decode_sel_sig().is_some() && !sel.is_empty() {
            cc.decode_positions(at, &sel, &mut got, &mut tmp, &mut cursor)
                .expect("decode_positions");
            data.read_into(at, n, &mut want);
            let dense: Vec<Value> = sel.iter().map(|&i| want.get_value(i as usize)).collect();
            let lazy: Vec<Value> = (0..got.len()).map(|i| got.get_value(i)).collect();
            prop_assert_eq!(
                lazy,
                dense,
                "lazy decode diverged in window [{}, {})",
                at,
                at + n
            );
        }
        at += n;
    }
}

/// Predicate operators each codec claims to support.
const PFOR_OPS: [PushOp; 6] = [
    PushOp::Eq,
    PushOp::Lt,
    PushOp::Le,
    PushOp::Gt,
    PushOp::Ge,
    PushOp::Between,
];
const PDICT_OPS: [PushOp; 6] = [
    PushOp::Eq,
    PushOp::Ne,
    PushOp::Lt,
    PushOp::Le,
    PushOp::Gt,
    PushOp::Ge,
];

proptest! {
    /// PFOR i64 pushdown with patched exceptions: each value is either
    /// in-lane or an outlier, so chunks range from exception-free to
    /// all-exception. Constants drawn from the data (plus the random
    /// offset) sweep selectivity from ~0% to ~100%.
    #[test]
    fn pfor_pushdown_matches_decode_then_select(
        values in prop::collection::vec(
            (0i64..120, any::<bool>()).prop_map(|(v, wide)| {
                if wide { v * 1_000_000_007 } else { v }
            }),
            1..400,
        ),
        op_i in 0usize..6,
        lit_i in 0usize..400,
        off in -2i64..3,
        sizes in prop::collection::vec(1usize..90, 1..5),
    ) {
        let data = ColumnData::I64(values.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor i64");
        let lo = Value::I64(values[lit_i % values.len()] + off);
        let hi = Value::I64(values[(lit_i + 7) % values.len()].max(values[lit_i % values.len()] + off));
        assert_pushdown_matches(&cc, &data, PFOR_OPS[op_i], &lo, Some(&hi).filter(|_| PFOR_OPS[op_i] == PushOp::Between), &sizes);
    }

    /// Scaled-f64 PFOR: the encoded-space translation must honor the
    /// scale trick; quarter steps keep every value representable.
    #[test]
    fn pfor_f64_pushdown_matches(
        values in prop::collection::vec(-300i64..300, 1..300),
        op_i in 0usize..6,
        lit_i in 0usize..300,
        sizes in prop::collection::vec(1usize..90, 1..5),
    ) {
        let floats: Vec<f64> = values.iter().map(|&v| v as f64 * 0.25).collect();
        let data = ColumnData::F64(floats.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor f64");
        let lo = Value::F64(floats[lit_i % floats.len()]);
        let hi = Value::F64(floats[(lit_i + 3) % floats.len()].max(floats[lit_i % floats.len()]));
        assert_pushdown_matches(&cc, &data, PFOR_OPS[op_i], &lo, Some(&hi).filter(|_| PFOR_OPS[op_i] == PushOp::Between), &sizes);
    }

    /// PDICT pushdown evaluates the predicate once over the dictionary;
    /// i64, f64, and string domains, any comparison operator.
    #[test]
    fn pdict_pushdown_matches_decode_then_select(
        picks in prop::collection::vec(0usize..12, 1..300),
        domain in prop::collection::vec(any::<i64>(), 12),
        op_i in 0usize..6,
        lit_i in 0usize..300,
        sizes in prop::collection::vec(1usize..90, 1..5),
    ) {
        let op = PDICT_OPS[op_i];
        let ints: Vec<i64> = picks.iter().map(|&p| domain[p]).collect();
        let data = ColumnData::I64(ints.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality i64");
        // In-dictionary and (likely) out-of-dictionary constants.
        for lo in [Value::I64(ints[lit_i % ints.len()]), Value::I64(domain[0].wrapping_add(1))] {
            assert_pushdown_matches(&cc, &data, op, &lo, None, &sizes);
        }

        let floats: Vec<f64> = picks.iter().map(|&p| (domain[p] % 1000) as f64 + 0.5).collect();
        let data = ColumnData::F64(floats.clone());
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality f64");
        let lo = Value::F64(floats[lit_i % floats.len()]);
        assert_pushdown_matches(&cc, &data, op, &lo, None, &sizes);

        let mut strs = x100_vector::StrVec::default();
        for &p in &picks {
            strs.push(&format!("tag-{}", domain[p] % 16));
        }
        let data = ColumnData::Str(strs);
        let cc = compress_column_as(&data, ChunkFormat::Pdict).expect("low-cardinality str");
        let lo = Value::Str(format!("tag-{}", domain[lit_i % 12] % 16));
        assert_pushdown_matches(&cc, &data, op, &lo, None, &sizes);
    }

    /// `gather` (the positional sync-point seek path) agrees with the
    /// raw column for arbitrary rowid sequences — ascending runs,
    /// restarts, and duplicates — across every codec the chooser picks.
    #[test]
    fn gather_matches_raw_for_any_rowids(
        values in prop::collection::vec(-5000i64..5000, 1..400),
        sort in any::<bool>(),
        rowids in prop::collection::vec(0usize..400, 1..200),
    ) {
        let mut values = values;
        if sort {
            values.sort_unstable();
        }
        let data = ColumnData::I64(values.clone());
        if let Some(cc) = choose_and_compress(&data) {
            let rowids: Vec<u32> = rowids.iter().map(|&r| (r % values.len()) as u32).collect();
            let mut out = Vector::with_capacity(data.scalar_type(), 0);
            let (mut scratch, mut tmp) = (Vec::new(), Vec::new());
            let mut cursor = DecodeCursor::default();
            cc.gather(&rowids, &mut out, &mut scratch, &mut tmp, &mut cursor).expect("gather");
            let got = out.as_i64();
            for (i, &r) in rowids.iter().enumerate() {
                prop_assert_eq!(got[i], values[r as usize], "rowid {} at {}", r, i);
            }
        }
    }

    /// Codec capability matrix is exact: PFOR refuses `!=`, PDICT
    /// refuses `Between`, PFOR-DELTA refuses all pushdowns, and a
    /// mistyped constant never compiles.
    #[test]
    fn pushdown_capability_matrix(values in prop::collection::vec(0i64..100, 10..200)) {
        let data = ColumnData::I64(values.clone());
        let pfor = compress_column_as(&data, ChunkFormat::Pfor).expect("pfor");
        prop_assert!(pfor.compile_pushdown(PushOp::Ne, &Value::I64(5), None).is_none());
        prop_assert!(pfor.compile_pushdown(PushOp::Lt, &Value::I32(5), None).is_none());
        prop_assert!(pfor.compile_pushdown(PushOp::Lt, &Value::I64(5), None).is_some());
        prop_assert!(pfor
            .compile_pushdown(PushOp::Between, &Value::I64(2), Some(&Value::I64(7)))
            .is_some());
        let pdict = compress_column_as(&data, ChunkFormat::Pdict).expect("pdict");
        prop_assert!(pdict
            .compile_pushdown(PushOp::Between, &Value::I64(2), Some(&Value::I64(7)))
            .is_none());
        prop_assert!(pdict.compile_pushdown(PushOp::Ne, &Value::I64(5), None).is_some());
        let mut sorted = values;
        sorted.sort_unstable();
        let delta = compress_column_as(&ColumnData::I64(sorted), ChunkFormat::PforDelta)
            .expect("pfordelta");
        for op in PFOR_OPS {
            prop_assert!(delta.compile_pushdown(op, &Value::I64(5), Some(&Value::I64(9))).is_none());
            prop_assert!(delta.compile_pushdown(op, &Value::I64(5), None).is_none());
        }
    }
}

/// Keys from here on get a name that sorts before all others.
const LATE_KEY: i64 = 1 << 20;

/// Row `i` of the multi-chunk table: a sorted key (PFOR-DELTA), a price
/// with more distinct values than PDICT takes (PFOR), a three-value
/// enum flag (stays raw), a clustered date with a summary index
/// (PFOR-DELTA) and a 40-value plain string (PDICT).
fn wide_rows(keys: &[i64]) -> Table {
    let flags = ["A", "N", "R"];
    TableBuilder::new("wide")
        .column("key", ColumnData::I64(keys.to_vec()))
        .column(
            "price",
            ColumnData::F64(keys.iter().map(|&i| (i % 9000) as f64 / 100.0).collect()),
        )
        .auto_enum_str(
            "flag",
            keys.iter()
                .map(|&i| flags[(i % 3) as usize].to_string())
                .collect(),
        )
        .column(
            "date",
            ColumnData::I32(keys.iter().map(|&i| 8000 + (i / 100) as i32).collect()),
        )
        .with_summary()
        .column(
            "name",
            ColumnData::Str(
                keys.iter()
                    .map(|&i| match i {
                        LATE_KEY.. => "a late name".to_string(),
                        _ => format!("name{:02}", i % 40),
                    })
                    .collect::<Vec<_>>()
                    .iter()
                    .map(String::as_str)
                    .collect(),
            ),
        )
        .build()
}

/// The logical row `wide_rows` builds for key `i`.
fn wide_row(i: i64) -> Vec<Value> {
    let t = wide_rows(&[i]);
    t.get_row(0)
}

#[test]
#[cfg_attr(miri, ignore)]
fn reorganize_reencodes_only_changed_chunks() {
    let n = 3 * CHUNK_ROWS + 1000;
    let mut keys: Vec<i64> = (0..n as i64).collect();
    let mut t = wide_rows(&keys);
    t.checkpoint();
    let formats: Vec<Option<ChunkFormat>> = (0..t.num_columns())
        .map(|i| t.column(i).compressed().map(|c| c.format()))
        .collect();
    use ChunkFormat::*;
    assert_eq!(
        formats,
        [
            Some(PforDelta),
            Some(Pfor),
            None,
            Some(PforDelta),
            Some(Pdict)
        ]
    );
    // Chunks one changed chunk costs: every frame-format candidate
    // (PFOR; PFOR-DELTA too on sorted columns) encodes it to learn its
    // size, and the PDICT winner encodes it once. PDICT's own sizes
    // follow from its lane, so the other columns encode nothing for it.
    let per_chunk = 2 + 1 + 1 + 2 + 1;
    let reorganize = |t: &mut Table, keys: &[i64], first_changed: usize| {
        let before = t.chunks_encoded();
        t.reorganize();
        let mut reference = wide_rows(keys);
        reference.checkpoint();
        assert_same_storage(t, &reference);
        let changed = t.fragment_rows().div_ceil(CHUNK_ROWS) - first_changed / CHUNK_ROWS;
        assert_eq!(t.chunks_encoded() - before, (per_chunk * changed) as u64);
    };

    // The refresh shape: delete the tail, then append new keys.
    let tail = n - 500;
    for r in tail..n {
        assert!(t.delete(r as u32));
    }
    keys.truncate(tail);
    reorganize(&mut t, &keys, tail);
    let next = n as i64;
    for i in next..next + 700 {
        t.insert(&wide_row(i));
        keys.push(i);
    }
    reorganize(&mut t, &keys, tail);

    // A delete in the second chunk re-encodes it and everything after.
    let mid = CHUNK_ROWS + 4464;
    for r in (mid..mid + 100).step_by(3) {
        assert!(t.delete(r as u32));
    }
    keys = keys
        .iter()
        .enumerate()
        .filter(|&(p, _)| !(mid..mid + 100).step_by(3).any(|r| r == p))
        .map(|(_, &k)| k)
        .collect();
    reorganize(&mut t, &keys, mid);

    // Nothing changed: every chunk is reused.
    let before = t.chunks_encoded();
    t.reorganize();
    assert_eq!(t.chunks_encoded(), before);
    let mut reference = wide_rows(&keys);
    reference.checkpoint();
    assert_same_storage(&t, &reference);

    // A torn chunk in the unchanged prefix is re-encoded, not carried.
    assert!(t.corrupt_compressed_payload(1, 0, 5));
    t.reorganize();
    assert_eq!(t.chunks_encoded(), before + 1);
    assert_same_storage(&t, &reference);

    // A new smallest name changes PDICT's dictionary, so every chunk of
    // that column re-encodes; the other columns still encode the last.
    t.insert(&wide_row(LATE_KEY));
    keys.push(LATE_KEY);
    let before = t.chunks_encoded();
    t.reorganize();
    let chunks = t.fragment_rows().div_ceil(CHUNK_ROWS);
    assert_eq!(t.chunks_encoded() - before, (per_chunk - 1 + chunks) as u64);
    let mut reference = wide_rows(&keys);
    reference.checkpoint();
    assert_same_storage(&t, &reference);
}

#[test]
#[cfg_attr(miri, ignore)]
fn enum_code_width_and_plain_fallback_follow_cardinality() {
    // 256 distinct values fit U8 codes; one more needs U16; past
    // MAX_ENUM_CARD the column is stored plain, as a fresh build would.
    let build = |vals: &[i64]| {
        TableBuilder::new("e")
            .auto_enum_i64("g", vals.to_vec())
            .build()
    };
    let mut vals: Vec<i64> = (0..256).collect();
    let mut t = build(&vals);
    t.checkpoint();
    assert_eq!(t.column(0).physical_type(), ScalarType::U8);
    t.insert(&[Value::I64(-1)]);
    vals.push(-1);
    t.reorganize();
    assert_eq!(t.column(0).physical_type(), ScalarType::U16);
    let mut reference = build(&vals);
    reference.checkpoint();
    assert_same_storage(&t, &reference);
    // Deleting a value's last row narrows the codes back to U8.
    assert!(t.delete(3));
    vals.remove(3);
    t.reorganize();
    assert_eq!(t.column(0).physical_type(), ScalarType::U8);
    let mut reference = build(&vals);
    reference.checkpoint();
    assert_same_storage(&t, &reference);

    let mut vals: Vec<i64> = (0..x100_storage::MAX_ENUM_CARD as i64).collect();
    let mut t = build(&vals);
    assert!(t.column(0).dict().is_some());
    t.insert(&[Value::I64(-7)]);
    vals.push(-7);
    t.reorganize();
    assert!(
        t.column(0).dict().is_none(),
        "over-cardinality falls back to plain"
    );
    assert_same_storage(&t, &build(&vals));

    // Codes built wider than the cardinality needs come out canonical.
    let enc = encode_i64(&[5, 7, 5]).expect("fits");
    let wide = ColumnData::U16(enc.codes.as_u8().iter().map(|&c| c as u16).collect());
    let mut t = TableBuilder::new("e")
        .enum_column("g", wide, enc.dict)
        .build();
    t.checkpoint();
    t.insert(&[Value::I64(7)]);
    t.reorganize();
    let mut reference = build(&[5, 7, 5, 7]);
    reference.checkpoint();
    assert_same_storage(&t, &reference);
}
