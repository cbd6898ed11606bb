//! Scan / filter / project execution over tables.
//!
//! SPADE combines spatial constraints with relational ones ("linkage to
//! relational data", §1); the relational side evaluates through this small
//! expression executor.

use crate::column::ColumnData;
use crate::table::{Schema, Table};
use crate::value::Value;
use crate::{Result, StorageError};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped: `lit op col` ⇔ `col flip(op) lit`.
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        matches!(
            (self, ord),
            (CmpOp::Eq, Equal)
                | (CmpOp::Ne, Less)
                | (CmpOp::Ne, Greater)
                | (CmpOp::Lt, Less)
                | (CmpOp::Le, Less)
                | (CmpOp::Le, Equal)
                | (CmpOp::Gt, Greater)
                | (CmpOp::Ge, Greater)
                | (CmpOp::Ge, Equal)
        )
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(String),
    Literal(Value),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column(name.to_string())
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Expr {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Evaluate to a value for table row `row`.
    pub fn eval(&self, table: &Table, row: usize) -> Result<Value> {
        Ok(match self {
            Expr::Column(name) => table.column(name)?.get(row),
            Expr::Literal(v) => v.clone(),
            Expr::Cmp(op, a, b) => {
                let av = a.eval(table, row)?;
                let bv = b.eval(table, row)?;
                match av.compare(&bv) {
                    Some(ord) => Value::Int(op.eval(ord) as i64),
                    None => Value::Null, // SQL three-valued logic
                }
            }
            Expr::And(a, b) => match (a.eval(table, row)?, b.eval(table, row)?) {
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (x, y) => Value::Int((truthy(&x) && truthy(&y)) as i64),
            },
            Expr::Or(a, b) => match (a.eval(table, row)?, b.eval(table, row)?) {
                (Value::Null, y) => {
                    if truthy(&y) {
                        Value::Int(1)
                    } else {
                        Value::Null
                    }
                }
                (x, Value::Null) => {
                    if truthy(&x) {
                        Value::Int(1)
                    } else {
                        Value::Null
                    }
                }
                (x, y) => Value::Int((truthy(&x) || truthy(&y)) as i64),
            },
            Expr::Not(a) => match a.eval(table, row)? {
                Value::Null => Value::Null,
                x => Value::Int(!truthy(&x) as i64),
            },
            Expr::IsNull(a) => Value::Int(a.eval(table, row)?.is_null() as i64),
        })
    }

    /// Evaluate as a filter predicate (NULL ⇒ row rejected, SQL semantics).
    pub fn matches(&self, table: &Table, row: usize) -> Result<bool> {
        Ok(match self.eval(table, row)? {
            Value::Null => false,
            v => truthy(&v),
        })
    }
}

fn truthy(v: &Value) -> bool {
    match v {
        Value::Int(x) => *x != 0,
        Value::Float(x) => *x != 0.0,
        Value::Str(s) => !s.is_empty(),
        Value::Bytes(b) => !b.is_empty(),
        Value::Null => false,
    }
}

/// Rows per block in the vectorized filter kernel.
pub const FILTER_BLOCK: usize = 1024;

/// A filter compiled to column-at-a-time block kernels.
///
/// Each node evaluates a whole block of rows into a pair of byte masks —
/// `v` (the boolean value) and `k` (known, i.e. not SQL NULL) — so the
/// per-row work is a branch-free loop over primitive slices instead of a
/// tree walk allocating `Value`s. The `(v, k)` algebra reproduces
/// [`Expr::eval`]'s three-valued logic exactly (including its non-Kleene
/// `And`, which yields NULL whenever either side is NULL); a row is kept
/// iff `v & k`, matching [`Expr::matches`].
enum Kernel {
    /// Constant boolean, or constant NULL when `k == 0`.
    Const {
        v: u8,
        k: u8,
    },
    /// Int column compared against an int literal (exact `i64` ordering).
    CmpII {
        col: usize,
        op: CmpOp,
        lit: i64,
    },
    /// Int column widened to `f64` against a float literal.
    CmpIF {
        col: usize,
        op: CmpOp,
        lit: f64,
    },
    /// Float column against a (non-NaN) numeric literal.
    CmpFF {
        col: usize,
        op: CmpOp,
        lit: f64,
    },
    /// String column against a string literal.
    CmpSS {
        col: usize,
        op: CmpOp,
        lit: String,
    },
    /// Int column in boolean position (`truthy`).
    TruthyI {
        col: usize,
    },
    /// Float column in boolean position (`truthy`; NaN is truthy).
    TruthyF {
        col: usize,
    },
    /// String column in boolean position (`truthy` = non-empty).
    TruthyS {
        col: usize,
    },
    IsNull(Box<Kernel>),
    And(Box<Kernel>, Box<Kernel>),
    Or(Box<Kernel>, Box<Kernel>),
    Not(Box<Kernel>),
}

/// Scratch `(v, k)` buffers reused across blocks and tree levels.
struct BufPool(Vec<Vec<u8>>);

impl BufPool {
    fn get(&mut self) -> Vec<u8> {
        self.0.pop().unwrap_or_else(|| vec![0u8; FILTER_BLOCK])
    }

    fn put(&mut self, b: Vec<u8>) {
        self.0.push(b);
    }
}

impl Kernel {
    /// Compile `e` for `table`, or `None` when the shape isn't kernelizable
    /// (column-vs-column compares, `Bytes` columns, unknown columns — the
    /// caller falls back to row-wise evaluation, which also surfaces any
    /// error exactly as before).
    fn compile(e: &Expr, table: &Table) -> Option<Kernel> {
        match e {
            Expr::Literal(v) => Some(Kernel::Const {
                v: truthy(v) as u8,
                k: !v.is_null() as u8,
            }),
            Expr::Column(name) => {
                let col = table.schema.field_index(name)?;
                match table.columns[col].data() {
                    ColumnData::Int(_) => Some(Kernel::TruthyI { col }),
                    ColumnData::Float(_) => Some(Kernel::TruthyF { col }),
                    ColumnData::Str(_) => Some(Kernel::TruthyS { col }),
                    ColumnData::Bytes(_) => None,
                }
            }
            Expr::Cmp(op, a, b) => {
                let (op, name, lit) = match (a.as_ref(), b.as_ref()) {
                    (Expr::Column(c), Expr::Literal(l)) => (*op, c, l),
                    (Expr::Literal(l), Expr::Column(c)) => (op.flip(), c, l),
                    _ => return None,
                };
                let col = table.schema.field_index(name)?;
                // NULL propagation: a NULL literal — or a type pairing
                // `Value::compare` can never order (NaN literal, int/float
                // vs string, …) — makes the comparison NULL on every row.
                const NULL: Kernel = Kernel::Const { v: 0, k: 0 };
                match (table.columns[col].data(), lit) {
                    (ColumnData::Bytes(_), _) => None,
                    (_, Value::Null) => Some(NULL),
                    (ColumnData::Int(_), Value::Int(l)) => Some(Kernel::CmpII { col, op, lit: *l }),
                    (ColumnData::Int(_), Value::Float(l)) => Some(if l.is_nan() {
                        NULL
                    } else {
                        Kernel::CmpIF { col, op, lit: *l }
                    }),
                    (ColumnData::Float(_), Value::Int(l)) => Some(Kernel::CmpFF {
                        col,
                        op,
                        lit: *l as f64,
                    }),
                    (ColumnData::Float(_), Value::Float(l)) => Some(if l.is_nan() {
                        NULL
                    } else {
                        Kernel::CmpFF { col, op, lit: *l }
                    }),
                    (ColumnData::Str(_), Value::Str(l)) => Some(Kernel::CmpSS {
                        col,
                        op,
                        lit: l.clone(),
                    }),
                    _ => Some(NULL),
                }
            }
            Expr::And(a, b) => Some(Kernel::And(
                Box::new(Kernel::compile(a, table)?),
                Box::new(Kernel::compile(b, table)?),
            )),
            Expr::Or(a, b) => Some(Kernel::Or(
                Box::new(Kernel::compile(a, table)?),
                Box::new(Kernel::compile(b, table)?),
            )),
            Expr::Not(a) => Some(Kernel::Not(Box::new(Kernel::compile(a, table)?))),
            Expr::IsNull(a) => Some(Kernel::IsNull(Box::new(Kernel::compile(a, table)?))),
        }
    }

    /// Evaluate rows `base..base + len` into `v[..len]` / `k[..len]`.
    /// All produced bytes are strictly 0 or 1.
    fn eval_block(
        &self,
        table: &Table,
        base: usize,
        len: usize,
        v: &mut [u8],
        k: &mut [u8],
        pool: &mut BufPool,
    ) {
        match self {
            Kernel::Const { v: cv, k: ck } => {
                v[..len].fill(*cv);
                k[..len].fill(*ck);
            }
            Kernel::CmpII { col, op, lit } => {
                let c = &table.columns[*col];
                let ColumnData::Int(d) = c.data() else {
                    unreachable!("compile checked the column type")
                };
                cmp_int_block(&d[base..base + len], &c.nulls()[base..], *op, *lit, v, k);
            }
            Kernel::CmpIF { col, op, lit } => {
                let c = &table.columns[*col];
                let ColumnData::Int(d) = c.data() else {
                    unreachable!("compile checked the column type")
                };
                cmp_int_float_block(&d[base..base + len], &c.nulls()[base..], *op, *lit, v, k);
            }
            Kernel::CmpFF { col, op, lit } => {
                let c = &table.columns[*col];
                let ColumnData::Float(d) = c.data() else {
                    unreachable!("compile checked the column type")
                };
                cmp_float_block(&d[base..base + len], &c.nulls()[base..], *op, *lit, v, k);
            }
            Kernel::CmpSS { col, op, lit } => {
                let c = &table.columns[*col];
                let ColumnData::Str(d) = c.data() else {
                    unreachable!("compile checked the column type")
                };
                cmp_str_block(&d[base..base + len], &c.nulls()[base..], *op, lit, v, k);
            }
            Kernel::TruthyI { col } => {
                let c = &table.columns[*col];
                let ColumnData::Int(d) = c.data() else {
                    unreachable!("compile checked the column type")
                };
                let (d, nulls) = (&d[base..base + len], &c.nulls()[base..]);
                for i in 0..len {
                    v[i] = (d[i] != 0) as u8;
                    k[i] = !nulls[i] as u8;
                }
            }
            Kernel::TruthyF { col } => {
                let c = &table.columns[*col];
                let ColumnData::Float(d) = c.data() else {
                    unreachable!("compile checked the column type")
                };
                let (d, nulls) = (&d[base..base + len], &c.nulls()[base..]);
                for i in 0..len {
                    // NaN != 0.0 is true, matching `truthy`.
                    v[i] = (d[i] != 0.0) as u8;
                    k[i] = !nulls[i] as u8;
                }
            }
            Kernel::TruthyS { col } => {
                let c = &table.columns[*col];
                let ColumnData::Str(d) = c.data() else {
                    unreachable!("compile checked the column type")
                };
                let (d, nulls) = (&d[base..base + len], &c.nulls()[base..]);
                for i in 0..len {
                    v[i] = !d[i].is_empty() as u8;
                    k[i] = !nulls[i] as u8;
                }
            }
            Kernel::IsNull(a) => {
                a.eval_block(table, base, len, v, k, pool);
                for i in 0..len {
                    v[i] = k[i] ^ 1;
                    k[i] = 1;
                }
            }
            Kernel::Not(a) => {
                a.eval_block(table, base, len, v, k, pool);
                for b in v[..len].iter_mut() {
                    *b ^= 1;
                }
            }
            Kernel::And(a, b) => {
                let (mut bv, mut bk) = (pool.get(), pool.get());
                a.eval_block(table, base, len, v, k, pool);
                b.eval_block(table, base, len, &mut bv, &mut bk, pool);
                // Non-Kleene, like `Expr::eval`: NULL on either side wins
                // even when the other side is a known FALSE.
                for i in 0..len {
                    v[i] &= bv[i];
                    k[i] &= bk[i];
                }
                pool.put(bv);
                pool.put(bk);
            }
            Kernel::Or(a, b) => {
                let (mut bv, mut bk) = (pool.get(), pool.get());
                a.eval_block(table, base, len, v, k, pool);
                b.eval_block(table, base, len, &mut bv, &mut bk, pool);
                // Known iff both sides are known or either is a known TRUE.
                for i in 0..len {
                    let (va, ka, vb, kb) = (v[i], k[i], bv[i], bk[i]);
                    v[i] = (ka & va) | (kb & vb);
                    k[i] = (ka & kb) | (ka & va) | (kb & vb);
                }
                pool.put(bv);
                pool.put(bk);
            }
        }
    }
}

fn cmp_int_block(d: &[i64], nulls: &[bool], op: CmpOp, lit: i64, v: &mut [u8], k: &mut [u8]) {
    macro_rules! go {
        ($p:expr) => {{
            let p = $p;
            for i in 0..d.len() {
                v[i] = p(d[i]) as u8;
                k[i] = !nulls[i] as u8;
            }
        }};
    }
    match op {
        CmpOp::Eq => go!(|x: i64| x == lit),
        CmpOp::Ne => go!(|x: i64| x != lit),
        CmpOp::Lt => go!(|x: i64| x < lit),
        CmpOp::Le => go!(|x: i64| x <= lit),
        CmpOp::Gt => go!(|x: i64| x > lit),
        CmpOp::Ge => go!(|x: i64| x >= lit),
    }
}

fn cmp_int_float_block(d: &[i64], nulls: &[bool], op: CmpOp, lit: f64, v: &mut [u8], k: &mut [u8]) {
    // The widened int is never NaN and compile rejected NaN literals, so
    // the comparison is always ordered: known = not null.
    macro_rules! go {
        ($p:expr) => {{
            let p = $p;
            for i in 0..d.len() {
                v[i] = p(d[i] as f64) as u8;
                k[i] = !nulls[i] as u8;
            }
        }};
    }
    match op {
        CmpOp::Eq => go!(|x: f64| x == lit),
        CmpOp::Ne => go!(|x: f64| x != lit),
        CmpOp::Lt => go!(|x: f64| x < lit),
        CmpOp::Le => go!(|x: f64| x <= lit),
        CmpOp::Gt => go!(|x: f64| x > lit),
        CmpOp::Ge => go!(|x: f64| x >= lit),
    }
}

fn cmp_float_block(d: &[f64], nulls: &[bool], op: CmpOp, lit: f64, v: &mut [u8], k: &mut [u8]) {
    // A NaN cell makes `partial_cmp` return `None` → NULL, so NaN rows are
    // unknown; the literal is non-NaN (compile folded that case away).
    macro_rules! go {
        ($p:expr) => {{
            let p = $p;
            for i in 0..d.len() {
                v[i] = p(d[i]) as u8;
                k[i] = (!nulls[i] && !d[i].is_nan()) as u8;
            }
        }};
    }
    match op {
        CmpOp::Eq => go!(|x: f64| x == lit),
        CmpOp::Ne => go!(|x: f64| x != lit),
        CmpOp::Lt => go!(|x: f64| x < lit),
        CmpOp::Le => go!(|x: f64| x <= lit),
        CmpOp::Gt => go!(|x: f64| x > lit),
        CmpOp::Ge => go!(|x: f64| x >= lit),
    }
}

fn cmp_str_block(d: &[String], nulls: &[bool], op: CmpOp, lit: &str, v: &mut [u8], k: &mut [u8]) {
    macro_rules! go {
        ($p:expr) => {{
            let p = $p;
            for i in 0..d.len() {
                v[i] = p(d[i].as_str()) as u8;
                k[i] = !nulls[i] as u8;
            }
        }};
    }
    match op {
        CmpOp::Eq => go!(|x: &str| x == lit),
        CmpOp::Ne => go!(|x: &str| x != lit),
        CmpOp::Lt => go!(|x: &str| x < lit),
        CmpOp::Le => go!(|x: &str| x <= lit),
        CmpOp::Gt => go!(|x: &str| x > lit),
        CmpOp::Ge => go!(|x: &str| x >= lit),
    }
}

/// Scan a table: project `columns` (empty = all) from rows passing `filter`.
pub fn scan(table: &Table, columns: &[String], filter: Option<&Expr>) -> Result<Table> {
    scan_with(table, columns, filter, true)
}

/// [`scan`] with the block filter kernel toggled explicitly. Results are
/// identical either way — the toggle exists for differential testing and
/// the kernel benchmark.
pub fn scan_with(
    table: &Table,
    columns: &[String],
    filter: Option<&Expr>,
    vectorized: bool,
) -> Result<Table> {
    let proj: Vec<usize> = if columns.is_empty() {
        (0..table.schema.len()).collect()
    } else {
        columns
            .iter()
            .map(|c| {
                table
                    .schema
                    .field_index(c)
                    .ok_or_else(|| StorageError::UnknownColumn(c.clone()))
            })
            .collect::<Result<_>>()?
    };
    let fields: Vec<_> = proj
        .iter()
        .map(|&i| table.schema.fields[i].clone())
        .collect();
    let mut out = Table::new(format!("{}_scan", table.name), Schema::new(fields));
    let kernel = match filter {
        Some(f) if vectorized => Kernel::compile(f, table),
        _ => None,
    };
    if let Some(kern) = kernel {
        // Block path: evaluate the predicate column-at-a-time over
        // `FILTER_BLOCK` rows into a selection bitmap, then materialize
        // the selected rows in order.
        let n = table.num_rows();
        let mut pool = BufPool(Vec::new());
        let (mut v, mut k) = (pool.get(), pool.get());
        let mut bitmap = [0u64; FILTER_BLOCK / 64];
        let mut base = 0;
        while base < n {
            let len = FILTER_BLOCK.min(n - base);
            kern.eval_block(table, base, len, &mut v, &mut k, &mut pool);
            bitmap.fill(0);
            for i in 0..len {
                bitmap[i / 64] |= u64::from(v[i] & k[i]) << (i % 64);
            }
            for (wi, &word) in bitmap.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let row = base + wi * 64 + m.trailing_zeros() as usize;
                    out.insert(proj.iter().map(|&i| table.columns[i].get(row)).collect())?;
                    m &= m - 1;
                }
            }
            base += len;
        }
        return Ok(out);
    }
    for row in 0..table.num_rows() {
        let keep = match filter {
            Some(f) => f.matches(table, row)?,
            None => true,
        };
        if keep {
            out.insert(proj.iter().map(|&i| table.columns[i].get(row)).collect())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DataType;

    fn sample() -> Table {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ("id".into(), DataType::Int),
                ("score".into(), DataType::Float),
                ("tag".into(), DataType::Str),
            ]),
        );
        t.insert(vec![1.into(), 0.5.into(), "a".into()]).unwrap();
        t.insert(vec![2.into(), 1.5.into(), "b".into()]).unwrap();
        t.insert(vec![3.into(), Value::Null, "a".into()]).unwrap();
        t.insert(vec![4.into(), 2.5.into(), "c".into()]).unwrap();
        t
    }

    #[test]
    fn comparison_filters() {
        let t = sample();
        let f = Expr::cmp(CmpOp::Gt, Expr::col("score"), Expr::lit(1.0));
        let out = scan(&t, &[], Some(&f)).unwrap();
        assert_eq!(out.num_rows(), 2); // rows 2 and 4; NULL row rejected
        assert_eq!(out.column("id").unwrap().get_int(0), Some(2));
        assert_eq!(out.column("id").unwrap().get_int(1), Some(4));
    }

    #[test]
    fn and_or_not() {
        let t = sample();
        let f = Expr::cmp(CmpOp::Eq, Expr::col("tag"), Expr::lit("a")).and(Expr::cmp(
            CmpOp::Lt,
            Expr::col("id"),
            Expr::lit(3i64),
        ));
        assert_eq!(scan(&t, &[], Some(&f)).unwrap().num_rows(), 1);
        let g = Expr::cmp(CmpOp::Eq, Expr::col("tag"), Expr::lit("b")).or(Expr::cmp(
            CmpOp::Eq,
            Expr::col("tag"),
            Expr::lit("c"),
        ));
        assert_eq!(scan(&t, &[], Some(&g)).unwrap().num_rows(), 2);
        let n = Expr::Not(Box::new(Expr::cmp(
            CmpOp::Eq,
            Expr::col("tag"),
            Expr::lit("a"),
        )));
        assert_eq!(scan(&t, &[], Some(&n)).unwrap().num_rows(), 2);
    }

    #[test]
    fn null_semantics() {
        let t = sample();
        // score > 0 is NULL for row 3 → rejected.
        let f = Expr::cmp(CmpOp::Gt, Expr::col("score"), Expr::lit(0.0));
        assert_eq!(scan(&t, &[], Some(&f)).unwrap().num_rows(), 3);
        // IS NULL finds it.
        let isn = Expr::IsNull(Box::new(Expr::col("score")));
        let out = scan(&t, &[], Some(&isn)).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("id").unwrap().get_int(0), Some(3));
        // NULL OR TRUE = TRUE.
        let or_true = Expr::cmp(CmpOp::Gt, Expr::col("score"), Expr::lit(0.0)).or(Expr::lit(1i64));
        assert_eq!(scan(&t, &[], Some(&or_true)).unwrap().num_rows(), 4);
    }

    #[test]
    fn projection() {
        let t = sample();
        let out = scan(&t, &["tag".into(), "id".into()], None).unwrap();
        assert_eq!(out.schema.len(), 2);
        assert_eq!(out.schema.fields[0].0, "tag");
        assert_eq!(out.num_rows(), 4);
        assert!(scan(&t, &["nope".into()], None).is_err());
    }

    #[test]
    fn mixed_numeric_comparison() {
        let t = sample();
        // Int literal against float column.
        let f = Expr::cmp(CmpOp::Ge, Expr::col("score"), Expr::lit(2i64));
        assert_eq!(scan(&t, &[], Some(&f)).unwrap().num_rows(), 1);
    }

    /// Schema + cell-exact equality; floats compare by bit pattern so NaN
    /// cells don't make identical tables "unequal".
    fn assert_tables_bit_equal(a: &Table, b: &Table, ctx: &str) {
        assert_eq!(a.schema, b.schema, "{ctx}: schema");
        assert_eq!(a.num_rows(), b.num_rows(), "{ctx}: row count");
        for (ca, cb) in a.columns.iter().zip(&b.columns) {
            assert_eq!(ca.nulls(), cb.nulls(), "{ctx}: null bitmap");
            match (ca.data(), cb.data()) {
                (ColumnData::Float(da), ColumnData::Float(db)) => {
                    let ba: Vec<u64> = da.iter().map(|x| x.to_bits()).collect();
                    let bb: Vec<u64> = db.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(ba, bb, "{ctx}: float bits");
                }
                (da, db) => assert_eq!(da, db, "{ctx}: column data"),
            }
        }
    }

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 11
    }

    /// A random table of > [`FILTER_BLOCK`] rows with nulls and NaN cells,
    /// so block boundaries, the ragged tail, and unknown-propagation all
    /// get exercised.
    fn random_table(seed: &mut u64, rows: usize) -> Table {
        let mut t = Table::new(
            "r",
            Schema::new(vec![
                ("a".into(), DataType::Int),
                ("b".into(), DataType::Float),
                ("c".into(), DataType::Str),
            ]),
        );
        let tags = ["", "x", "yy", "zzz"];
        for _ in 0..rows {
            let a = match lcg(seed) % 10 {
                0 => Value::Null,
                r => Value::Int((r as i64) - 5),
            };
            let b = match lcg(seed) % 12 {
                0 => Value::Null,
                1 => Value::Float(f64::NAN),
                r => Value::Float((r as f64) / 3.0 - 1.5),
            };
            let c = match lcg(seed) % 10 {
                0 => Value::Null,
                r => Value::Str(tags[(r as usize) % tags.len()].into()),
            };
            t.insert(vec![a, b, c]).unwrap();
        }
        t
    }

    /// A random expression tree over the `random_table` columns, including
    /// shapes the kernel must constant-fold (NULL literals, incomparable
    /// type pairs) or reject entirely (column-vs-column compares).
    fn random_expr(seed: &mut u64, depth: usize) -> Expr {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let op = ops[(lcg(seed) % 6) as usize];
        if depth == 0 || lcg(seed).is_multiple_of(3) {
            return match lcg(seed) % 12 {
                0 => Expr::cmp(op, Expr::col("a"), Expr::lit(0i64)),
                1 => Expr::cmp(op, Expr::col("a"), Expr::lit(0.5)),
                2 => Expr::cmp(op, Expr::lit(-1i64), Expr::col("a")),
                3 => Expr::cmp(op, Expr::col("b"), Expr::lit(0.25)),
                4 => Expr::cmp(op, Expr::col("b"), Expr::lit(1i64)),
                5 => Expr::cmp(op, Expr::lit(f64::NAN), Expr::col("b")),
                6 => Expr::cmp(op, Expr::col("c"), Expr::lit("x")),
                7 => Expr::cmp(op, Expr::col("c"), Expr::lit(3i64)), // incomparable
                8 => Expr::cmp(op, Expr::col("a"), Expr::Literal(Value::Null)),
                9 => Expr::IsNull(Box::new(Expr::col("b"))),
                10 => Expr::col("a"),
                _ => Expr::lit((lcg(seed) % 2) as i64),
            };
        }
        match lcg(seed) % 4 {
            0 => random_expr(seed, depth - 1).and(random_expr(seed, depth - 1)),
            1 => random_expr(seed, depth - 1).or(random_expr(seed, depth - 1)),
            2 => Expr::Not(Box::new(random_expr(seed, depth - 1))),
            _ => Expr::IsNull(Box::new(random_expr(seed, depth - 1))),
        }
    }

    #[test]
    fn block_kernel_matches_row_wise_on_random_trees() {
        let mut seed = 0x5eed_cafe_u64;
        let t = random_table(&mut seed, FILTER_BLOCK * 2 + 137);
        for case in 0..60 {
            let f = random_expr(&mut seed, 3);
            let fast = scan_with(&t, &[], Some(&f), true).unwrap();
            let slow = scan_with(&t, &[], Some(&f), false).unwrap();
            assert_tables_bit_equal(&fast, &slow, &format!("case {case}: {f:?}"));
        }
    }

    #[test]
    fn block_kernel_handles_block_boundaries_and_projection() {
        let mut seed = 97531u64;
        // Exactly one block, one block ± 1, and a tiny table.
        for rows in [1, FILTER_BLOCK - 1, FILTER_BLOCK, FILTER_BLOCK + 1] {
            let t = random_table(&mut seed, rows);
            let f = Expr::cmp(CmpOp::Ge, Expr::col("a"), Expr::lit(0i64))
                .or(Expr::IsNull(Box::new(Expr::col("b"))));
            let cols: Vec<String> = vec!["c".into(), "a".into()];
            let fast = scan_with(&t, &cols, Some(&f), true).unwrap();
            let slow = scan_with(&t, &cols, Some(&f), false).unwrap();
            assert_tables_bit_equal(&fast, &slow, &format!("rows {rows}"));
        }
    }

    #[test]
    fn unsupported_shapes_fall_back_row_wise() {
        let t = sample();
        // Column-vs-column compares are not kernelized; results still match.
        let f = Expr::cmp(CmpOp::Lt, Expr::col("id"), Expr::col("score"));
        let fast = scan_with(&t, &[], Some(&f), true).unwrap();
        let slow = scan_with(&t, &[], Some(&f), false).unwrap();
        assert_tables_bit_equal(&fast, &slow, "col-vs-col");
        // Unknown columns must still error through the fallback.
        let bad = Expr::cmp(CmpOp::Eq, Expr::col("nope"), Expr::lit(1i64));
        assert!(scan_with(&t, &[], Some(&bad), true).is_err());
    }

    #[test]
    fn existing_semantics_survive_the_kernel_path() {
        // Every handwritten scenario above, run through both paths.
        let t = sample();
        let exprs = [
            Expr::cmp(CmpOp::Gt, Expr::col("score"), Expr::lit(1.0)),
            Expr::cmp(CmpOp::Eq, Expr::col("tag"), Expr::lit("a")).and(Expr::cmp(
                CmpOp::Lt,
                Expr::col("id"),
                Expr::lit(3i64),
            )),
            Expr::Not(Box::new(Expr::cmp(
                CmpOp::Eq,
                Expr::col("tag"),
                Expr::lit("a"),
            ))),
            Expr::IsNull(Box::new(Expr::col("score"))),
            Expr::cmp(CmpOp::Gt, Expr::col("score"), Expr::lit(0.0)).or(Expr::lit(1i64)),
            Expr::cmp(CmpOp::Ge, Expr::col("score"), Expr::lit(2i64)),
        ];
        for (i, f) in exprs.iter().enumerate() {
            let fast = scan_with(&t, &[], Some(f), true).unwrap();
            let slow = scan_with(&t, &[], Some(f), false).unwrap();
            assert_tables_bit_equal(&fast, &slow, &format!("expr {i}"));
        }
    }
}
