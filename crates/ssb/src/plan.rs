//! Star-query plan descriptors.
//!
//! Each SSB query is described once as a [`StarQuery`]: range predicates on
//! fact columns (the paper rewrites the q1.x date filters into direct
//! `lo_orderdate` ranges, Figure 2), an *ordered* list of dimension joins
//! (the paper picks join orders explicitly — q2.1 joins supplier, then
//! part, then date, Section 5.3), an aggregate expression and group-by
//! attributes. Every engine interprets the same descriptor in its own
//! execution style.

use crate::data::SsbData;

/// Fact-table columns used by the benchmark queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactCol {
    OrderDate,
    CustKey,
    PartKey,
    SuppKey,
    Quantity,
    Discount,
    ExtendedPrice,
    Revenue,
    SupplyCost,
}

impl FactCol {
    /// Every fact column, in storage order — the index space of
    /// per-column encoding descriptors ([`crate::encoding::FactEncodings`]).
    pub const ALL: [FactCol; 9] = [
        FactCol::OrderDate,
        FactCol::CustKey,
        FactCol::PartKey,
        FactCol::SuppKey,
        FactCol::Quantity,
        FactCol::Discount,
        FactCol::ExtendedPrice,
        FactCol::Revenue,
        FactCol::SupplyCost,
    ];

    /// The column's position in [`FactCol::ALL`].
    #[inline]
    pub fn index(&self) -> usize {
        match self {
            FactCol::OrderDate => 0,
            FactCol::CustKey => 1,
            FactCol::PartKey => 2,
            FactCol::SuppKey => 3,
            FactCol::Quantity => 4,
            FactCol::Discount => 5,
            FactCol::ExtendedPrice => 6,
            FactCol::Revenue => 7,
            FactCol::SupplyCost => 8,
        }
    }

    /// The column's data within a generated database.
    pub fn data<'a>(&self, d: &'a SsbData) -> &'a [i32] {
        let lo = &d.lineorder;
        match self {
            FactCol::OrderDate => &lo.orderdate,
            FactCol::CustKey => &lo.custkey,
            FactCol::PartKey => &lo.partkey,
            FactCol::SuppKey => &lo.suppkey,
            FactCol::Quantity => &lo.quantity,
            FactCol::Discount => &lo.discount,
            FactCol::ExtendedPrice => &lo.extendedprice,
            FactCol::Revenue => &lo.revenue,
            FactCol::SupplyCost => &lo.supplycost,
        }
    }
}

/// An inclusive range predicate on a fact column.
#[derive(Debug, Clone, Copy)]
pub struct FactPred {
    pub col: FactCol,
    pub lo: i32,
    pub hi: i32,
}

impl FactPred {
    pub fn between(col: FactCol, lo: i32, hi: i32) -> Self {
        FactPred { col, lo, hi }
    }

    #[inline]
    pub fn matches(&self, v: i32) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

/// Dimension tables of the star schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimTable {
    Date,
    Part,
    Supplier,
    Customer,
}

/// Filterable / groupable dimension attributes (all dictionary codes or
/// small integers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DimAttr {
    Year,
    YearMonthNum,
    WeekNumInYear,
    Mfgr,
    Category,
    Brand1,
    Region,
    Nation,
    City,
}

impl DimAttr {
    /// Number of distinct dense codes (for direct-indexed aggregates).
    pub const fn domain(&self) -> usize {
        match self {
            DimAttr::Year => 7,
            DimAttr::YearMonthNum => 7 * 12,
            DimAttr::WeekNumInYear => 53,
            DimAttr::Mfgr => 5,
            DimAttr::Category => 25,
            DimAttr::Brand1 => 1000,
            DimAttr::Region => 5,
            DimAttr::Nation => 25,
            DimAttr::City => 250,
        }
    }

    /// Dense code of an attribute value.
    #[inline]
    pub fn dense(&self, value: i32) -> usize {
        match self {
            DimAttr::Year => (value - 1992) as usize,
            DimAttr::YearMonthNum => ((value / 100 - 1992) * 12 + value % 100 - 1) as usize,
            DimAttr::WeekNumInYear => (value - 1) as usize,
            _ => value as usize,
        }
    }

    /// Inverse of [`DimAttr::dense`].
    pub fn from_dense(&self, dense: usize) -> i32 {
        match self {
            DimAttr::Year => dense as i32 + 1992,
            DimAttr::YearMonthNum => {
                let y = dense as i32 / 12 + 1992;
                let m = dense as i32 % 12 + 1;
                y * 100 + m
            }
            DimAttr::WeekNumInYear => dense as i32 + 1,
            _ => dense as i32,
        }
    }

    /// The attribute column of its dimension table.
    pub fn data<'a>(&self, d: &'a SsbData, table: DimTable) -> &'a [i32] {
        match (table, self) {
            (DimTable::Date, DimAttr::Year) => &d.date.year,
            (DimTable::Date, DimAttr::YearMonthNum) => &d.date.yearmonthnum,
            (DimTable::Date, DimAttr::WeekNumInYear) => &d.date.weeknuminyear,
            (DimTable::Part, DimAttr::Mfgr) => &d.part.mfgr,
            (DimTable::Part, DimAttr::Category) => &d.part.category,
            (DimTable::Part, DimAttr::Brand1) => &d.part.brand1,
            (DimTable::Supplier, DimAttr::Region) => &d.supplier.region,
            (DimTable::Supplier, DimAttr::Nation) => &d.supplier.nation,
            (DimTable::Supplier, DimAttr::City) => &d.supplier.city,
            (DimTable::Customer, DimAttr::Region) => &d.customer.region,
            (DimTable::Customer, DimAttr::Nation) => &d.customer.nation,
            (DimTable::Customer, DimAttr::City) => &d.customer.city,
            (t, a) => panic!("attribute {a:?} is not part of {t:?}"),
        }
    }
}

/// A predicate over one dimension attribute (compared and hashed by value:
/// with its table, the exact key of a cached membership bitmap).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DimPred {
    Eq(DimAttr, i32),
    Between(DimAttr, i32, i32),
    In(DimAttr, Vec<i32>),
}

impl DimPred {
    pub fn attr(&self) -> DimAttr {
        match self {
            DimPred::Eq(a, _) | DimPred::Between(a, _, _) => *a,
            DimPred::In(a, _) => *a,
        }
    }

    #[inline]
    pub fn matches(&self, v: i32) -> bool {
        match self {
            DimPred::Eq(_, x) => v == *x,
            DimPred::Between(_, lo, hi) => (*lo..=*hi).contains(&v),
            DimPred::In(_, set) => set.contains(&v),
        }
    }
}

/// One dimension join of a star query.
#[derive(Debug, Clone)]
pub struct DimJoin {
    pub table: DimTable,
    /// The fact-table foreign key column.
    pub fact_fk: FactCol,
    /// Optional filter on the dimension (rows failing it drop out of the
    /// join).
    pub filter: Option<DimPred>,
    /// Optional attribute carried into the group-by key.
    pub group_attr: Option<DimAttr>,
}

impl DimJoin {
    /// The dimension's primary-key column.
    pub fn keys<'a>(&self, d: &'a SsbData) -> &'a [i32] {
        match self.table {
            DimTable::Date => &d.date.datekey,
            DimTable::Part => &d.part.partkey,
            DimTable::Supplier => &d.supplier.suppkey,
            DimTable::Customer => &d.customer.custkey,
        }
    }

    /// Whether a dimension row passes this join's filter.
    pub fn row_matches(&self, d: &SsbData, row: usize) -> bool {
        match &self.filter {
            None => true,
            Some(p) => p.matches(p.attr().data(d, self.table)[row]),
        }
    }

    /// The group-attribute value of a dimension row (0 when ungrouped).
    pub fn row_group_value(&self, d: &SsbData, row: usize) -> i32 {
        match self.group_attr {
            None => 0,
            Some(a) => a.data(d, self.table)[row],
        }
    }
}

/// Aggregate expression over fact columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggExpr {
    /// `SUM(lo_extendedprice * lo_discount)` — the q1.x revenue.
    SumDiscountedPrice,
    /// `SUM(lo_revenue)` — q2.x/q3.x.
    SumRevenue,
    /// `SUM(lo_revenue - lo_supplycost)` — q4.x profit.
    SumProfit,
}

impl AggExpr {
    /// Fact columns the expression reads.
    pub fn columns(&self) -> &'static [FactCol] {
        match self {
            AggExpr::SumDiscountedPrice => &[FactCol::ExtendedPrice, FactCol::Discount],
            AggExpr::SumRevenue => &[FactCol::Revenue],
            AggExpr::SumProfit => &[FactCol::Revenue, FactCol::SupplyCost],
        }
    }

    /// Evaluates the expression for fact row `i`.
    #[inline]
    pub fn eval(&self, d: &SsbData, i: usize) -> i64 {
        let lo = &d.lineorder;
        match self {
            AggExpr::SumDiscountedPrice => lo.extendedprice[i] as i64 * lo.discount[i] as i64,
            AggExpr::SumRevenue => lo.revenue[i] as i64,
            AggExpr::SumProfit => lo.revenue[i] as i64 - lo.supplycost[i] as i64,
        }
    }
}

fn fact_col_name(c: FactCol) -> &'static str {
    match c {
        FactCol::OrderDate => "lo_orderdate",
        FactCol::CustKey => "lo_custkey",
        FactCol::PartKey => "lo_partkey",
        FactCol::SuppKey => "lo_suppkey",
        FactCol::Quantity => "lo_quantity",
        FactCol::Discount => "lo_discount",
        FactCol::ExtendedPrice => "lo_extendedprice",
        FactCol::Revenue => "lo_revenue",
        FactCol::SupplyCost => "lo_supplycost",
    }
}

fn dim_attr_name(table: DimTable, a: DimAttr) -> &'static str {
    let prefix_ok = matches!(
        table,
        DimTable::Date | DimTable::Part | DimTable::Supplier | DimTable::Customer
    );
    debug_assert!(prefix_ok);
    match (table, a) {
        (DimTable::Date, DimAttr::Year) => "d_year",
        (DimTable::Date, DimAttr::YearMonthNum) => "d_yearmonthnum",
        (DimTable::Date, DimAttr::WeekNumInYear) => "d_weeknuminyear",
        (DimTable::Part, DimAttr::Mfgr) => "p_mfgr",
        (DimTable::Part, DimAttr::Category) => "p_category",
        (DimTable::Part, DimAttr::Brand1) => "p_brand1",
        (DimTable::Supplier, DimAttr::Region) => "s_region",
        (DimTable::Supplier, DimAttr::Nation) => "s_nation",
        (DimTable::Supplier, DimAttr::City) => "s_city",
        (DimTable::Customer, DimAttr::Region) => "c_region",
        (DimTable::Customer, DimAttr::Nation) => "c_nation",
        (DimTable::Customer, DimAttr::City) => "c_city",
        _ => "?",
    }
}

/// A full star query: Figure 2 / Figure 17 shapes.
#[derive(Debug, Clone)]
pub struct StarQuery {
    pub name: &'static str,
    /// Predicates evaluated directly on fact columns (q1.x style).
    pub fact_preds: Vec<FactPred>,
    /// Ordered dimension joins (the probe pipeline).
    pub joins: Vec<DimJoin>,
    pub agg: AggExpr,
}

impl StarQuery {
    /// Group-by attributes in output order (the joins that carry one).
    pub fn group_attrs(&self) -> Vec<DimAttr> {
        self.joins.iter().filter_map(|j| j.group_attr).collect()
    }

    /// Mixed-radix size of the dense group domain (1 = scalar aggregate).
    pub fn group_domain(&self) -> usize {
        self.group_attrs()
            .iter()
            .map(|a| a.domain())
            .product::<usize>()
            .max(1)
    }

    /// Renders the plan as the SQL it implements (Figure 2 / Figure 17
    /// style, with dictionary codes in place of string literals).
    pub fn to_sql(&self) -> String {
        let agg = match self.agg {
            AggExpr::SumDiscountedPrice => "SUM(lo_extendedprice * lo_discount)",
            AggExpr::SumRevenue => "SUM(lo_revenue)",
            AggExpr::SumProfit => "SUM(lo_revenue - lo_supplycost)",
        };
        let mut tables = vec!["lineorder".to_string()];
        let mut preds: Vec<String> = Vec::new();
        let mut groups: Vec<String> = Vec::new();
        for p in &self.fact_preds {
            preds.push(format!(
                "{} BETWEEN {} AND {}",
                fact_col_name(p.col),
                p.lo,
                p.hi
            ));
        }
        for j in &self.joins {
            let (table, key) = match j.table {
                DimTable::Date => ("date", "d_datekey"),
                DimTable::Part => ("part", "p_partkey"),
                DimTable::Supplier => ("supplier", "s_suppkey"),
                DimTable::Customer => ("customer", "c_custkey"),
            };
            tables.push(table.to_string());
            preds.push(format!("{} = {key}", fact_col_name(j.fact_fk)));
            if let Some(f) = &j.filter {
                let attr = dim_attr_name(j.table, f.attr());
                preds.push(match f {
                    DimPred::Eq(_, v) => format!("{attr} = {v}"),
                    DimPred::Between(_, lo, hi) => format!("{attr} BETWEEN {lo} AND {hi}"),
                    DimPred::In(_, vs) => format!(
                        "{attr} IN ({})",
                        vs.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
            if let Some(a) = j.group_attr {
                groups.push(dim_attr_name(j.table, a).to_string());
            }
        }
        let mut sql = format!(
            "SELECT {}{agg} AS agg\nFROM {}",
            if groups.is_empty() {
                String::new()
            } else {
                format!("{}, ", groups.join(", "))
            },
            tables.join(", ")
        );
        if !preds.is_empty() {
            sql.push_str(&format!("\nWHERE {}", preds.join("\n  AND ")));
        }
        if !groups.is_empty() {
            sql.push_str(&format!("\nGROUP BY {}", groups.join(", ")));
        }
        sql
    }

    /// Distinct fact columns the query touches, in pipeline order:
    /// predicate columns, then FK columns, then aggregate inputs.
    pub fn fact_columns(&self) -> Vec<FactCol> {
        let mut cols: Vec<FactCol> = Vec::new();
        let mut push = |c: FactCol| {
            if !cols.contains(&c) {
                cols.push(c);
            }
        };
        for p in &self.fact_preds {
            push(p.col);
        }
        for j in &self.joins {
            push(j.fact_fk);
        }
        for &c in self.agg.columns() {
            push(c);
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_codes_roundtrip() {
        for (attr, values) in [
            (DimAttr::Year, vec![1992, 1995, 1998]),
            (DimAttr::YearMonthNum, vec![199201, 199712, 199806]),
            (DimAttr::WeekNumInYear, vec![1, 6, 53]),
            (DimAttr::Brand1, vec![0, 511, 999]),
        ] {
            for v in values {
                let d = attr.dense(v);
                assert!(d < attr.domain(), "{attr:?} {v}");
                assert_eq!(attr.from_dense(d), v);
            }
        }
    }

    #[test]
    fn pred_matching() {
        let p = FactPred::between(FactCol::Discount, 1, 3);
        assert!(p.matches(1) && p.matches(3));
        assert!(!p.matches(0) && !p.matches(4));
        let dp = DimPred::In(DimAttr::City, vec![3, 7]);
        assert!(dp.matches(7) && !dp.matches(4));
    }

    #[test]
    fn sql_rendering_matches_figure2_shape() {
        let d = SsbData::generate_scaled(1, 0.0001, 1);
        let q = crate::queries::query(&d, crate::QueryId::new(1, 1));
        let sql = q.to_sql();
        assert!(sql.contains("SUM(lo_extendedprice * lo_discount)"));
        assert!(sql.contains("lo_orderdate BETWEEN 19930101 AND 19931231"));
        assert!(sql.contains("lo_quantity BETWEEN 1 AND 24"));
        assert!(!sql.contains("GROUP BY"));
        let q21 = crate::queries::query(&d, crate::QueryId::new(2, 1));
        let sql21 = q21.to_sql();
        assert!(sql21.contains("GROUP BY p_brand1, d_year"));
        assert!(sql21.contains("lo_suppkey = s_suppkey"));
        assert!(sql21.contains("s_region = "));
    }

    #[test]
    #[should_panic(expected = "not part of")]
    fn wrong_attr_table_panics() {
        let d = SsbData::generate_scaled(1, 0.0001, 1);
        DimAttr::Brand1.data(&d, DimTable::Supplier);
    }
}
