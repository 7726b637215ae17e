//! Query results and comparison helpers.

/// The result of one SSB query: either a scalar aggregate (flight 1) or a
/// grouped aggregate. Group keys are dense-coded attribute values in join
/// order; rows are sorted by key so results compare structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    Scalar(i64),
    Groups(Vec<(Vec<i32>, i64)>),
}

impl QueryResult {
    /// Builds a grouped result from an unsorted `(key, sum)` iterator,
    /// dropping zero groups and sorting by key.
    pub fn from_groups(groups: impl IntoIterator<Item = (Vec<i32>, i64)>) -> Self {
        let mut rows: Vec<(Vec<i32>, i64)> = groups.into_iter().filter(|(_, s)| *s != 0).collect();
        rows.sort();
        QueryResult::Groups(rows)
    }

    /// Number of output rows (1 for scalars).
    pub fn rows(&self) -> usize {
        match self {
            QueryResult::Scalar(_) => 1,
            QueryResult::Groups(g) => g.len(),
        }
    }

    /// Sum over all groups (a checksum for cross-engine comparisons).
    pub fn checksum(&self) -> i64 {
        match self {
            QueryResult::Scalar(s) => *s,
            QueryResult::Groups(g) => g.iter().map(|(_, s)| s).sum(),
        }
    }
}

impl std::fmt::Display for QueryResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryResult::Scalar(s) => write!(f, "scalar: {s}"),
            QueryResult::Groups(g) => write!(f, "{} groups, checksum {}", g.len(), self.checksum()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_are_sorted_and_nonzero() {
        let r = QueryResult::from_groups(vec![(vec![2, 1], 10), (vec![1, 5], 7), (vec![1, 2], 0)]);
        match &r {
            QueryResult::Groups(g) => {
                assert_eq!(g.len(), 2);
                assert_eq!(g[0].0, vec![1, 5]);
            }
            _ => panic!("expected groups"),
        }
        assert_eq!(r.checksum(), 17);
        assert_eq!(r.rows(), 2);
    }

    #[test]
    fn scalar_checksum() {
        let r = QueryResult::Scalar(-3);
        assert_eq!(r.checksum(), -3);
        assert_eq!(r.rows(), 1);
    }
}
