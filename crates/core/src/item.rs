//! Items and the item catalog.
//!
//! Section 2: "we are given a set T of n items, each item being described by a
//! set of m features … without loss of generality, we assume all feature
//! values are non-negative real numbers."

use std::sync::OnceLock;

use pkgrec_topk::SortedLists;
use serde::json_model::Value;
use serde::{DeError, Deserialize, Serialize};

use crate::error::{CoreError, Result};

/// Identifier of an item: its index in the catalog.
pub type ItemId = usize;

/// The catalog `T` of items the packages are assembled from.
///
/// Items are stored densely as rows of a feature matrix; feature names are
/// optional metadata used by examples and experiment output.
///
/// A catalog also carries its per-feature [`SortedLists`] index, built on
/// the first [`Catalog::sorted_lists`] call.  The index is derived state:
/// equality and serialisation see only the names and rows.  Every engine
/// and baseline session over one `Arc<Catalog>` therefore searches one
/// index instead of sorting a copy of its own.
#[derive(Debug, Clone)]
pub struct Catalog {
    feature_names: Vec<String>,
    rows: Vec<Vec<f64>>,
    sorted_lists: OnceLock<SortedLists>,
}

impl PartialEq for Catalog {
    fn eq(&self, other: &Self) -> bool {
        self.feature_names == other.feature_names && self.rows == other.rows
    }
}

impl Serialize for Catalog {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("feature_names".into(), self.feature_names.to_json_value()),
            ("rows".into(), self.rows.to_json_value()),
        ])
    }
}

/// Deserialisation runs [`Catalog::new`]'s checks, so a catalog read off
/// the wire, out of a journal or from a snapshot is as valid as one built
/// in code; a defect surfaces as the same [`CoreError`], rendered.
impl Deserialize for Catalog {
    fn from_json_value(v: &Value) -> std::result::Result<Self, DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| DeError::expected("an object", v))?;
        Catalog::new(
            Deserialize::from_json_value(serde::get_field(entries, "feature_names")?)?,
            Deserialize::from_json_value(serde::get_field(entries, "rows")?)?,
        )
        .map_err(|e| DeError(format!("invalid catalog: {e}")))
    }
}

impl Catalog {
    /// Creates a catalog from a dense feature matrix.
    ///
    /// Every row must have the same length and every value must be finite and
    /// non-negative (the paper's standing assumption).
    pub fn new(feature_names: Vec<String>, rows: Vec<Vec<f64>>) -> Result<Self> {
        if rows.is_empty() {
            return Err(CoreError::EmptyCatalog);
        }
        let m = feature_names.len();
        if m == 0 {
            return Err(CoreError::DimensionMismatch {
                expected: 1,
                actual: 0,
            });
        }
        for row in &rows {
            if row.len() != m {
                return Err(CoreError::DimensionMismatch {
                    expected: m,
                    actual: row.len(),
                });
            }
            if row.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(CoreError::InvalidConfig(
                    "item feature values must be finite and non-negative".into(),
                ));
            }
        }
        Ok(Catalog {
            feature_names,
            rows,
            sorted_lists: OnceLock::new(),
        })
    }

    /// Creates a catalog with auto-generated feature names `f1..fm`.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self> {
        let m = rows.first().map(|r| r.len()).unwrap_or(0);
        Catalog::new((1..=m).map(|i| format!("f{i}")).collect(), rows)
    }

    /// Number of items `n`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the catalog is empty (never true for a validated catalog).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of features `m`.
    pub fn num_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Names of the features.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The feature vector of an item.
    pub fn item(&self, id: ItemId) -> Result<&[f64]> {
        self.rows
            .get(id)
            .map(|r| r.as_slice())
            .ok_or(CoreError::UnknownItem(id))
    }

    /// The feature vector of an item without bounds checking the id
    /// (panics on an invalid id).
    pub fn item_unchecked(&self, id: ItemId) -> &[f64] {
        &self.rows[id]
    }

    /// All rows of the catalog.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// The per-feature sorted item lists every `Top-k-Pkg` run over this
    /// catalog scans, built on first use and shared by every holder of the
    /// catalog (the order is weight-independent; only scan directions vary
    /// per weight vector).
    pub fn sorted_lists(&self) -> &SortedLists {
        self.sorted_lists
            .get_or_init(|| SortedLists::new(&self.rows))
    }

    /// Iterator over `(id, feature vector)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ItemId, &[f64])> + '_ {
        self.rows.iter().enumerate().map(|(i, r)| (i, r.as_slice()))
    }

    /// Per-feature maximum item value (used for normalising aggregates).
    pub fn feature_maxima(&self) -> Vec<f64> {
        let mut max = vec![0.0f64; self.num_features()];
        for row in &self.rows {
            for (j, v) in row.iter().enumerate() {
                if *v > max[j] {
                    max[j] = *v;
                }
            }
        }
        max
    }

    /// Per-feature minimum item value.
    pub fn feature_minima(&self) -> Vec<f64> {
        let mut min = vec![f64::INFINITY; self.num_features()];
        for row in &self.rows {
            for (j, v) in row.iter().enumerate() {
                if *v < min[j] {
                    min[j] = *v;
                }
            }
        }
        min
    }

    /// The `count` largest values of a feature, in non-increasing order
    /// (used to bound the best possible `sum` aggregate of a package).
    pub fn top_values(&self, feature: usize, count: usize) -> Vec<f64> {
        let mut values: Vec<f64> = self.rows.iter().map(|r| r[feature]).collect();
        values.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        values.truncate(count);
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        // The three items of Figure 1(a): f1 = cost, f2 = rating.
        Catalog::new(
            vec!["cost".into(), "rating".into()],
            vec![vec![0.6, 0.2], vec![0.4, 0.4], vec![0.2, 0.4]],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert_eq!(
            Catalog::from_rows(vec![]).unwrap_err(),
            CoreError::EmptyCatalog
        );
        assert!(matches!(
            Catalog::new(vec![], vec![vec![]]),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Catalog::new(vec!["a".into()], vec![vec![1.0, 2.0]]),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(Catalog::from_rows(vec![vec![-1.0]]).is_err());
        assert!(Catalog::from_rows(vec![vec![f64::NAN]]).is_err());
    }

    #[test]
    fn accessors_expose_shape_and_rows() {
        let c = catalog();
        assert_eq!(c.len(), 3);
        assert_eq!(c.num_features(), 2);
        assert_eq!(
            c.feature_names(),
            &["cost".to_string(), "rating".to_string()]
        );
        assert_eq!(c.item(0).unwrap(), &[0.6, 0.2]);
        assert_eq!(c.item_unchecked(2), &[0.2, 0.4]);
        assert!(matches!(c.item(9), Err(CoreError::UnknownItem(9))));
        assert_eq!(c.iter().count(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn default_feature_names() {
        let c = Catalog::from_rows(vec![vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(
            c.feature_names(),
            &["f1".to_string(), "f2".into(), "f3".into()]
        );
    }

    #[test]
    fn feature_extrema() {
        let c = catalog();
        assert_eq!(c.feature_maxima(), vec![0.6, 0.4]);
        assert_eq!(c.feature_minima(), vec![0.2, 0.2]);
    }

    /// Deserialisation refuses every catalog `Catalog::new` refuses, with
    /// `new`'s own error: a ragged row, rows narrower or wider than the
    /// feature names, a negative feature, no items, no features.
    #[test]
    fn deserialisation_applies_the_constructor_checks() {
        let names = r#""feature_names":["cost","rating"]"#;
        let cases = [
            (
                format!(r#"{{{names},"rows":[[0.5,0.2],[0.1]]}}"#),
                CoreError::DimensionMismatch {
                    expected: 2,
                    actual: 1,
                },
            ),
            (
                format!(r#"{{{names},"rows":[[0.5,0.2],[0.1,0.3,0.7]]}}"#),
                CoreError::DimensionMismatch {
                    expected: 2,
                    actual: 3,
                },
            ),
            (
                format!(r#"{{{names},"rows":[[0.5,-0.2]]}}"#),
                CoreError::InvalidConfig(
                    "item feature values must be finite and non-negative".into(),
                ),
            ),
            (format!(r#"{{{names},"rows":[]}}"#), CoreError::EmptyCatalog),
            (
                r#"{"feature_names":[],"rows":[[]]}"#.to_string(),
                CoreError::DimensionMismatch {
                    expected: 1,
                    actual: 0,
                },
            ),
        ];
        for (json, expected) in cases {
            let error = serde_json::from_str::<Catalog>(&json).unwrap_err();
            assert_eq!(error.0, format!("invalid catalog: {expected}"), "{json}");
        }
    }

    #[test]
    fn serialisation_leaves_out_the_sorted_lists() {
        let c = catalog();
        assert_eq!(c.sorted_lists(), &SortedLists::new(c.rows()));
        let json = serde_json::to_string(&c).unwrap();
        assert_eq!(
            json,
            r#"{"feature_names":["cost","rating"],"rows":[[0.6,0.2],[0.4,0.4],[0.2,0.4]]}"#
        );
        assert_eq!(serde_json::from_str::<Catalog>(&json).unwrap(), c);
    }

    #[test]
    fn top_values_returns_sorted_prefix() {
        let c = catalog();
        assert_eq!(c.top_values(0, 2), vec![0.6, 0.4]);
        assert_eq!(c.top_values(1, 5), vec![0.4, 0.4, 0.2]);
        assert!(c.top_values(0, 0).is_empty());
    }
}
