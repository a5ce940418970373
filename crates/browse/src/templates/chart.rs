//! Graphical interface template (§4).
//!
//! "The graphical interface template permits information to be displayed
//! in bar chart, line chart or pie chart format. Hyperlinks are provided
//! on the graphical data via HTML image maps; clicking on a bar of a bar
//! chart, or a slice of a pie chart shows tuples with the associated
//! value." The library produces the chart *data* — labelled, measured
//! points each carrying the drill-down hyperlink; the HTML renderer turns
//! bar charts into div-bars with links (the image-map analogue).

use crate::hyperlink::Hyperlink;
use crate::templates::Measure;
use banks_storage::{Database, RelationId, StorageError, StorageResult};

/// Chart style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChartKind {
    /// Bar chart.
    Bar,
    /// Line chart.
    Line,
    /// Pie chart.
    Pie,
}

/// Specification: label attribute + measure over one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartSpec {
    /// Relation charted.
    pub relation: RelationId,
    /// Attribute providing point labels (one point per distinct value).
    pub label_attr: u32,
    /// Measured quantity per label.
    pub measure: Measure,
    /// Presentation style.
    pub kind: ChartKind,
}

/// One chart point: a label, its measure, and the image-map hyperlink.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartPoint {
    /// Display label.
    pub label: String,
    /// Measured value.
    pub value: f64,
    /// Fraction of the total (pie-slice angle / bar share).
    pub fraction: f64,
    /// Drill-down link to the tuples behind the point.
    pub link: Hyperlink,
}

/// Evaluated chart.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartData {
    /// Presentation style requested.
    pub kind: ChartKind,
    /// Chart title (relation + attribute).
    pub title: String,
    /// The points, sorted by label.
    pub points: Vec<ChartPoint>,
    /// Sum of all point values.
    pub total: f64,
}

/// Evaluate a chart template.
pub(crate) fn evaluate(db: &Database, spec: &ChartSpec) -> StorageResult<ChartData> {
    let table = db.table(spec.relation);
    let schema = table.schema();
    if spec.label_attr as usize >= schema.arity() {
        return Err(StorageError::UnknownColumn {
            relation: schema.name.clone(),
            column: format!("#{}", spec.label_attr),
        });
    }
    let mut groups: Vec<(banks_storage::Value, f64)> = Vec::new();
    for (_, tuple) in table.scan() {
        let label = tuple.values()[spec.label_attr as usize].clone();
        match groups.iter_mut().find(|(g, _)| *g == label) {
            Some((_, acc)) => spec.measure.add(acc, tuple.values()),
            None => {
                let mut acc = 0.0;
                spec.measure.add(&mut acc, tuple.values());
                groups.push((label, acc));
            }
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let total: f64 = groups.iter().map(|(_, v)| v).sum();
    let points = groups
        .into_iter()
        .map(|(value, measured)| ChartPoint {
            label: value.to_string(),
            fraction: if total > 0.0 { measured / total } else { 0.0 },
            link: Hyperlink::GroupValue {
                relation: spec.relation,
                column: spec.label_attr,
                value,
            },
            value: measured,
        })
        .collect();
    Ok(ChartData {
        kind: spec.kind,
        title: format!(
            "{} by {}",
            schema.name, schema.columns[spec.label_attr as usize].name
        ),
        points,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::thesis::{generate, ThesisConfig};

    #[test]
    fn bar_chart_counts() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let chart = evaluate(
            &d.db,
            &ChartSpec {
                relation: d.db.relation_id("Student").unwrap(),
                label_attr: 2,
                measure: Measure::Count,
                kind: ChartKind::Bar,
            },
        )
        .unwrap();
        assert_eq!(chart.total, 80.0);
        assert_eq!(chart.title, "Student by DeptId");
        let frac_sum: f64 = chart.points.iter().map(|p| p.fraction).sum();
        assert!((frac_sum - 1.0).abs() < 1e-9);
        for p in &chart.points {
            assert!(matches!(p.link, Hyperlink::GroupValue { .. }));
        }
    }

    #[test]
    fn pie_chart_same_data_different_kind() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let spec = ChartSpec {
            relation: d.db.relation_id("Student").unwrap(),
            label_attr: 3,
            measure: Measure::Count,
            kind: ChartKind::Pie,
        };
        let chart = evaluate(&d.db, &spec).unwrap();
        assert_eq!(chart.kind, ChartKind::Pie);
        assert!(chart.points.len() >= 2);
    }

    #[test]
    fn empty_relation_zero_total() {
        let mut db = banks_storage::Database::new("x");
        db.create_relation(
            banks_storage::RelationSchema::builder("T")
                .column("A", banks_storage::ColumnType::Text)
                .primary_key(&["A"])
                .build()
                .unwrap(),
        )
        .unwrap();
        let chart = evaluate(
            &db,
            &ChartSpec {
                relation: db.relation_id("T").unwrap(),
                label_attr: 0,
                measure: Measure::Count,
                kind: ChartKind::Line,
            },
        )
        .unwrap();
        assert_eq!(chart.total, 0.0);
        assert!(chart.points.is_empty());
    }

    #[test]
    fn bad_attr_errors() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        assert!(evaluate(
            &d.db,
            &ChartSpec {
                relation: d.db.relation_id("Student").unwrap(),
                label_attr: 77,
                measure: Measure::Count,
                kind: ChartKind::Bar,
            },
        )
        .is_err());
    }
}
