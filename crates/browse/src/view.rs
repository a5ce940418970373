//! Browsable table views: the §4 interaction model as data.
//!
//! "Each table displayed comes with a variety of tools for interacting
//! with data": drop columns, impose selections, join referenced/referencing
//! tables, group by a column, sort by a column, paginate. A [`ViewSpec`]
//! captures those choices declaratively; [`render`] evaluates it against a
//! database into a [`RenderedView`] whose cells carry [`Hyperlink`]s.

use crate::hyperlink::Hyperlink;
use banks_storage::{
    Database, Predicate, RelationId, Rid, StorageError, StorageResult, Tuple, Value,
};
use std::borrow::Cow;

/// A forward join: pull in the relation referenced by the base relation's
/// foreign key `fk_index` ("clicking on 'join' results in the referenced
/// table being joined in").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSpec {
    /// Foreign key of the base relation to follow.
    pub fk_index: usize,
}

/// A reverse join: pull in the tuples of `relation` whose foreign key
/// `fk_index` references the base row ("the join feature can also be used
/// in the other direction, from a primary key to a referencing foreign
/// key"). Multiplies rows; base rows with no referents are kept with NULL
/// padding (outer-join semantics, friendlier for browsing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReverseJoinSpec {
    /// The referencing relation.
    pub relation: RelationId,
    /// The foreign key of that relation pointing at the base relation.
    pub fk_index: usize,
}

/// Declarative state of one browsing view.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSpec {
    /// Base relation.
    pub relation: RelationId,
    /// Columns of the base relation projected away.
    pub dropped: Vec<u32>,
    /// Selections on base columns (ANDed).
    pub selections: Vec<(u32, Predicate)>,
    /// Forward joins, applied in order.
    pub joins: Vec<JoinSpec>,
    /// Optional reverse join.
    pub reverse_join: Option<ReverseJoinSpec>,
    /// Group-by column (base relation): the view shows distinct values
    /// with counts instead of tuples.
    pub group_by: Option<u32>,
    /// Sort column (index into the *rendered* columns) and ascending flag.
    pub sort: Option<(usize, bool)>,
    /// Zero-based page number.
    pub page: usize,
    /// Rows per page ("displayed data is paginated").
    pub page_size: usize,
}

impl ViewSpec {
    /// A plain first-page view of a relation.
    pub fn relation(relation: RelationId) -> ViewSpec {
        ViewSpec {
            relation,
            dropped: Vec::new(),
            selections: Vec::new(),
            joins: Vec::new(),
            reverse_join: None,
            group_by: None,
            sort: None,
            page: 0,
            page_size: 25,
        }
    }
}

/// One rendered cell: display text plus an optional navigation link.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Display text.
    pub text: String,
    /// Attached hyperlink, if any.
    pub link: Option<Hyperlink>,
}

impl Cell {
    fn plain(text: impl Into<String>) -> Cell {
        Cell {
            text: text.into(),
            link: None,
        }
    }
}

/// A fully evaluated view, ready for text or HTML rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedView {
    /// View title.
    pub title: String,
    /// Column headers (qualified as `Relation.Column` once joins add
    /// columns from several relations).
    pub columns: Vec<String>,
    /// The current page of rows.
    pub rows: Vec<Vec<Cell>>,
    /// Zero-based page number rendered.
    pub page: usize,
    /// Total number of pages.
    pub page_count: usize,
    /// Total rows across all pages.
    pub total_rows: usize,
}

/// Evaluate a view against the database.
pub fn render(db: &Database, spec: &ViewSpec) -> StorageResult<RenderedView> {
    let table = db.table(spec.relation);
    let schema = table.schema();
    for &(col, _) in &spec.selections {
        if col as usize >= schema.arity() {
            return Err(StorageError::UnknownColumn {
                relation: schema.name.clone(),
                column: format!("#{col}"),
            });
        }
    }

    // Base row set after selections.
    let base: Vec<(Rid, Cow<'_, Tuple>)> = table
        .scan()
        .filter(|(_, tuple)| {
            spec.selections
                .iter()
                .all(|(col, pred)| pred.matches(&tuple.values()[*col as usize]))
        })
        .collect();

    if let Some(group_col) = spec.group_by {
        return render_grouped(db, spec, group_col, &base);
    }

    // Column plan: base columns (minus dropped), then joined columns.
    let mut columns: Vec<String> = Vec::new();
    let kept: Vec<usize> = (0..schema.arity())
        .filter(|i| !spec.dropped.contains(&(*i as u32)))
        .collect();
    for &i in &kept {
        columns.push(format!("{}.{}", schema.name, schema.columns[i].name));
    }
    for join in &spec.joins {
        let fk = schema.foreign_keys.get(join.fk_index).ok_or_else(|| {
            StorageError::InvalidSchema(format!(
                "relation `{}` has no foreign key #{}",
                schema.name, join.fk_index
            ))
        })?;
        let joined = db.relation(&fk.ref_relation)?.schema();
        for c in &joined.columns {
            columns.push(format!("{}.{}", joined.name, c.name));
        }
    }
    if let Some(rj) = spec.reverse_join {
        let joined = db.table(rj.relation).schema();
        if joined.foreign_keys.len() <= rj.fk_index {
            return Err(StorageError::InvalidSchema(format!(
                "relation `{}` has no foreign key #{}",
                joined.name, rj.fk_index
            )));
        }
        for c in &joined.columns {
            columns.push(format!("{}.{}", joined.name, c.name));
        }
    }

    // Row assembly.
    let mut rows: Vec<Vec<Cell>> = Vec::new();
    for (rid, tuple) in &base {
        let rid = *rid;
        let mut row: Vec<Cell> = Vec::with_capacity(columns.len());
        for &i in &kept {
            row.push(cell_for(db, spec.relation, rid, tuple.values(), i));
        }
        for join in &spec.joins {
            match db.resolve_fk(rid, join.fk_index)? {
                Some(target) => {
                    let joined = db.tuple(target)?;
                    for ci in 0..joined.arity() {
                        row.push(cell_for(db, target.relation, target, joined.values(), ci));
                    }
                }
                None => {
                    let joined = db
                        .relation(&schema.foreign_keys[join.fk_index].ref_relation)?
                        .schema();
                    for _ in 0..joined.arity() {
                        row.push(Cell::plain("NULL"));
                    }
                }
            }
        }
        match spec.reverse_join {
            None => rows.push(row),
            Some(rj) => {
                let referents: Vec<Rid> = db
                    .referencing(rid)
                    .iter()
                    .filter(|b| b.from.relation == rj.relation && b.fk_index == rj.fk_index)
                    .map(|b| b.from)
                    .collect();
                if referents.is_empty() {
                    let arity = db.table(rj.relation).schema().arity();
                    let mut padded = row.clone();
                    padded.extend((0..arity).map(|_| Cell::plain("NULL")));
                    rows.push(padded);
                } else {
                    for referent in referents {
                        let tuple = db.tuple(referent)?;
                        let mut expanded = row.clone();
                        for (ci, _) in tuple.values().iter().enumerate() {
                            expanded.push(cell_for(
                                db,
                                referent.relation,
                                referent,
                                tuple.values(),
                                ci,
                            ));
                        }
                        rows.push(expanded);
                    }
                }
            }
        }
    }

    if let Some((col, ascending)) = spec.sort {
        if col < columns.len() {
            rows.sort_by(|a, b| {
                let ord = a[col].text.cmp(&b[col].text);
                if ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
        }
    }

    Ok(paginate(
        schema.name.to_string(),
        columns,
        rows,
        spec.page,
        spec.page_size,
    ))
}

/// Grouped rendering: distinct values of the grouping column with counts
/// and drill-down links.
fn render_grouped(
    db: &Database,
    spec: &ViewSpec,
    group_col: u32,
    base: &[(Rid, Cow<'_, Tuple>)],
) -> StorageResult<RenderedView> {
    let schema = db.table(spec.relation).schema();
    if group_col as usize >= schema.arity() {
        return Err(StorageError::UnknownColumn {
            relation: schema.name.clone(),
            column: format!("#{group_col}"),
        });
    }
    let mut groups: Vec<(Value, usize)> = Vec::new();
    for (_, tuple) in base {
        let v = tuple.values()[group_col as usize].clone();
        match groups.iter_mut().find(|(g, _)| *g == v) {
            Some((_, count)) => *count += 1,
            None => groups.push((v, 1)),
        }
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let col_name = &schema.columns[group_col as usize].name;
    let columns = vec![format!("{}.{col_name}", schema.name), "count".to_string()];
    let rows: Vec<Vec<Cell>> = groups
        .into_iter()
        .map(|(value, count)| {
            vec![
                Cell {
                    text: value.to_string(),
                    link: Some(Hyperlink::GroupValue {
                        relation: spec.relation,
                        column: group_col,
                        value,
                    }),
                },
                Cell::plain(count.to_string()),
            ]
        })
        .collect();
    Ok(paginate(
        format!("{} grouped by {col_name}", schema.name),
        columns,
        rows,
        spec.page,
        spec.page_size,
    ))
}

/// Build the cell for column `col` of a tuple, attaching the hyperlink the
/// schema implies: FK columns link to the referenced tuple, PK columns
/// link backwards.
fn cell_for(db: &Database, relation: RelationId, rid: Rid, values: &[Value], col: usize) -> Cell {
    let schema = db.table(relation).schema();
    let value = &values[col];
    let text = value.to_string();
    if value.is_null() {
        return Cell::plain(text);
    }
    // FK column → link to referenced tuple.
    for (fk_index, fk) in schema.foreign_keys.iter().enumerate() {
        if fk.columns.contains(&col) {
            if let Ok(Some(target)) = db.resolve_fk(rid, fk_index) {
                return Cell {
                    text,
                    link: Some(Hyperlink::Tuple(target)),
                };
            }
        }
    }
    // PK column → backward browsing menu (represented as a link to the
    // first referencing relation; the session exposes the full menu).
    if schema.primary_key.contains(&col) {
        if let Some(backref) = db.referencing(rid).first() {
            return Cell {
                text,
                link: Some(Hyperlink::BackRefs {
                    target: rid,
                    relation: backref.from.relation,
                    fk_index: backref.fk_index,
                }),
            };
        }
    }
    Cell::plain(text)
}

fn paginate(
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
    page: usize,
    page_size: usize,
) -> RenderedView {
    let page_size = page_size.max(1);
    let total_rows = rows.len();
    let page_count = total_rows.div_ceil(page_size).max(1);
    let page = page.min(page_count - 1);
    let start = page * page_size;
    let end = (start + page_size).min(total_rows);
    let rows = rows[start..end].to_vec();
    RenderedView {
        title,
        columns,
        rows,
        page,
        page_count,
        total_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::thesis::{generate, ThesisConfig};

    fn fixture() -> banks_datagen::thesis::ThesisDataset {
        generate(ThesisConfig::tiny(1)).unwrap()
    }

    #[test]
    fn plain_view_lists_rows_with_links() {
        let d = fixture();
        let student_rel = d.db.relation_id("Student").unwrap();
        let spec = ViewSpec::relation(student_rel);
        let view = render(&d.db, &spec).unwrap();
        assert_eq!(view.columns.len(), 4);
        assert_eq!(view.rows.len(), 25, "first page");
        assert_eq!(view.total_rows, 80);
        assert_eq!(view.page_count, 4);
        // DeptId cells are FK links.
        let dept_col = 2;
        assert!(matches!(
            view.rows[0][dept_col].link,
            Some(Hyperlink::Tuple(_))
        ));
        // RollNo (pk) cells of students *with* theses link backwards.
        let linked_pk = view
            .rows
            .iter()
            .filter(|r| matches!(r[0].link, Some(Hyperlink::BackRefs { .. })))
            .count();
        assert!(linked_pk > 0, "some students are referenced by theses");
    }

    #[test]
    fn selection_filters_rows() {
        let d = fixture();
        let student_rel = d.db.relation_id("Student").unwrap();
        let mut spec = ViewSpec::relation(student_rel);
        spec.selections = vec![(2, Predicate::Eq(Value::text(&d.planted.cse_dept)))];
        let view = render(&d.db, &spec).unwrap();
        assert!(view.total_rows > 0);
        assert!(view.total_rows < 80);
        for row in &view.rows {
            assert_eq!(row[2].text, d.planted.cse_dept);
        }
    }

    #[test]
    fn drop_column_projects_away() {
        let d = fixture();
        let student_rel = d.db.relation_id("Student").unwrap();
        let mut spec = ViewSpec::relation(student_rel);
        spec.dropped = vec![1, 3];
        let view = render(&d.db, &spec).unwrap();
        assert_eq!(view.columns, vec!["Student.RollNo", "Student.DeptId"]);
        assert_eq!(view.rows[0].len(), 2);
    }

    #[test]
    fn forward_join_appends_referenced_columns() {
        let d = fixture();
        let thesis_rel = d.db.relation_id("Thesis").unwrap();
        let mut spec = ViewSpec::relation(thesis_rel);
        spec.joins = vec![JoinSpec { fk_index: 0 }]; // join Student
        let view = render(&d.db, &spec).unwrap();
        assert!(view.columns.contains(&"Student.StudentName".to_string()));
        // Joined row count equals base row count for a forward join.
        assert_eq!(view.total_rows, d.db.relation("Thesis").unwrap().len());
    }

    #[test]
    fn reverse_join_expands_rows() {
        let d = fixture();
        let faculty_rel = d.db.relation_id("Faculty").unwrap();
        let thesis_rel = d.db.relation_id("Thesis").unwrap();
        let mut spec = ViewSpec::relation(faculty_rel);
        spec.reverse_join = Some(ReverseJoinSpec {
            relation: thesis_rel,
            fk_index: 1, // Thesis.Advisor
        });
        let view = render(&d.db, &spec).unwrap();
        // Every thesis contributes a row; advisor-less faculty keep one
        // NULL-padded row each.
        let theses = d.db.relation("Thesis").unwrap().len();
        let faculty = d.db.relation("Faculty").unwrap().len();
        assert!(view.total_rows >= theses);
        assert!(view.total_rows <= theses + faculty);
        assert!(view.columns.contains(&"Thesis.Title".to_string()));
    }

    #[test]
    fn group_by_counts_distinct_values() {
        let d = fixture();
        let student_rel = d.db.relation_id("Student").unwrap();
        let mut spec = ViewSpec::relation(student_rel);
        spec.group_by = Some(2); // DeptId
        let view = render(&d.db, &spec).unwrap();
        assert_eq!(view.columns[1], "count");
        let total: usize = view
            .rows
            .iter()
            .map(|r| r[1].text.parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 80, "group counts partition the relation");
        for row in &view.rows {
            assert!(matches!(row[0].link, Some(Hyperlink::GroupValue { .. })));
        }
    }

    #[test]
    fn sort_and_paginate() {
        let d = fixture();
        let student_rel = d.db.relation_id("Student").unwrap();
        let mut spec = ViewSpec::relation(student_rel);
        spec.sort = Some((0, false));
        spec.page_size = 10;
        spec.page = 1;
        let view = render(&d.db, &spec).unwrap();
        assert_eq!(view.rows.len(), 10);
        assert_eq!(view.page, 1);
        assert_eq!(view.page_count, 8);
        let mut texts: Vec<String> = view.rows.iter().map(|r| r[0].text.clone()).collect();
        let mut sorted = texts.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(texts, sorted, "descending by RollNo");
        texts.dedup();
        assert_eq!(texts.len(), 10);
    }

    #[test]
    fn page_out_of_range_clamps() {
        let d = fixture();
        let student_rel = d.db.relation_id("Student").unwrap();
        let mut spec = ViewSpec::relation(student_rel);
        spec.page = 999;
        let view = render(&d.db, &spec).unwrap();
        assert_eq!(view.page, view.page_count - 1);
        assert!(!view.rows.is_empty());
    }

    #[test]
    fn bad_join_index_errors() {
        let d = fixture();
        let student_rel = d.db.relation_id("Student").unwrap();
        let mut spec = ViewSpec::relation(student_rel);
        spec.joins = vec![JoinSpec { fk_index: 9 }];
        assert!(render(&d.db, &spec).is_err());
    }
}
