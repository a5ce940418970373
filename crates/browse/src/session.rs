//! A browsing session: view state plus history, driving the §4
//! interaction loop ("following hyperlinks, and interacting with controls
//! on the displayed results").

use crate::hyperlink::{backref_summaries, BackRefSummary, Hyperlink};
use crate::view::{render, JoinSpec, RenderedView, ReverseJoinSpec, ViewSpec};
use banks_storage::{Database, Predicate, RelationId, Rid, StorageResult, Value};

/// An interactive browsing session over one database.
#[derive(Debug)]
pub struct Session<'db> {
    db: &'db Database,
    /// Every view so far; the last is the current one.
    history: Vec<ViewSpec>,
}

impl<'db> Session<'db> {
    /// Start a session viewing `relation`.
    pub fn open(db: &'db Database, relation: &str) -> StorageResult<Session<'db>> {
        let rel = db.relation_id(relation)?;
        Ok(Session {
            db,
            history: vec![ViewSpec::relation(rel)],
        })
    }

    /// The current view specification.
    pub(crate) fn current(&self) -> &ViewSpec {
        self.history.last().expect("history starts non-empty")
    }

    /// Render the current view.
    pub fn render(&self) -> StorageResult<RenderedView> {
        render(self.db, self.current())
    }

    /// Modify the current view in place via a copy-push (so Back undoes
    /// the control interaction too).
    fn modify(&mut self, f: impl FnOnce(&mut ViewSpec)) {
        let mut spec = self.current().clone();
        f(&mut spec);
        self.history.push(spec);
    }

    /// Go back one step. Returns false at the start of history.
    pub fn back(&mut self) -> bool {
        if self.history.len() == 1 {
            return false;
        }
        self.history.pop();
        true
    }

    /// Follow a hyperlink.
    pub fn follow(&mut self, link: &Hyperlink) -> StorageResult<()> {
        match link {
            Hyperlink::Tuple(rid) => self.view_tuple(*rid),
            Hyperlink::BackRefs {
                target,
                relation,
                fk_index,
            } => self.view_backrefs(*target, *relation, *fk_index),
            Hyperlink::Relation(rel) => {
                self.history.push(ViewSpec::relation(*rel));
                Ok(())
            }
            Hyperlink::GroupValue {
                relation,
                column,
                value,
            } => {
                let mut spec = ViewSpec::relation(*relation);
                spec.selections = vec![(*column, Predicate::Eq(value.clone()))];
                self.history.push(spec);
                Ok(())
            }
            Hyperlink::Template(_) => Ok(()), // resolved by the caller's template registry
        }
    }

    /// View a single tuple (selection on its primary key).
    pub(crate) fn view_tuple(&mut self, rid: Rid) -> StorageResult<()> {
        let schema = self.db.table(rid.relation).schema().clone();
        let tuple = self.db.tuple(rid)?;
        let mut spec = ViewSpec::relation(rid.relation);
        spec.selections = schema
            .primary_key
            .iter()
            .map(|&k| (k as u32, Predicate::Eq(tuple.values()[k].clone())))
            .collect();
        self.history.push(spec);
        Ok(())
    }

    /// View the tuples referencing `target` through `(relation, fk_index)`.
    pub fn view_backrefs(
        &mut self,
        target: Rid,
        relation: RelationId,
        fk_index: usize,
    ) -> StorageResult<()> {
        let ref_schema = self.db.table(relation).schema().clone();
        let fk = ref_schema
            .foreign_keys
            .get(fk_index)
            .ok_or_else(|| {
                banks_storage::StorageError::InvalidSchema(format!(
                    "relation `{}` has no foreign key #{fk_index}",
                    ref_schema.name
                ))
            })?
            .clone();
        let target_tuple = self.db.tuple(target)?;
        let target_schema = self.db.table(target.relation).schema();
        let key_values: Vec<Value> = target_schema
            .primary_key
            .iter()
            .map(|&k| target_tuple.values()[k].clone())
            .collect();
        let mut spec = ViewSpec::relation(relation);
        spec.selections = fk
            .columns
            .iter()
            .zip(key_values)
            .map(|(&col, v)| (col as u32, Predicate::Eq(v)))
            .collect();
        self.history.push(spec);
        Ok(())
    }

    /// The backward-browsing menu for a tuple (§4: "organized by
    /// referencing relations").
    pub fn backref_menu(&self, target: Rid) -> Vec<BackRefSummary> {
        backref_summaries(self.db, target)
    }

    // ---- §4 table controls -------------------------------------------------

    /// Drop (project away) a column of the base relation.
    pub fn drop_column(&mut self, column: u32) {
        self.modify(|s| {
            if !s.dropped.contains(&column) {
                s.dropped.push(column);
            }
        });
    }

    /// Impose a selection on a column.
    pub fn select(&mut self, column: u32, predicate: Predicate) {
        self.modify(|s| s.selections.push((column, predicate)));
    }

    /// Join in the relation referenced by the base relation's `fk_index`.
    pub fn join(&mut self, fk_index: usize) {
        self.modify(|s| s.joins.push(JoinSpec { fk_index }));
    }

    /// Join in the tuples of `relation` referencing the base rows.
    pub fn reverse_join(&mut self, relation: RelationId, fk_index: usize) {
        self.modify(|s| s.reverse_join = Some(ReverseJoinSpec { relation, fk_index }));
    }

    /// Group the view by a column.
    pub fn group_by(&mut self, column: u32) {
        self.modify(|s| s.group_by = Some(column));
    }

    /// Sort by a rendered column.
    pub fn sort(&mut self, column: usize, ascending: bool) {
        self.modify(|s| s.sort = Some((column, ascending)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::thesis::{generate, ThesisConfig};

    #[test]
    fn figure4_flow_student_join_thesis() {
        // The paper's Fig. 4 narration: browse students, join the thesis
        // relation through its student reference, drop columns.
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let mut session = Session::open(&d.db, "Student").unwrap();
        let thesis_rel = d.db.relation_id("Thesis").unwrap();
        session.reverse_join(thesis_rel, 0);
        session.drop_column(3); // ProgramId
        let view = session.render().unwrap();
        assert!(view.columns.contains(&"Thesis.Title".to_string()));
        assert!(!view.columns.contains(&"Student.ProgramId".to_string()));
    }

    #[test]
    fn follow_tuple_link_shows_single_tuple() {
        let d = generate(ThesisConfig::tiny(2)).unwrap();
        let mut session = Session::open(&d.db, "Thesis").unwrap();
        let view = session.render().unwrap();
        // RollNo column (index 2) links to the student.
        let link = view.rows[0][2].link.clone().expect("fk link");
        session.follow(&link).unwrap();
        let tuple_view = session.render().unwrap();
        assert_eq!(tuple_view.total_rows, 1);
        assert_eq!(tuple_view.title, "Student");
    }

    #[test]
    fn backref_menu_and_follow() {
        let d = generate(ThesisConfig::tiny(3)).unwrap();
        let dept = d.db.relation("Department").unwrap();
        let cse = dept.lookup_pk(&[Value::text(&d.planted.cse_dept)]).unwrap();
        let session = Session::open(&d.db, "Department").unwrap();
        let menu = session.backref_menu(cse);
        assert!(menu.len() >= 2, "faculty and students reference CSE");
        let mut session = Session::open(&d.db, "Department").unwrap();
        let students = menu
            .iter()
            .find(|s| s.relation_name == "Student")
            .expect("student entry");
        session
            .view_backrefs(cse, students.relation, students.fk_index)
            .unwrap();
        let view = session.render().unwrap();
        assert_eq!(view.total_rows, students.count);
    }

    #[test]
    fn history_back_undoes_each_step() {
        let d = generate(ThesisConfig::tiny(4)).unwrap();
        let mut session = Session::open(&d.db, "Student").unwrap();
        session.group_by(2);
        session.sort(0, false);
        assert_eq!(session.render().unwrap().columns[1], "count");
        assert!(session.back(), "undoes the sort");
        let grouped = session.render().unwrap();
        assert!(grouped.columns[1] == "count");
        assert!(session.back(), "undoes the grouping");
        let plain = session.render().unwrap();
        assert_eq!(plain.columns.len(), 4);
        assert!(!session.back(), "at start of history");
    }

    #[test]
    fn group_drill_down_via_link() {
        let d = generate(ThesisConfig::tiny(5)).unwrap();
        let mut session = Session::open(&d.db, "Student").unwrap();
        session.group_by(2);
        let grouped = session.render().unwrap();
        let link = grouped.rows[0][0].link.clone().unwrap();
        let expected: usize = grouped.rows[0][1].text.parse().unwrap();
        session.follow(&link).unwrap();
        let drilled = session.render().unwrap();
        assert_eq!(drilled.total_rows, expected);
    }

    #[test]
    fn selection_control() {
        let d = generate(ThesisConfig::tiny(6)).unwrap();
        let mut session = Session::open(&d.db, "Faculty").unwrap();
        session.select(2, Predicate::Eq(Value::text(&d.planted.cse_dept)));
        let view = session.render().unwrap();
        assert!(view.total_rows > 0);
        for row in &view.rows {
            assert_eq!(row[2].text, d.planted.cse_dept);
        }
    }
}
