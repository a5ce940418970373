//! Hierarchical group-by template (§4).
//!
//! "The group by template provides for hierarchical view of data, by
//! specifying a sequence of grouping attributes. For example, grouping a
//! student relation by department and program attributes initially
//! displays all departments; clicking on a department shows all programs
//! in the department, and clicking on a program then shows all students in
//! that program in the selected department."

use banks_storage::{Database, RelationId, Rid, StorageError, StorageResult, Value};

/// Specification: a relation and an ordered list of grouping attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupBySpec {
    /// Relation to group.
    pub relation: RelationId,
    /// Grouping attributes, outermost first.
    pub levels: Vec<u32>,
}

/// One level of the drilled hierarchy: either further group values or, at
/// the deepest level, the matching tuples.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupByLevel {
    /// Intermediate level: distinct values of the next grouping attribute
    /// (with tuple counts), to click on.
    Groups {
        /// Attribute whose values are listed.
        attribute: u32,
        /// `(value, count)` pairs, sorted by value.
        entries: Vec<(Value, usize)>,
    },
    /// Deepest level: the tuples selected by the full drill path.
    Tuples(Vec<Rid>),
}

/// Drill into the hierarchy along `path` (values chosen for the first
/// `path.len()` levels).
pub(crate) fn drill(
    db: &Database,
    spec: &GroupBySpec,
    path: &[Value],
) -> StorageResult<GroupByLevel> {
    let table = db.table(spec.relation);
    let arity = table.schema().arity();
    for &level in &spec.levels {
        if level as usize >= arity {
            return Err(StorageError::UnknownColumn {
                relation: table.schema().name.clone(),
                column: format!("#{level}"),
            });
        }
    }
    if path.len() > spec.levels.len() {
        return Err(StorageError::InvalidSchema(format!(
            "drill path has {} entries but the template has {} levels",
            path.len(),
            spec.levels.len()
        )));
    }

    let matches = table.scan().filter(|(_, tuple)| {
        path.iter()
            .zip(&spec.levels)
            .all(|(v, &level)| &tuple.values()[level as usize] == v)
    });

    if path.len() == spec.levels.len() {
        return Ok(GroupByLevel::Tuples(matches.map(|(rid, _)| rid).collect()));
    }

    let attribute = spec.levels[path.len()];
    let mut entries: Vec<(Value, usize)> = Vec::new();
    for (_, tuple) in matches {
        let v = tuple.values()[attribute as usize].clone();
        match entries.iter_mut().find(|(g, _)| *g == v) {
            Some((_, count)) => *count += 1,
            None => entries.push((v, 1)),
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(GroupByLevel::Groups { attribute, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::thesis::{generate, ThesisConfig};

    fn spec(db: &Database) -> GroupBySpec {
        GroupBySpec {
            relation: db.relation_id("Student").unwrap(),
            levels: vec![2, 3], // DeptId then ProgramId
        }
    }

    #[test]
    fn top_level_lists_departments() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let level = drill(&d.db, &spec(&d.db), &[]).unwrap();
        let GroupByLevel::Groups { attribute, entries } = level else {
            panic!("expected groups");
        };
        assert_eq!(attribute, 2);
        let total: usize = entries.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 80);
    }

    #[test]
    fn drill_to_programs_then_tuples() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let s = spec(&d.db);
        let cse = Value::text(&d.planted.cse_dept);
        let level = drill(&d.db, &s, std::slice::from_ref(&cse)).unwrap();
        let GroupByLevel::Groups { attribute, entries } = level else {
            panic!("expected groups");
        };
        assert_eq!(attribute, 3);
        assert!(!entries.is_empty());
        let (program, count) = entries[0].clone();
        let leaf = drill(&d.db, &s, &[cse, program]).unwrap();
        let GroupByLevel::Tuples(rids) = leaf else {
            panic!("expected tuples");
        };
        assert_eq!(rids.len(), count);
        // Every returned tuple satisfies the drill path.
        for rid in rids {
            let t = d.db.tuple(rid).unwrap();
            assert_eq!(t.values()[2], Value::text(&d.planted.cse_dept));
        }
    }

    #[test]
    fn too_deep_path_errors() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let s = spec(&d.db);
        let err = drill(
            &d.db,
            &s,
            &[Value::text("a"), Value::text("b"), Value::text("c")],
        );
        assert!(err.is_err());
    }

    #[test]
    fn unknown_value_gives_empty_level() {
        let d = generate(ThesisConfig::tiny(1)).unwrap();
        let s = spec(&d.db);
        let level = drill(&d.db, &s, &[Value::text("NOSUCHDEPT")]).unwrap();
        let GroupByLevel::Groups { entries, .. } = level else {
            panic!()
        };
        assert!(entries.is_empty());
    }
}
