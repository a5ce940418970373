//! Hyperlinks generated from the schema.
//!
//! §4: "Every displayed foreign key attribute value becomes a hyperlink to
//! the referenced tuple. In addition, primary key columns can be browsed
//! backwards, to find referencing tuples, organized by referencing
//! relations."

use banks_storage::{Database, RelationId, Rid, Value};

/// A navigation action attached to a cell or control.
#[derive(Debug, Clone, PartialEq)]
pub enum Hyperlink {
    /// View one tuple (following a foreign key).
    Tuple(Rid),
    /// View the tuples of `relation` that reference `target` through the
    /// relation's foreign key `fk_index` (backward browsing of a primary
    /// key).
    BackRefs {
        /// The referenced tuple.
        target: Rid,
        /// The referencing relation.
        relation: RelationId,
        /// Which foreign key of `relation` points at the target.
        fk_index: usize,
    },
    /// Browse a whole relation.
    Relation(RelationId),
    /// Drill into one group value of a grouped view.
    GroupValue {
        /// Relation being grouped.
        relation: RelationId,
        /// Grouping column.
        column: u32,
        /// The group's value.
        value: Value,
    },
    /// Jump to a stored template instance by name ("template instances are
    /// customized, stored in the database, and given a hyperlink name").
    Template(String),
}

impl Hyperlink {
    /// Serialize as a `banks://` URI, the form embedded in rendered HTML.
    pub fn href(&self) -> String {
        match self {
            Hyperlink::Tuple(rid) => format!("banks://tuple/{rid}"),
            Hyperlink::BackRefs {
                target,
                relation,
                fk_index,
            } => format!("banks://backrefs/{target}/{relation}/{fk_index}"),
            Hyperlink::Relation(rel) => format!("banks://relation/{rel}"),
            Hyperlink::GroupValue {
                relation,
                column,
                value,
            } => format!("banks://group/{relation}/{column}/{value}"),
            Hyperlink::Template(name) => format!("banks://template/{name}"),
        }
    }
}

/// One entry of the "browse backwards" menu on a primary key: a
/// referencing relation, the foreign key involved, and how many tuples
/// currently reference the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackRefSummary {
    /// Referencing relation.
    pub relation: RelationId,
    /// Referencing relation's name.
    pub relation_name: String,
    /// Foreign key index within the referencing relation.
    pub fk_index: usize,
    /// Number of referencing tuples.
    pub count: usize,
}

/// Enumerate the backward-browsing options for a tuple, grouped by
/// `(referencing relation, foreign key)`.
pub(crate) fn backref_summaries(db: &Database, target: Rid) -> Vec<BackRefSummary> {
    let mut out: Vec<BackRefSummary> = Vec::new();
    for backref in db.referencing(target).iter() {
        let rel = backref.from.relation;
        match out
            .iter_mut()
            .find(|s| s.relation == rel && s.fk_index == backref.fk_index)
        {
            Some(s) => s.count += 1,
            None => out.push(BackRefSummary {
                relation: rel,
                relation_name: db.table(rel).schema().name.clone(),
                fk_index: backref.fk_index,
                count: 1,
            }),
        }
    }
    out.sort_by_key(|a| (a.relation, a.fk_index));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use banks_datagen::dblp::{generate, DblpConfig};

    #[test]
    fn href_forms() {
        let rid = Rid::new(RelationId(1), 5);
        assert_eq!(Hyperlink::Tuple(rid).href(), "banks://tuple/R1:5");
        assert_eq!(
            Hyperlink::BackRefs {
                target: rid,
                relation: RelationId(2),
                fk_index: 0
            }
            .href(),
            "banks://backrefs/R1:5/R2/0"
        );
        assert_eq!(
            Hyperlink::Relation(RelationId(3)).href(),
            "banks://relation/R3"
        );
        assert_eq!(
            Hyperlink::Template("by-dept".into()).href(),
            "banks://template/by-dept"
        );
    }

    #[test]
    fn backref_summaries_group_by_relation_and_fk() {
        let d = generate(DblpConfig::tiny(1)).unwrap();
        let paper = d.db.relation("Paper").unwrap();
        let rid = paper
            .lookup_pk(&[Value::text(&d.planted.chakrabarti_sd98)])
            .unwrap();
        let summaries = backref_summaries(&d.db, rid);
        // ChakrabartiSD98 is referenced by Writes (3 authors) and by Cites
        // (its planted citation boost) through the Cited fk.
        let writes = summaries
            .iter()
            .find(|s| s.relation_name == "Writes")
            .expect("writes backrefs");
        assert_eq!(writes.count, 3);
        let cites = summaries
            .iter()
            .find(|s| s.relation_name == "Cites")
            .expect("cites backrefs");
        assert!(cites.count > 0);
        assert_eq!(cites.fk_index, 1, "referenced through the Cited column");
    }

    #[test]
    fn no_backrefs_for_leaf_tuples() {
        let d = generate(DblpConfig::tiny(1)).unwrap();
        let writes = d.db.relation("Writes").unwrap();
        let (rid, _) = writes.scan().next().unwrap();
        assert!(backref_summaries(&d.db, rid).is_empty());
    }
}
