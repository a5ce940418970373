//! Metadata matching: keywords that hit relation or column *names*.
//!
//! §2.3 of the paper: "A node is relevant to a search term if it contains
//! the search term as part of an attribute value or metadata (such as
//! column, table or view names). E.g., all tuples belonging to a relation
//! named AUTHOR would be regarded as relevant to the keyword 'author'."

use crate::catalog::Database;
use crate::tokenizer::Tokenizer;
use crate::tuple::RelationId;
use std::collections::HashMap;

/// What a metadata token refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataTarget {
    /// The token matches a relation name: every tuple of the relation is
    /// relevant.
    Relation(RelationId),
    /// The token matches a column name: every tuple with a non-NULL value
    /// in that column is relevant.
    Column(RelationId, u32),
}

/// Index of schema-name tokens.
#[derive(Debug, Clone, Default)]
pub struct MetadataIndex {
    targets: HashMap<String, Vec<MetadataTarget>>,
}

impl MetadataIndex {
    /// Build the metadata index from a database's schemas.
    pub fn build(db: &Database, tokenizer: &Tokenizer) -> MetadataIndex {
        let mut index = MetadataIndex::default();
        for table in db.relations() {
            let rel = table.id();
            for token in tokenizer.tokenize_identifier(&table.schema().name) {
                index
                    .targets
                    .entry(token)
                    .or_default()
                    .push(MetadataTarget::Relation(rel));
            }
            for (col, def) in table.schema().columns.iter().enumerate() {
                for token in tokenizer.tokenize_identifier(&def.name) {
                    index
                        .targets
                        .entry(token)
                        .or_default()
                        .push(MetadataTarget::Column(rel, col as u32));
                }
            }
        }
        for v in index.targets.values_mut() {
            v.sort_by_key(|t| match *t {
                MetadataTarget::Relation(r) => (0u8, r, 0u32),
                MetadataTarget::Column(r, c) => (1u8, r, c),
            });
            v.dedup();
        }
        index
    }

    /// Metadata targets matching `token`.
    pub fn lookup(&self, token: &str) -> &[MetadataTarget] {
        self.targets.get(token).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Resolve a (possibly qualified) attribute name to `(relation, column)`
    /// pairs — used by `attribute:keyword` queries. The attribute may be
    /// `"relation.column"` or a bare column name matched across relations.
    pub fn resolve_attribute(&self, db: &Database, attribute: &str) -> Vec<(RelationId, u32)> {
        if let Some((rel_name, col_name)) = attribute.split_once('.') {
            if let Ok(table) = db.relation(rel_name) {
                if let Some(col) = table.schema().column_index(col_name) {
                    return vec![(table.id(), col as u32)];
                }
            }
            return Vec::new();
        }
        let mut out = Vec::new();
        for table in db.relations() {
            for (col, def) in table.schema().columns.iter().enumerate() {
                if def.name.eq_ignore_ascii_case(attribute) {
                    out.push((table.id(), col as u32));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, RelationSchema};

    fn db() -> Database {
        let mut db = Database::new("t");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("AuthorId", ColumnType::Text)
                .column("AuthorName", ColumnType::Text)
                .primary_key(&["AuthorId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("PaperId", ColumnType::Text)
                .column("PaperName", ColumnType::Text)
                .primary_key(&["PaperId"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn relation_name_token_maps_to_relation() {
        let db = db();
        let idx = MetadataIndex::build(&db, &Tokenizer::new());
        let author_rel = db.relation_id("Author").unwrap();
        let targets = idx.lookup("author");
        assert!(targets.contains(&MetadataTarget::Relation(author_rel)));
    }

    #[test]
    fn column_name_tokens_map_to_columns() {
        let db = db();
        let idx = MetadataIndex::build(&db, &Tokenizer::new());
        let paper_rel = db.relation_id("Paper").unwrap();
        // "name" appears in AuthorName and PaperName.
        let targets = idx.lookup("name");
        assert!(targets.contains(&MetadataTarget::Column(paper_rel, 1)));
        assert_eq!(
            targets
                .iter()
                .filter(|t| matches!(t, MetadataTarget::Column(..)))
                .count(),
            2
        );
    }

    #[test]
    fn shared_token_hits_relation_and_columns() {
        let db = db();
        let idx = MetadataIndex::build(&db, &Tokenizer::new());
        // "paper" matches the Paper relation and the PaperId/PaperName columns
        // of Paper (CamelCase split).
        let targets = idx.lookup("paper");
        assert!(targets
            .iter()
            .any(|t| matches!(t, MetadataTarget::Relation(_))));
        assert!(targets
            .iter()
            .any(|t| matches!(t, MetadataTarget::Column(..))));
    }

    #[test]
    fn resolve_attribute_qualified_and_bare() {
        let db = db();
        let idx = MetadataIndex::build(&db, &Tokenizer::new());
        let author_rel = db.relation_id("Author").unwrap();
        assert_eq!(
            idx.resolve_attribute(&db, "Author.AuthorName"),
            vec![(author_rel, 1)]
        );
        assert_eq!(
            idx.resolve_attribute(&db, "AuthorName"),
            vec![(author_rel, 1)]
        );
        assert!(idx.resolve_attribute(&db, "Author.Nope").is_empty());
        assert!(idx.resolve_attribute(&db, "Nope.AuthorName").is_empty());
    }

    #[test]
    fn unknown_token_empty() {
        let db = db();
        let idx = MetadataIndex::build(&db, &Tokenizer::new());
        assert!(idx.lookup("zzz").is_empty());
        assert!(!idx.lookup("author").is_empty());
    }
}
