//! Error types for the storage layer.

use std::fmt;

/// Result alias used across the storage crate.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the relational storage engine.
///
/// The engine enforces schema and referential integrity at insertion time,
/// so most variants describe constraint violations rather than I/O failures.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// A relation with this name already exists in the catalog.
    DuplicateRelation(String),
    /// No relation with this name exists in the catalog.
    UnknownRelation(String),
    /// No column with this name exists in the relation.
    UnknownColumn {
        /// Relation that was searched.
        relation: String,
        /// Column name that failed to resolve.
        column: String,
    },
    /// A tuple's arity does not match its relation schema.
    ArityMismatch {
        /// Relation being inserted into.
        relation: String,
        /// Number of columns the schema declares.
        expected: usize,
        /// Number of values supplied.
        actual: usize,
    },
    /// A value's type does not match the declared column type.
    TypeMismatch {
        /// Relation being inserted into.
        relation: String,
        /// Offending column name.
        column: String,
        /// Human-readable description of the expected type.
        expected: String,
        /// Human-readable description of the supplied value.
        actual: String,
    },
    /// A NULL was supplied for a non-nullable column.
    NullViolation {
        /// Relation being inserted into.
        relation: String,
        /// Offending column name.
        column: String,
    },
    /// Primary-key uniqueness was violated.
    DuplicateKey {
        /// Relation being inserted into.
        relation: String,
        /// Rendered key values.
        key: String,
    },
    /// A foreign key referenced a tuple that does not exist.
    ForeignKeyViolation {
        /// Relation being inserted into.
        relation: String,
        /// Relation the foreign key points at.
        referenced: String,
        /// Rendered key values that failed to resolve.
        key: String,
    },
    /// A schema declaration was internally inconsistent.
    InvalidSchema(String),
    /// A pre-materialized graph snapshot does not describe this database
    /// (node count or per-relation catalog mismatch). Distinct from
    /// [`StorageError::InvalidSchema`] so callers can offer "rebuild the
    /// snapshot" recovery instead of treating it as a schema bug.
    SnapshotMismatch {
        /// What the snapshot claims (e.g. node or per-relation counts).
        expected: String,
        /// What the database actually holds.
        actual: String,
    },
    /// A row identifier pointed at a missing (deleted or out-of-range) tuple.
    InvalidRid(String),
    /// Schema text (see [`crate::schema::schema_from_text`]) failed to parse.
    SchemaText {
        /// 1-based line number of the malformed line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A binary artifact (snapshot section, serialized table or index)
    /// failed to decode: truncated stream, impossible length, value tag
    /// out of range, or postings out of order. Also used for the I/O
    /// errors underneath those reads — the variant keeps `StorageError`
    /// cloneable/comparable where `std::io::Error` is not.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` already exists")
            }
            StorageError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            StorageError::UnknownColumn { relation, column } => {
                write!(f, "unknown column `{column}` in relation `{relation}`")
            }
            StorageError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "relation `{relation}` expects {expected} values, got {actual}"
            ),
            StorageError::TypeMismatch {
                relation,
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch in `{relation}.{column}`: expected {expected}, got {actual}"
            ),
            StorageError::NullViolation { relation, column } => {
                write!(f, "column `{relation}.{column}` is not nullable")
            }
            StorageError::DuplicateKey { relation, key } => {
                write!(f, "duplicate primary key {key} in relation `{relation}`")
            }
            StorageError::ForeignKeyViolation {
                relation,
                referenced,
                key,
            } => write!(
                f,
                "foreign key from `{relation}` to `{referenced}` dangles: no tuple with key {key}"
            ),
            StorageError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            StorageError::SnapshotMismatch { expected, actual } => write!(
                f,
                "graph snapshot does not match the database: snapshot has {expected}, database has {actual}"
            ),
            StorageError::InvalidRid(msg) => write!(f, "invalid rid: {msg}"),
            StorageError::SchemaText { line, message } => {
                write!(f, "schema text error at line {line}: {message}")
            }
            StorageError::Corrupt(msg) => write!(f, "corrupt binary data: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StorageError::UnknownColumn {
            relation: "Paper".into(),
            column: "Title".into(),
        };
        assert_eq!(e.to_string(), "unknown column `Title` in relation `Paper`");

        let e = StorageError::ArityMismatch {
            relation: "Writes".into(),
            expected: 2,
            actual: 3,
        };
        assert!(e.to_string().contains("expects 2 values, got 3"));

        let e = StorageError::SchemaText {
            line: 7,
            message: "unterminated relation".into(),
        };
        assert_eq!(
            e.to_string(),
            "schema text error at line 7: unterminated relation"
        );

        let e = StorageError::SnapshotMismatch {
            expected: "10 nodes".into(),
            actual: "9 tuples".into(),
        };
        assert!(e.to_string().contains("10 nodes"));
        assert!(e.to_string().contains("9 tuples"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::DuplicateRelation("A".into()),
            StorageError::DuplicateRelation("A".into())
        );
        assert_ne!(
            StorageError::DuplicateRelation("A".into()),
            StorageError::UnknownRelation("A".into())
        );
    }
}
