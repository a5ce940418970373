//! Relation schemas: columns, primary keys and foreign keys.
//!
//! Foreign keys are the heart of BANKS: every foreign-key–primary-key link
//! becomes a pair of directed edges in the data graph (§2 of the paper).
//! Each [`ForeignKey`] therefore carries an optional *similarity* override —
//! the `s(R1, R2)` of the paper's §2.2 — which the graph builder in
//! `banks-core` uses as the forward edge weight (default 1.0).
//!
//! A database's catalog travels as line-based *schema text*
//! (`schema_to_text` / [`schema_from_text`]), which the v3 DATA section
//! embeds in its header:
//!
//! ```text
//! database dblp
//! relation Author
//! column AuthorId text
//! column AuthorName text
//! primary_key AuthorId
//! end
//! relation Writes
//! column AuthorId text
//! column PaperId text
//! primary_key AuthorId PaperId
//! foreign_key AuthorId -> Author
//! foreign_key PaperId -> Paper similarity 2
//! end
//! ```

use crate::catalog::Database;
use crate::error::{StorageError, StorageResult};
use crate::value::Value;

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 text.
    Text,
    /// Boolean.
    Bool,
}

impl ColumnType {
    /// Whether `value` conforms to this column type (NULL always conforms;
    /// nullability is checked separately).
    pub(crate) fn accepts(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_))
                | (ColumnType::Text, Value::Text(_))
                | (ColumnType::Bool, Value::Bool(_))
        )
    }

    /// Name used in error messages and in schema text.
    pub fn name(&self) -> &'static str {
        match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Text => "text",
            ColumnType::Bool => "bool",
        }
    }

    /// Parse a type name as produced by [`ColumnType::name`].
    pub(crate) fn parse(s: &str) -> Option<ColumnType> {
        match s {
            "int" => Some(ColumnType::Int),
            "float" => Some(ColumnType::Float),
            "text" => Some(ColumnType::Text),
            "bool" => Some(ColumnType::Bool),
            _ => None,
        }
    }
}

/// A single column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within the relation).
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    /// Whether NULL is allowed.
    pub nullable: bool,
}

/// A foreign-key declaration: `columns` of this relation reference
/// `ref_columns` (the primary key) of `ref_relation`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignKey {
    /// Column indices (into the owning relation) forming the key.
    pub columns: Vec<usize>,
    /// Name of the referenced relation.
    pub ref_relation: String,
    /// Similarity `s(R1,R2)` of this link type (paper §2.2); used as the
    /// forward edge weight in the BANKS graph. `None` means the default 1.0.
    pub similarity: Option<f64>,
    /// Whether a NULL key is allowed (a NULL foreign key simply produces no
    /// graph edge, like an absent hyperlink).
    pub nullable: bool,
}

/// Schema of one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSchema {
    /// Relation name (unique within the database).
    pub name: String,
    /// Ordered column declarations.
    pub columns: Vec<ColumnDef>,
    /// Column indices forming the primary key (may be empty for link
    /// relations like `Writes` whose identity is their whole tuple).
    pub primary_key: Vec<usize>,
    /// Foreign keys declared on this relation.
    pub foreign_keys: Vec<ForeignKey>,
}

impl RelationSchema {
    /// Start building a schema with the given relation name.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder::new(name)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of the column with the given name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Resolve a column name to its index, with a descriptive error.
    pub(crate) fn require_column(&self, name: &str) -> StorageResult<usize> {
        self.column_index(name)
            .ok_or_else(|| StorageError::UnknownColumn {
                relation: self.name.clone(),
                column: name.to_string(),
            })
    }

    /// Whether this relation declares a primary key.
    pub fn has_primary_key(&self) -> bool {
        !self.primary_key.is_empty()
    }

    /// Extract the primary-key values from a full tuple of values.
    pub fn key_of<'a>(&self, values: &'a [Value]) -> Vec<&'a Value> {
        self.primary_key.iter().map(|&i| &values[i]).collect()
    }

    /// Names of the primary-key columns, in key order.
    pub(crate) fn primary_key_names(&self) -> Vec<&str> {
        self.primary_key
            .iter()
            .map(|&i| self.columns[i].name.as_str())
            .collect()
    }

    /// Validate internal consistency (column name uniqueness, index bounds).
    pub(crate) fn validate(&self) -> StorageResult<()> {
        if self.name.is_empty() {
            return Err(StorageError::InvalidSchema(
                "relation name must be non-empty".into(),
            ));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if c.name.is_empty() {
                return Err(StorageError::InvalidSchema(format!(
                    "column {i} of `{}` has an empty name",
                    self.name
                )));
            }
            if self.columns[..i].iter().any(|p| p.name == c.name) {
                return Err(StorageError::InvalidSchema(format!(
                    "duplicate column `{}` in `{}`",
                    c.name, self.name
                )));
            }
        }
        for &k in &self.primary_key {
            if k >= self.columns.len() {
                return Err(StorageError::InvalidSchema(format!(
                    "primary key column index {k} out of range in `{}`",
                    self.name
                )));
            }
        }
        for fk in &self.foreign_keys {
            if fk.columns.is_empty() {
                return Err(StorageError::InvalidSchema(format!(
                    "foreign key in `{}` has no columns",
                    self.name
                )));
            }
            for &k in &fk.columns {
                if k >= self.columns.len() {
                    return Err(StorageError::InvalidSchema(format!(
                        "foreign key column index {k} out of range in `{}`",
                        self.name
                    )));
                }
            }
            if let Some(s) = fk.similarity {
                if !(s.is_finite() && s > 0.0) {
                    return Err(StorageError::InvalidSchema(format!(
                        "foreign key similarity in `{}` must be finite and positive",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Fluent builder for [`RelationSchema`].
///
/// ```
/// use banks_storage::{RelationSchema, ColumnType};
/// let writes = RelationSchema::builder("Writes")
///     .column("AuthorId", ColumnType::Text)
///     .column("PaperId", ColumnType::Text)
///     .foreign_key(&["AuthorId"], "Author")
///     .foreign_key(&["PaperId"], "Paper")
///     .build()
///     .unwrap();
/// assert_eq!(writes.foreign_keys.len(), 2);
/// ```
#[derive(Debug)]
pub struct SchemaBuilder {
    name: String,
    columns: Vec<ColumnDef>,
    primary_key: Vec<String>,
    foreign_keys: Vec<(Vec<String>, String, Option<f64>, bool)>,
}

impl SchemaBuilder {
    fn new(name: impl Into<String>) -> Self {
        SchemaBuilder {
            name: name.into(),
            columns: Vec::new(),
            primary_key: Vec::new(),
            foreign_keys: Vec::new(),
        }
    }

    /// Add a non-nullable column.
    pub fn column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef {
            name: name.into(),
            ty,
            nullable: false,
        });
        self
    }

    /// Add a nullable column.
    pub fn nullable_column(mut self, name: impl Into<String>, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef {
            name: name.into(),
            ty,
            nullable: true,
        });
        self
    }

    /// Declare the primary key by column names.
    pub fn primary_key(mut self, cols: &[&str]) -> Self {
        self.primary_key = cols.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Declare a foreign key (default similarity, non-nullable).
    pub fn foreign_key(mut self, cols: &[&str], ref_relation: impl Into<String>) -> Self {
        self.foreign_keys.push((
            cols.iter().map(|s| s.to_string()).collect(),
            ref_relation.into(),
            None,
            false,
        ));
        self
    }

    /// Declare a foreign key with an explicit similarity `s(R1,R2)`.
    ///
    /// Per the paper, smaller values mean greater proximity: e.g. the
    /// Paper→Cites link may be given a higher weight (weaker link) than
    /// Paper→Writes.
    pub fn foreign_key_with_similarity(
        mut self,
        cols: &[&str],
        ref_relation: impl Into<String>,
        similarity: f64,
    ) -> Self {
        self.foreign_keys.push((
            cols.iter().map(|s| s.to_string()).collect(),
            ref_relation.into(),
            Some(similarity),
            false,
        ));
        self
    }

    /// Declare a nullable foreign key (NULL means "no link").
    pub fn nullable_foreign_key(mut self, cols: &[&str], ref_relation: impl Into<String>) -> Self {
        self.foreign_keys.push((
            cols.iter().map(|s| s.to_string()).collect(),
            ref_relation.into(),
            None,
            true,
        ));
        self
    }

    /// Resolve names to indices and produce the schema.
    pub fn build(self) -> StorageResult<RelationSchema> {
        let mut schema = RelationSchema {
            name: self.name,
            columns: self.columns,
            primary_key: Vec::new(),
            foreign_keys: Vec::new(),
        };
        for name in &self.primary_key {
            let idx = schema.require_column(name)?;
            schema.primary_key.push(idx);
        }
        for (cols, ref_relation, similarity, nullable) in self.foreign_keys {
            let mut indices = Vec::with_capacity(cols.len());
            for name in &cols {
                indices.push(schema.require_column(name)?);
            }
            schema.foreign_keys.push(ForeignKey {
                columns: indices,
                ref_relation,
                similarity,
                nullable,
            });
        }
        schema.validate()?;
        Ok(schema)
    }
}

/// Serialize every relation schema of `db` to the schema text format.
pub(crate) fn schema_to_text(db: &Database) -> String {
    let mut out = format!("database {}\n", db.name());
    for table in db.relations() {
        let schema = table.schema();
        out.push_str(&format!("relation {}\n", schema.name));
        for col in &schema.columns {
            if col.nullable {
                out.push_str(&format!("column {} {} nullable\n", col.name, col.ty.name()));
            } else {
                out.push_str(&format!("column {} {}\n", col.name, col.ty.name()));
            }
        }
        if schema.has_primary_key() {
            out.push_str(&format!(
                "primary_key {}\n",
                schema.primary_key_names().join(" ")
            ));
        }
        for fk in &schema.foreign_keys {
            let cols: Vec<&str> = fk
                .columns
                .iter()
                .map(|&c| schema.columns[c].name.as_str())
                .collect();
            out.push_str(&format!(
                "foreign_key {} -> {}",
                cols.join(" "),
                fk.ref_relation
            ));
            if let Some(s) = fk.similarity {
                out.push_str(&format!(" similarity {s}"));
            }
            if fk.nullable {
                out.push_str(" nullable");
            }
            out.push('\n');
        }
        out.push_str("end\n");
    }
    out
}

/// Parse schema text back into an empty database with all relations
/// declared (in text order, so foreign keys resolve).
pub fn schema_from_text(text: &str) -> StorageResult<Database> {
    let mut db: Option<Database> = None;
    let mut builder: Option<RelationSchema> = None;

    fn err(line_no: usize, message: impl Into<String>) -> StorageError {
        StorageError::SchemaText {
            line: line_no,
            message: message.into(),
        }
    }

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap_or("");
        match keyword {
            "database" => {
                let name = parts.next().ok_or_else(|| err(line_no, "missing name"))?;
                db = Some(Database::new(name));
            }
            "relation" => {
                if builder.is_some() {
                    return Err(err(line_no, "nested relation (missing `end`?)"));
                }
                let name = parts.next().ok_or_else(|| err(line_no, "missing name"))?;
                builder = Some(RelationSchema {
                    name: name.to_string(),
                    columns: Vec::new(),
                    primary_key: Vec::new(),
                    foreign_keys: Vec::new(),
                });
            }
            "column" => {
                let schema = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "column outside relation"))?;
                let name = parts.next().ok_or_else(|| err(line_no, "missing name"))?;
                let ty = parts
                    .next()
                    .and_then(ColumnType::parse)
                    .ok_or_else(|| err(line_no, "missing/unknown type"))?;
                let nullable = match parts.next() {
                    None => false,
                    Some("nullable") => true,
                    Some(other) => return Err(err(line_no, format!("unexpected `{other}`"))),
                };
                schema.columns.push(ColumnDef {
                    name: name.to_string(),
                    ty,
                    nullable,
                });
            }
            "primary_key" => {
                let schema = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "primary_key outside relation"))?;
                for name in parts {
                    let idx = schema
                        .column_index(name)
                        .ok_or_else(|| err(line_no, format!("unknown column `{name}`")))?;
                    schema.primary_key.push(idx);
                }
            }
            "foreign_key" => {
                let schema = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "foreign_key outside relation"))?;
                let tokens: Vec<&str> = parts.collect();
                let arrow = tokens
                    .iter()
                    .position(|&t| t == "->")
                    .ok_or_else(|| err(line_no, "missing `->`"))?;
                if arrow == 0 || arrow + 1 >= tokens.len() {
                    return Err(err(line_no, "malformed foreign_key"));
                }
                let mut columns = Vec::with_capacity(arrow);
                for name in &tokens[..arrow] {
                    let idx = schema
                        .column_index(name)
                        .ok_or_else(|| err(line_no, format!("unknown column `{name}`")))?;
                    columns.push(idx);
                }
                let ref_relation = tokens[arrow + 1].to_string();
                let mut similarity = None;
                let mut nullable = false;
                let mut rest = tokens[arrow + 2..].iter();
                while let Some(&token) = rest.next() {
                    match token {
                        "similarity" => {
                            let v = rest
                                .next()
                                .and_then(|s| s.parse::<f64>().ok())
                                .ok_or_else(|| err(line_no, "bad similarity"))?;
                            similarity = Some(v);
                        }
                        "nullable" => nullable = true,
                        other => return Err(err(line_no, format!("unexpected `{other}`"))),
                    }
                }
                schema.foreign_keys.push(ForeignKey {
                    columns,
                    ref_relation,
                    similarity,
                    nullable,
                });
            }
            "end" => {
                let schema = builder
                    .take()
                    .ok_or_else(|| err(line_no, "`end` outside relation"))?;
                db.as_mut()
                    .ok_or_else(|| err(line_no, "relation before `database`"))?
                    .create_relation(schema)?;
            }
            other => return Err(err(line_no, format!("unknown keyword `{other}`"))),
        }
    }
    if builder.is_some() {
        return Err(err(text.lines().count(), "unterminated relation"));
    }
    db.ok_or_else(|| err(1, "no `database` line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_schema() -> RelationSchema {
        RelationSchema::builder("Paper")
            .column("PaperId", ColumnType::Text)
            .column("PaperName", ColumnType::Text)
            .primary_key(&["PaperId"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_resolves_names() {
        let s = paper_schema();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.primary_key, vec![0]);
        assert_eq!(s.column_index("PaperName"), Some(1));
        assert_eq!(s.primary_key_names(), vec!["PaperId"]);
    }

    #[test]
    fn builder_rejects_unknown_pk_column() {
        let err = RelationSchema::builder("X")
            .column("a", ColumnType::Int)
            .primary_key(&["nope"])
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::UnknownColumn { .. }));
    }

    #[test]
    fn builder_rejects_duplicate_columns() {
        let err = RelationSchema::builder("X")
            .column("a", ColumnType::Int)
            .column("a", ColumnType::Text)
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidSchema(_)));
    }

    #[test]
    fn builder_rejects_bad_similarity() {
        let err = RelationSchema::builder("Cites")
            .column("Citing", ColumnType::Text)
            .foreign_key_with_similarity(&["Citing"], "Paper", -1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidSchema(_)));
    }

    #[test]
    fn column_type_accepts() {
        assert!(ColumnType::Int.accepts(&Value::Int(1)));
        assert!(!ColumnType::Int.accepts(&Value::text("x")));
        assert!(
            ColumnType::Float.accepts(&Value::Int(1)),
            "int widens to float"
        );
        assert!(
            ColumnType::Text.accepts(&Value::Null),
            "null always accepted"
        );
        assert!(ColumnType::Bool.accepts(&Value::Bool(false)));
    }

    #[test]
    fn column_type_name_parse_roundtrip() {
        for ty in [
            ColumnType::Int,
            ColumnType::Float,
            ColumnType::Text,
            ColumnType::Bool,
        ] {
            assert_eq!(ColumnType::parse(ty.name()), Some(ty));
        }
        assert_eq!(ColumnType::parse("varchar"), None);
    }

    #[test]
    fn key_of_extracts_pk_values() {
        let s = paper_schema();
        let vals = vec![Value::text("ChakrabartiSD98"), Value::text("Mining...")];
        let key = s.key_of(&vals);
        assert_eq!(key, vec![&Value::text("ChakrabartiSD98")]);
    }

    #[test]
    fn empty_name_rejected() {
        let err = RelationSchema::builder("")
            .column("a", ColumnType::Int)
            .build();
        assert!(err.is_err());
    }

    fn sample_db() -> Database {
        let mut db = Database::new("schema-text");
        db.create_relation(
            RelationSchema::builder("Author")
                .column("Id", ColumnType::Text)
                .nullable_column("Name", ColumnType::Text)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Paper")
                .column("Id", ColumnType::Text)
                .column("Year", ColumnType::Int)
                .nullable_column("Rating", ColumnType::Float)
                .column("Published", ColumnType::Bool)
                .primary_key(&["Id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_relation(
            RelationSchema::builder("Writes")
                .column("A", ColumnType::Text)
                .column("P", ColumnType::Text)
                .primary_key(&["A", "P"])
                .foreign_key(&["A"], "Author")
                .foreign_key_with_similarity(&["P"], "Paper", 2.0)
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn schema_text_roundtrip() {
        let db = sample_db();
        let text = schema_to_text(&db);
        let parsed = schema_from_text(&text).unwrap();
        assert_eq!(parsed.name(), "schema-text");
        assert_eq!(parsed.relation_count(), 3);
        for (a, b) in db.relations().zip(parsed.relations()) {
            assert_eq!(
                a.schema(),
                b.schema(),
                "schema drift for {}",
                a.schema().name
            );
        }
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, needle) in [
            ("relation R\ncolumn A text\nend\n", "before `database`"),
            ("database x\ncolumn A text\n", "outside relation"),
            ("database x\nrelation R\ncolumn A text\n", "unterminated"),
            (
                "database x\nrelation R\ncolumn A varchar\nend\n",
                "unknown type",
            ),
            (
                "database x\nrelation R\ncolumn A text\nprimary_key B\nend\n",
                "unknown column",
            ),
            (
                "database x\nrelation R\ncolumn A text\nforeign_key A Author\nend\n",
                "->",
            ),
            ("database x\nfrobnicate\n", "unknown keyword"),
        ] {
            let result = schema_from_text(text);
            let err = result.expect_err(text).to_string();
            assert!(err.contains(needle), "`{text}` gave `{err}`");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a catalog\ndatabase x\n\nrelation R\ncolumn A text\nprimary_key A\nend\n";
        let db = schema_from_text(text).unwrap();
        assert_eq!(db.relation_count(), 1);
    }
}
