//! The delta log: tuple-level operations and their wire formats.
//!
//! A [`DeltaBatch`] is an ordered list of [`TupleOp`]s — the unit of
//! atomic publication. Two serializations are supported:
//!
//! * **JSON** (typed values):
//!
//!   ```json
//!   {"ops": [
//!     {"op": "insert", "relation": "Author", "values": ["A9", "Jane Doe"]},
//!     {"op": "update", "relation": "Author", "key": ["A9"],
//!      "set": {"AuthorName": "Janet Doe"}},
//!     {"op": "delete", "relation": "Writes", "key": ["A9", "P1"]}
//!   ]}
//!   ```
//!
//!   A bare top-level array of ops is also accepted. JSON strings map to
//!   [`Value::Text`], integers to [`Value::Int`], other numbers to
//!   [`Value::Float`], booleans and nulls to their counterparts.
//!
//! * **CSV** (text values, coerced to the column type at apply time;
//!   `#` starts a comment):
//!
//!   ```text
//!   insert,Author,A9,Jane Doe
//!   update,Author,A9,AuthorName=Janet Doe
//!   delete,Writes,A9,P1
//!   ```
//!
//!   For `update`, every field between the relation and the final
//!   `column=value` field is a primary-key part.
//!
//! Referential validation (schema arity/types, primary keys, the FK
//! catalog) happens when the batch is applied — see [`crate::apply`] —
//! because it needs the live database.

use crate::error::IngestError;
use banks_storage::Value;
use banks_util::json::Json;

/// One tuple-level operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TupleOp {
    /// Insert a full tuple into `relation`.
    Insert {
        /// Target relation name.
        relation: String,
        /// Column values in schema order.
        values: Vec<Value>,
    },
    /// Update columns of the tuple with primary key `key`.
    Update {
        /// Target relation name.
        relation: String,
        /// Full primary-key value of the tuple to update.
        key: Vec<Value>,
        /// `(column name, new value)` assignments.
        set: Vec<(String, Value)>,
    },
    /// Delete the tuple with primary key `key`.
    Delete {
        /// Target relation name.
        relation: String,
        /// Full primary-key value of the tuple to delete.
        key: Vec<Value>,
    },
}

/// An ordered batch of tuple operations — the unit of atomic publication.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// Operations, applied in order.
    pub ops: Vec<TupleOp>,
}

impl DeltaBatch {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parse the JSON wire format (see module docs).
    pub fn from_json(text: &str) -> Result<DeltaBatch, IngestError> {
        let root = Json::parse(text).map_err(|e| IngestError::Parse(e.to_string()))?;
        let ops_json = match &root {
            Json::Arr(items) => items.as_slice(),
            Json::Obj(_) => root
                .get("ops")
                .and_then(Json::as_arr)
                .ok_or_else(|| IngestError::Parse("missing `ops` array".into()))?,
            _ => return Err(IngestError::Parse("expected an object or array".into())),
        };
        let mut ops = Vec::with_capacity(ops_json.len());
        for (i, op) in ops_json.iter().enumerate() {
            ops.push(Self::op_from_json(op).map_err(|e| match e {
                IngestError::Parse(m) => IngestError::Parse(format!("op #{i}: {m}")),
                other => other,
            })?);
        }
        Ok(DeltaBatch { ops })
    }

    fn op_from_json(op: &Json) -> Result<TupleOp, IngestError> {
        let kind = op
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| IngestError::Parse("missing `op` kind".into()))?;
        let relation = op
            .get("relation")
            .and_then(Json::as_str)
            .ok_or_else(|| IngestError::Parse("missing `relation`".into()))?
            .to_string();
        let values_of = |field: &str| -> Result<Vec<Value>, IngestError> {
            op.get(field)
                .and_then(Json::as_arr)
                .ok_or_else(|| IngestError::Parse(format!("missing `{field}` array")))?
                .iter()
                .map(value_from_json)
                .collect()
        };
        match kind {
            "insert" => Ok(TupleOp::Insert {
                relation,
                values: values_of("values")?,
            }),
            "delete" => Ok(TupleOp::Delete {
                relation,
                key: values_of("key")?,
            }),
            "update" => {
                let set_json = op
                    .get("set")
                    .ok_or_else(|| IngestError::Parse("missing `set` object".into()))?;
                let Json::Obj(pairs) = set_json else {
                    return Err(IngestError::Parse("`set` must be an object".into()));
                };
                if pairs.is_empty() {
                    return Err(IngestError::Parse("`set` must not be empty".into()));
                }
                let set = pairs
                    .iter()
                    .map(|(col, v)| Ok((col.clone(), value_from_json(v)?)))
                    .collect::<Result<Vec<_>, IngestError>>()?;
                Ok(TupleOp::Update {
                    relation,
                    key: values_of("key")?,
                    set,
                })
            }
            other => Err(IngestError::Parse(format!("unknown op kind `{other}`"))),
        }
    }

    /// Parse the CSV wire format (see module docs). All values are text;
    /// the applier coerces them to the target column type.
    pub fn from_csv(text: &str) -> Result<DeltaBatch, IngestError> {
        let mut ops = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields = split_csv_line(line)
                .map_err(|m| IngestError::Parse(format!("line {}: {m}", lineno + 1)))?;
            let err = |m: &str| IngestError::Parse(format!("line {}: {m}", lineno + 1));
            if fields.len() < 2 {
                return Err(err("expected `op,relation,...`"));
            }
            let relation = fields[1].clone();
            let rest = &fields[2..];
            let text_values = |fs: &[String]| fs.iter().map(Value::text).collect::<Vec<_>>();
            match fields[0].as_str() {
                "insert" => ops.push(TupleOp::Insert {
                    relation,
                    values: text_values(rest),
                }),
                "delete" => {
                    if rest.is_empty() {
                        return Err(err("delete needs key fields"));
                    }
                    ops.push(TupleOp::Delete {
                        relation,
                        key: text_values(rest),
                    });
                }
                "update" => {
                    let Some((assignment, key_fields)) = rest.split_last() else {
                        return Err(err("update needs key fields and `column=value`"));
                    };
                    let Some((col, value)) = assignment.split_once('=') else {
                        return Err(err("update's last field must be `column=value`"));
                    };
                    if key_fields.is_empty() {
                        return Err(err("update needs key fields before `column=value`"));
                    }
                    ops.push(TupleOp::Update {
                        relation,
                        key: text_values(key_fields),
                        set: vec![(col.to_string(), Value::text(value))],
                    });
                }
                other => return Err(err(&format!("unknown op `{other}`"))),
            }
        }
        Ok(DeltaBatch { ops })
    }

    /// Serialize to the JSON wire format (what `banks ingest` POSTs).
    pub fn to_json(&self) -> Json {
        let ops = self
            .ops
            .iter()
            .map(|op| match op {
                TupleOp::Insert { relation, values } => Json::obj([
                    ("op", Json::Str("insert".into())),
                    ("relation", Json::Str(relation.clone())),
                    (
                        "values",
                        Json::Arr(values.iter().map(value_to_json).collect()),
                    ),
                ]),
                TupleOp::Update { relation, key, set } => Json::obj([
                    ("op", Json::Str("update".into())),
                    ("relation", Json::Str(relation.clone())),
                    ("key", Json::Arr(key.iter().map(value_to_json).collect())),
                    (
                        "set",
                        Json::Obj(
                            set.iter()
                                .map(|(c, v)| (c.clone(), value_to_json(v)))
                                .collect(),
                        ),
                    ),
                ]),
                TupleOp::Delete { relation, key } => Json::obj([
                    ("op", Json::Str("delete".into())),
                    ("relation", Json::Str(relation.clone())),
                    ("key", Json::Arr(key.iter().map(value_to_json).collect())),
                ]),
            })
            .collect();
        Json::obj([("ops", Json::Arr(ops))])
    }
}

/// JSON scalar → storage [`Value`].
pub(crate) fn value_from_json(v: &Json) -> Result<Value, IngestError> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Uint(u) => i64::try_from(*u)
            .map(Value::Int)
            .or(Ok(Value::Float(*u as f64))),
        Json::Num(n) => Ok(Value::Float(*n)),
        Json::Str(s) => Ok(Value::Text(s.clone())),
        Json::Arr(_) | Json::Obj(_) => Err(IngestError::Parse(
            "tuple values must be JSON scalars".into(),
        )),
    }
}

/// Storage [`Value`] → JSON scalar.
pub(crate) fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Num(*f),
        Value::Text(s) => Json::Str(s.clone()),
    }
}

/// Split one CSV line into fields: `,` separates, `"` quotes (doubled to
/// escape), no embedded newlines.
fn split_csv_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    field.push('"');
                    chars.next();
                }
                '"' => quoted = false,
                c => field.push(c),
            }
        } else {
            match c {
                '"' => quoted = true,
                ',' => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
    }
    if quoted {
        return Err("unterminated quote".into());
    }
    fields.push(field);
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_all_ops() {
        let batch = DeltaBatch {
            ops: vec![
                TupleOp::Insert {
                    relation: "Author".into(),
                    values: vec![Value::text("A9"), Value::text("Jane Doe"), Value::Int(3)],
                },
                TupleOp::Update {
                    relation: "Author".into(),
                    key: vec![Value::text("A9")],
                    set: vec![
                        ("AuthorName".into(), Value::text("Janet")),
                        ("HIndex".into(), Value::Null),
                    ],
                },
                TupleOp::Delete {
                    relation: "Writes".into(),
                    key: vec![Value::text("A9"), Value::text("P1")],
                },
            ],
        };
        let text = batch.to_json().compact();
        assert_eq!(DeltaBatch::from_json(&text).unwrap(), batch);
        // Pretty form and bare-array form parse too.
        assert_eq!(
            DeltaBatch::from_json(&batch.to_json().pretty()).unwrap(),
            batch
        );
        let bare = Json::Arr(match batch.to_json() {
            Json::Obj(pairs) => pairs[0].1.as_arr().unwrap().to_vec(),
            _ => unreachable!(),
        })
        .compact();
        assert_eq!(DeltaBatch::from_json(&bare).unwrap(), batch);
    }

    #[test]
    fn json_typed_values() {
        let b = DeltaBatch::from_json(
            r#"{"ops":[{"op":"insert","relation":"R","values":[1, 2.5, true, null, "x"]}]}"#,
        )
        .unwrap();
        match &b.ops[0] {
            TupleOp::Insert { values, .. } => assert_eq!(
                values,
                &vec![
                    Value::Int(1),
                    Value::Float(2.5),
                    Value::Bool(true),
                    Value::Null,
                    Value::text("x"),
                ]
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn json_rejects_malformed_batches() {
        for bad in [
            "{",
            "7",
            r#"{"ops": 3}"#,
            r#"{"ops":[{"relation":"R"}]}"#,
            r#"{"ops":[{"op":"insert"}]}"#,
            r#"{"ops":[{"op":"teleport","relation":"R"}]}"#,
            r#"{"ops":[{"op":"insert","relation":"R","values":[[1]]}]}"#,
            r#"{"ops":[{"op":"update","relation":"R","key":["k"],"set":{}}]}"#,
            r#"{"ops":[{"op":"update","relation":"R","key":["k"],"set":[1]}]}"#,
            r#"{"ops":[{"op":"delete","relation":"R"}]}"#,
        ] {
            assert!(DeltaBatch::from_json(bad).is_err(), "{bad} must not parse");
        }
        // Errors carry the op index.
        let err = DeltaBatch::from_json(
            r#"{"ops":[{"op":"insert","relation":"R","values":[]},{"op":"wat","relation":"R"}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("op #1"), "{err}");
    }

    #[test]
    fn csv_all_ops_and_quoting() {
        let text = "\n# a comment\ninsert,Author,A9,\"Doe, Jane\"\nupdate,Author,A9,AuthorName=Janet Doe\ndelete,Writes,A9,P1\n";
        let b = DeltaBatch::from_csv(text).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.ops[0],
            TupleOp::Insert {
                relation: "Author".into(),
                values: vec![Value::text("A9"), Value::text("Doe, Jane")],
            }
        );
        assert_eq!(
            b.ops[1],
            TupleOp::Update {
                relation: "Author".into(),
                key: vec![Value::text("A9")],
                set: vec![("AuthorName".into(), Value::text("Janet Doe"))],
            }
        );
        assert_eq!(
            b.ops[2],
            TupleOp::Delete {
                relation: "Writes".into(),
                key: vec![Value::text("A9"), Value::text("P1")],
            }
        );
    }

    #[test]
    fn csv_rejects_malformed_lines() {
        for bad in [
            "teleport,R,x",
            "insert",
            "delete,R",
            "update,R,k",
            "update,R,AuthorName=x", // no key fields
            "insert,R,\"unterminated",
        ] {
            let err = DeltaBatch::from_csv(bad).unwrap_err();
            assert!(err.to_string().contains("line 1"), "{bad}: {err}");
        }
    }
}
