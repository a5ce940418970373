//! Quickstart: the paper's Figure 1 database, queried with "soumen
//! sunita", printing the Figure 2 connection tree.
//!
//! ```text
//! cargo run -p banks-testsuite --example quickstart
//! ```

use banks_core::Banks;
use banks_storage::{ColumnType, Database, RelationSchema, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Declare the bibliography schema of Figure 1(A): Author, Paper,
    //    and the Writes link relation with foreign keys to both.
    let mut db = Database::new("dblp-fragment");
    db.create_relation(
        RelationSchema::builder("Author")
            .column("AuthorId", ColumnType::Text)
            .column("AuthorName", ColumnType::Text)
            .primary_key(&["AuthorId"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Paper")
            .column("PaperId", ColumnType::Text)
            .column("PaperName", ColumnType::Text)
            .primary_key(&["PaperId"])
            .build()?,
    )?;
    db.create_relation(
        RelationSchema::builder("Writes")
            .column("AuthorId", ColumnType::Text)
            .column("PaperId", ColumnType::Text)
            .primary_key(&["AuthorId", "PaperId"])
            .foreign_key(&["AuthorId"], "Author")
            .foreign_key(&["PaperId"], "Paper")
            .build()?,
    )?;

    // 2. Insert the seven tuples of Figure 1(B).
    db.insert(
        "Paper",
        vec![
            Value::text("ChakrabartiSD98"),
            Value::text("Mining Surprising Patterns Using Temporal Description Length"),
        ],
    )?;
    for (id, name) in [
        ("SoumenC", "Soumen Chakrabarti"),
        ("SunitaS", "Sunita Sarawagi"),
        ("ByronD", "Byron Dom"),
    ] {
        db.insert("Author", vec![Value::text(id), Value::text(name)])?;
        db.insert(
            "Writes",
            vec![Value::text(id), Value::text("ChakrabartiSD98")],
        )?;
    }

    // 3. Build BANKS (tokenizes, indexes, and materializes the data graph)
    //    and run the keyword query of Figure 2.
    let banks = Banks::new(db)?;
    for query in ["soumen sunita", "sunita temporal", "soumen sunita byron"] {
        println!("query: {query}");
        let answers = banks.search(query)?;
        for (i, answer) in answers.iter().enumerate() {
            println!("answer {} (relevance {:.3}):", i + 1, answer.relevance);
            for line in banks.render_answer(answer).lines() {
                println!("  {line}");
            }
        }
        println!();
    }
    Ok(())
}
